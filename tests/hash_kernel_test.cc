// Parity tests for the runtime-dispatched SIMD kernels: every available
// table (scalar, avx2, avx512) must produce bit-identical signatures and
// identical probe-refine ranges, and serialized sketch bytes must match
// the golden values captured from the seed scalar implementation — the
// wire format never depends on the host CPU.

#include "minhash/hash_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "data/domain.h"
#include "data/sketcher.h"
#include "core/lsh_ensemble.h"
#include "minhash/hash_family.h"
#include "minhash/minhash.h"
#include "util/hashing.h"
#include "util/random.h"

namespace lshensemble {
namespace {

std::vector<const HashKernelOps*> AvailableKernels() {
  std::vector<const HashKernelOps*> kernels = {&ScalarKernelOps()};
  if (const HashKernelOps* avx2 = Avx2KernelOps()) kernels.push_back(avx2);
  if (const HashKernelOps* avx512 = Avx512KernelOps()) {
    kernels.push_back(avx512);
  }
  return kernels;
}

std::vector<uint64_t> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> values(n);
  for (uint64_t& v : values) v = rng.Next();
  return values;
}

// The reference: the seed implementation's per-value scalar loop.
std::vector<uint64_t> ReferenceMins(const HashFamily& family,
                                    const std::vector<uint64_t>& values) {
  std::vector<uint64_t> mins(family.num_hashes(), MinHash::kEmptySlot);
  for (uint64_t v : values) {
    ScalarKernelOps().update_one(family.multipliers().data(),
                                 family.offsets().data(), mins.size(), v,
                                 mins.data());
  }
  return mins;
}

TEST(HashKernelTest, AllKernelsBitIdentical) {
  // Odd sizes exercise every tail path (m % 16, m % 8, m % 4).
  for (const int m : {1, 3, 4, 7, 8, 9, 16, 31, 64, 127, 128, 250, 256}) {
    auto family = HashFamily::Create(m, /*seed=*/m * 977 + 5).value();
    const std::vector<uint64_t> values = RandomValues(700, m * 31 + 1);
    const std::vector<uint64_t> reference = ReferenceMins(*family, values);

    for (const HashKernelOps* ops : AvailableKernels()) {
      SCOPED_TRACE(::testing::Message() << ops->name << " m=" << m);
      std::vector<uint64_t> one(m, MinHash::kEmptySlot);
      for (uint64_t v : values) {
        ops->update_one(family->multipliers().data(),
                        family->offsets().data(), one.size(), v, one.data());
      }
      EXPECT_EQ(one, reference);

      std::vector<uint64_t> batch(m, MinHash::kEmptySlot);
      ops->update_batch(family->multipliers().data(),
                        family->offsets().data(), batch.size(),
                        values.data(), values.size(), batch.data());
      EXPECT_EQ(batch, reference);
    }
  }
}

TEST(HashKernelTest, CountCollisionsParityAcrossKernels) {
  // Signature pairs with planted collisions and empty-slot runs; every
  // kernel must reproduce the brute-force count exactly (it feeds the
  // Jaccard estimator, so an off-by-one would skew every ranking).
  for (const int m : {1, 3, 4, 7, 8, 9, 16, 31, 64, 127, 128, 250, 256}) {
    Rng rng(m * 131 + 7);
    std::vector<uint64_t> a(m), b(m);
    for (int i = 0; i < m; ++i) {
      a[i] = rng.Next() % kMersennePrime61;
      switch (rng.Next() % 4) {
        case 0:  b[i] = a[i]; break;                      // collision
        case 1:  b[i] = rng.Next() % kMersennePrime61; break;
        case 2:  a[i] = MinHash::kEmptySlot; b[i] = MinHash::kEmptySlot;
                 break;                                   // both empty: no hit
        default: b[i] = MinHash::kEmptySlot; break;
      }
    }
    size_t expected = 0;
    for (int i = 0; i < m; ++i) {
      if (a[i] == b[i] && a[i] != MinHash::kEmptySlot) ++expected;
    }
    for (const HashKernelOps* ops : AvailableKernels()) {
      SCOPED_TRACE(::testing::Message() << ops->name << " m=" << m);
      EXPECT_EQ(ops->count_collisions(a.data(), b.data(), a.size()),
                expected);
    }
  }
}

TEST(HashKernelTest, CountCollisionsManyMatchesSingle) {
  // The batch form must agree with per-pair counts for every kernel, at
  // odd batch lengths (the record-pair unroll has a tail) and odd m, with
  // the rows taken out of order.
  for (const int m : {1, 4, 7, 8, 16, 128, 250, 256}) {
    Rng rng(m * 997 + 3);
    std::vector<uint64_t> query(m);
    for (auto& v : query) {
      v = (rng.Next() % 8 == 0) ? MinHash::kEmptySlot
                                : rng.Next() % kMersennePrime61;
    }
    for (const size_t n : {1ul, 2ul, 3ul, 5ul, 17ul}) {
      std::vector<uint64_t> arena(n * m);
      for (size_t j = 0; j < n; ++j) {
        for (int i = 0; i < m; ++i) {
          // Plant frequent collisions so counts are non-trivial.
          arena[j * m + i] = (rng.Next() % 3 == 0)
                                 ? query[i]
                                 : rng.Next() % kMersennePrime61;
        }
      }
      std::vector<const uint64_t*> rows(n);
      std::vector<uint32_t> expected(n);
      for (size_t j = 0; j < n; ++j) {
        rows[j] = arena.data() + (n - 1 - j) * m;
        expected[j] = static_cast<uint32_t>(
            ScalarKernelOps().count_collisions(query.data(), rows[j], m));
      }
      for (const HashKernelOps* ops : AvailableKernels()) {
        SCOPED_TRACE(::testing::Message()
                     << ops->name << " m=" << m << " n=" << n);
        std::vector<uint32_t> counts(n, 12345);
        ops->count_collisions_many(query.data(), rows.data(), m, n,
                                   counts.data());
        EXPECT_EQ(counts, expected);
      }
    }
  }
}

TEST(HashKernelTest, EstimateJaccardMatchesBruteForce) {
  auto family = HashFamily::Create(128, 77).value();
  const std::vector<uint64_t> shared = RandomValues(400, 11);
  std::vector<uint64_t> left(shared.begin(), shared.begin() + 300);
  std::vector<uint64_t> right(shared.begin() + 100, shared.end());
  const MinHash a = MinHash::FromValues(family, left);
  const MinHash b = MinHash::FromValues(family, right);
  size_t collisions = 0;
  for (size_t i = 0; i < a.values().size(); ++i) {
    if (a.values()[i] == b.values()[i] &&
        a.values()[i] != MinHash::kEmptySlot) {
      ++collisions;
    }
  }
  const double expected = static_cast<double>(collisions) / 128.0;
  EXPECT_EQ(a.EstimateJaccard(b).value(), expected);
  EXPECT_EQ(b.EstimateJaccard(a).value(), expected);
}

TEST(HashKernelTest, BatchSplitsArbitrarily) {
  // Feeding a batch in uneven pieces (including chunk-boundary straddles)
  // must land on the same signature.
  auto family = HashFamily::Create(96, 77).value();
  const std::vector<uint64_t> values = RandomValues(1000, 4242);
  const std::vector<uint64_t> reference = ReferenceMins(*family, values);

  for (const HashKernelOps* ops : AvailableKernels()) {
    SCOPED_TRACE(ops->name);
    std::vector<uint64_t> mins(96, MinHash::kEmptySlot);
    size_t offset = 0;
    for (const size_t piece : {1ul, 7ul, 255ul, 256ul, 257ul, 224ul}) {
      ops->update_batch(family->multipliers().data(),
                        family->offsets().data(), mins.size(),
                        values.data() + offset, piece, mins.data());
      offset += piece;
    }
    ASSERT_EQ(offset, values.size());
    EXPECT_EQ(mins, reference);
  }
}

TEST(HashKernelTest, MinHashUpdateBatchMatchesPerValueUpdate) {
  auto family = HashFamily::Create(128, 3).value();
  const std::vector<uint64_t> values = RandomValues(300, 99);

  MinHash streamed(family);
  for (uint64_t v : values) streamed.Update(v);
  MinHash batched(family);
  batched.UpdateBatch(values);
  EXPECT_EQ(streamed.values(), batched.values());

  const MinHash from_values = MinHash::FromValues(family, values);
  EXPECT_EQ(streamed.values(), from_values.values());
}

// ------------------------------------------------- golden serialization --

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(HashKernelTest, GoldenSerializedBytesUnchanged) {
  // Captured from the seed scalar implementation (pre-SIMD): family seed
  // 42, values Mix64(i * 2654435761 + 17) for i in [0, 1000). Any kernel
  // or CPU that changes these bytes breaks index compatibility.
  struct Golden {
    int m;
    uint64_t fnv;
    uint64_t mins0;
    uint64_t mins_last;
  };
  const Golden goldens[] = {
      {8, 0x15ef6fbdb6a83d59ULL, 585304598357091ULL, 1703590829371666ULL},
      {64, 0xf275a5192089e9abULL, 585304598357091ULL, 1413858160149110ULL},
      {128, 0x2e4290e58379460eULL, 585304598357091ULL, 5005722929477981ULL},
      {256, 0xcf363f454233f9ceULL, 585304598357091ULL, 1724601424230197ULL},
  };
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 1000; ++i) {
    values.push_back(Mix64(i * 2654435761ULL + 17));
  }
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.m);
    auto family = HashFamily::Create(golden.m, 42).value();
    const MinHash sketch = MinHash::FromValues(family, values);
    EXPECT_EQ(sketch.values().front(), golden.mins0);
    EXPECT_EQ(sketch.values().back(), golden.mins_last);
    std::string blob;
    sketch.SerializeTo(&blob);
    EXPECT_EQ(Fnv1a(blob), golden.fnv);
  }
}

// ------------------------------------------------------- prefix refine --

TEST(HashKernelTest, RefinePrefixRangeParity) {
  Rng rng(2024);
  for (const int depth : {2, 4, 8, 9, 12}) {
    // A small alphabet forces plenty of duplicate prefixes, so refined
    // ranges are regularly non-trivial and both linear and binary paths
    // run (slot-0 runs of length > 8 trigger the binary search).
    const size_t n = 400;
    std::vector<std::vector<uint32_t>> rows(n, std::vector<uint32_t>(depth));
    for (auto& row : rows) {
      for (uint32_t& k : row) k = static_cast<uint32_t>(rng.NextInRange(0, 3));
    }
    std::sort(rows.begin(), rows.end());
    std::vector<uint32_t> arena;
    for (const auto& row : rows) {
      arena.insert(arena.end(), row.begin(), row.end());
    }

    for (int trial = 0; trial < 200; ++trial) {
      std::vector<uint32_t> prefix(depth);
      for (uint32_t& k : prefix) {
        k = static_cast<uint32_t>(rng.NextInRange(0, 3));
      }
      // Slot-0 equal range, as Probe() computes before refining.
      size_t lo = 0, hi = n;
      while (lo < n && rows[lo][0] < prefix[0]) ++lo;
      hi = lo;
      while (hi < n && rows[hi][0] == prefix[0]) ++hi;

      const int r = static_cast<int>(rng.NextInRange(2, depth));
      for (const HashKernelOps* ops : AvailableKernels()) {
        SCOPED_TRACE(::testing::Message()
                     << ops->name << " depth=" << depth << " r=" << r);
        size_t got_lo = lo, got_hi = hi;
        ops->refine_prefix_range(arena.data(), depth, prefix.data(), r,
                                 &got_lo, &got_hi);
        size_t want_lo = lo, want_hi = hi;
        ScalarKernelOps().refine_prefix_range(arena.data(), depth,
                                              prefix.data(), r, &want_lo,
                                              &want_hi);
        EXPECT_EQ(got_lo, want_lo);
        EXPECT_EQ(got_hi, want_hi);
        // Cross-check the scalar result against a brute-force filter.
        size_t brute_lo = hi, brute_hi = hi;
        for (size_t pos = lo; pos < hi; ++pos) {
          const bool match = std::equal(prefix.begin(), prefix.begin() + r,
                                        rows[pos].begin());
          if (match) {
            brute_lo = std::min(brute_lo, pos);
            brute_hi = pos + 1;
          }
        }
        if (brute_lo >= brute_hi) {
          EXPECT_EQ(want_lo, want_hi);
        } else {
          EXPECT_EQ(want_lo, brute_lo);
          EXPECT_EQ(want_hi, brute_hi);
        }
      }
    }
  }
}

// ---------------------------------------------------- lower bound many --

// Cross-kernel parity for the lockstep slot-0 descent: every available
// table must return the exact equal ranges of trees 0..count-1 across
// array sizes, batch counts (vector main loop + scalar tail) and
// duplicate-heavy key distributions. The output arrays start out filled
// with garbage: lo/hi are outputs only.
TEST(HashKernelTest, LowerBoundManyParity) {
  Rng rng(77);
  const std::vector<size_t> counts = {1, 7, 8, 16, 37};
  const size_t num_trees = counts.back();
  for (const uint32_t n : {1u, 2u, 3u, 7u, 8u, 31u, 52u, 400u, 4099u}) {
    // Alphabet 2 forces giant runs, 16 mixes runs and misses, and the
    // full-width draw makes nearly every key distinct (and most lookups
    // misses).
    for (const uint64_t alphabet : {uint64_t{2}, uint64_t{16},
                                    uint64_t{1} << 32}) {
      std::vector<uint32_t> arena(num_trees * n);
      for (size_t t = 0; t < num_trees; ++t) {
        uint32_t* first = arena.data() + t * n;
        for (uint32_t i = 0; i < n; ++i) {
          first[i] =
              static_cast<uint32_t>(rng.NextInRange(0, alphabet - 1));
        }
        std::sort(first, first + n);
      }
      // Batch sizes around the 8/16-lane vector widths, plus tails.
      for (const size_t count : counts) {
        std::vector<uint32_t> keys(count), want_lo(count), want_hi(count);
        for (size_t i = 0; i < count; ++i) {
          // Mix present keys with near-misses (+-1 probes run edges).
          const uint32_t* first = arena.data() + i * n;
          uint32_t key = first[rng.NextInRange(0, n - 1)];
          if (rng.NextInRange(0, 2) == 0) {
            key += static_cast<uint32_t>(rng.NextInRange(0, 2)) - 1;
          }
          keys[i] = key;
          want_lo[i] = static_cast<uint32_t>(
              std::lower_bound(first, first + n, key) - first);
          want_hi[i] = static_cast<uint32_t>(
              std::upper_bound(first, first + n, key) - first);
        }
        for (const HashKernelOps* ops : AvailableKernels()) {
          SCOPED_TRACE(::testing::Message()
                       << ops->name << " n=" << n << " alphabet=" << alphabet
                       << " count=" << count);
          std::vector<uint32_t> got_lo(count, 0xDEADBEEFu);
          std::vector<uint32_t> got_hi(count, 0xDEADBEEFu);
          ops->lower_bound_many(arena.data(), n, keys.data(), count,
                                got_lo.data(), got_hi.data());
          EXPECT_EQ(got_lo, want_lo);
          EXPECT_EQ(got_hi, want_hi);
        }
      }
    }
  }
}

// --------------------------------------------------- parallel sketcher --

Corpus SmallCorpus(size_t domains, uint64_t seed) {
  Rng rng(seed);
  Corpus corpus;
  for (size_t d = 0; d < domains; ++d) {
    std::vector<uint64_t> values(rng.NextInRange(1, 300));
    for (uint64_t& v : values) v = rng.Next();
    std::string name = "d";
    name += std::to_string(d);
    corpus.Add(Domain::FromValues(d + 1, std::move(name), std::move(values)));
  }
  return corpus;
}

TEST(ParallelSketcherTest, MatchesPerDomainFromValues) {
  auto family = HashFamily::Create(64, 11).value();
  const Corpus corpus = SmallCorpus(64, 8);
  for (const bool parallel : {false, true}) {
    SketcherOptions options;
    options.parallel = parallel;
    const ParallelSketcher sketcher(family, options);
    const std::vector<MinHash> sketches = sketcher.SketchCorpus(corpus);
    ASSERT_EQ(sketches.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      const MinHash expected =
          MinHash::FromValues(family, corpus.domain(i).values);
      EXPECT_EQ(sketches[i].values(), expected.values());
    }
  }
}

TEST(ParallelSketcherTest, SketchSubsetOnlyTouchesRequested) {
  auto family = HashFamily::Create(32, 12).value();
  const Corpus corpus = SmallCorpus(20, 9);
  std::vector<MinHash> out(corpus.size());
  const std::vector<size_t> indices = {1, 5, 19};
  const ParallelSketcher sketcher(family);
  sketcher.SketchSubset(corpus, indices, &out);
  for (size_t i = 0; i < corpus.size(); ++i) {
    const bool requested =
        std::find(indices.begin(), indices.end(), i) != indices.end();
    EXPECT_EQ(out[i].valid(), requested);
    if (requested) {
      const MinHash expected =
          MinHash::FromValues(family, corpus.domain(i).values);
      EXPECT_EQ(out[i].values(), expected.values());
    }
  }
}

TEST(ParallelSketcherTest, AddCorpusBuildsQueryableEnsemble) {
  auto family = HashFamily::Create(128, 13).value();
  const Corpus corpus = SmallCorpus(200, 10);
  LshEnsembleOptions options;
  options.num_hashes = 128;
  options.num_partitions = 4;
  LshEnsembleBuilder builder(options, family);
  const ParallelSketcher sketcher(family);
  ASSERT_TRUE(AddCorpus(corpus, sketcher, &builder).ok());
  auto ensemble = std::move(builder).Build();
  ASSERT_TRUE(ensemble.ok());
  EXPECT_EQ(ensemble->size(), corpus.size());

  // A corpus domain used as its own query must come back as a candidate.
  const MinHash query =
      MinHash::FromValues(family, corpus.domain(3).values);
  std::vector<uint64_t> ids;
  ASSERT_TRUE(ensemble
                  ->Query(query, corpus.domain(3).size(), /*t_star=*/0.9,
                          &ids)
                  .ok());
  EXPECT_NE(std::find(ids.begin(), ids.end(), corpus.domain(3).id),
            ids.end());
}

TEST(HashKernelTest, ActiveKernelIsAvailable) {
  const HashKernelOps& active = ActiveKernelOps();
  EXPECT_NE(active.name, nullptr);
  EXPECT_NE(active.update_one, nullptr);
  EXPECT_NE(active.update_batch, nullptr);
  EXPECT_NE(active.refine_prefix_range, nullptr);
  EXPECT_NE(active.lower_bound_many, nullptr);
}

}  // namespace
}  // namespace lshensemble
