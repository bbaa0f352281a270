#include "lsh/lsh_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "minhash/minhash.h"
#include "util/random.h"

namespace lshensemble {
namespace {

std::shared_ptr<const HashFamily> Family(int m = 256, uint64_t seed = 3) {
  return HashFamily::Create(m, seed).value();
}

MinHash RandomSketch(const std::shared_ptr<const HashFamily>& family,
                     Rng& rng, size_t n = 50) {
  MinHash sketch(family);
  for (size_t i = 0; i < n; ++i) sketch.Update(rng.Next());
  return sketch;
}

// Reference implementation: a domain collides at (b, r) iff one of the
// first b trees agrees on the first r (truncated) hash values.
bool BruteForceCollides(const MinHash& a, const MinHash& b, int tree_depth,
                        int num_b, int num_r) {
  const auto& av = a.values();
  const auto& bv = b.values();
  for (int t = 0; t < num_b; ++t) {
    bool match = true;
    for (int d = 0; d < num_r; ++d) {
      const size_t pos = static_cast<size_t>(t) * tree_depth + d;
      if ((av[pos] >> 29) != (bv[pos] >> 29)) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

TEST(LshForestTest, CreateRejectsBadParams) {
  EXPECT_FALSE(LshForest::Create(0, 8).ok());
  EXPECT_FALSE(LshForest::Create(32, 0).ok());
  EXPECT_TRUE(LshForest::Create(32, 8).ok());
}

TEST(LshForestTest, LifecycleEnforced) {
  auto family = Family();
  auto forest = LshForest::Create(32, 8).value();
  Rng rng(1);
  auto sketch = RandomSketch(family, rng);

  std::vector<uint64_t> out;
  // Query before Index() fails.
  EXPECT_TRUE(forest.Query(sketch, 1, 1, &out).IsFailedPrecondition());
  ASSERT_TRUE(forest.Add(1, sketch).ok());
  forest.Index();
  EXPECT_TRUE(forest.indexed());
  // Add after Index() fails.
  EXPECT_TRUE(forest.Add(2, sketch).IsFailedPrecondition());
  // Index() is idempotent.
  forest.Index();
  EXPECT_EQ(forest.size(), 1u);
}

TEST(LshForestTest, RejectsShortSignatures) {
  auto forest = LshForest::Create(32, 8).value();  // needs 256 hash values
  auto short_sig =
      MinHash::FromValues(Family(64), std::vector<uint64_t>{1, 2, 3});
  EXPECT_TRUE(forest.Add(1, short_sig).IsInvalidArgument());
}

TEST(LshForestTest, RejectsOutOfRangeBr) {
  auto family = Family();
  auto forest = LshForest::Create(32, 8).value();
  Rng rng(2);
  ASSERT_TRUE(forest.Add(1, RandomSketch(family, rng)).ok());
  forest.Index();
  auto query = RandomSketch(family, rng);
  std::vector<uint64_t> out;
  EXPECT_TRUE(forest.Query(query, 0, 1, &out).IsInvalidArgument());
  EXPECT_TRUE(forest.Query(query, 33, 1, &out).IsInvalidArgument());
  EXPECT_TRUE(forest.Query(query, 1, 0, &out).IsInvalidArgument());
  EXPECT_TRUE(forest.Query(query, 1, 9, &out).IsInvalidArgument());
  EXPECT_TRUE(forest.Query(query, 32, 8, &out).ok());
}

TEST(LshForestTest, SelfQueryAlwaysCollides) {
  auto family = Family();
  auto forest = LshForest::Create(32, 8).value();
  Rng rng(3);
  std::vector<MinHash> sketches;
  for (uint64_t id = 0; id < 20; ++id) {
    sketches.push_back(RandomSketch(family, rng));
    ASSERT_TRUE(forest.Add(id, sketches.back()).ok());
  }
  forest.Index();
  for (uint64_t id = 0; id < 20; ++id) {
    std::vector<uint64_t> out;
    ASSERT_TRUE(forest.Query(sketches[id], 1, 8, &out).ok());
    EXPECT_NE(std::find(out.begin(), out.end(), id), out.end());
  }
}

// Exhaustive equivalence against the brute-force banding definition, over
// the full (b, r) grid.
class LshForestEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LshForestEquivalence, MatchesBruteForce) {
  const int b = std::get<0>(GetParam());
  const int r = std::get<1>(GetParam());
  const int tree_depth = 4;
  const int num_trees = 16;
  auto family = Family(64, 11);

  Rng rng(777);
  auto forest = LshForest::Create(num_trees, tree_depth).value();
  std::vector<MinHash> sketches;
  constexpr int kDomains = 200;
  for (uint64_t id = 0; id < kDomains; ++id) {
    // Low-cardinality domains over a small universe so prefix collisions
    // actually happen at every depth.
    MinHash sketch(family);
    const size_t size = 1 + rng.NextBounded(4);
    for (size_t v = 0; v < size; ++v) sketch.Update(rng.NextBounded(12));
    sketches.push_back(sketch);
    ASSERT_TRUE(forest.Add(id, sketches.back()).ok());
  }
  forest.Index();

  MinHash query(family);
  for (int v = 0; v < 3; ++v) query.Update(rng.NextBounded(12));

  std::vector<uint64_t> got;
  ASSERT_TRUE(forest.Query(query, b, r, &got).ok());
  std::set<uint64_t> got_set(got.begin(), got.end());
  EXPECT_EQ(got_set.size(), got.size()) << "duplicate ids returned";

  std::set<uint64_t> expected;
  for (uint64_t id = 0; id < kDomains; ++id) {
    if (BruteForceCollides(query, sketches[id], tree_depth, b, r)) {
      expected.insert(id);
    }
  }
  EXPECT_EQ(got_set, expected) << "b=" << b << " r=" << r;
}

INSTANTIATE_TEST_SUITE_P(FullGrid, LshForestEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 8, 16),
                                            ::testing::Values(1, 2, 3, 4)));

TEST(LshForestTest, DeeperPrefixIsMoreSelective) {
  auto family = Family();
  auto forest = LshForest::Create(32, 8).value();
  Rng rng(5);
  for (uint64_t id = 0; id < 500; ++id) {
    MinHash sketch(family);
    const size_t size = 1 + rng.NextBounded(5);
    for (size_t v = 0; v < size; ++v) sketch.Update(rng.NextBounded(30));
    ASSERT_TRUE(forest.Add(id, sketch).ok());
  }
  forest.Index();

  MinHash query(family);
  query.Update(7);
  query.Update(12);

  size_t previous = SIZE_MAX;
  for (int r = 1; r <= 8; ++r) {
    std::vector<uint64_t> out;
    ASSERT_TRUE(forest.Query(query, 32, r, &out).ok());
    EXPECT_LE(out.size(), previous) << "r=" << r;
    previous = out.size();
  }
}

TEST(LshForestTest, MoreTreesFindMore) {
  auto family = Family();
  auto forest = LshForest::Create(32, 8).value();
  Rng rng(6);
  for (uint64_t id = 0; id < 500; ++id) {
    MinHash sketch(family);
    const size_t size = 1 + rng.NextBounded(5);
    for (size_t v = 0; v < size; ++v) sketch.Update(rng.NextBounded(30));
    ASSERT_TRUE(forest.Add(id, sketch).ok());
  }
  forest.Index();

  MinHash query(family);
  query.Update(7);
  query.Update(12);

  size_t previous = 0;
  for (int b = 1; b <= 32; ++b) {
    std::vector<uint64_t> out;
    ASSERT_TRUE(forest.Query(query, b, 4, &out).ok());
    EXPECT_GE(out.size(), previous) << "b=" << b;
    previous = out.size();
  }
}

TEST(LshForestTest, DuplicateSignaturesBothReturned) {
  auto family = Family();
  auto forest = LshForest::Create(32, 8).value();
  auto sketch =
      MinHash::FromValues(family, std::vector<uint64_t>{1, 2, 3, 4});
  ASSERT_TRUE(forest.Add(100, sketch).ok());
  ASSERT_TRUE(forest.Add(200, sketch).ok());
  forest.Index();
  std::vector<uint64_t> out;
  ASSERT_TRUE(forest.Query(sketch, 1, 8, &out).ok());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint64_t>{100, 200}));
}

TEST(LshForestTest, EmptyForestQueriesCleanly) {
  auto family = Family();
  auto forest = LshForest::Create(32, 8).value();
  forest.Index();
  Rng rng(9);
  std::vector<uint64_t> out;
  ASSERT_TRUE(forest.Query(RandomSketch(family, rng), 32, 8, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(LshForestTest, QueryAppendsAndMemoryReported) {
  auto family = Family();
  auto forest = LshForest::Create(32, 8).value();
  auto sketch = MinHash::FromValues(family, std::vector<uint64_t>{1});
  ASSERT_TRUE(forest.Add(5, sketch).ok());
  forest.Index();
  std::vector<uint64_t> out = {999};  // pre-existing content preserved
  ASSERT_TRUE(forest.Query(sketch, 1, 8, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 999u);
  EXPECT_EQ(out[1], 5u);
  EXPECT_GT(forest.MemoryBytes(), 0u);
}

TEST(LshForestTest, ProbeValidatesArguments) {
  auto family = Family(64);
  auto forest = LshForest::Create(8, 8).value();
  Rng rng(31);
  ASSERT_TRUE(forest.Add(1, RandomSketch(family, rng)).ok());
  forest.Index();
  const MinHash probe_sketch = RandomSketch(family, rng);
  LshForest::ProbeScratch scratch;
  std::vector<uint64_t> out;
  EXPECT_TRUE(
      forest.Probe(probe_sketch, 8, 8, nullptr, &out).IsInvalidArgument());
  EXPECT_TRUE(
      forest.Probe(probe_sketch, 8, 8, &scratch, nullptr).IsInvalidArgument());
  EXPECT_TRUE(forest.Probe(probe_sketch, 8, 8, &scratch, &out).ok());
}

// The same scratch reused across repeated probes (which engages the
// slot-0 range cache) and across different forests must keep answering
// exactly like a fresh scratch.
TEST(LshForestTest, SharedScratchMatchesFreshScratch) {
  auto family = Family(256);
  Rng rng(33);
  auto forest_a = LshForest::Create(32, 8).value();
  auto forest_b = LshForest::Create(32, 8).value();
  std::vector<MinHash> sketches;
  for (uint64_t id = 0; id < 120; ++id) {
    sketches.push_back(RandomSketch(family, rng, 30 + id % 40));
    ASSERT_TRUE(forest_a.Add(id, sketches.back()).ok());
    if (id % 2 == 0) {
      ASSERT_TRUE(forest_b.Add(id, sketches.back()).ok());
    }
  }
  forest_a.Index();
  forest_b.Index();

  LshForest::ProbeScratch shared;
  for (int round = 0; round < 3; ++round) {
    for (size_t qi = 0; qi < sketches.size(); qi += 7) {
      for (const auto* forest : {&forest_a, &forest_b}) {
        const int b = 1 + static_cast<int>(qi) % 32;
        const int r = 1 + static_cast<int>(qi) % 8;
        std::vector<uint64_t> expected, actual;
        LshForest::ProbeScratch fresh;
        ASSERT_TRUE(
            forest->Probe(sketches[qi], b, r, &fresh, &expected).ok());
        ASSERT_TRUE(
            forest->Probe(sketches[qi], b, r, &shared, &actual).ok());
        EXPECT_EQ(actual, expected)
            << "round " << round << " query " << qi << " b=" << b
            << " r=" << r;
      }
    }
  }
  EXPECT_GT(shared.MemoryBytes(), 0u);
}

// Probing the same forest thousands of times with one scratch exercises
// epoch-stamped dedup across many probes.
TEST(LshForestTest, RepeatedProbesWithWarmScratchStayCorrect) {
  auto family = Family(256);
  Rng rng(35);
  auto forest = LshForest::Create(32, 8).value();
  std::vector<MinHash> sketches;
  for (uint64_t id = 0; id < 200; ++id) {
    sketches.push_back(RandomSketch(family, rng, 25 + id % 30));
    ASSERT_TRUE(forest.Add(id, sketches.back()).ok());
  }
  forest.Index();

  LshForest::ProbeScratch warm;
  for (int round = 0; round < 20; ++round) {
    for (size_t qi = 0; qi < sketches.size(); qi += 11) {
      std::vector<uint64_t> expected, actual;
      ASSERT_TRUE(forest.Query(sketches[qi], 32, 4, &expected).ok());
      ASSERT_TRUE(forest.Probe(sketches[qi], 32, 4, &warm, &actual).ok());
      ASSERT_EQ(actual, expected) << "round " << round << " query " << qi;
    }
  }
}

LshForest RandomForest(const std::shared_ptr<const HashFamily>& family,
                       Rng& rng, size_t n) {
  auto forest = LshForest::Create(8, 4).value();
  for (uint64_t id = 0; id < n; ++id) {
    EXPECT_TRUE(forest.Add(id, RandomSketch(family, rng, 5)).ok());
  }
  forest.Index();
  return forest;
}

// A warm scratch never allocates again: its buffers are sized to the
// forest's (num_trees, tree_depth), so probes with any (b, r), over any
// forest no larger than the one that warmed it, reuse them as they are.
TEST(LshForestTest, WarmScratchNeverGrows) {
  auto family = Family(32);
  Rng rng(91);
  std::vector<LshForest> forests;
  for (size_t n : {1, 100, 5000}) {
    forests.push_back(RandomForest(family, rng, n));
  }
  std::vector<MinHash> queries;
  for (int i = 0; i < 16; ++i) queries.push_back(RandomSketch(family, rng, 5));

  LshForest::ProbeScratch scratch;
  std::vector<uint64_t> out;
  ASSERT_TRUE(forests.back().Probe(queries[0], 8, 4, &scratch, &out).ok());
  const size_t warm = scratch.MemoryBytes();
  EXPECT_GT(warm, 0u);
  for (int i = 0; i < 1200; ++i) {
    const int b = 1 + i % 8;
    const int r = 1 + (i / 8) % 4;
    out.clear();
    ASSERT_TRUE(forests[i % forests.size()]
                    .Probe(queries[i % queries.size()], b, r, &scratch, &out)
                    .ok());
    ASSERT_EQ(scratch.MemoryBytes(), warm)
        << "probe " << i << " (b=" << b << ", r=" << r << ")";
  }
}

}  // namespace
}  // namespace lshensemble
