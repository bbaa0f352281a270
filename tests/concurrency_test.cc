// Thread-safety claims under real concurrency: LshEnsemble::Query,
// ShardedEnsemble::BatchSearch and the Tuner's shared memo cache are
// documented as safe for concurrent readers; DynamicLshEnsemble for concurrent
// queries between mutations. These tests hammer them from many threads
// and require bit-identical agreement with serial execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "core/dynamic_ensemble.h"
#include "core/lsh_ensemble.h"
#include "core/sharded_ensemble.h"
#include "core/topk.h"
#include "core/tuning.h"
#include "io/ensemble_io.h"
#include "workload/generator.h"

namespace lshensemble {
namespace {

constexpr int kNumHashes = 128;
constexpr int kThreads = 8;

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CorpusGenOptions gen;
    gen.num_domains = 3000;
    gen.max_size = 10000;
    gen.seed = 314;
    corpus_ = CorpusGenerator(gen).Generate().value();
    family_ = HashFamily::Create(kNumHashes, 15).value();

    LshEnsembleOptions options;
    options.num_partitions = 8;
    options.num_hashes = kNumHashes;
    options.tree_depth = 4;
    LshEnsembleBuilder builder(options, family_);
    for (size_t i = 0; i < corpus_->size(); ++i) {
      const Domain& domain = corpus_->domain(i);
      ASSERT_TRUE(builder
                      .Add(domain.id, domain.size(),
                           MinHash::FromValues(family_, domain.values))
                      .ok());
    }
    ensemble_ = std::move(builder).Build().value();

    for (size_t qi = 0; qi < corpus_->size(); qi += 101) {
      query_indices_.push_back(qi);
    }
  }

  std::vector<uint64_t> SerialAnswer(size_t qi, double t_star) const {
    const Domain& query = corpus_->domain(qi);
    std::vector<uint64_t> out;
    EXPECT_TRUE(ensemble_
                    ->Query(MinHash::FromValues(family_, query.values),
                            query.size(), t_star, &out)
                    .ok());
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The same corpus on a two-shard serving layer (the top-k engine),
  /// partitioned like ensemble_.
  ShardedEnsemble BuildSharded() const {
    ShardedEnsembleOptions options;
    options.base.base = ensemble_->options();
    options.base.min_delta_for_rebuild = 1 << 30;
    options.num_shards = 2;
    auto index = ShardedEnsemble::Create(options, family_).value();
    for (size_t i = 0; i < corpus_->size(); ++i) {
      const Domain& domain = corpus_->domain(i);
      EXPECT_TRUE(index
                      .Insert(domain.id, domain.size(),
                              MinHash::FromValues(family_, domain.values))
                      .ok());
    }
    EXPECT_TRUE(index.Flush().ok());
    return index;
  }

  std::optional<Corpus> corpus_;
  std::shared_ptr<const HashFamily> family_;
  std::optional<LshEnsemble> ensemble_;
  std::vector<size_t> query_indices_;
};

TEST_F(ConcurrencyTest, ParallelQueriesMatchSerial) {
  const double t_star = 0.5;
  std::vector<std::vector<uint64_t>> expected;
  expected.reserve(query_indices_.size());
  for (size_t qi : query_indices_) {
    expected.push_back(SerialAnswer(qi, t_star));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the queries from a different starting offset.
      for (size_t step = 0; step < query_indices_.size(); ++step) {
        const size_t pos = (step + t) % query_indices_.size();
        const Domain& query = corpus_->domain(query_indices_[pos]);
        std::vector<uint64_t> out;
        if (!ensemble_
                 ->Query(MinHash::FromValues(family_, query.values),
                         query.size(), t_star, &out)
                 .ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        std::sort(out.begin(), out.end());
        if (out != expected[pos]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Many threads, each driving its own BatchQuery() with a private
// QueryContext against the shared immutable index, must agree with the
// serial single-query answers exactly (BatchQuery is documented as
// producing the same per-query output as Query()).
TEST_F(ConcurrencyTest, ConcurrentBatchQueriesMatchSerial) {
  const double t_star = 0.5;
  std::vector<MinHash> sketches;
  sketches.reserve(query_indices_.size());
  std::vector<QuerySpec> specs;
  std::vector<std::vector<uint64_t>> expected;
  for (size_t qi : query_indices_) {
    const Domain& query = corpus_->domain(qi);
    sketches.push_back(MinHash::FromValues(family_, query.values));
    specs.push_back(QuerySpec{&sketches.back(), query.size(), t_star});
    expected.push_back(SerialAnswer(qi, t_star));
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread owns its context and output buffers, reused across
      // rounds; thread t rotates the batch to vary chunk boundaries.
      QueryContext ctx;
      std::vector<QuerySpec> rotated(specs.size());
      std::vector<std::vector<uint64_t>> outs(specs.size());
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < specs.size(); ++i) {
          rotated[i] = specs[(i + t + round) % specs.size()];
        }
        if (!ensemble_->BatchQuery(rotated, &ctx, outs.data()).ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < specs.size(); ++i) {
          std::vector<uint64_t> sorted = outs[i];
          std::sort(sorted.begin(), sorted.end());
          if (sorted != expected[(i + t + round) % specs.size()]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// Batched and single-query traffic hammering the same index at once: the
// shard pool inside each context and the shared tuner cache must not
// interfere across the two entry points.
TEST_F(ConcurrencyTest, MixedBatchAndSingleQueryTraffic) {
  const double t_star = 0.3;
  std::vector<MinHash> sketches;
  sketches.reserve(query_indices_.size());
  std::vector<QuerySpec> specs;
  std::vector<std::vector<uint64_t>> expected;
  for (size_t qi : query_indices_) {
    const Domain& query = corpus_->domain(qi);
    sketches.push_back(MinHash::FromValues(family_, query.values));
    specs.push_back(QuerySpec{&sketches.back(), query.size(), t_star});
    expected.push_back(SerialAnswer(qi, t_star));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (t % 2 == 0) {
        QueryContext ctx;
        std::vector<std::vector<uint64_t>> outs(specs.size());
        for (int round = 0; round < 3; ++round) {
          if (!ensemble_->BatchQuery(specs, &ctx, outs.data()).ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          for (size_t i = 0; i < specs.size(); ++i) {
            std::vector<uint64_t> sorted = outs[i];
            std::sort(sorted.begin(), sorted.end());
            if (sorted != expected[i]) mismatches.fetch_add(1);
          }
        }
      } else {
        for (int round = 0; round < 3; ++round) {
          for (size_t i = 0; i < specs.size(); ++i) {
            std::vector<uint64_t> out;
            if (!ensemble_
                     ->Query(*specs[i].query, specs[i].query_size, t_star,
                             &out)
                     .ok()) {
              mismatches.fetch_add(1);
              continue;
            }
            std::sort(out.begin(), out.end());
            if (out != expected[i]) mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrencyTest, ParallelQueriesAcrossThresholds) {
  // Different thresholds exercise different tuner cache keys concurrently.
  const std::vector<double> thresholds = {0.1, 0.3, 0.5, 0.7, 0.9};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const double t_star = thresholds[t % thresholds.size()];
      for (size_t qi : query_indices_) {
        const Domain& query = corpus_->domain(qi);
        std::vector<uint64_t> out;
        if (!ensemble_
                 ->Query(MinHash::FromValues(family_, query.values),
                         query.size(), t_star, &out)
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ConcurrencyTest, TunerCacheIsThreadSafe) {
  Tuner::Options options;
  options.max_b = 32;
  options.max_r = 8;
  auto tuner = Tuner::Create(options).value();
  std::atomic<int> disagreements{0};
  // All threads request overlapping (x/q, t*) keys; results must agree
  // with a serially computed reference.
  std::vector<TunedParams> reference;
  for (int i = 0; i < 40; ++i) {
    reference.push_back(
        tuner->Tune(100.0 + i * 37.0, 25.0, 0.05 * (i % 19 + 1)));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 40; ++i) {
          const TunedParams params =
              tuner->Tune(100.0 + i * 37.0, 25.0, 0.05 * (i % 19 + 1));
          if (params.b != reference[i].b || params.r != reference[i].r) {
            disagreements.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(disagreements.load(), 0);
}

// An engine rebuilt over the same records has the same partitions, so it
// asks the tuner for the same keys; the memo the old engine warmed is
// shared, and the rebuilt engine's first batch tunes nothing.
TEST_F(ConcurrencyTest, RebuiltEngineHitsWhatTheOldEngineWarmed) {
  std::vector<MinHash> sketches;
  for (size_t qi : query_indices_) {
    sketches.push_back(MinHash::FromValues(family_, corpus_->domain(qi).values));
  }
  std::vector<QuerySpec> specs;
  for (double t_star : {0.3, 0.5, 0.8}) {
    for (size_t i = 0; i < query_indices_.size(); ++i) {
      specs.push_back(QuerySpec{
          &sketches[i], corpus_->domain(query_indices_[i]).size(), t_star});
    }
  }
  std::vector<std::vector<uint64_t>> expected(specs.size());
  uint64_t misses = Tuner::TotalMisses();
  {
    const ShardedEnsemble old_engine = BuildSharded();
    ASSERT_TRUE(old_engine.BatchQuery(specs, expected.data()).ok());
  }
  EXPECT_GT(Tuner::TotalMisses() - misses, 0u);

  const ShardedEnsemble rebuilt = BuildSharded();
  std::vector<std::vector<uint64_t>> outs(specs.size());
  misses = Tuner::TotalMisses();
  ASSERT_TRUE(rebuilt.BatchQuery(specs, outs.data()).ok());
  EXPECT_EQ(Tuner::TotalMisses() - misses, 0u);
  EXPECT_EQ(outs, expected);
}

// Readers re-tune a fixed key set while a writer streams other keys into
// the same memo sets, evicting the readers' entries and rewriting their
// slots. A reader that overlaps a write must see a miss (and recompute),
// never a mix of two entries: every answer equals the serial one bit for
// bit.
TEST_F(ConcurrencyTest, TunerMemoNeverReturnsTornEntries) {
  Tuner::Options options;
  options.max_b = 6;
  options.max_r = 3;
  options.integration_nodes = 16;
  auto tuner = Tuner::Create(options).value();
  constexpr double kQ = 100.0;
  struct Key {
    double x;
    double t_star;
  };
  std::vector<Key> read_keys;
  std::set<size_t> sets;
  for (int i = 0; i < 8; ++i) {
    read_keys.push_back(Key{2.0 * kQ, 0.1 + 0.1 * i});
    sets.insert(Tuner::CacheSet(read_keys.back().x, kQ, read_keys.back().t_star));
  }
  std::vector<Key> write_keys;
  for (int j = 0; j < 20; ++j) {
    for (int i = 0; i <= 10000; ++i) {
      const Key key{(3.0 + 0.25 * j) * kQ, i / 10000.0};
      if (sets.count(Tuner::CacheSet(key.x, kQ, key.t_star)) > 0) {
        write_keys.push_back(key);
      }
    }
  }
  ASSERT_GE(write_keys.size(), 4 * sets.size());
  std::vector<TunedParams> reference;
  for (const Key& key : read_keys) {
    reference.push_back(tuner->Tune(key.x, kQ, key.t_star));
  }

  std::atomic<bool> readers_done{false};
  std::atomic<int> writer_passes{0};
  std::atomic<int> torn{0};
  std::thread writer([&] {
    while (!readers_done.load() || writer_passes.load() == 0) {
      for (const Key& key : write_keys) tuner->Tune(key.x, kQ, key.t_star);
      writer_passes.fetch_add(1);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int round = 0; round < 20000; ++round) {
        for (size_t i = 0; i < read_keys.size(); ++i) {
          const TunedParams got =
              tuner->Tune(read_keys[i].x, kQ, read_keys[i].t_star);
          const TunedParams& want = reference[i];
          if (got.b != want.b || got.r != want.r ||
              std::bit_cast<uint64_t>(got.fp) !=
                  std::bit_cast<uint64_t>(want.fp) ||
              std::bit_cast<uint64_t>(got.fn) !=
                  std::bit_cast<uint64_t>(want.fn)) {
            torn.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  readers_done.store(true);
  writer.join();
  EXPECT_GT(writer_passes.load(), 0);
  EXPECT_EQ(torn.load(), 0);
}

TEST_F(ConcurrencyTest, ParallelTopKSearchesAgree) {
  const ShardedEnsemble index = BuildSharded();
  const Domain& query = corpus_->domain(404);
  const MinHash sketch = MinHash::FromValues(family_, query.values);
  const TopKQuery one{&sketch, query.size()};
  const std::span<const TopKQuery> batch(&one, 1);
  std::vector<TopKResult> expected;
  ASSERT_TRUE(index.BatchSearch(batch, 10, &expected).ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        std::vector<TopKResult> results;
        if (!index.BatchSearch(batch, 10, &results).ok() ||
            results != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrencyTest, LoadedIndexServesConcurrentQueries) {
  std::string image;
  ASSERT_TRUE(SerializeEnsemble(*ensemble_, &image).ok());
  auto loaded = DeserializeEnsemble(image);
  ASSERT_TRUE(loaded.ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t qi : query_indices_) {
        const Domain& query = corpus_->domain(qi);
        std::vector<uint64_t> from_loaded;
        if (!loaded
                 ->Query(MinHash::FromValues(family_, query.values),
                         query.size(), 0.6, &from_loaded)
                 .ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        std::sort(from_loaded.begin(), from_loaded.end());
        if (from_loaded != SerialAnswer(qi, 0.6)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// One shared mid-rebuild dynamic index (built ensemble + delta +
// tombstones), hammered by per-thread BatchQuery calls with per-thread
// contexts: the batched delta scan reads shared records while the inner
// engine leases shards from each thread's own context — TSan checks the
// shared-scratch invariants, the equality checks the results.
TEST_F(ConcurrencyTest, DynamicBatchQueryConcurrentReaders) {
  DynamicEnsembleOptions options;
  options.base.num_partitions = 4;
  options.base.num_hashes = kNumHashes;
  options.base.tree_depth = 4;
  options.min_delta_for_rebuild = 1000000;
  auto index = DynamicLshEnsemble::Create(options, family_).value();
  for (size_t i = 0; i < 600; ++i) {
    const Domain& domain = corpus_->domain(i);
    ASSERT_TRUE(index
                    .Insert(domain.id, domain.size(),
                            MinHash::FromValues(family_, domain.values))
                    .ok());
    if (i == 399) {
      ASSERT_TRUE(index.Flush().ok());
    }
  }
  for (size_t i : {5ul, 100ul, 450ul}) {
    ASSERT_TRUE(index.Remove(corpus_->domain(i).id).ok());
  }
  ASSERT_GT(index.delta_size(), 0u);
  ASSERT_GT(index.tombstone_count(), 0u);

  // Two-pass spec build: sketches filled before any address is taken.
  std::vector<size_t> batch_indices;
  for (size_t qi = 0; qi < 600; qi += 20) batch_indices.push_back(qi);
  std::vector<MinHash> sketches;
  for (size_t qi : batch_indices) {
    sketches.push_back(
        MinHash::FromValues(family_, corpus_->domain(qi).values));
  }
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < batch_indices.size(); ++i) {
    specs.push_back(QuerySpec{
        &sketches[i], corpus_->domain(batch_indices[i]).size(), 0.5});
  }
  // Serial reference with a private context.
  std::vector<std::vector<uint64_t>> expected(specs.size());
  {
    QueryContext ctx;
    ASSERT_TRUE(index.BatchQuery(specs, &ctx, expected.data()).ok());
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryContext ctx;  // per-thread, reused across rounds
      std::vector<QuerySpec> rotated(specs.size());
      std::vector<std::vector<uint64_t>> outs(specs.size());
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < specs.size(); ++i) {
          rotated[i] = specs[(i + t + round) % specs.size()];
        }
        if (!index.BatchQuery(rotated, &ctx, outs.data()).ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < specs.size(); ++i) {
          if (outs[i] != expected[(i + t + round) % specs.size()]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Concurrent lockstep top-k descents over one shared serving layer: each
// thread drives its own BatchSearch, whose waves pin their own shard
// scratch, and must get the serial answers.
TEST_F(ConcurrencyTest, ConcurrentBatchTopKSearchesAgree) {
  const ShardedEnsemble index = BuildSharded();
  std::vector<size_t> batch_indices;
  for (size_t qi = 0; qi < 10 * 271; qi += 271) batch_indices.push_back(qi);
  std::vector<MinHash> sketches;
  for (size_t qi : batch_indices) {
    sketches.push_back(
        MinHash::FromValues(family_, corpus_->domain(qi).values));
  }
  std::vector<TopKQuery> queries;
  for (size_t i = 0; i < batch_indices.size(); ++i) {
    queries.push_back(TopKQuery{
        &sketches[i], corpus_->domain(batch_indices[i]).size()});
  }
  std::vector<std::vector<TopKResult>> expected(queries.size());
  ASSERT_TRUE(index.BatchSearch(queries, 10, expected.data()).ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<std::vector<TopKResult>> outs(queries.size());
      for (int round = 0; round < 3; ++round) {
        if (!index.BatchSearch(queries, 10, outs.data()).ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < queries.size(); ++i) {
          if (outs[i] != expected[i]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrencyTest, DynamicEnsembleConcurrentReads) {
  DynamicEnsembleOptions options;
  options.base.num_partitions = 4;
  options.base.num_hashes = kNumHashes;
  options.base.tree_depth = 4;
  auto index = DynamicLshEnsemble::Create(options, family_).value();
  for (size_t i = 0; i < 500; ++i) {
    const Domain& domain = corpus_->domain(i);
    ASSERT_TRUE(index
                    .Insert(domain.id, domain.size(),
                            MinHash::FromValues(family_, domain.values))
                    .ok());
    if (i == 250) {
      ASSERT_TRUE(index.Flush().ok());
    }
  }
  // Half indexed, half in the delta; query concurrently (no mutation).
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t qi = 0; qi < 500; qi += 53) {
        const Domain& query = corpus_->domain(qi);
        std::vector<uint64_t> out;
        if (!index
                 .Query(MinHash::FromValues(family_, query.values),
                        query.size(), 0.9, &out)
                 .ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Every query domain is itself live, so it must be found.
        if (std::find(out.begin(), out.end(), query.id) == out.end()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace lshensemble
