// Hot snapshot swap: SnapshotManager must flip generations under
// continuous reader traffic without a reader ever observing a torn or
// unmapped generation, retire displaced mappings only when their last
// reader exits, retry transient open failures with capped exponential
// backoff, and fail permanent errors immediately while the old
// generation keeps serving. (The suite name carries "Swap" so the TSan
// CI job's scoped filter picks the reader/flip races up.)

#include "serve/snapshot_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_ensemble.h"
#include "data/corpus.h"
#include "io/env.h"
#include "minhash/minhash.h"
#include "test_tmp.h"
#include "workload/generator.h"

namespace lshensemble {
namespace {

constexpr int kNumHashes = 64;

ShardedEnsembleOptions ServingOptions() {
  ShardedEnsembleOptions options;
  options.base.base.num_partitions = 4;
  options.base.base.num_hashes = kNumHashes;
  options.base.base.tree_depth = 4;
  options.base.min_delta_for_rebuild = 1 << 30;
  options.num_shards = 2;
  return options;
}

class SnapshotSwapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    family_ = HashFamily::Create(kNumHashes, 11).value();
    CorpusGenOptions gen;
    gen.num_domains = 120;
    gen.seed = 99;
    corpus_ = CorpusGenerator(gen).Generate().value();
    for (size_t i = 0; i < corpus_->size(); ++i) {
      sketches_.push_back(
          MinHash::FromValues(family_, corpus_->domain(i).values));
    }
    for (size_t j = 0; j < 10; ++j) {
      const size_t pick = (j * 11) % corpus_->size();
      specs_.push_back(
          QuerySpec{&sketches_[pick], corpus_->domain(pick).size(), 0.4});
    }
    // Three generations of growing prefixes of the corpus, each saved to
    // its own directory with its expected answers precomputed.
    for (size_t g = 0; g < 3; ++g) {
      auto index = ShardedEnsemble::Create(ServingOptions(), family_).value();
      const size_t count = 40 * (g + 1);
      for (size_t i = 0; i < count; ++i) {
        const Domain& domain = corpus_->domain(i);
        ASSERT_TRUE(
            index.Insert(domain.id, domain.size(), sketches_[i]).ok());
      }
      ASSERT_TRUE(index.Flush().ok());
      dirs_[g] = ProcessTempPath("swap_gen" + std::to_string(g));
      ASSERT_TRUE(index.SaveSnapshot(dirs_[g]).ok());
      expected_[g].resize(specs_.size());
      ASSERT_TRUE(index.BatchQuery(specs_, expected_[g].data()).ok());
    }
    ASSERT_NE(expected_[0], expected_[1]);
    ASSERT_NE(expected_[1], expected_[2]);
  }

  SnapshotManager::Options ManagerOptions() const {
    SnapshotManager::Options options;
    options.serving = ServingOptions();
    return options;
  }

  /// True when `results` is exactly one generation's answer set.
  bool IsOneGeneration(
      const std::vector<std::vector<uint64_t>>& results) const {
    return results == expected_[0] || results == expected_[1] ||
           results == expected_[2];
  }

  std::shared_ptr<const HashFamily> family_;
  std::optional<Corpus> corpus_;
  std::vector<MinHash> sketches_;
  std::vector<QuerySpec> specs_;
  std::string dirs_[3];
  std::vector<std::vector<uint64_t>> expected_[3];
};

TEST_F(SnapshotSwapTest, OpenServesAndRefusesDoubleOpen) {
  SnapshotManager manager(ManagerOptions());
  EXPECT_FALSE(manager.serving());
  EXPECT_EQ(manager.Acquire(), nullptr);
  ASSERT_TRUE(manager.Open(dirs_[0]).ok());
  EXPECT_TRUE(manager.serving());
  EXPECT_EQ(manager.epoch(), 1u);
  EXPECT_TRUE(manager.Open(dirs_[1]).IsFailedPrecondition());
  EXPECT_EQ(manager.epoch(), 1u);

  auto handle = manager.Acquire();
  ASSERT_NE(handle, nullptr);
  std::vector<std::vector<uint64_t>> outs(specs_.size());
  ASSERT_TRUE(handle->BatchQuery(specs_, outs.data()).ok());
  EXPECT_EQ(outs, expected_[0]);
}

// The core property: readers hammer Acquire()+BatchQuery while the main
// thread flips through three further generations. Every answer must be
// exactly one generation's — never a blend, never a fault — and the
// retired list must drain to zero once readers stop.
TEST_F(SnapshotSwapTest, FlipsUnderContinuousReadersStayConsistent) {
  SnapshotManager manager(ManagerOptions());
  ASSERT_TRUE(manager.Open(dirs_[0]).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> bad_results{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::vector<std::vector<uint64_t>> outs(specs_.size());
      while (!stop.load(std::memory_order_relaxed)) {
        auto handle = manager.Acquire();
        if (handle == nullptr ||
            !handle->BatchQuery(specs_, outs.data()).ok() ||
            !IsOneGeneration(outs)) {
          bad_results.fetch_add(1);
          return;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Three flips (plus the initial open = 4 epochs), spaced so readers
  // overlap every generation boundary.
  for (const size_t target : {size_t{1}, size_t{2}, size_t{0}}) {
    while (reads.load(std::memory_order_relaxed) < manager.epoch() * 5 &&
           bad_results.load() == 0) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(manager.SwapTo(dirs_[target]).ok());
  }
  EXPECT_EQ(manager.epoch(), 4u);

  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(bad_results.load(), 0);
  EXPECT_GT(reads.load(), 0u);

  // With no readers in flight every displaced generation has expired.
  EXPECT_EQ(manager.CollectRetired(), 0u);
  auto handle = manager.Acquire();
  std::vector<std::vector<uint64_t>> outs(specs_.size());
  ASSERT_TRUE(handle->BatchQuery(specs_, outs.data()).ok());
  EXPECT_EQ(outs, expected_[0]);  // the last flip's generation serves
}

// A held reader handle pins its displaced generation: the mapping stays
// serviceable after the flip and retires exactly when the handle drops.
TEST_F(SnapshotSwapTest, DisplacedGenerationRetiresWithItsLastReader) {
  SnapshotManager manager(ManagerOptions());
  ASSERT_TRUE(manager.Open(dirs_[0]).ok());
  auto pinned = manager.Acquire();
  ASSERT_NE(pinned, nullptr);

  ASSERT_TRUE(manager.SwapTo(dirs_[1]).ok());
  EXPECT_EQ(manager.epoch(), 2u);
  EXPECT_EQ(manager.retired_count(), 1u);  // pinned by `pinned`

  // The old handle still answers as generation 0 after the flip.
  std::vector<std::vector<uint64_t>> outs(specs_.size());
  ASSERT_TRUE(pinned->BatchQuery(specs_, outs.data()).ok());
  EXPECT_EQ(outs, expected_[0]);
  // New acquires see generation 1.
  ASSERT_TRUE(manager.Acquire()->BatchQuery(specs_, outs.data()).ok());
  EXPECT_EQ(outs, expected_[1]);

  pinned.reset();
  EXPECT_EQ(manager.retired_count(), 0u);
}

TEST_F(SnapshotSwapTest, TransientOpenErrorsRetryWithCappedBackoff) {
  SnapshotManager::Options options = ManagerOptions();
  std::vector<uint64_t> backoffs;
  options.backoff_sleep = [&](uint64_t us) { backoffs.push_back(us); };

  SnapshotManager manager(std::move(options));
  const Status status = manager.SwapTo(ProcessTempPath("swap_no_such_dir"));
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_NE(status.message().find("5 attempts"), std::string::npos)
      << status.ToString();
  // Doubling from 1 ms: one sleep before each retry.
  EXPECT_EQ(backoffs, (std::vector<uint64_t>{1000, 2000, 4000, 8000}));
  EXPECT_FALSE(manager.serving());
}

// A snapshot that appears while SwapTo is backing off (publisher racing
// the subscriber) is picked up by a later attempt.
TEST_F(SnapshotSwapTest, RetryPicksUpLatePublishedSnapshot) {
  const std::string dir = ProcessTempPath("swap_late_publish");
  SnapshotManager::Options options = ManagerOptions();
  size_t sleeps = 0;
  options.backoff_sleep = [&](uint64_t) {
    if (sleeps++ == 0) {
      // Publish the snapshot during the first backoff window.
      auto index = ShardedEnsemble::Create(ServingOptions(), family_).value();
      for (size_t i = 0; i < 40; ++i) {
        const Domain& domain = corpus_->domain(i);
        ASSERT_TRUE(
            index.Insert(domain.id, domain.size(), sketches_[i]).ok());
      }
      ASSERT_TRUE(index.Flush().ok());
      ASSERT_TRUE(index.SaveSnapshot(dir).ok());
    }
  };

  SnapshotManager manager(std::move(options));
  ASSERT_TRUE(manager.Open(dir).ok());
  EXPECT_EQ(sleeps, 1u);
  EXPECT_EQ(manager.epoch(), 1u);
  std::vector<std::vector<uint64_t>> outs(specs_.size());
  ASSERT_TRUE(manager.Acquire()->BatchQuery(specs_, outs.data()).ok());
  EXPECT_EQ(outs, expected_[0]);
}

// Corruption is permanent: no retries, no flip, the old generation keeps
// serving untouched.
TEST_F(SnapshotSwapTest, PermanentErrorFailsFastAndKeepsServing) {
  const std::string bad_dir = ProcessTempPath("swap_corrupt");
  ASSERT_TRUE(Env::Default()->CreateDirectories(bad_dir).ok());
  ASSERT_TRUE(
      WriteFileAtomic(Env::Default(), bad_dir + "/MANIFEST", "garbage").ok());

  SnapshotManager::Options options = ManagerOptions();
  std::vector<uint64_t> backoffs;
  options.backoff_sleep = [&](uint64_t us) { backoffs.push_back(us); };
  SnapshotManager manager(std::move(options));
  ASSERT_TRUE(manager.Open(dirs_[2]).ok());

  const Status status = manager.SwapTo(bad_dir);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_TRUE(backoffs.empty());  // permanent errors never retry
  EXPECT_EQ(manager.epoch(), 1u);
  std::vector<std::vector<uint64_t>> outs(specs_.size());
  ASSERT_TRUE(manager.Acquire()->BatchQuery(specs_, outs.data()).ok());
  EXPECT_EQ(outs, expected_[2]);
}

}  // namespace
}  // namespace lshensemble
