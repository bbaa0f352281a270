// Deadline-aware degradation and admission control. The contracts:
//
//  * An already-expired deadline fails the batch with DeadlineExceeded
//    BEFORE any shard or partition work.
//  * A comfortably-future deadline changes nothing: results are
//    byte-identical to the no-deadline run at every layer.
//  * max_in_flight_batches sheds calls past the bound with an immediate
//    Unavailable (no shard work), and admitted batches are unaffected.
//  * BatchSearch's multi-round descent holds ONE admission slot — it
//    must complete under a bound of 1 instead of self-deadlocking.
//  * The stats overload reports the gather split (shards_gathered /
//    shards_skipped) and shard-summed probe counters.

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "core/dynamic_ensemble.h"
#include "core/sharded_ensemble.h"
#include "core/topk.h"
#include "data/corpus.h"
#include "minhash/minhash.h"
#include "util/clock.h"
#include "workload/generator.h"

namespace lshensemble {
namespace {

constexpr int kNumHashes = 64;
/// An absolute steady-clock instant that is always in the past (0 means
/// "no deadline", so 1ns past the epoch is the earliest expired one).
constexpr uint64_t kExpired = 1;
/// Far enough out that no test body can cross it.
constexpr uint64_t kFarFutureMicros = 120 * 1000 * 1000;

ShardedEnsembleOptions ShardOptions(size_t num_shards) {
  ShardedEnsembleOptions options;
  options.base.base.num_partitions = 4;
  options.base.base.num_hashes = kNumHashes;
  options.base.base.tree_depth = 4;
  options.base.min_delta_for_rebuild = 1 << 30;
  options.num_shards = num_shards;
  return options;
}

class DeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    family_ = HashFamily::Create(kNumHashes, 17).value();
    CorpusGenOptions gen;
    gen.num_domains = 200;
    gen.seed = 606;
    corpus_ = CorpusGenerator(gen).Generate().value();
    for (size_t i = 0; i < corpus_->size(); ++i) {
      sketches_.push_back(
          MinHash::FromValues(family_, corpus_->domain(i).values));
    }
  }

  void Fill(ShardedEnsemble* index, size_t count) const {
    for (size_t i = 0; i < count; ++i) {
      const Domain& domain = corpus_->domain(i);
      ASSERT_TRUE(
          index->Insert(domain.id, domain.size(), sketches_[i]).ok());
    }
    ASSERT_TRUE(index->Flush().ok());
  }

  std::vector<QuerySpec> Specs(size_t count, uint64_t deadline_ns) const {
    std::vector<QuerySpec> specs;
    for (size_t j = 0; j < count; ++j) {
      const size_t pick = (j * 31) % corpus_->size();
      specs.push_back(QuerySpec{&sketches_[pick],
                                corpus_->domain(pick).size(), 0.5,
                                deadline_ns});
    }
    return specs;
  }

  std::shared_ptr<const HashFamily> family_;
  std::optional<Corpus> corpus_;
  std::vector<MinHash> sketches_;
};

TEST_F(DeadlineTest, ClockHelpers) {
  const uint64_t now = SteadyNowNanos();
  EXPECT_GT(now, 0u);
  EXPECT_FALSE(DeadlineExpired(0));  // 0 = no deadline, never expires
  EXPECT_TRUE(DeadlineExpired(kExpired));
  EXPECT_FALSE(DeadlineExpired(DeadlineAfterMicros(kFarFutureMicros)));
  EXPECT_GE(DeadlineAfterMicros(1000), now + 1000 * 1000);
}

TEST_F(DeadlineTest, ExpiredDeadlineFailsEveryLayerBeforeWork) {
  // Dynamic engine.
  auto dynamic = DynamicLshEnsemble::Create(ShardOptions(1).base, family_)
                     .value();
  for (size_t i = 0; i < 50; ++i) {
    const Domain& domain = corpus_->domain(i);
    ASSERT_TRUE(
        dynamic.Insert(domain.id, domain.size(), sketches_[i]).ok());
  }
  const std::vector<QuerySpec> expired = Specs(8, kExpired);
  std::vector<std::vector<uint64_t>> outs(expired.size());
  QueryContext ctx;
  EXPECT_TRUE(dynamic.BatchQuery(expired, &ctx, outs.data())
                  .IsDeadlineExceeded());

  // Sharded scatter/gather.
  auto sharded = ShardedEnsemble::Create(ShardOptions(3), family_).value();
  Fill(&sharded, 100);
  EXPECT_TRUE(
      sharded.BatchQuery(expired, outs.data()).IsDeadlineExceeded());

  // Top-k descent, on three shards and on one.
  std::vector<TopKQuery> topk = {
      TopKQuery{&sketches_[0], corpus_->domain(0).size(), kExpired}};
  std::vector<TopKResult> ranked;
  EXPECT_TRUE(sharded.BatchSearch(topk, 5, &ranked).IsDeadlineExceeded());
  auto one_shard = ShardedEnsemble::Create(ShardOptions(1), family_).value();
  Fill(&one_shard, 100);
  EXPECT_TRUE(one_shard.BatchSearch(topk, 5, &ranked).IsDeadlineExceeded());
}

TEST_F(DeadlineTest, FutureDeadlineIsInvisibleInResults) {
  auto index = ShardedEnsemble::Create(ShardOptions(3), family_).value();
  Fill(&index, corpus_->size());

  const std::vector<QuerySpec> unbounded = Specs(16, 0);
  const std::vector<QuerySpec> bounded =
      Specs(16, DeadlineAfterMicros(kFarFutureMicros));
  std::vector<std::vector<uint64_t>> expected(unbounded.size());
  std::vector<std::vector<uint64_t>> actual(bounded.size());
  ASSERT_TRUE(index.BatchQuery(unbounded, expected.data()).ok());
  ASSERT_TRUE(index.BatchQuery(bounded, actual.data()).ok());
  EXPECT_EQ(actual, expected);

  std::vector<TopKQuery> plain, dated;
  for (size_t j = 0; j < 8; ++j) {
    const size_t pick = (j * 53) % corpus_->size();
    plain.push_back(TopKQuery{&sketches_[pick], corpus_->domain(pick).size()});
    dated.push_back(TopKQuery{&sketches_[pick], corpus_->domain(pick).size(),
                              DeadlineAfterMicros(kFarFutureMicros)});
  }
  std::vector<std::vector<TopKResult>> ranked_plain(plain.size());
  std::vector<std::vector<TopKResult>> ranked_dated(dated.size());
  ASSERT_TRUE(index.BatchSearch(plain, 5, ranked_plain.data()).ok());
  ASSERT_TRUE(index.BatchSearch(dated, 5, ranked_dated.data()).ok());
  EXPECT_EQ(ranked_dated, ranked_plain);
}

TEST_F(DeadlineTest, StatsOverloadReportsGatherSplitAndProbes) {
  auto index = ShardedEnsemble::Create(ShardOptions(3), family_).value();
  Fill(&index, corpus_->size());

  const std::vector<QuerySpec> specs = Specs(12, 0);
  std::vector<std::vector<uint64_t>> plain(specs.size());
  std::vector<std::vector<uint64_t>> with_stats(specs.size());
  std::vector<QueryStats> stats(specs.size());
  ASSERT_TRUE(index.BatchQuery(specs, plain.data()).ok());
  ASSERT_TRUE(index.BatchQuery(specs, with_stats.data(), stats.data()).ok());
  EXPECT_EQ(with_stats, plain);  // collecting stats never changes results

  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(stats[i].shards_gathered, 3u) << "query " << i;
    EXPECT_EQ(stats[i].shards_skipped, 0u) << "query " << i;
    EXPECT_GT(stats[i].partitions_probed + stats[i].partitions_pruned, 0u)
        << "query " << i;
  }
}

// Partial-results mode cannot un-expire an already-expired deadline: with
// every shard skipped there is nothing to gather, so the batch still
// fails with DeadlineExceeded (partial mode returns OK only when at
// least one shard finished).
TEST_F(DeadlineTest, PartialModeStillFailsWhenNothingGathers) {
  ShardedEnsembleOptions options = ShardOptions(3);
  options.partial_results = true;
  auto index = ShardedEnsemble::Create(options, family_).value();
  Fill(&index, 100);
  const std::vector<QuerySpec> expired = Specs(6, kExpired);
  std::vector<std::vector<uint64_t>> outs(expired.size());
  std::vector<QueryStats> stats(expired.size());
  EXPECT_TRUE(index.BatchQuery(expired, outs.data(), stats.data())
                  .IsDeadlineExceeded());
  // And a future deadline gathers everything, flagging nothing.
  const std::vector<QuerySpec> specs =
      Specs(6, DeadlineAfterMicros(kFarFutureMicros));
  ASSERT_TRUE(index.BatchQuery(specs, outs.data(), stats.data()).ok());
  for (const QueryStats& s : stats) {
    EXPECT_EQ(s.shards_gathered, 3u);
    EXPECT_EQ(s.shards_skipped, 0u);
  }
}

// ------------------------------------------------- admission control

TEST_F(DeadlineTest, AdmissionShedsAtTheBoundAndRecovers) {
  ShardedEnsembleOptions options = ShardOptions(2);
  options.max_in_flight_batches = 2;
  auto index = ShardedEnsemble::Create(options, family_).value();
  Fill(&index, 100);
  const std::vector<QuerySpec> specs = Specs(8, 0);
  std::vector<std::vector<uint64_t>> baseline(specs.size());
  ASSERT_TRUE(index.BatchQuery(specs, baseline.data()).ok());

  auto slot1 = index.TryAdmit();
  ASSERT_TRUE(slot1.ok());
  auto slot2 = index.TryAdmit();
  ASSERT_TRUE(slot2.ok());
  EXPECT_EQ(index.in_flight_batches(), 2u);

  // At capacity: explicit admission and both serving entry points shed.
  const auto shed = index.TryAdmit();
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable());
  EXPECT_NE(shed.status().message().find("capacity"), std::string::npos);
  std::vector<std::vector<uint64_t>> outs(specs.size());
  EXPECT_TRUE(index.BatchQuery(specs, outs.data()).IsUnavailable());
  std::vector<TopKQuery> topk = {
      TopKQuery{&sketches_[0], corpus_->domain(0).size()}};
  std::vector<TopKResult> ranked;
  EXPECT_TRUE(index.BatchSearch(topk, 3, &ranked).IsUnavailable());

  // Releasing one slot readmits, and the admitted batch is byte-identical
  // to the unloaded baseline — shedding around it left no trace.
  slot1.value() = ShardedEnsemble::AdmissionSlot();
  EXPECT_EQ(index.in_flight_batches(), 1u);
  ASSERT_TRUE(index.BatchQuery(specs, outs.data()).ok());
  EXPECT_EQ(outs, baseline);
  EXPECT_EQ(index.in_flight_batches(), 1u);  // the call released its slot
}

TEST_F(DeadlineTest, UnboundedAdmissionCountsNothing) {
  auto index = ShardedEnsemble::Create(ShardOptions(2), family_).value();
  Fill(&index, 40);
  auto slot = index.TryAdmit();
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(index.in_flight_batches(), 0u);  // slots only count under a bound
}

// The descent re-enters the scatter path every round; it must run under
// ONE admission covering the whole search, so a bound of 1 completes
// instead of self-deadlocking on its own slot.
TEST_F(DeadlineTest, BatchSearchCompletesUnderBoundOfOne) {
  ShardedEnsembleOptions bounded = ShardOptions(2);
  bounded.max_in_flight_batches = 1;
  auto index = ShardedEnsemble::Create(bounded, family_).value();
  auto reference = ShardedEnsemble::Create(ShardOptions(2), family_).value();
  Fill(&index, corpus_->size());
  Fill(&reference, corpus_->size());

  std::vector<TopKQuery> queries;
  for (size_t j = 0; j < 12; ++j) {
    const size_t pick = (j * 41) % corpus_->size();
    queries.push_back(
        TopKQuery{&sketches_[pick], corpus_->domain(pick).size()});
  }
  std::vector<std::vector<TopKResult>> expected(queries.size());
  std::vector<std::vector<TopKResult>> actual(queries.size());
  ASSERT_TRUE(reference.BatchSearch(queries, 5, expected.data()).ok());
  ASSERT_TRUE(index.BatchSearch(queries, 5, actual.data()).ok());
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(index.in_flight_batches(), 0u);
}

TEST_F(DeadlineTest, MovedSlotReleasesExactlyOnce) {
  ShardedEnsembleOptions options = ShardOptions(2);
  options.max_in_flight_batches = 1;
  auto index = ShardedEnsemble::Create(options, family_).value();
  {
    auto slot = index.TryAdmit();
    ASSERT_TRUE(slot.ok());
    ShardedEnsemble::AdmissionSlot moved = std::move(slot).value();
    EXPECT_EQ(index.in_flight_batches(), 1u);  // the move didn't release
    ShardedEnsemble::AdmissionSlot moved_again(std::move(moved));
    EXPECT_EQ(index.in_flight_batches(), 1u);
  }
  EXPECT_EQ(index.in_flight_batches(), 0u);  // one release at scope exit
  EXPECT_TRUE(index.TryAdmit().ok());
}

}  // namespace
}  // namespace lshensemble
