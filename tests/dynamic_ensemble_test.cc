#include "core/dynamic_ensemble.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "baselines/exact_search.h"
#include "core/threshold.h"
#include "data/corpus.h"
#include "util/random.h"
#include "workload/generator.h"

namespace lshensemble {
namespace {

constexpr int kNumHashes = 128;

DynamicEnsembleOptions SmallOptions() {
  DynamicEnsembleOptions options;
  options.base.num_partitions = 4;
  options.base.num_hashes = kNumHashes;
  options.base.tree_depth = 4;
  options.min_delta_for_rebuild = 64;
  return options;
}

class DynamicEnsembleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    family_ = HashFamily::Create(kNumHashes, 21).value();
    CorpusGenOptions gen;
    gen.num_domains = 600;
    gen.seed = 123;
    corpus_ = CorpusGenerator(gen).Generate().value();
  }

  MinHash Sketch(size_t index) const {
    return MinHash::FromValues(family_, corpus_->domain(index).values);
  }

  Status InsertDomain(DynamicLshEnsemble& index, size_t i) {
    const Domain& domain = corpus_->domain(i);
    return index.Insert(domain.id, domain.size(), Sketch(i));
  }

  std::shared_ptr<const HashFamily> family_;
  std::optional<Corpus> corpus_;
};

TEST_F(DynamicEnsembleTest, CreateValidation) {
  EXPECT_FALSE(DynamicLshEnsemble::Create(SmallOptions(), nullptr).ok());
  DynamicEnsembleOptions bad = SmallOptions();
  bad.base.num_hashes = 64;  // mismatches the 128-hash family
  EXPECT_FALSE(DynamicLshEnsemble::Create(bad, family_).ok());
  EXPECT_TRUE(DynamicLshEnsemble::Create(SmallOptions(), family_).ok());
}

TEST_F(DynamicEnsembleTest, InsertIsImmediatelySearchable) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  ASSERT_TRUE(InsertDomain(*&index, 7).ok());
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.delta_size(), 1u);
  EXPECT_EQ(index.indexed(), nullptr);  // no flush yet

  std::vector<uint64_t> results;
  ASSERT_TRUE(
      index.Query(Sketch(7), corpus_->domain(7).size(), 0.9, &results).ok());
  EXPECT_NE(std::find(results.begin(), results.end(), corpus_->domain(7).id),
            results.end());
}

TEST_F(DynamicEnsembleTest, DuplicateInsertRejected) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  ASSERT_TRUE(InsertDomain(index, 0).ok());
  EXPECT_TRUE(InsertDomain(index, 0).IsInvalidArgument());
}

TEST_F(DynamicEnsembleTest, InvalidInsertArguments) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  EXPECT_TRUE(index.Insert(1, 0, Sketch(0)).IsInvalidArgument());
  EXPECT_TRUE(index.Insert(1, 5, MinHash()).IsInvalidArgument());
  auto other_family = HashFamily::Create(kNumHashes, 999).value();
  EXPECT_TRUE(index
                  .Insert(1, 5,
                          MinHash::FromValues(other_family,
                                              corpus_->domain(0).values))
                  .IsInvalidArgument());
}

TEST_F(DynamicEnsembleTest, FlushThenQueryMatchesOneShotBuild) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  LshEnsembleBuilder builder(SmallOptions().base, family_);
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(InsertDomain(index, i).ok());
    const Domain& domain = corpus_->domain(i);
    ASSERT_TRUE(builder.Add(domain.id, domain.size(), Sketch(i)).ok());
  }
  ASSERT_TRUE(index.Flush().ok());
  auto one_shot = std::move(builder).Build().value();

  EXPECT_EQ(index.delta_size(), 0u);
  EXPECT_EQ(index.indexed_size(), 300u);
  for (size_t qi = 0; qi < 300; qi += 37) {
    for (double t_star : {0.3, 0.6, 0.9}) {
      std::vector<uint64_t> dynamic_results, static_results;
      const size_t q = corpus_->domain(qi).size();
      ASSERT_TRUE(
          index.Query(Sketch(qi), q, t_star, &dynamic_results).ok());
      ASSERT_TRUE(
          one_shot.Query(Sketch(qi), q, t_star, &static_results).ok());
      std::sort(dynamic_results.begin(), dynamic_results.end());
      std::sort(static_results.begin(), static_results.end());
      EXPECT_EQ(dynamic_results, static_results)
          << "query " << qi << " t*=" << t_star;
    }
  }
}

TEST_F(DynamicEnsembleTest, RemoveHidesIndexedDomain) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  for (size_t i = 0; i < 100; ++i) ASSERT_TRUE(InsertDomain(index, i).ok());
  ASSERT_TRUE(index.Flush().ok());

  const uint64_t target = corpus_->domain(42).id;
  std::vector<uint64_t> results;
  ASSERT_TRUE(
      index.Query(Sketch(42), corpus_->domain(42).size(), 0.9, &results).ok());
  ASSERT_NE(std::find(results.begin(), results.end(), target), results.end());

  ASSERT_TRUE(index.Remove(target).ok());
  EXPECT_EQ(index.tombstone_count(), 1u);
  ASSERT_TRUE(
      index.Query(Sketch(42), corpus_->domain(42).size(), 0.9, &results).ok());
  EXPECT_EQ(std::find(results.begin(), results.end(), target), results.end());
}

TEST_F(DynamicEnsembleTest, RemoveDropsUnflushedDomainOutright) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  ASSERT_TRUE(InsertDomain(index, 5).ok());
  ASSERT_TRUE(index.Remove(corpus_->domain(5).id).ok());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.delta_size(), 0u);
  EXPECT_EQ(index.tombstone_count(), 0u);  // was never indexed
}

TEST_F(DynamicEnsembleTest, RemoveUnknownIsNotFound) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  EXPECT_TRUE(index.Remove(12345).IsNotFound());
}

TEST_F(DynamicEnsembleTest, ReinsertAfterRemoveUsesNewVersion) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  for (size_t i = 0; i < 50; ++i) ASSERT_TRUE(InsertDomain(index, i).ok());
  ASSERT_TRUE(index.Flush().ok());

  const uint64_t id = corpus_->domain(10).id;
  ASSERT_TRUE(index.Remove(id).ok());
  // Re-insert under the same id with different content (another domain's
  // values).
  ASSERT_TRUE(
      index.Insert(id, corpus_->domain(20).size(), Sketch(20)).ok());
  EXPECT_EQ(index.SizeOf(id), corpus_->domain(20).size());

  // A perfect query for the NEW content finds the id...
  std::vector<uint64_t> results;
  ASSERT_TRUE(
      index.Query(Sketch(20), corpus_->domain(20).size(), 0.95, &results).ok());
  EXPECT_NE(std::find(results.begin(), results.end(), id), results.end());
  // ... and a flush folds the replacement into the rebuilt ensemble.
  ASSERT_TRUE(index.Flush().ok());
  EXPECT_EQ(index.tombstone_count(), 0u);
  ASSERT_TRUE(
      index.Query(Sketch(20), corpus_->domain(20).size(), 0.95, &results).ok());
  EXPECT_NE(std::find(results.begin(), results.end(), id), results.end());
}

TEST_F(DynamicEnsembleTest, AutoRebuildTriggers) {
  DynamicEnsembleOptions options = SmallOptions();
  options.min_delta_for_rebuild = 32;
  auto index = DynamicLshEnsemble::Create(options, family_).value();
  // First 32 inserts: delta reaches min threshold with indexed_count 0 ->
  // rebuild on the 32nd insert.
  for (size_t i = 0; i < 32; ++i) ASSERT_TRUE(InsertDomain(index, i).ok());
  EXPECT_NE(index.indexed(), nullptr);
  EXPECT_EQ(index.delta_size(), 0u);
  EXPECT_EQ(index.indexed_size(), 32u);

  // Now a rebuild needs max(32, 0.1 * 32) = 32 more inserts.
  for (size_t i = 32; i < 63; ++i) ASSERT_TRUE(InsertDomain(index, i).ok());
  EXPECT_EQ(index.delta_size(), 31u);
  ASSERT_TRUE(InsertDomain(index, 63).ok());
  EXPECT_EQ(index.delta_size(), 0u);
  EXPECT_EQ(index.indexed_size(), 64u);
}

TEST_F(DynamicEnsembleTest, FlushOnEmptyIndexIsOk) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  EXPECT_TRUE(index.Flush().ok());
  EXPECT_EQ(index.indexed(), nullptr);
  // Insert then remove everything; flush drops the ensemble.
  ASSERT_TRUE(InsertDomain(index, 0).ok());
  ASSERT_TRUE(index.Flush().ok());
  EXPECT_NE(index.indexed(), nullptr);
  ASSERT_TRUE(index.Remove(corpus_->domain(0).id).ok());
  ASSERT_TRUE(index.Flush().ok());
  EXPECT_EQ(index.indexed(), nullptr);
  EXPECT_EQ(index.size(), 0u);
}

TEST_F(DynamicEnsembleTest, FlushIsIdempotent) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  for (size_t i = 0; i < 20; ++i) ASSERT_TRUE(InsertDomain(index, i).ok());
  ASSERT_TRUE(index.Flush().ok());
  const LshEnsemble* before = index.indexed();
  ASSERT_TRUE(index.Flush().ok());  // nothing changed: no rebuild
  EXPECT_EQ(index.indexed(), before);
}

TEST_F(DynamicEnsembleTest, MixedIndexedAndDeltaRecallAgainstExact) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  ExactSearch exact;
  // Half indexed, half in the delta.
  for (size_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(InsertDomain(index, i).ok());
    ASSERT_TRUE(
        exact.Add(corpus_->domain(i).id, corpus_->domain(i).values).ok());
    if (i == 199) {
      ASSERT_TRUE(index.Flush().ok());
    }
  }
  exact.Build();
  EXPECT_GT(index.delta_size(), 0u);

  double recall_sum = 0.0;
  int queries = 0;
  for (size_t qi = 0; qi < 400; qi += 41) {
    const double t_star = 0.5;
    std::vector<uint64_t> approx, truth;
    ASSERT_TRUE(index
                    .Query(Sketch(qi), corpus_->domain(qi).size(), t_star,
                           &approx)
                    .ok());
    ASSERT_TRUE(exact.Query(corpus_->domain(qi).values, t_star, &truth).ok());
    if (truth.empty()) continue;
    std::sort(approx.begin(), approx.end());
    size_t hits = 0;
    for (uint64_t id : truth) {
      hits += std::binary_search(approx.begin(), approx.end(), id) ? 1 : 0;
    }
    recall_sum += static_cast<double>(hits) / static_cast<double>(truth.size());
    ++queries;
  }
  ASSERT_GT(queries, 0);
  EXPECT_GE(recall_sum / queries, 0.85);
}

TEST_F(DynamicEnsembleTest, SideCarLookups) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  ASSERT_TRUE(InsertDomain(index, 3).ok());
  const uint64_t id = corpus_->domain(3).id;
  EXPECT_EQ(index.SizeOf(id), corpus_->domain(3).size());
  EXPECT_NE(index.SignatureOf(id), nullptr);
  EXPECT_EQ(index.SizeOf(999999), 0u);
  EXPECT_EQ(index.SignatureOf(999999), nullptr);
}

TEST_F(DynamicEnsembleTest, QueryValidation) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  ASSERT_TRUE(InsertDomain(index, 0).ok());
  std::vector<uint64_t> results;
  EXPECT_TRUE(index.Query(Sketch(0), 10, 0.5, nullptr).IsInvalidArgument());
  EXPECT_TRUE(index.Query(Sketch(0), 10, 1.5, &results).IsInvalidArgument());
  EXPECT_TRUE(index.Query(MinHash(), 10, 0.5, &results).IsInvalidArgument());
}

TEST_F(DynamicEnsembleTest, ContextQueryMatchesPlainQuery) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  // Enough inserts to trigger at least one rebuild, so queries see both
  // the built ensemble and a delta buffer; remove a few for tombstones.
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(InsertDomain(index, i).ok());
  }
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(index.Remove(corpus_->domain(i * 7).id).ok());
  }
  ASSERT_GT(index.delta_size(), 0u);
  ASSERT_GT(index.tombstone_count(), 0u);

  QueryContext ctx;
  for (size_t qi : {0ul, 5ul, 42ul, 150ul}) {
    std::vector<uint64_t> plain, with_ctx;
    const MinHash query = Sketch(qi);
    const size_t q = corpus_->domain(qi).size();
    ASSERT_TRUE(index.Query(query, q, 0.5, &plain).ok());
    ASSERT_TRUE(index.Query(query, q, 0.5, &ctx, &with_ctx).ok());
    EXPECT_EQ(plain, with_ctx);
  }
  std::vector<uint64_t> unused;
  EXPECT_TRUE(
      index.Query(Sketch(0), 10, 0.5, nullptr, &unused).IsInvalidArgument());
}

TEST_F(DynamicEnsembleTest, ContextQueryIsWarmAfterFirstCall) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(InsertDomain(index, i).ok());
  }
  ASSERT_TRUE(index.Remove(corpus_->domain(1).id).ok());

  QueryContext ctx;
  std::vector<uint64_t> results;
  // Warm the context, then require it to stop growing.
  for (int rep = 0; rep < 8; ++rep) {
    ASSERT_TRUE(index.Query(Sketch(2), corpus_->domain(2).size(), 0.5, &ctx,
                            &results)
                    .ok());
  }
  const size_t warm_bytes = ctx.MemoryBytes();
  for (int rep = 0; rep < 5; ++rep) {
    ASSERT_TRUE(index.Query(Sketch(2), corpus_->domain(2).size(), 0.5, &ctx,
                            &results)
                    .ok());
  }
  EXPECT_EQ(ctx.MemoryBytes(), warm_bytes);
}

// ------------------------------------------------------- batched queries

class DynamicBatchQueryTest : public DynamicEnsembleTest {
 protected:
  // A mid-rebuild index: 150 indexed domains, ~90 in the delta, removals
  // on both sides (tombstones + dropped delta entries). Rebuilds are
  // disabled so the mixed state stays put.
  void BuildMixedIndex() {
    DynamicEnsembleOptions options = SmallOptions();
    options.min_delta_for_rebuild = 100000;
    index_.emplace(DynamicLshEnsemble::Create(options, family_).value());
    for (size_t i = 0; i < 240; ++i) {
      ASSERT_TRUE(InsertDomain(*index_, i).ok());
      if (i == 149) {
        ASSERT_TRUE(index_->Flush().ok());
      }
    }
    for (size_t i : {9ul, 30ul, 77ul, 120ul}) {  // indexed -> tombstoned
      ASSERT_TRUE(index_->Remove(corpus_->domain(i).id).ok());
      removed_.insert(corpus_->domain(i).id);
    }
    for (size_t i : {155ul, 200ul}) {  // delta -> dropped outright
      ASSERT_TRUE(index_->Remove(corpus_->domain(i).id).ok());
      removed_.insert(corpus_->domain(i).id);
    }
    for (size_t i = 150; i < 240; ++i) {
      if (removed_.count(corpus_->domain(i).id) == 0) {
        delta_indices_.push_back(i);
      }
    }
    ASSERT_GT(index_->delta_size(), 0u);
    ASSERT_GT(index_->tombstone_count(), 0u);
  }

  // The pre-batching reference: indexed candidates minus tombstones, then
  // the seed delta scan (ContainmentToJaccard per record + EstimateJaccard)
  // in delta order. Guards the hoisted-threshold rewrite (results must be
  // unchanged) as well as the batch path.
  std::vector<uint64_t> ReferenceAnswer(const MinHash& query, size_t q,
                                        double t_star) const {
    std::vector<uint64_t> out;
    if (index_->indexed() != nullptr) {
      std::vector<uint64_t> indexed;
      EXPECT_TRUE(index_->indexed()->Query(query, q, t_star, &indexed).ok());
      for (uint64_t id : indexed) {
        if (removed_.count(id) == 0) out.push_back(id);
      }
    }
    const auto qd = static_cast<double>(q);
    for (size_t i : delta_indices_) {
      const Domain& domain = corpus_->domain(i);
      const double s_star = ContainmentToJaccard(
          t_star, static_cast<double>(domain.size()), qd);
      const MinHash* signature = index_->SignatureOf(domain.id);
      EXPECT_NE(signature, nullptr);
      const double jaccard = query.EstimateJaccard(*signature).value();
      if (jaccard + 1e-12 >= s_star) out.push_back(domain.id);
    }
    return out;
  }

  std::optional<DynamicLshEnsemble> index_;
  std::unordered_set<uint64_t> removed_;
  std::vector<size_t> delta_indices_;
};

TEST_F(DynamicBatchQueryTest, BatchMatchesSequentialAndSeedReference) {
  BuildMixedIndex();
  // Two-pass spec build: fill the sketch vector completely before taking
  // any addresses, so the specs never dangle on a reallocation.
  std::vector<size_t> query_indices;
  for (size_t qi = 0; qi < 240; qi += 5) query_indices.push_back(qi);
  std::vector<MinHash> sketches;
  for (size_t qi : query_indices) sketches.push_back(Sketch(qi));
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < query_indices.size(); ++i) {
    const size_t qi = query_indices[i];
    const double t_star = 0.2 + 0.15 * static_cast<double>(qi % 5);
    specs.push_back(
        QuerySpec{&sketches[i], corpus_->domain(qi).size(), t_star});
  }

  QueryContext ctx;
  std::vector<std::vector<uint64_t>> outs(specs.size());
  ASSERT_TRUE(index_->BatchQuery(specs, &ctx, outs.data()).ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    std::vector<uint64_t> sequential;
    ASSERT_TRUE(index_
                    ->Query(*specs[i].query, specs[i].query_size,
                            specs[i].t_star, &sequential)
                    .ok());
    EXPECT_EQ(outs[i], sequential) << "query " << i;
    EXPECT_EQ(outs[i], ReferenceAnswer(*specs[i].query, specs[i].query_size,
                                       specs[i].t_star))
        << "query " << i;
  }
}

TEST_F(DynamicBatchQueryTest, BatchWithEmptyDelta) {
  BuildMixedIndex();
  ASSERT_TRUE(index_->Flush().ok());  // folds the delta in, clears tombstones
  ASSERT_EQ(index_->delta_size(), 0u);
  delta_indices_.clear();
  removed_.clear();

  std::vector<size_t> query_indices;
  for (size_t qi = 0; qi < 240; qi += 31) query_indices.push_back(qi);
  std::vector<MinHash> sketches;
  for (size_t qi : query_indices) sketches.push_back(Sketch(qi));
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < query_indices.size(); ++i) {
    specs.push_back(QuerySpec{
        &sketches[i], corpus_->domain(query_indices[i]).size(), 0.5});
  }
  QueryContext ctx;
  std::vector<std::vector<uint64_t>> outs(specs.size());
  ASSERT_TRUE(index_->BatchQuery(specs, &ctx, outs.data()).ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(outs[i], ReferenceAnswer(*specs[i].query, specs[i].query_size,
                                       specs[i].t_star))
        << "query " << i;
  }
}

TEST_F(DynamicBatchQueryTest, BatchBeforeFirstFlush) {
  DynamicEnsembleOptions options = SmallOptions();
  options.min_delta_for_rebuild = 100000;
  auto index = DynamicLshEnsemble::Create(options, family_).value();
  for (size_t i = 0; i < 40; ++i) ASSERT_TRUE(InsertDomain(index, i).ok());
  ASSERT_EQ(index.indexed(), nullptr);

  std::vector<size_t> query_indices;
  for (size_t qi = 0; qi < 40; qi += 9) query_indices.push_back(qi);
  std::vector<MinHash> sketches;
  for (size_t qi : query_indices) sketches.push_back(Sketch(qi));
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < query_indices.size(); ++i) {
    specs.push_back(QuerySpec{
        &sketches[i], corpus_->domain(query_indices[i]).size(), 0.8});
  }
  QueryContext ctx;
  std::vector<std::vector<uint64_t>> outs(specs.size());
  std::vector<QueryStats> stats(specs.size());
  ASSERT_TRUE(index.BatchQuery(specs, &ctx, outs.data(), stats.data()).ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    std::vector<uint64_t> sequential;
    ASSERT_TRUE(index
                    .Query(*specs[i].query, specs[i].query_size,
                           specs[i].t_star, &sequential)
                    .ok());
    EXPECT_EQ(outs[i], sequential);
    // Each query domain is in the delta, so a near-1 threshold self-query
    // must find itself.
    const uint64_t self = corpus_->domain(query_indices[i]).id;
    EXPECT_NE(std::find(outs[i].begin(), outs[i].end(), self), outs[i].end());
    EXPECT_EQ(stats[i].query_size_used, specs[i].query_size);
    EXPECT_EQ(stats[i].partitions_probed, 0u);  // nothing indexed yet
  }
}

TEST_F(DynamicBatchQueryTest, BatchStatsRideTheEngine) {
  BuildMixedIndex();
  const MinHash query = Sketch(3);
  const QuerySpec spec{&query, corpus_->domain(3).size(), 0.4};
  QueryContext ctx;
  std::vector<uint64_t> out;
  QueryStats stats;
  ASSERT_TRUE(index_
                  ->BatchQuery(std::span<const QuerySpec>(&spec, 1), &ctx,
                               &out, &stats)
                  .ok());
  EXPECT_EQ(stats.query_size_used, corpus_->domain(3).size());
  EXPECT_GT(stats.partitions_probed + stats.partitions_pruned, 0u);
}

// A reused stats array must come back fully overwritten, whichever path
// answered: the delta-only branch of a never-flushed engine and the
// indexed engine's kernel alike. Each call gets a fresh context, so the
// reused array must read exactly like a zeroed one.
TEST_F(DynamicBatchQueryTest, ReusedStatsArraysAreReset) {
  QueryStats stale;
  stale.query_size_used = 7;
  stale.partitions_probed = 7;
  stale.partitions_pruned = 7;
  stale.partitions_filter_skipped = 7;
  stale.slot0_cache_hits = 7;
  stale.slot0_gallop_resumes = 7;
  stale.shards_gathered = 7;
  stale.shards_skipped = 7;

  const MinHash query = Sketch(3);
  const QuerySpec spec{&query, corpus_->domain(3).size(), 0.5};
  const std::span<const QuerySpec> specs(&spec, 1);
  auto expect_reset = [&](auto query_fn) {
    QueryStats zeroed;
    QueryStats reused = stale;
    std::vector<uint64_t> out;
    QueryContext fresh_a, fresh_b;
    ASSERT_TRUE(query_fn(&fresh_a, &out, &zeroed).ok());
    ASSERT_TRUE(query_fn(&fresh_b, &out, &reused).ok());
    EXPECT_EQ(reused.query_size_used, spec.query_size);
    EXPECT_EQ(reused.query_size_used, zeroed.query_size_used);
    EXPECT_EQ(reused.partitions_probed, zeroed.partitions_probed);
    EXPECT_EQ(reused.partitions_pruned, zeroed.partitions_pruned);
    EXPECT_EQ(reused.partitions_filter_skipped,
              zeroed.partitions_filter_skipped);
    EXPECT_EQ(reused.slot0_cache_hits, zeroed.slot0_cache_hits);
    EXPECT_EQ(reused.slot0_gallop_resumes, zeroed.slot0_gallop_resumes);
    EXPECT_EQ(reused.shards_gathered, 0u);
    EXPECT_EQ(reused.shards_skipped, 0u);
  };

  DynamicEnsembleOptions options = SmallOptions();
  options.min_delta_for_rebuild = 100000;
  auto index = DynamicLshEnsemble::Create(options, family_).value();
  for (size_t i = 0; i < 40; ++i) ASSERT_TRUE(InsertDomain(index, i).ok());
  ASSERT_EQ(index.indexed(), nullptr);
  {
    SCOPED_TRACE("pure-delta dynamic engine");
    expect_reset([&](QueryContext* ctx, std::vector<uint64_t>* out,
                     QueryStats* stats) {
      return index.BatchQuery(specs, ctx, out, stats);
    });
  }

  ASSERT_TRUE(index.Flush().ok());
  ASSERT_NE(index.indexed(), nullptr);
  {
    SCOPED_TRACE("LshEnsemble");
    expect_reset([&](QueryContext* ctx, std::vector<uint64_t>* out,
                     QueryStats* stats) {
      return index.indexed()->BatchQuery(specs, ctx, out, stats);
    });
  }
}

TEST_F(DynamicBatchQueryTest, BatchValidationAndEmptyBatch) {
  BuildMixedIndex();
  QueryContext ctx;
  const MinHash query = Sketch(0);
  std::vector<uint64_t> out;
  const QuerySpec good{&query, 10, 0.5};

  EXPECT_TRUE(index_->BatchQuery({}, &ctx, nullptr).ok());  // empty is a no-op
  EXPECT_TRUE(index_
                  ->BatchQuery(std::span<const QuerySpec>(&good, 1), nullptr,
                               &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(index_
                  ->BatchQuery(std::span<const QuerySpec>(&good, 1), &ctx,
                               nullptr)
                  .IsInvalidArgument());
  const QuerySpec bad_t{&query, 10, 1.5};
  EXPECT_TRUE(index_
                  ->BatchQuery(std::span<const QuerySpec>(&bad_t, 1), &ctx,
                               &out)
                  .IsInvalidArgument());
  const QuerySpec null_query{nullptr, 10, 0.5};
  EXPECT_TRUE(index_
                  ->BatchQuery(std::span<const QuerySpec>(&null_query, 1),
                               &ctx, &out)
                  .IsInvalidArgument());
  auto other_family = HashFamily::Create(kNumHashes, 4321).value();
  const MinHash foreign =
      MinHash::FromValues(other_family, corpus_->domain(0).values);
  const QuerySpec wrong_family{&foreign, 10, 0.5};
  EXPECT_TRUE(index_
                  ->BatchQuery(std::span<const QuerySpec>(&wrong_family, 1),
                               &ctx, &out)
                  .IsInvalidArgument());
}

TEST_F(DynamicBatchQueryTest, WarmContextStopsGrowing) {
  BuildMixedIndex();
  std::vector<size_t> query_indices;
  for (size_t qi = 0; qi < 240; qi += 15) query_indices.push_back(qi);
  std::vector<MinHash> sketches;
  for (size_t qi : query_indices) sketches.push_back(Sketch(qi));
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < query_indices.size(); ++i) {
    specs.push_back(QuerySpec{
        &sketches[i], corpus_->domain(query_indices[i]).size(), 0.5});
  }
  QueryContext ctx;
  std::vector<std::vector<uint64_t>> outs(specs.size());
  for (int rep = 0; rep < 8; ++rep) {
    ASSERT_TRUE(index_->BatchQuery(specs, &ctx, outs.data()).ok());
  }
  const size_t warm_bytes = ctx.MemoryBytes();
  for (int rep = 0; rep < 5; ++rep) {
    ASSERT_TRUE(index_->BatchQuery(specs, &ctx, outs.data()).ok());
  }
  EXPECT_EQ(ctx.MemoryBytes(), warm_bytes);
}

// A context holds no index state: once warm, it keeps its size while the
// delta it scans grows.
TEST_F(DynamicBatchQueryTest, WarmContextIgnoresDeltaGrowth) {
  BuildMixedIndex();
  std::vector<size_t> query_indices;
  for (size_t qi = 0; qi < 240; qi += 15) query_indices.push_back(qi);
  std::vector<MinHash> sketches;
  for (size_t qi : query_indices) sketches.push_back(Sketch(qi));
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < query_indices.size(); ++i) {
    specs.push_back(QuerySpec{
        &sketches[i], corpus_->domain(query_indices[i]).size(), 0.5});
  }
  QueryContext ctx;
  std::vector<std::vector<uint64_t>> outs(specs.size());
  for (int rep = 0; rep < 8; ++rep) {
    ASSERT_TRUE(index_->BatchQuery(specs, &ctx, outs.data()).ok());
  }
  const size_t warm_bytes = ctx.MemoryBytes();
  const size_t delta_before = index_->delta_size();
  for (size_t i = 240; i < 440; ++i) {
    ASSERT_TRUE(InsertDomain(*index_, i).ok());
  }
  ASSERT_EQ(index_->delta_size(), delta_before + 200);
  for (int rep = 0; rep < 5; ++rep) {
    ASSERT_TRUE(index_->BatchQuery(specs, &ctx, outs.data()).ok());
    EXPECT_EQ(ctx.MemoryBytes(), warm_bytes) << "batch " << rep;
  }
}

// The dynamic counterpart of
// LshEnsembleTest.QueryContextReusableAcrossEnsembles: one context
// alternates between two engines while they mutate (insert, remove from
// the middle of the delta, re-insert, tombstone) and after one is
// destroyed and replaced at the same address. Every answer, single or
// batched, equals a fresh context's and the per-record reference.
TEST_F(DynamicBatchQueryTest, ContextReusableAcrossEnginesAndMutations) {
  DynamicEnsembleOptions options = SmallOptions();
  options.min_delta_for_rebuild = 100000;  // mutations stay in the delta
  // An engine plus what the test knows of its state: the tombstoned ids
  // and the delta ids in scan order.
  struct Engine {
    std::optional<DynamicLshEnsemble> index;
    std::unordered_set<uint64_t> tombstoned;
    std::vector<uint64_t> delta;
  };
  // Domains [first, first + 100) indexed, [first + 100, first + 150) in
  // the delta.
  auto make = [&](size_t first) {
    Engine engine;
    engine.index.emplace(DynamicLshEnsemble::Create(options, family_).value());
    for (size_t i = first; i < first + 150; ++i) {
      EXPECT_TRUE(InsertDomain(*engine.index, i).ok());
      if (i == first + 99) {
        EXPECT_TRUE(engine.index->Flush().ok());
      } else if (i > first + 99) {
        engine.delta.push_back(corpus_->domain(i).id);
      }
    }
    return engine;
  };
  // Indexed candidates minus tombstones, then the delta in scan order
  // under the admission bound and the EstimateJaccard rule.
  auto reference = [&](const Engine& engine, const QuerySpec& spec) {
    std::vector<uint64_t> out;
    std::vector<uint64_t> indexed;
    EXPECT_TRUE(engine.index->indexed()
                    ->Query(*spec.query, spec.query_size, spec.t_star,
                            &indexed)
                    .ok());
    for (uint64_t id : indexed) {
      if (engine.tombstoned.count(id) == 0) out.push_back(id);
    }
    const auto q = static_cast<double>(spec.query_size);
    for (uint64_t id : engine.delta) {
      const auto x = static_cast<double>(engine.index->SizeOf(id));
      if (x + 1e-9 < spec.t_star * q) continue;
      const double s_star = ContainmentToJaccard(spec.t_star, x, q);
      const double jaccard =
          spec.query->EstimateJaccard(*engine.index->SignatureOf(id)).value();
      if (jaccard + 1e-12 >= s_star) out.push_back(id);
    }
    return out;
  };

  const size_t query_indices[] = {3, 60, 110, 140, 160, 250, 303, 360, 410,
                                  445};
  std::vector<MinHash> sketches;
  for (size_t qi : query_indices) sketches.push_back(Sketch(qi));
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < sketches.size(); ++i) {
    specs.push_back(QuerySpec{&sketches[i],
                              corpus_->domain(query_indices[i]).size(),
                              0.3 + 0.25 * static_cast<double>(i % 3)});
  }

  QueryContext ctx;
  auto check = [&](const Engine& engine, const char* step) {
    std::vector<std::vector<uint64_t>> outs(specs.size());
    std::vector<std::vector<uint64_t>> fresh_outs(specs.size());
    ASSERT_TRUE(engine.index->BatchQuery(specs, &ctx, outs.data()).ok());
    QueryContext fresh;
    ASSERT_TRUE(
        engine.index->BatchQuery(specs, &fresh, fresh_outs.data()).ok());
    for (size_t i = 0; i < specs.size(); ++i) {
      const std::vector<uint64_t> expected = reference(engine, specs[i]);
      EXPECT_EQ(outs[i], fresh_outs[i]) << step << ", query " << i;
      EXPECT_EQ(outs[i], expected) << step << ", query " << i;
      std::vector<uint64_t> single;
      ASSERT_TRUE(engine.index
                      ->Query(*specs[i].query, specs[i].query_size,
                              specs[i].t_star, &ctx, &single)
                      .ok());
      EXPECT_EQ(single, expected) << step << ", single query " << i;
    }
  };

  Engine a = make(0);
  Engine b = make(300);
  check(a, "a");
  check(b, "b");

  ASSERT_TRUE(InsertDomain(*a.index, 200).ok());
  a.delta.push_back(corpus_->domain(200).id);
  ASSERT_TRUE(a.index->Remove(corpus_->domain(3).id).ok());
  a.tombstoned.insert(corpus_->domain(3).id);
  check(a, "a after insert + tombstone");
  check(b, "b after a's mutations");

  const uint64_t victim = corpus_->domain(425).id;  // mid-delta of b
  ASSERT_TRUE(b.index->Remove(victim).ok());
  b.delta.erase(std::find(b.delta.begin(), b.delta.end(), victim));
  check(b, "b after mid-delta remove");
  check(a, "a after b's remove");

  ASSERT_TRUE(InsertDomain(*b.index, 425).ok());  // back at the delta's end
  b.delta.push_back(victim);
  check(b, "b after re-insert");
  check(a, "a after b's re-insert");

  a.index.reset();  // destroyed; the replacement reuses its storage
  a = make(150);
  check(a, "a replaced");
  check(b, "b after a's replacement");
}

TEST_F(DynamicEnsembleTest, InsertFromRawValues) {
  auto index = DynamicLshEnsemble::Create(SmallOptions(), family_).value();
  const Domain& domain = corpus_->domain(4);
  ASSERT_TRUE(index.Insert(domain.id, domain.values).ok());
  EXPECT_EQ(index.SizeOf(domain.id), domain.size());
  // The internally built signature must match the explicit sketch.
  const MinHash* stored = index.SignatureOf(domain.id);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->values(), Sketch(4).values());

  EXPECT_TRUE(index.Insert(domain.id + 1, std::span<const uint64_t>())
                  .IsInvalidArgument());
}

// ----------------------------------------- delta-scan admission bound

// The delta scan applies the indexed path's size-based admission bound
// (under the same option): a record with x < t* * q cannot reach
// containment t* (t(Q, X) <= x/q), so its collision count is skipped.
// This test constructs the one case where the bound and the seed
// estimate-only rule DISAGREE — a record whose signature fully collides
// with the query but whose size is below the reachability bound — and
// pins both behaviors, plus reference equivalence of the batched scan.
TEST_F(DynamicEnsembleTest, DeltaAdmissionBoundSkipsUnreachableSizes) {
  // Pick a query domain big enough that q/10 sits clearly under t* * q.
  size_t qi = 0;
  while (qi < corpus_->size() && corpus_->domain(qi).size() < 50) ++qi;
  ASSERT_LT(qi, corpus_->size());
  const MinHash query = Sketch(qi);
  const size_t q = corpus_->domain(qi).size();

  auto build = [&](bool prune) {
    DynamicEnsembleOptions options = SmallOptions();
    options.base.prune_unreachable_partitions = prune;
    auto index = DynamicLshEnsemble::Create(options, family_).value();
    // Same signature as the query, honest size: reachable, admitted.
    EXPECT_TRUE(index.Insert(1, q, Sketch(qi)).ok());
    // Same signature, size below t* * q: full sketch collision, but the
    // true containment cannot reach t* — exactly the record the
    // admission bound exists to skip.
    EXPECT_TRUE(index.Insert(2, q / 10, Sketch(qi)).ok());
    return index;
  };

  const double t_star = 0.8;
  const auto pruned = build(true);
  const auto unpruned = build(false);
  for (const bool batched : {false, true}) {
    std::vector<uint64_t> out_pruned, out_unpruned;
    QueryContext ctx_a, ctx_b;
    if (batched) {
      // A batch of two distinct specs: the bound applies per query.
      const QuerySpec specs[2] = {QuerySpec{&query, q, t_star},
                                  QuerySpec{&query, q, t_star / 2}};
      std::vector<uint64_t> outs_a[2], outs_b[2];
      ASSERT_TRUE(pruned.BatchQuery(specs, &ctx_a, outs_a).ok());
      ASSERT_TRUE(unpruned.BatchQuery(specs, &ctx_b, outs_b).ok());
      out_pruned = outs_a[0];
      out_unpruned = outs_b[0];
    } else {
      ASSERT_TRUE(pruned.Query(query, q, t_star, &ctx_a, &out_pruned).ok());
      ASSERT_TRUE(
          unpruned.Query(query, q, t_star, &ctx_b, &out_unpruned).ok());
    }
    EXPECT_EQ(out_pruned, (std::vector<uint64_t>{1}))
        << "batched=" << batched;
    EXPECT_EQ(out_unpruned, (std::vector<uint64_t>{1, 2}))
        << "batched=" << batched;
  }
}

// Equivalence pin: the tiled, block-skipping batched scan returns exactly
// what a plain reference loop applying the same admission rule returns,
// across thresholds on both sides of 0.5 and with the bound on and off.
TEST_F(DynamicEnsembleTest, DeltaScanMatchesReferenceWithAdmissionBound) {
  for (const bool prune : {true, false}) {
    DynamicEnsembleOptions options = SmallOptions();
    options.base.prune_unreachable_partitions = prune;
    options.min_delta_for_rebuild = 100000;  // keep everything in the delta
    auto index = DynamicLshEnsemble::Create(options, family_).value();
    for (size_t i = 0; i < 150; ++i) {
      ASSERT_TRUE(InsertDomain(index, i).ok());
    }

    std::vector<MinHash> sketches;
    std::vector<QuerySpec> specs;
    for (size_t qi = 0; qi < 150; qi += 10) sketches.push_back(Sketch(qi));
    size_t j = 0;
    for (size_t qi = 0; qi < 150; qi += 10, ++j) {
      specs.push_back(QuerySpec{&sketches[j], corpus_->domain(qi).size(),
                                0.3 + 0.3 * static_cast<double>(j % 3)});
    }
    QueryContext ctx;
    std::vector<std::vector<uint64_t>> outs(specs.size());
    ASSERT_TRUE(index.BatchQuery(specs, &ctx, outs.data()).ok());

    for (size_t i = 0; i < specs.size(); ++i) {
      std::vector<uint64_t> reference;
      const auto qd = static_cast<double>(specs[i].query_size);
      for (size_t di = 0; di < 150; ++di) {
        const Domain& domain = corpus_->domain(di);
        const auto x = static_cast<double>(domain.size());
        if (prune && x + 1e-9 < specs[i].t_star * qd) continue;
        const double s_star =
            ContainmentToJaccard(specs[i].t_star, x, qd);
        const double jaccard =
            specs[i].query->EstimateJaccard(*index.SignatureOf(domain.id))
                .value();
        if (jaccard + 1e-12 >= s_star) reference.push_back(domain.id);
      }
      EXPECT_EQ(outs[i], reference) << "prune=" << prune << " query " << i;
    }
  }
}

}  // namespace
}  // namespace lshensemble
