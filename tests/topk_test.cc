// Top-k search end to end on the serving layer it runs on
// (ShardedEnsemble::BatchSearch): ranking quality against exact
// containment, batch ≡ one-query-at-a-time, argument validation, and
// ranking over a mid-lifecycle index (delta + tombstones).

#include "core/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "baselines/exact_search.h"
#include "core/sharded_ensemble.h"
#include "data/corpus.h"
#include "minhash/minhash.h"
#include "util/random.h"
#include "workload/generator.h"

namespace lshensemble {
namespace {

// ------------------------------------------------------------ end to end

class TopKSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CorpusGenOptions gen;
    gen.num_domains = 2000;
    gen.max_size = 5000;
    gen.seed = 99;
    corpus_ = CorpusGenerator(gen).Generate().value();

    family_ = HashFamily::Create(kNumHashes, 5).value();
    index_.emplace(ShardedEnsemble::Create(Options(), family_).value());
    for (size_t i = 0; i < corpus_->size(); ++i) {
      const Domain& domain = corpus_->domain(i);
      ASSERT_TRUE(index_
                      ->Insert(domain.id, domain.size(),
                               MinHash::FromValues(family_, domain.values))
                      .ok());
      ASSERT_TRUE(exact_.Add(domain.id, domain.values).ok());
    }
    ASSERT_TRUE(index_->Flush().ok());
    exact_.Build();
  }

  static ShardedEnsembleOptions Options() {
    ShardedEnsembleOptions options;
    options.base.base.num_partitions = 8;
    options.base.base.num_hashes = kNumHashes;
    options.base.base.tree_depth = 4;
    options.base.min_delta_for_rebuild = 1000000;  // tests flush explicitly
    return options;
  }

  /// One query's ranking: a BatchSearch of one.
  static Result<std::vector<TopKResult>> Search(const ShardedEnsemble& index,
                                                const MinHash& query,
                                                size_t query_size, size_t k) {
    const TopKQuery one{&query, query_size};
    std::vector<TopKResult> out;
    LSHE_RETURN_IF_ERROR(
        index.BatchSearch(std::span<const TopKQuery>(&one, 1), k, &out));
    return out;
  }
  Result<std::vector<TopKResult>> Search(const MinHash& query,
                                         size_t query_size, size_t k) const {
    return Search(*index_, query, query_size, k);
  }

  static constexpr int kNumHashes = 256;
  std::optional<Corpus> corpus_;
  std::shared_ptr<const HashFamily> family_;
  ExactSearch exact_;
  std::optional<ShardedEnsemble> index_;
};

TEST_F(TopKSearchTest, TopResultFullyContainsQuery) {
  // The query is itself indexed, so containment 1.0 is achievable — but
  // any superset domain also scores exactly 1.0, so the top result need
  // not be the query itself. It must, however, truly (near-)contain it.
  for (size_t qi = 0; qi < corpus_->size(); qi += 401) {
    const Domain& query = corpus_->domain(qi);
    const MinHash sketch = MinHash::FromValues(family_, query.values);
    auto results = Search(sketch, query.size(), 5);
    ASSERT_TRUE(results.ok()) << results.status();
    ASSERT_FALSE(results->empty());
    EXPECT_GT(results->front().estimated_containment, 0.8);
    std::vector<std::pair<uint64_t, double>> overlaps;
    ASSERT_TRUE(exact_.Overlaps(query.values, &overlaps).ok());
    double front_exact = 0.0;
    for (const auto& [id, score] : overlaps) {
      if (id == results->front().id) front_exact = score;
    }
    EXPECT_GE(front_exact, 0.9) << "query " << query.id << " top result "
                                << results->front().id;
  }
}

TEST_F(TopKSearchTest, ResultsSortedByEstimate) {
  const Domain& query = corpus_->domain(17);
  const MinHash sketch = MinHash::FromValues(family_, query.values);
  auto results = Search(sketch, query.size(), 20);
  ASSERT_TRUE(results.ok());
  for (size_t i = 1; i < results->size(); ++i) {
    EXPECT_GE((*results)[i - 1].estimated_containment,
              (*results)[i].estimated_containment);
  }
  // No duplicate ids.
  std::vector<uint64_t> ids;
  for (const auto& result : *results) ids.push_back(result.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST_F(TopKSearchTest, RecallAgainstExactTopK) {
  constexpr size_t kK = 10;
  double recall_sum = 0.0;
  int queries = 0;
  for (size_t qi = 0; qi < corpus_->size(); qi += 97) {
    const Domain& query = corpus_->domain(qi);
    const MinHash sketch = MinHash::FromValues(family_, query.values);
    auto approx = Search(sketch, query.size(), kK);
    ASSERT_TRUE(approx.ok());
    std::vector<std::pair<uint64_t, double>> truth;
    ASSERT_TRUE(exact_.TopK(query.values, kK, &truth).ok());
    if (truth.empty()) continue;
    // Compare against the exact top-k *score level*: any returned domain
    // whose true containment reaches the k-th exact score is a hit (the
    // exact top-k is not unique under score ties).
    const double kth_score = truth.back().second;
    std::unordered_map<uint64_t, double> exact_scores;
    std::vector<std::pair<uint64_t, double>> all;
    ASSERT_TRUE(exact_.Overlaps(query.values, &all).ok());
    for (const auto& [id, score] : all) exact_scores[id] = score;
    size_t hits = 0;
    for (const auto& result : *approx) {
      const auto it = exact_scores.find(result.id);
      if (it != exact_scores.end() && it->second >= kth_score - 1e-12) ++hits;
    }
    recall_sum +=
        static_cast<double>(hits) / static_cast<double>(truth.size());
    ++queries;
  }
  ASSERT_GT(queries, 0);
  EXPECT_GE(recall_sum / queries, 0.7)
      << "top-k recall collapsed over " << queries << " queries";
}

TEST_F(TopKSearchTest, EstimatesTrackExactContainment) {
  const Domain& query = corpus_->domain(123);
  const MinHash sketch = MinHash::FromValues(family_, query.values);
  auto results = Search(sketch, query.size(), 10);
  ASSERT_TRUE(results.ok());
  std::vector<std::pair<uint64_t, double>> all;
  ASSERT_TRUE(exact_.Overlaps(query.values, &all).ok());
  std::unordered_map<uint64_t, double> exact_scores;
  for (const auto& [id, score] : all) exact_scores[id] = score;
  for (const auto& result : *results) {
    const auto it = exact_scores.find(result.id);
    if (it == exact_scores.end()) continue;  // an LSH false positive
    EXPECT_NEAR(result.estimated_containment, it->second, 0.35)
        << "id " << result.id;
  }
}

TEST_F(TopKSearchTest, KLargerThanMatchesReturnsAllOverlapping) {
  const Domain& query = corpus_->domain(55);
  const MinHash sketch = MinHash::FromValues(family_, query.values);
  auto results = Search(sketch, query.size(), 100000);
  ASSERT_TRUE(results.ok());
  EXPECT_LE(results->size(), corpus_->size());
  EXPECT_FALSE(results->empty());
}

TEST_F(TopKSearchTest, InvalidArguments) {
  const MinHash sketch =
      MinHash::FromValues(family_, corpus_->domain(0).values);
  EXPECT_TRUE(Search(sketch, 10, 0).status().IsInvalidArgument());

  // A sketch from another hash family cannot be ranked against the index.
  auto other_family = HashFamily::Create(kNumHashes, 6).value();
  const MinHash foreign =
      MinHash::FromValues(other_family, corpus_->domain(0).values);
  EXPECT_TRUE(Search(foreign, 10, 5).status().IsInvalidArgument());
}

TEST_F(TopKSearchTest, EstimatedQuerySizeWorks) {
  const Domain& query = corpus_->domain(200);
  const MinHash sketch = MinHash::FromValues(family_, query.values);
  // query_size = 0 -> approx(|Q|) from the sketch (Algorithm 1).
  auto results = Search(sketch, 0, 5);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  // The query domain itself (or a superset of it) leads the ranking.
  EXPECT_GT(results->front().estimated_containment, 0.8);
  bool self_found = false;
  for (const auto& result : *results) {
    self_found = self_found || result.id == query.id;
  }
  EXPECT_TRUE(self_found) << "self not in top-5";
}

// --------------------------------------------------------- batch search

TEST_F(TopKSearchTest, BatchSearchMatchesRepeatedSearch) {
  // Two-pass query build: fill the sketch vector completely before taking
  // any addresses, so the queries never dangle on a reallocation.
  std::vector<size_t> query_indices;
  for (size_t qi = 0; qi < corpus_->size(); qi += 101) {
    query_indices.push_back(qi);
  }
  std::vector<MinHash> sketches;
  for (size_t qi : query_indices) {
    sketches.push_back(
        MinHash::FromValues(family_, corpus_->domain(qi).values));
  }
  std::vector<TopKQuery> queries;
  for (size_t i = 0; i < query_indices.size(); ++i) {
    queries.push_back(
        TopKQuery{&sketches[i], corpus_->domain(query_indices[i]).size()});
  }
  for (const size_t k : {1ul, 5ul, 20ul}) {
    std::vector<std::vector<TopKResult>> outs(queries.size());
    ASSERT_TRUE(index_->BatchSearch(queries, k, outs.data()).ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto sequential =
          Search(*queries[i].query, queries[i].query_size, k);
      ASSERT_TRUE(sequential.ok());
      EXPECT_EQ(outs[i], *sequential) << "query " << i << " k=" << k;
    }
  }
}

TEST_F(TopKSearchTest, BatchSearchEstimatedSizesMatch) {
  // query_size = 0 resolves through the sketch estimate, batched and
  // sequentially alike.
  std::vector<MinHash> sketches;
  for (size_t qi = 0; qi < 5 * 331; qi += 331) {
    sketches.push_back(
        MinHash::FromValues(family_, corpus_->domain(qi).values));
  }
  std::vector<TopKQuery> queries;
  for (const MinHash& sketch : sketches) {
    queries.push_back(TopKQuery{&sketch, 0});
  }
  std::vector<std::vector<TopKResult>> outs(queries.size());
  ASSERT_TRUE(index_->BatchSearch(queries, 7, outs.data()).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto sequential = Search(*queries[i].query, 0, 7);
    ASSERT_TRUE(sequential.ok());
    EXPECT_EQ(outs[i], *sequential) << "query " << i;
  }
}

TEST_F(TopKSearchTest, BatchSearchValidation) {
  const MinHash sketch =
      MinHash::FromValues(family_, corpus_->domain(0).values);
  const TopKQuery query{&sketch, 10};
  std::vector<TopKResult> out;
  const std::span<const TopKQuery> one(&query, 1);

  EXPECT_TRUE(index_->BatchSearch({}, 5, nullptr).ok());  // empty
  EXPECT_TRUE(index_->BatchSearch(one, 0, &out).IsInvalidArgument());
  EXPECT_TRUE(index_->BatchSearch(one, 5, nullptr).IsInvalidArgument());
  const TopKQuery null_query{nullptr, 10};
  EXPECT_TRUE(index_
                  ->BatchSearch(std::span<const TopKQuery>(&null_query, 1), 5,
                                &out)
                  .IsInvalidArgument());
  const MinHash invalid;  // family-less
  const TopKQuery invalid_query{&invalid, 10};
  EXPECT_TRUE(index_
                  ->BatchSearch(std::span<const TopKQuery>(&invalid_query, 1),
                                5, &out)
                  .IsInvalidArgument());
}

// ------------------------------------------- mid-lifecycle ranking

TEST_F(TopKSearchTest, DynamicBackedSearcherRanksDeltaAndSkipsTombstones) {
  // An index in mid-rebuild state: most domains indexed, a tail in the
  // delta, a few removed. Ranking must cover exactly the live set — batch
  // and one-query-at-a-time agreeing.
  auto family = family_;
  auto index = ShardedEnsemble::Create(Options(), family).value();
  constexpr size_t kLive = 1200;
  for (size_t i = 0; i < kLive; ++i) {
    const Domain& domain = corpus_->domain(i);
    ASSERT_TRUE(index
                    .Insert(domain.id, domain.size(),
                            MinHash::FromValues(family, domain.values))
                    .ok());
    if (i == 999) {
      ASSERT_TRUE(index.Flush().ok());
    }
  }
  std::unordered_set<uint64_t> removed;
  for (size_t i : {17ul, 423ul, 1005ul}) {  // two indexed, one delta
    ASSERT_TRUE(index.Remove(corpus_->domain(i).id).ok());
    removed.insert(corpus_->domain(i).id);
  }
  ASSERT_GT(index.delta_size(), 0u);
  ASSERT_GT(index.tombstone_count(), 0u);

  // Self-queries for a tombstoned domain (17), indexed domains, and delta
  // domains (>= 1000); sketches filled before any address is taken.
  const std::vector<size_t> query_indices = {17,  202,  404,  606,
                                             808, 1001, 1100, 1199};
  std::vector<MinHash> sketches;
  for (size_t qi : query_indices) {
    sketches.push_back(MinHash::FromValues(family, corpus_->domain(qi).values));
  }
  std::vector<TopKQuery> queries;
  for (size_t i = 0; i < query_indices.size(); ++i) {
    queries.push_back(
        TopKQuery{&sketches[i], corpus_->domain(query_indices[i]).size()});
  }

  std::vector<std::vector<TopKResult>> outs(queries.size());
  ASSERT_TRUE(index.BatchSearch(queries, 10, outs.data()).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto sequential =
        Search(index, *queries[i].query, queries[i].query_size, 10);
    ASSERT_TRUE(sequential.ok());
    EXPECT_EQ(outs[i], *sequential) << "query " << i;
    for (const TopKResult& result : outs[i]) {
      EXPECT_EQ(removed.count(result.id), 0u)
          << "tombstoned id " << result.id << " surfaced in query " << i;
    }
  }
  // A live delta self-query must rank (near-)perfect containment first.
  ASSERT_FALSE(outs[5].empty());
  EXPECT_GT(outs[5].front().estimated_containment, 0.8);

  // Every candidate is live, so every result is rankable.
  for (const auto& out : outs) {
    for (const TopKResult& result : out) {
      EXPECT_GT(index.SizeOf(result.id), 0u);
    }
  }
}

// ------------------------------------------------------- exact TopK unit

TEST(ExactTopKTest, OrderingAndTies) {
  ExactSearch engine;
  // Query {1,2,3,4}: containments 4/4, 2/4, 2/4, 1/4 for ids 1..4.
  ASSERT_TRUE(engine.Add(1, {1, 2, 3, 4}).ok());
  ASSERT_TRUE(engine.Add(2, {1, 2, 9}).ok());
  ASSERT_TRUE(engine.Add(3, {3, 4, 8}).ok());
  ASSERT_TRUE(engine.Add(4, {4, 7, 6}).ok());
  engine.Build();
  std::vector<std::pair<uint64_t, double>> top;
  ASSERT_TRUE(engine.TopK({1, 2, 3, 4}, 3, &top).ok());
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 1u);
  EXPECT_DOUBLE_EQ(top[0].second, 1.0);
  // Ids 2 and 3 tie at 0.5; ties break by ascending id.
  EXPECT_EQ(top[1].first, 2u);
  EXPECT_EQ(top[2].first, 3u);
  EXPECT_DOUBLE_EQ(top[1].second, 0.5);
  EXPECT_DOUBLE_EQ(top[2].second, 0.5);
}

TEST(ExactTopKTest, FewerMatchesThanK) {
  ExactSearch engine;
  ASSERT_TRUE(engine.Add(1, {1}).ok());
  ASSERT_TRUE(engine.Add(2, {99}).ok());
  engine.Build();
  std::vector<std::pair<uint64_t, double>> top;
  ASSERT_TRUE(engine.TopK({1, 2}, 10, &top).ok());
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, 1u);
}

TEST(ExactTopKTest, InvalidArguments) {
  ExactSearch engine;
  ASSERT_TRUE(engine.Add(1, {1}).ok());
  engine.Build();
  std::vector<std::pair<uint64_t, double>> top;
  EXPECT_TRUE(engine.TopK({1}, 0, &top).IsInvalidArgument());
  EXPECT_TRUE(engine.TopK({1}, 1, nullptr).IsInvalidArgument());
}

}  // namespace
}  // namespace lshensemble
