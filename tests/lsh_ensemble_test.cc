#include "core/lsh_ensemble.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "data/corpus.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "util/random.h"
#include "workload/generator.h"

namespace lshensemble {
namespace {

std::shared_ptr<const HashFamily> Family(int m = 256, uint64_t seed = 4) {
  return HashFamily::Create(m, seed).value();
}

Corpus SmallCorpus(size_t num_domains = 2000, uint64_t seed = 5) {
  CorpusGenOptions options;
  options.num_domains = num_domains;
  options.min_size = 10;
  options.max_size = 5000;
  options.seed = seed;
  return CorpusGenerator(options).Generate().value();
}

Result<LshEnsemble> BuildEnsemble(const Corpus& corpus,
                                  LshEnsembleOptions options,
                                  std::shared_ptr<const HashFamily> family) {
  LshEnsembleBuilder builder(options, family);
  for (const Domain& domain : corpus.domains()) {
    auto sketch = MinHash::FromValues(family, domain.values);
    LSHE_RETURN_IF_ERROR(builder.Add(domain.id, domain.size(), sketch));
  }
  return std::move(builder).Build();
}

TEST(LshEnsembleOptionsTest, Validation) {
  LshEnsembleOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.num_partitions = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = LshEnsembleOptions();
  options.tree_depth = 7;  // does not divide 256
  EXPECT_FALSE(options.Validate().ok());
  options = LshEnsembleOptions();
  options.integration_nodes = 2;
  EXPECT_FALSE(options.Validate().ok());
  options = LshEnsembleOptions();
  options.interpolation_lambda = 2.0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(LshEnsembleOptionsTest, PinnedPartitionValidation) {
  LshEnsembleOptions options;
  options.pinned_partitions = {{10, 100, 0}, {100, 500, 0}};
  EXPECT_TRUE(options.Validate().ok());
  options.pinned_partitions = {{10, 10, 0}};  // empty interval
  EXPECT_FALSE(options.Validate().ok());
  options.pinned_partitions = {{10, 100, 0}, {50, 500, 0}};  // overlap
  EXPECT_FALSE(options.Validate().ok());
  options.pinned_partitions = {{100, 500, 0}, {10, 100, 0}};  // descending
  EXPECT_FALSE(options.Validate().ok());
}

TEST(LshEnsembleTest, ComputePartitionsHonorsPinnedBoundaries) {
  const std::vector<uint64_t> sizes = {2, 3, 5, 8, 13, 21, 34};
  LshEnsembleOptions options;
  options.pinned_partitions = {{1, 8, 0}, {8, 35, 0}};
  auto specs = ComputePartitions(sizes, options);
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs->size(), 2u);
  EXPECT_EQ((*specs)[0].count, 3u);  // 2, 3, 5
  EXPECT_EQ((*specs)[1].count, 4u);  // 8, 13, 21, 34

  // Intervals that miss a size must fail, not silently drop domains.
  options.pinned_partitions = {{1, 8, 0}, {8, 34, 0}};  // 34 uncovered
  EXPECT_FALSE(ComputePartitions(sizes, options).ok());

  // Without pinning, the configured strategy is in charge.
  options.pinned_partitions.clear();
  options.num_partitions = 3;
  auto derived = ComputePartitions(sizes, options);
  ASSERT_TRUE(derived.ok());
  size_t covered = 0;
  for (const PartitionSpec& spec : *derived) covered += spec.count;
  EXPECT_EQ(covered, sizes.size());
}

TEST(LshEnsembleTest, PinnedBuildMatchesDerivedBuild) {
  const Corpus corpus = SmallCorpus(400);
  auto family = Family(128);
  LshEnsembleOptions options;
  options.num_partitions = 4;
  options.num_hashes = 128;
  auto derived = BuildEnsemble(corpus, options, family);
  ASSERT_TRUE(derived.ok());

  // Pinning the exact boundaries the strategy derived must reproduce the
  // same partitions and the same candidates.
  LshEnsembleOptions pinned_options = options;
  pinned_options.pinned_partitions = derived->partitions();
  auto pinned = BuildEnsemble(corpus, pinned_options, family);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned->partitions(), derived->partitions());

  for (size_t i = 0; i < 10; ++i) {
    const Domain& domain = corpus.domain(i * 31 % corpus.size());
    const MinHash sketch = MinHash::FromValues(family, domain.values);
    std::vector<uint64_t> expected, actual;
    ASSERT_TRUE(derived->Query(sketch, domain.size(), 0.5, &expected).ok());
    ASSERT_TRUE(pinned->Query(sketch, domain.size(), 0.5, &actual).ok());
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(LshEnsembleBuilderTest, RejectsBadAdds) {
  auto family = Family();
  LshEnsembleBuilder builder(LshEnsembleOptions{}, family);
  auto sketch = MinHash::FromValues(family, std::vector<uint64_t>{1, 2});
  EXPECT_FALSE(builder.Add(1, 0, sketch).ok());  // zero size
  EXPECT_FALSE(builder.Add(1, 2, MinHash()).ok());  // invalid sketch
  auto other_family_sketch =
      MinHash::FromValues(Family(256, 999), std::vector<uint64_t>{1});
  EXPECT_FALSE(builder.Add(1, 1, other_family_sketch).ok());
  EXPECT_TRUE(builder.Add(1, 2, sketch).ok());
  EXPECT_EQ(builder.size(), 1u);
}

TEST(LshEnsembleBuilderTest, EmptyBuildFails) {
  LshEnsembleBuilder builder(LshEnsembleOptions{}, Family());
  EXPECT_FALSE(std::move(builder).Build().ok());
}

TEST(LshEnsembleBuilderTest, MismatchedFamilySizeFails) {
  auto family = Family(128);  // options default num_hashes = 256
  LshEnsembleBuilder builder(LshEnsembleOptions{}, family);
  auto sketch = MinHash::FromValues(family, std::vector<uint64_t>{1});
  ASSERT_TRUE(builder.Add(1, 1, sketch).ok());
  EXPECT_FALSE(std::move(builder).Build().ok());
}

TEST(LshEnsembleTest, PartitionsCoverCorpusAndAreOrdered) {
  const Corpus corpus = SmallCorpus();
  auto family = Family();
  LshEnsembleOptions options;
  options.num_partitions = 8;
  auto ensemble = BuildEnsemble(corpus, options, family);
  ASSERT_TRUE(ensemble.ok());
  EXPECT_EQ(ensemble->size(), corpus.size());
  size_t total = 0;
  uint64_t previous_upper = 0;
  for (const PartitionSpec& spec : ensemble->partitions()) {
    EXPECT_GE(spec.lower, previous_upper);
    EXPECT_GT(spec.count, 0u);
    previous_upper = spec.upper;
    total += spec.count;
  }
  EXPECT_EQ(total, corpus.size());
  EXPECT_GT(ensemble->MemoryBytes(), 0u);
}

TEST(LshEnsembleTest, SelfQueryFindsSelfAtFullThreshold) {
  const Corpus corpus = SmallCorpus(500);
  auto family = Family();
  LshEnsembleOptions options;
  options.num_partitions = 8;
  auto ensemble = BuildEnsemble(corpus, options, family);
  ASSERT_TRUE(ensemble.ok());

  size_t found = 0, tried = 0;
  for (size_t i = 0; i < corpus.size(); i += 25) {
    const Domain& domain = corpus.domain(i);
    auto sketch = MinHash::FromValues(family, domain.values);
    std::vector<uint64_t> out;
    ASSERT_TRUE(
        ensemble->Query(sketch, domain.size(), 0.9, &out).ok());
    ++tried;
    if (std::find(out.begin(), out.end(), domain.id) != out.end()) ++found;
  }
  // Identical signatures collide deterministically in their own partition;
  // the tuner picks (b, r) with near-1 probability at t = 1.
  EXPECT_GE(found, tried * 9 / 10);
}

TEST(LshEnsembleTest, QueryValidation) {
  const Corpus corpus = SmallCorpus(200);
  auto family = Family();
  auto ensemble = BuildEnsemble(corpus, LshEnsembleOptions{}, family);
  ASSERT_TRUE(ensemble.ok());
  auto sketch =
      MinHash::FromValues(family, corpus.domain(0).values);
  std::vector<uint64_t> out;
  EXPECT_FALSE(ensemble->Query(sketch, 10, -0.1, &out).ok());
  EXPECT_FALSE(ensemble->Query(sketch, 10, 1.1, &out).ok());
  EXPECT_FALSE(ensemble->Query(MinHash(), 10, 0.5, &out).ok());
  EXPECT_FALSE(ensemble->Query(sketch, 10, 0.5, nullptr).ok());
  auto foreign =
      MinHash::FromValues(Family(256, 321), corpus.domain(0).values);
  EXPECT_FALSE(ensemble->Query(foreign, 10, 0.5, &out).ok());
}

TEST(LshEnsembleTest, ParallelAndSerialQueriesAgree) {
  const Corpus corpus = SmallCorpus(1500, 6);
  auto family = Family();
  LshEnsembleOptions parallel_options;
  parallel_options.num_partitions = 16;
  parallel_options.parallel_query = true;
  LshEnsembleOptions serial_options = parallel_options;
  serial_options.parallel_query = false;
  serial_options.parallel_build = false;
  auto parallel_index = BuildEnsemble(corpus, parallel_options, family);
  auto serial_index = BuildEnsemble(corpus, serial_options, family);
  ASSERT_TRUE(parallel_index.ok());
  ASSERT_TRUE(serial_index.ok());

  for (size_t i = 0; i < corpus.size(); i += 100) {
    const Domain& domain = corpus.domain(i);
    auto sketch = MinHash::FromValues(family, domain.values);
    std::vector<uint64_t> parallel_out, serial_out;
    ASSERT_TRUE(
        parallel_index->Query(sketch, domain.size(), 0.5, &parallel_out).ok());
    ASSERT_TRUE(
        serial_index->Query(sketch, domain.size(), 0.5, &serial_out).ok());
    std::sort(parallel_out.begin(), parallel_out.end());
    std::sort(serial_out.begin(), serial_out.end());
    EXPECT_EQ(parallel_out, serial_out) << "query " << i;
  }
}

TEST(LshEnsembleTest, PruningIntroducesNoFalseNegatives) {
  const Corpus corpus = SmallCorpus(1500, 7);
  auto family = Family();
  LshEnsembleOptions pruned_options;
  pruned_options.num_partitions = 16;
  pruned_options.prune_unreachable_partitions = true;
  LshEnsembleOptions unpruned_options = pruned_options;
  unpruned_options.prune_unreachable_partitions = false;
  auto pruned = BuildEnsemble(corpus, pruned_options, family);
  auto unpruned = BuildEnsemble(corpus, unpruned_options, family);
  ASSERT_TRUE(pruned.ok());
  ASSERT_TRUE(unpruned.ok());

  for (size_t i = 0; i < corpus.size(); i += 50) {
    const Domain& domain = corpus.domain(i);
    auto sketch = MinHash::FromValues(family, domain.values);
    std::vector<uint64_t> with_pruning, without_pruning;
    QueryStats stats;
    ASSERT_TRUE(pruned
                    ->Query(sketch, domain.size(), 0.8, &with_pruning, &stats)
                    .ok());
    ASSERT_TRUE(
        unpruned->Query(sketch, domain.size(), 0.8, &without_pruning).ok());
    std::sort(with_pruning.begin(), with_pruning.end());
    std::sort(without_pruning.begin(), without_pruning.end());
    // Pruned partitions can only drop candidates whose size makes the
    // threshold unreachable — never ground-truth positives. The candidate
    // sets over reachable partitions must be identical.
    std::vector<uint64_t> missing;
    std::set_difference(with_pruning.begin(), with_pruning.end(),
                        without_pruning.begin(), without_pruning.end(),
                        std::back_inserter(missing));
    EXPECT_TRUE(missing.empty()) << "pruning added candidates?!";
    for (uint64_t id : without_pruning) {
      if (!std::binary_search(with_pruning.begin(), with_pruning.end(), id)) {
        // Dropped candidate must be too small to qualify.
        const Domain& dropped = corpus.domain(id);
        EXPECT_LT(static_cast<double>(dropped.size()),
                  0.8 * static_cast<double>(domain.size()));
      }
    }
  }
}

TEST(LshEnsembleTest, StatsReportProbedAndPruned) {
  const Corpus corpus = SmallCorpus(1000, 8);
  auto family = Family();
  LshEnsembleOptions options;
  options.num_partitions = 16;
  auto ensemble = BuildEnsemble(corpus, options, family);
  ASSERT_TRUE(ensemble.ok());

  // A huge query with a high threshold prunes every partition whose largest
  // domain is below t* * q.
  const Domain& big = *std::max_element(
      corpus.domains().begin(), corpus.domains().end(),
      [](const Domain& a, const Domain& b) { return a.size() < b.size(); });
  auto sketch = MinHash::FromValues(family, big.values);
  std::vector<uint64_t> out;
  QueryStats stats;
  ASSERT_TRUE(ensemble->Query(sketch, big.size(), 1.0, &out, &stats).ok());
  EXPECT_EQ(stats.query_size_used, big.size());
  EXPECT_GT(stats.partitions_pruned, 0u);
  EXPECT_EQ(stats.partitions_probed + stats.partitions_pruned,
            ensemble->partitions().size());
  EXPECT_LE(stats.partitions_filter_skipped, stats.partitions_probed);
}

TEST(LshEnsembleTest, EstimatedQuerySizeCloseToExact) {
  const Corpus corpus = SmallCorpus(800, 9);
  auto family = Family();
  auto ensemble = BuildEnsemble(corpus, LshEnsembleOptions{}, family);
  ASSERT_TRUE(ensemble.ok());
  const Domain& domain = corpus.domain(100);
  auto sketch = MinHash::FromValues(family, domain.values);
  QueryStats stats;
  std::vector<uint64_t> out;
  ASSERT_TRUE(ensemble->Query(sketch, 0, 0.5, &out, &stats).ok());
  const double relative_error =
      std::abs(static_cast<double>(stats.query_size_used) -
               static_cast<double>(domain.size())) /
      static_cast<double>(domain.size());
  EXPECT_LT(relative_error, 0.5);
}

TEST(LshEnsembleTest, SinglePartitionEqualsBaselineSemantics) {
  const Corpus corpus = SmallCorpus(600, 10);
  auto family = Family();
  LshEnsembleOptions options;
  options.num_partitions = 1;
  auto ensemble = BuildEnsemble(corpus, options, family);
  ASSERT_TRUE(ensemble.ok());
  EXPECT_EQ(ensemble->partitions().size(), 1u);
  const PartitionSpec& only = ensemble->partitions()[0];
  EXPECT_EQ(only.count, corpus.size());
}

TEST(LshEnsembleTest, TuneForPartitionMatchesQueryStats) {
  const Corpus corpus = SmallCorpus(600, 11);
  auto family = Family();
  LshEnsembleOptions options;
  options.num_partitions = 8;
  options.prune_unreachable_partitions = false;
  auto ensemble = BuildEnsemble(corpus, options, family);
  ASSERT_TRUE(ensemble.ok());
  const Domain& domain = corpus.domain(5);
  auto sketch = MinHash::FromValues(family, domain.values);
  QueryStats stats;
  std::vector<uint64_t> out;
  ASSERT_TRUE(ensemble->Query(sketch, domain.size(), 0.6, &out, &stats).ok());
  ASSERT_EQ(stats.partitions_probed, ensemble->partitions().size());
  for (size_t i = 0; i < ensemble->partitions().size(); ++i) {
    auto tuned = ensemble->TuneForPartition(
        i, static_cast<double>(domain.size()), 0.6);
    ASSERT_TRUE(tuned.ok());
    EXPECT_GE(tuned->b, 1);
    EXPECT_LE(tuned->b, options.num_hashes / options.tree_depth);
    EXPECT_GE(tuned->r, 1);
    EXPECT_LE(tuned->r, options.tree_depth);
  }
  EXPECT_FALSE(ensemble->TuneForPartition(99, 10, 0.5).ok());
  EXPECT_FALSE(ensemble->TuneForPartition(0, 0, 0.5).ok());
}

// End-to-end recall against exact ground truth. The ensemble is
// recall-biased by construction (conservative threshold conversion), so on
// a realistic corpus recall should be high at every threshold.
class EnsembleRecallProperty : public ::testing::TestWithParam<double> {};

TEST_P(EnsembleRecallProperty, RecallStaysHigh) {
  const double threshold = GetParam();
  const Corpus corpus = SmallCorpus(3000, 12);
  auto family = Family();
  LshEnsembleOptions options;
  options.num_partitions = 16;
  auto ensemble = BuildEnsemble(corpus, options, family);
  ASSERT_TRUE(ensemble.ok());

  std::vector<size_t> query_indices, index_indices(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) index_indices[i] = i;
  for (size_t i = 0; i < corpus.size(); i += 30) query_indices.push_back(i);
  auto truth =
      GroundTruth::Compute(corpus, query_indices, index_indices).value();

  AccuracyAccumulator accumulator;
  for (size_t qi = 0; qi < query_indices.size(); ++qi) {
    const Domain& domain = corpus.domain(query_indices[qi]);
    auto sketch = MinHash::FromValues(family, domain.values);
    std::vector<uint64_t> out;
    ASSERT_TRUE(ensemble->Query(sketch, domain.size(), threshold, &out).ok());
    std::sort(out.begin(), out.end());
    accumulator.AddQuery(out, truth.TruthSet(qi, threshold));
  }
  EXPECT_GT(accumulator.MeanRecall(), 0.75) << "t*=" << threshold;
}

INSTANTIATE_TEST_SUITE_P(ThresholdSweep, EnsembleRecallProperty,
                         ::testing::Values(0.2, 0.5, 0.8));

TEST(LshEnsembleTest, MorePartitionsImprovePrecision) {
  const Corpus corpus = SmallCorpus(4000, 13);
  auto family = Family();
  std::vector<size_t> query_indices, index_indices(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) index_indices[i] = i;
  for (size_t i = 0; i < corpus.size(); i += 40) query_indices.push_back(i);
  auto truth =
      GroundTruth::Compute(corpus, query_indices, index_indices).value();

  double precision_1 = 0, precision_16 = 0;
  for (int partitions : {1, 16}) {
    LshEnsembleOptions options;
    options.num_partitions = partitions;
    auto ensemble = BuildEnsemble(corpus, options, family);
    ASSERT_TRUE(ensemble.ok());
    AccuracyAccumulator accumulator;
    for (size_t qi = 0; qi < query_indices.size(); ++qi) {
      const Domain& domain = corpus.domain(query_indices[qi]);
      auto sketch = MinHash::FromValues(family, domain.values);
      std::vector<uint64_t> out;
      ASSERT_TRUE(ensemble->Query(sketch, domain.size(), 0.5, &out).ok());
      std::sort(out.begin(), out.end());
      accumulator.AddQuery(out, truth.TruthSet(qi, 0.5));
    }
    if (partitions == 1) {
      precision_1 = accumulator.MeanPrecision();
    } else {
      precision_16 = accumulator.MeanPrecision();
    }
  }
  EXPECT_GT(precision_16, precision_1 - 0.02)
      << "partitioning should not hurt precision";
}

TEST(LshEnsembleBuilderTest, DuplicateIdsRejected) {
  auto family = Family();
  LshEnsembleBuilder builder(LshEnsembleOptions{}, family);
  Rng rng(11);
  for (uint64_t id : {uint64_t{1}, uint64_t{2}, uint64_t{1}}) {
    MinHash sketch(family);
    for (int v = 0; v < 20; ++v) sketch.Update(rng.Next());
    ASSERT_TRUE(builder.Add(id, 20, sketch).ok());
  }
  auto ensemble = std::move(builder).Build();
  EXPECT_FALSE(ensemble.ok());
  EXPECT_TRUE(ensemble.status().IsInvalidArgument());
}

TEST(LshEnsembleTest, StatsAccountingHoldsAcrossPruningSweep) {
  const Corpus corpus = SmallCorpus(1200, 21);
  auto family = Family();
  auto ensemble = BuildEnsemble(corpus, LshEnsembleOptions{}, family);
  ASSERT_TRUE(ensemble.ok());

  // Every (query, threshold) combination must account for every partition
  // exactly once: partitions_probed + partitions_pruned == partitions().
  for (const size_t index : {size_t{0}, size_t{500}, size_t{1100}}) {
    const Domain& domain = corpus.domain(index);
    auto sketch = MinHash::FromValues(family, domain.values);
    for (const double t_star : {0.1, 0.5, 0.9, 1.0}) {
      std::vector<uint64_t> out;
      QueryStats stats;
      ASSERT_TRUE(
          ensemble->Query(sketch, domain.size(), t_star, &out, &stats).ok());
      EXPECT_EQ(stats.partitions_probed + stats.partitions_pruned,
                ensemble->partitions().size());
      EXPECT_LE(stats.partitions_filter_skipped, stats.partitions_probed);
      EXPECT_EQ(stats.query_size_used, domain.size());
    }
  }

  // With pruning disabled nothing may be skipped.
  LshEnsembleOptions no_prune;
  no_prune.prune_unreachable_partitions = false;
  auto unpruned = BuildEnsemble(corpus, no_prune, family);
  ASSERT_TRUE(unpruned.ok());
  const Domain& big = *std::max_element(
      corpus.domains().begin(), corpus.domains().end(),
      [](const Domain& a, const Domain& b) { return a.size() < b.size(); });
  auto sketch = MinHash::FromValues(family, big.values);
  std::vector<uint64_t> out;
  QueryStats stats;
  ASSERT_TRUE(unpruned->Query(sketch, big.size(), 1.0, &out, &stats).ok());
  EXPECT_EQ(stats.partitions_pruned, 0u);
  EXPECT_EQ(stats.partitions_probed, unpruned->partitions().size());
}

TEST(LshEnsembleTest, QueryOutputHasNoDuplicateIds) {
  const Corpus corpus = SmallCorpus(1500, 22);
  auto family = Family();
  auto ensemble = BuildEnsemble(corpus, LshEnsembleOptions{}, family);
  ASSERT_TRUE(ensemble.ok());
  for (const size_t index : {size_t{3}, size_t{700}, size_t{1400}}) {
    const Domain& domain = corpus.domain(index);
    auto sketch = MinHash::FromValues(family, domain.values);
    std::vector<uint64_t> out;
    ASSERT_TRUE(ensemble->Query(sketch, domain.size(), 0.3, &out).ok());
    std::vector<uint64_t> sorted = out;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "partitions are disjoint, so the union must be duplicate-free";
  }
}

TEST(LshEnsembleTest, BatchQueryMatchesSingleQueries) {
  const Corpus corpus = SmallCorpus(1500, 23);
  auto family = Family();
  auto ensemble = BuildEnsemble(corpus, LshEnsembleOptions{}, family);
  ASSERT_TRUE(ensemble.ok());

  constexpr size_t kQueries = 64;
  std::vector<MinHash> sketches;
  std::vector<QuerySpec> specs;
  sketches.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    const Domain& domain = corpus.domain((i * 17) % corpus.size());
    sketches.push_back(MinHash::FromValues(family, domain.values));
    specs.push_back(QuerySpec{&sketches.back(), domain.size(),
                              i % 2 == 0 ? 0.5 : 0.8});
  }

  std::vector<std::vector<uint64_t>> batch_outs(kQueries);
  std::vector<QueryStats> batch_stats(kQueries);
  QueryContext ctx;
  ASSERT_TRUE(
      ensemble->BatchQuery(specs, &ctx, batch_outs.data(), batch_stats.data())
          .ok());

  for (size_t i = 0; i < kQueries; ++i) {
    std::vector<uint64_t> single_out;
    QueryStats single_stats;
    ASSERT_TRUE(ensemble
                    ->Query(*specs[i].query, specs[i].query_size,
                            specs[i].t_star, &single_out, &single_stats)
                    .ok());
    EXPECT_EQ(batch_outs[i], single_out) << "query " << i;
    EXPECT_EQ(batch_stats[i].query_size_used, single_stats.query_size_used);
    EXPECT_EQ(batch_stats[i].partitions_probed,
              single_stats.partitions_probed);
    EXPECT_EQ(batch_stats[i].partitions_pruned,
              single_stats.partitions_pruned);
    EXPECT_EQ(batch_stats[i].partitions_filter_skipped,
              single_stats.partitions_filter_skipped);
  }

  // A reused context must not leak state between batches: re-running the
  // same batch yields the same answers.
  std::vector<std::vector<uint64_t>> again(kQueries);
  ASSERT_TRUE(ensemble->BatchQuery(specs, &ctx, again.data()).ok());
  for (size_t i = 0; i < kQueries; ++i) EXPECT_EQ(again[i], batch_outs[i]);
  EXPECT_GE(ctx.num_shards(), 1u);
}

// A QueryContext is documented as bound to no particular ensemble: its
// internal scratch must not leak answers from one index into
// another — even for indexes with the same partition count queried with
// identical (q, t*), and even when a dead index's heap address is reused.
TEST(LshEnsembleTest, QueryContextReusableAcrossEnsembles) {
  auto family = Family();
  const Corpus small_corpus = SmallCorpus(600, 25);
  CorpusGenOptions big_gen;
  big_gen.num_domains = 600;
  big_gen.min_size = 200;
  big_gen.max_size = 50000;
  big_gen.seed = 26;
  const Corpus big_corpus = CorpusGenerator(big_gen).Generate().value();

  LshEnsembleOptions options;
  options.num_partitions = 8;
  options.parallel_query = false;  // serial path: one shard carries memos
  auto small_index = BuildEnsemble(small_corpus, options, family);
  auto big_index = BuildEnsemble(big_corpus, options, family);
  ASSERT_TRUE(small_index.ok());
  ASSERT_TRUE(big_index.ok());
  ASSERT_EQ(small_index->partitions().size(), big_index->partitions().size());

  const MinHash sketch =
      MinHash::FromValues(family, big_corpus.domain(3).values);
  const QuerySpec spec{&sketch, /*query_size=*/1000, /*t_star=*/0.5};
  const std::span<const QuerySpec> specs(&spec, 1);

  QueryContext shared_ctx;
  std::vector<uint64_t> out;
  // Warm the memos on the small index with the exact same (q, t*)...
  ASSERT_TRUE(small_index->BatchQuery(specs, &shared_ctx, &out).ok());
  // ...then the big index must answer as if the context were fresh.
  std::vector<uint64_t> shared_out;
  QueryStats shared_stats;
  ASSERT_TRUE(
      big_index->BatchQuery(specs, &shared_ctx, &shared_out, &shared_stats)
          .ok());
  QueryContext fresh_ctx;
  std::vector<uint64_t> fresh_out;
  QueryStats fresh_stats;
  ASSERT_TRUE(
      big_index->BatchQuery(specs, &fresh_ctx, &fresh_out, &fresh_stats).ok());
  EXPECT_EQ(shared_out, fresh_out);
  EXPECT_EQ(shared_stats.partitions_probed, fresh_stats.partitions_probed);
  EXPECT_EQ(shared_stats.partitions_pruned, fresh_stats.partitions_pruned);

  // Destroy-and-rebuild while the context lives: stale scratch state
  // must not survive into the replacement index.
  auto replacement = BuildEnsemble(big_corpus, options, family);
  ASSERT_TRUE(replacement.ok());
  small_index = std::move(replacement);  // old small index destroyed
  std::vector<uint64_t> replay_out;
  ASSERT_TRUE(small_index->BatchQuery(specs, &shared_ctx, &replay_out).ok());
  EXPECT_EQ(replay_out, fresh_out);
}

TEST(LshEnsembleTest, BatchQueryValidation) {
  const Corpus corpus = SmallCorpus(200, 24);
  auto family = Family();
  auto ensemble = BuildEnsemble(corpus, LshEnsembleOptions{}, family);
  ASSERT_TRUE(ensemble.ok());

  auto sketch = MinHash::FromValues(family, corpus.domain(0).values);
  QuerySpec spec{&sketch, corpus.domain(0).size(), 0.5};
  std::vector<std::vector<uint64_t>> outs(2);
  QueryContext ctx;

  // Empty batch is a no-op.
  EXPECT_TRUE(
      ensemble->BatchQuery(std::span<const QuerySpec>(), &ctx, outs.data())
          .ok());
  // Null context / outs are rejected.
  EXPECT_FALSE(ensemble
                   ->BatchQuery(std::span<const QuerySpec>(&spec, 1), nullptr,
                                outs.data())
                   .ok());
  EXPECT_FALSE(ensemble
                   ->BatchQuery(std::span<const QuerySpec>(&spec, 1), &ctx,
                                nullptr)
                   .ok());
  // A bad spec inside a batch fails the call.
  QuerySpec bad[2] = {spec, QuerySpec{nullptr, 10, 0.5}};
  EXPECT_FALSE(ensemble->BatchQuery(bad, &ctx, outs.data()).ok());
  QuerySpec bad_threshold[2] = {spec, QuerySpec{&sketch, 10, 1.5}};
  EXPECT_FALSE(
      ensemble->BatchQuery(bad_threshold, &ctx, outs.data()).ok());
}

}  // namespace
}  // namespace lshensemble
