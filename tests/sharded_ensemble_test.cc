// The sharded serving layer's defining property is that sharding is
// invisible in the results: the scatter/gather BatchQuery and the lockstep
// BatchSearch must return exactly what the unsharded engine returns on the
// same corpus, for every shard count, through the whole lifecycle
// (unflushed delta, tombstones, rebuilds). These tests assert that
// equivalence property, the worker-dispatch guard, and the concurrency
// contract (readers concurrent with inserts).

#include "core/sharded_ensemble.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/dynamic_ensemble.h"
#include "core/topk.h"
#include "data/corpus.h"
#include "data/sketcher.h"
#include "filter/probe_filter.h"
#include "lsh/lsh_forest.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace lshensemble {
namespace {

constexpr int kNumHashes = 128;

ShardedEnsembleOptions ShardOptions(size_t num_shards) {
  ShardedEnsembleOptions options;
  options.base.base.num_partitions = 4;
  options.base.base.num_hashes = kNumHashes;
  options.base.base.tree_depth = 4;
  options.base.min_delta_for_rebuild = 1 << 30;  // tests flush explicitly
  options.num_shards = num_shards;
  return options;
}

class ShardedEnsembleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    family_ = HashFamily::Create(kNumHashes, 21).value();
    CorpusGenOptions gen;
    gen.num_domains = 400;
    gen.seed = 917;
    corpus_ = CorpusGenerator(gen).Generate().value();
    sketches_.reserve(corpus_->size());
    for (size_t i = 0; i < corpus_->size(); ++i) {
      sketches_.push_back(
          MinHash::FromValues(family_, corpus_->domain(i).values));
    }
  }

  Status InsertDomain(ShardedEnsemble& index, size_t i) const {
    const Domain& domain = corpus_->domain(i);
    return index.Insert(domain.id, domain.size(), sketches_[i]);
  }

  Status InsertDomain(DynamicLshEnsemble& index, size_t i) const {
    const Domain& domain = corpus_->domain(i);
    return index.Insert(domain.id, domain.size(), sketches_[i]);
  }

  /// Query specs over a sample of corpus domains at mixed thresholds.
  std::vector<QuerySpec> SampleSpecs(size_t count) const {
    std::vector<QuerySpec> specs;
    specs.reserve(count);
    for (size_t j = 0; j < count; ++j) {
      const size_t pick = (j * 37) % corpus_->size();
      const double t_star = (j % 3 == 0) ? 0.3 : 0.6;
      specs.push_back(
          QuerySpec{&sketches_[pick], corpus_->domain(pick).size(), t_star});
    }
    return specs;
  }

  std::shared_ptr<const HashFamily> family_;
  std::optional<Corpus> corpus_;
  std::vector<MinHash> sketches_;
};

TEST_F(ShardedEnsembleTest, CreateValidation) {
  EXPECT_FALSE(ShardedEnsemble::Create(ShardOptions(2), nullptr).ok());
  ShardedEnsembleOptions bad = ShardOptions(0);
  EXPECT_FALSE(ShardedEnsemble::Create(bad, family_).ok());
  bad = ShardOptions(2);
  bad.base.base.num_hashes = 64;  // mismatches the 128-hash family
  EXPECT_FALSE(ShardedEnsemble::Create(bad, family_).ok());
  EXPECT_TRUE(ShardedEnsemble::Create(ShardOptions(2), family_).ok());
}

TEST_F(ShardedEnsembleTest, ShardOfIsStableAndInRange) {
  auto index = ShardedEnsemble::Create(ShardOptions(4), family_).value();
  for (uint64_t id = 1; id < 100; ++id) {
    const size_t s = index.ShardOf(id);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, index.ShardOf(id));
  }
}

// The core property: through every lifecycle stage — pure delta, flushed,
// mid-batch delta on top of a build, tombstones, re-inserts — the sharded
// candidates equal the unsharded engine's for every shard count.
TEST_F(ShardedEnsembleTest, BatchQueryMatchesUnshardedThroughLifecycle) {
  const std::vector<QuerySpec> specs = SampleSpecs(48);

  DynamicEnsembleOptions reference_options = ShardOptions(1).base;
  // Restore the pool flags the sharded layer turns off per shard: results
  // must not depend on them.
  reference_options.base.parallel_build = true;
  reference_options.base.parallel_query = true;

  for (const size_t num_shards : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    auto reference =
        DynamicLshEnsemble::Create(reference_options, family_).value();
    auto sharded =
        ShardedEnsemble::Create(ShardOptions(num_shards), family_).value();

    auto expect_equal = [&](const char* stage) {
      SCOPED_TRACE(stage);
      std::vector<std::vector<uint64_t>> expected(specs.size());
      std::vector<std::vector<uint64_t>> actual(specs.size());
      QueryContext ctx;
      ASSERT_TRUE(reference.BatchQuery(specs, &ctx, expected.data()).ok());
      ASSERT_TRUE(sharded.BatchQuery(specs, actual.data()).ok());
      for (auto& out : expected) std::sort(out.begin(), out.end());
      for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i]) << "query " << i;
      }
    };

    // Stage 1: everything in the delta, nothing built.
    for (size_t i = 0; i < corpus_->size() / 2; ++i) {
      ASSERT_TRUE(InsertDomain(reference, i).ok());
      ASSERT_TRUE(InsertDomain(sharded, i).ok());
    }
    expect_equal("pure delta");

    // Stage 2: flushed (global partitioning pinned across shards).
    ASSERT_TRUE(reference.Flush().ok());
    ASSERT_TRUE(sharded.Flush().ok());
    EXPECT_EQ(sharded.delta_size(), 0u);
    expect_equal("flushed");

    // Stage 3: a fresh delta on top of the build.
    for (size_t i = corpus_->size() / 2; i < corpus_->size(); ++i) {
      ASSERT_TRUE(InsertDomain(reference, i).ok());
      ASSERT_TRUE(InsertDomain(sharded, i).ok());
    }
    expect_equal("mid-batch delta");

    // Stage 4: tombstoned (indexed) and dropped (delta) removals, plus a
    // re-insert of a removed indexed id.
    for (size_t i = 3; i < corpus_->size(); i += 29) {
      ASSERT_TRUE(reference.Remove(corpus_->domain(i).id).ok());
      ASSERT_TRUE(sharded.Remove(corpus_->domain(i).id).ok());
    }
    ASSERT_TRUE(InsertDomain(reference, 3).ok());
    ASSERT_TRUE(InsertDomain(sharded, 3).ok());
    EXPECT_EQ(sharded.tombstone_count(), reference.tombstone_count());
    expect_equal("tombstones + re-insert");

    // Stage 5: rebuilt clean again.
    ASSERT_TRUE(reference.Flush().ok());
    ASSERT_TRUE(sharded.Flush().ok());
    EXPECT_EQ(sharded.tombstone_count(), 0u);
    expect_equal("re-flushed");

    EXPECT_EQ(sharded.size(), reference.size());
  }
}

// Ranked top-k output must be byte-identical to the unsharded searcher:
// the cross-shard k-th-best merge retires every query at the same round
// with the same results.
TEST_F(ShardedEnsembleTest, BatchSearchMatchesUnshardedTopK) {
  DynamicEnsembleOptions reference_options = ShardOptions(1).base;
  auto reference =
      DynamicLshEnsemble::Create(reference_options, family_).value();
  auto sharded = ShardedEnsemble::Create(ShardOptions(3), family_).value();

  for (size_t i = 0; i < corpus_->size(); ++i) {
    ASSERT_TRUE(InsertDomain(reference, i).ok());
    ASSERT_TRUE(InsertDomain(sharded, i).ok());
  }
  // Flush 90%, keep the rest as delta, and tombstone a few.
  ASSERT_TRUE(reference.Flush().ok());
  ASSERT_TRUE(sharded.Flush().ok());
  for (size_t i = corpus_->size() - 20; i < corpus_->size(); ++i) {
    ASSERT_TRUE(reference.Remove(corpus_->domain(i).id).ok());
    ASSERT_TRUE(sharded.Remove(corpus_->domain(i).id).ok());
    ASSERT_TRUE(InsertDomain(reference, i).ok());
    ASSERT_TRUE(InsertDomain(sharded, i).ok());
  }

  std::vector<TopKQuery> queries;
  for (size_t j = 0; j < 24; ++j) {
    const size_t pick = (j * 53) % corpus_->size();
    queries.push_back(
        TopKQuery{&sketches_[pick], corpus_->domain(pick).size()});
  }
  for (const size_t k : {size_t{1}, size_t{5}, size_t{10}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    std::vector<std::vector<TopKResult>> expected(queries.size());
    std::vector<std::vector<TopKResult>> actual(queries.size());
    QueryContext ctx;
    const TopKSearcher searcher(&reference);
    ASSERT_TRUE(searcher.BatchSearch(queries, k, &ctx, expected.data()).ok());
    ASSERT_TRUE(sharded.BatchSearch(queries, k, actual.data()).ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]) << "query " << i;
    }
  }
}

// The global rebuild trigger mirrors the unsharded policy on global
// counts: with the same insert sequence both indexes flush at the same
// step.
TEST_F(ShardedEnsembleTest, AutoRebuildMatchesUnshardedSchedule) {
  DynamicEnsembleOptions reference_options = ShardOptions(1).base;
  reference_options.min_delta_for_rebuild = 32;
  reference_options.rebuild_fraction = 0.25;
  ShardedEnsembleOptions sharded_options = ShardOptions(4);
  sharded_options.base.min_delta_for_rebuild = 32;
  sharded_options.base.rebuild_fraction = 0.25;

  auto reference =
      DynamicLshEnsemble::Create(reference_options, family_).value();
  auto sharded = ShardedEnsemble::Create(sharded_options, family_).value();
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(InsertDomain(reference, i).ok());
    ASSERT_TRUE(InsertDomain(sharded, i).ok());
    ASSERT_EQ(sharded.indexed_size(), reference.indexed_size())
        << "after insert " << i;
    ASSERT_EQ(sharded.delta_size(), reference.delta_size())
        << "after insert " << i;
  }
  EXPECT_GT(sharded.indexed_size(), 0u);  // at least one auto rebuild fired
}

TEST_F(ShardedEnsembleTest, EmptyAndSparseShards) {
  // More shards than domains: most shards stay empty through the whole
  // lifecycle and must contribute nothing.
  auto index = ShardedEnsemble::Create(ShardOptions(8), family_).value();
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(InsertDomain(index, i).ok());
  ASSERT_TRUE(index.Flush().ok());
  EXPECT_EQ(index.size(), 3u);

  std::vector<QuerySpec> specs = SampleSpecs(4);
  std::vector<std::vector<uint64_t>> outs(specs.size());
  ASSERT_TRUE(index.BatchQuery(specs, outs.data()).ok());

  // Fully empty index answers cleanly too.
  auto empty = ShardedEnsemble::Create(ShardOptions(3), family_).value();
  ASSERT_TRUE(empty.Flush().ok());
  ASSERT_TRUE(empty.BatchQuery(specs, outs.data()).ok());
  for (const auto& out : outs) EXPECT_TRUE(out.empty());
}

TEST_F(ShardedEnsembleTest, SideCarLookups) {
  auto index = ShardedEnsemble::Create(ShardOptions(4), family_).value();
  ASSERT_TRUE(InsertDomain(index, 5).ok());
  const Domain& domain = corpus_->domain(5);
  EXPECT_EQ(index.SizeOf(domain.id), domain.size());
  ASSERT_NE(index.SignatureOf(domain.id), nullptr);
  EXPECT_EQ(index.SizeOf(999999), 0u);
  EXPECT_EQ(index.SignatureOf(999999), nullptr);
  ASSERT_TRUE(index.Remove(domain.id).ok());
  EXPECT_EQ(index.SizeOf(domain.id), 0u);
}

TEST_F(ShardedEnsembleTest, QueryValidation) {
  auto index = ShardedEnsemble::Create(ShardOptions(2), family_).value();
  ASSERT_TRUE(InsertDomain(index, 0).ok());
  std::vector<QuerySpec> specs = SampleSpecs(2);
  EXPECT_FALSE(index.BatchQuery(specs, nullptr).ok());
  specs[1].query = nullptr;
  std::vector<std::vector<uint64_t>> outs(specs.size());
  EXPECT_FALSE(index.BatchQuery(specs, outs.data()).ok());
  EXPECT_TRUE(index.BatchQuery({}, outs.data()).ok());
}

TEST_F(ShardedEnsembleTest, AddCorpusFeedsShards) {
  auto index = ShardedEnsemble::Create(ShardOptions(4), family_).value();
  const ParallelSketcher sketcher(family_);
  ASSERT_TRUE(AddCorpus(*corpus_, sketcher, &index).ok());
  EXPECT_EQ(index.size(), corpus_->size());
  ASSERT_TRUE(index.Flush().ok());

  // Every ingested domain must find itself at full containment.
  for (size_t i = 0; i < 10; ++i) {
    std::vector<QuerySpec> spec = {
        QuerySpec{&sketches_[i], corpus_->domain(i).size(), 0.9}};
    std::vector<uint64_t> out;
    ASSERT_TRUE(index.BatchQuery(spec, &out).ok());
    EXPECT_TRUE(std::binary_search(out.begin(), out.end(),
                                   corpus_->domain(i).id));
  }
}

// The submit-from-worker guard: a scatter issued from inside a pool
// worker must fail loudly instead of risking a pool deadlock.
TEST_F(ShardedEnsembleTest, ShardScatterFromPoolWorkerIsRejected) {
  auto index = ShardedEnsemble::Create(ShardOptions(2), family_).value();
  ASSERT_TRUE(InsertDomain(index, 0).ok());
  std::vector<QuerySpec> specs = SampleSpecs(2);
  std::vector<std::vector<uint64_t>> outs(specs.size());

  Status query_status, search_status;
  ThreadPool::Shared()
      .Submit([&] {
        query_status = index.BatchQuery(specs, outs.data());
        std::vector<TopKQuery> queries = {TopKQuery{specs[0].query, 10}};
        std::vector<TopKResult> ranked;
        search_status = index.BatchSearch(queries, 3, &ranked);
      })
      .wait();
  EXPECT_EQ(query_status.code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(search_status.code(), Status::Code::kFailedPrecondition);

  // From the calling thread the same calls succeed.
  EXPECT_TRUE(index.BatchQuery(specs, outs.data()).ok());
}

// Concurrency contract under TSan: readers run concurrently with inserts
// and removals; per-shard locks serialize them. (Scoped into the TSan CI
// job via the Shard* test-name filter.)
TEST(ShardedConcurrencyTest, ConcurrentReadersWithConcurrentInserts) {
  constexpr int kHashes = 64;
  auto family = HashFamily::Create(kHashes, 7).value();
  CorpusGenOptions gen;
  gen.num_domains = 300;
  gen.seed = 31;
  const Corpus corpus = CorpusGenerator(gen).Generate().value();
  std::vector<MinHash> sketches;
  sketches.reserve(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    sketches.push_back(MinHash::FromValues(family, corpus.domain(i).values));
  }

  ShardedEnsembleOptions options;
  options.base.base.num_partitions = 4;
  options.base.base.num_hashes = kHashes;
  options.base.base.tree_depth = 4;
  options.base.min_delta_for_rebuild = 64;  // let auto-rebuilds fire mid-run
  options.num_shards = 4;
  auto index = ShardedEnsemble::Create(options, family).value();

  // Seed half the corpus and build, so readers see indexed + delta.
  const size_t seeded = corpus.size() / 2;
  for (size_t i = 0; i < seeded; ++i) {
    ASSERT_TRUE(
        index.Insert(corpus.domain(i).id, corpus.domain(i).size(), sketches[i])
            .ok());
  }
  ASSERT_TRUE(index.Flush().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::vector<QuerySpec> specs;
      for (size_t j = 0; j < 16; ++j) {
        const size_t pick = (static_cast<size_t>(r) * 101 + j * 13) % seeded;
        specs.push_back(
            QuerySpec{&sketches[pick], corpus.domain(pick).size(), 0.5});
      }
      std::vector<std::vector<uint64_t>> outs(specs.size());
      while (!stop.load(std::memory_order_relaxed)) {
        if (!index.BatchQuery(specs, outs.data()).ok()) {
          reader_failures.fetch_add(1);
          return;
        }
      }
    });
  }

  // Writer: insert the other half (auto-rebuilds included), remove a few.
  for (size_t i = seeded; i < corpus.size(); ++i) {
    ASSERT_TRUE(
        index.Insert(corpus.domain(i).id, corpus.domain(i).size(), sketches[i])
            .ok());
    if (i % 17 == 0) {
      ASSERT_TRUE(index.Remove(corpus.domain(i - seeded).id).ok());
    }
  }
  ASSERT_TRUE(index.Flush().ok());
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(index.size(), 0u);
}

// The probe-filter tier must be invisible in results: at every shard
// count and every lifecycle stage (pure delta, flushed, mid-batch delta,
// tombstones, re-flushed), a filtered index returns byte-identical
// candidates to one built with filters off — for native queries and for
// foreign queries (drawn from a disjoint corpus, the case where pruning
// actually fires).
TEST_F(ShardedEnsembleTest, FilterPruningKeepsResultsByteIdentical) {
  // Foreign query sketches: a different generator seed yields domains the
  // index has never seen, so most probes miss every shard's filter.
  CorpusGenOptions foreign_gen;
  foreign_gen.num_domains = 32;
  foreign_gen.seed = 5309;
  const Corpus foreign = CorpusGenerator(foreign_gen).Generate().value();
  std::vector<MinHash> foreign_sketches;
  foreign_sketches.reserve(foreign.size());
  for (size_t i = 0; i < foreign.size(); ++i) {
    foreign_sketches.push_back(
        MinHash::FromValues(family_, foreign.domain(i).values));
  }

  std::vector<QuerySpec> specs = SampleSpecs(24);
  for (size_t i = 0; i < foreign.size(); ++i) {
    specs.push_back(QuerySpec{&foreign_sketches[i], foreign.domain(i).size(),
                              (i % 2 == 0) ? 0.5 : 0.8});
  }

  for (const size_t num_shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    ShardedEnsembleOptions unfiltered_options = ShardOptions(num_shards);
    unfiltered_options.base.base.build_probe_filter = false;
    auto filtered = ShardedEnsemble::Create(ShardOptions(num_shards),
                                            family_).value();
    auto unfiltered =
        ShardedEnsemble::Create(unfiltered_options, family_).value();

    auto expect_equal = [&](const char* stage) {
      SCOPED_TRACE(stage);
      std::vector<std::vector<uint64_t>> with(specs.size());
      std::vector<std::vector<uint64_t>> without(specs.size());
      ASSERT_TRUE(filtered.BatchQuery(specs, with.data()).ok());
      ASSERT_TRUE(unfiltered.BatchQuery(specs, without.data()).ok());
      for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(with[i], without[i]) << "query " << i;
      }
    };

    for (size_t i = 0; i < corpus_->size() / 2; ++i) {
      ASSERT_TRUE(InsertDomain(filtered, i).ok());
      ASSERT_TRUE(InsertDomain(unfiltered, i).ok());
    }
    expect_equal("pure delta");

    ASSERT_TRUE(filtered.Flush().ok());
    ASSERT_TRUE(unfiltered.Flush().ok());
    expect_equal("flushed");

    for (size_t i = corpus_->size() / 2; i < corpus_->size(); ++i) {
      ASSERT_TRUE(InsertDomain(filtered, i).ok());
      ASSERT_TRUE(InsertDomain(unfiltered, i).ok());
    }
    expect_equal("mid-batch delta");

    for (size_t i = 3; i < corpus_->size(); i += 29) {
      ASSERT_TRUE(filtered.Remove(corpus_->domain(i).id).ok());
      ASSERT_TRUE(unfiltered.Remove(corpus_->domain(i).id).ok());
    }
    expect_equal("tombstones");

    ASSERT_TRUE(filtered.Flush().ok());
    ASSERT_TRUE(unfiltered.Flush().ok());
    expect_equal("re-flushed");
  }
}

// Whether `engine`'s union probe filter rejects `query` outright (no tree's
// slot-0 key may be present), computed from the public filter accessors.
bool EngineFilterRejects(const LshEnsemble& engine, const MinHash& query) {
  const ProbeFilter* filter = engine.engine_probe_filter();
  if (filter == nullptr) return false;
  const int depth = engine.options().tree_depth;
  const int trees = engine.options().num_hashes / depth;
  for (int t = 0; t < trees; ++t) {
    const uint32_t key = LshForest::TruncateHash(
        query.values()[static_cast<size_t>(t) * depth]);
    if (filter->MayContain(
            ProbeFilter::ProbeKey(static_cast<uint32_t>(t), key))) {
      return false;
    }
  }
  return true;
}

// Stats only observe. For native and foreign batches at S in {1, 4},
// BatchQuery with stats returns byte-identical outputs to BatchQuery
// without them, every partition is accounted once, and a query every
// shard's engine filter rejects shows as filter-skipped wherever it is
// reachable, with no slot-0 work.
TEST_F(ShardedEnsembleTest, StatsAreObservationOnly) {
  // Foreign queries: random values share no slot-0 key with the corpus.
  constexpr size_t kForeign = 32;
  Rng rng(5309);
  std::vector<MinHash> foreign_sketches;
  std::vector<QuerySpec> foreign_specs;
  foreign_sketches.reserve(kForeign);
  for (size_t i = 0; i < kForeign; ++i) {
    std::vector<uint64_t> values(20 + 10 * i);
    for (uint64_t& value : values) value = rng.Next();
    foreign_sketches.push_back(MinHash::FromValues(family_, values));
    foreign_specs.push_back(QuerySpec{&foreign_sketches.back(), values.size(),
                                      (i % 2 == 0) ? 0.5 : 0.8});
  }
  const std::vector<QuerySpec> native_specs = SampleSpecs(32);

  for (const size_t num_shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    ShardedEnsembleOptions options = ShardOptions(num_shards);
    // A sparse-enough union filter that foreign queries are rejected
    // outright rather than by each partition's filter.
    options.base.base.filter_bits_per_key = 32;
    auto index = ShardedEnsemble::Create(options, family_).value();
    for (size_t i = 0; i < corpus_->size(); ++i) {
      ASSERT_TRUE(InsertDomain(index, i).ok());
    }
    ASSERT_TRUE(index.Flush().ok());
    size_t total_partitions = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      ASSERT_NE(index.shard(s).indexed(), nullptr);
      total_partitions += index.shard(s).indexed()->partitions().size();
    }

    size_t rejected = 0;
    auto check_batch = [&](const std::vector<QuerySpec>& specs) {
      std::vector<std::vector<uint64_t>> plain(specs.size());
      std::vector<std::vector<uint64_t>> observed(specs.size());
      std::vector<QueryStats> stats(specs.size());
      ASSERT_TRUE(index.BatchQuery(specs, plain.data()).ok());
      ASSERT_TRUE(index.BatchQuery(specs, observed.data(), stats.data()).ok());
      for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(observed[i], plain[i]) << "query " << i;
        EXPECT_EQ(stats[i].shards_gathered, num_shards);
        EXPECT_EQ(stats[i].partitions_probed + stats[i].partitions_pruned,
                  total_partitions);
        bool engine_rejected = true;
        for (size_t s = 0; s < num_shards; ++s) {
          engine_rejected = engine_rejected &&
                            EngineFilterRejects(*index.shard(s).indexed(),
                                                *specs[i].query);
        }
        if (!engine_rejected) continue;
        ++rejected;
        EXPECT_TRUE(observed[i].empty());
        EXPECT_EQ(stats[i].partitions_filter_skipped,
                  stats[i].partitions_probed);
      }
    };
    check_batch(native_specs);
    check_batch(foreign_specs);
    EXPECT_GT(rejected, kForeign / 2);
  }
}

// Filtered serving under concurrent mutation: readers run filtered batch
// queries non-stop while a writer inserts, removes, and flushes (every
// flush rebuilds the per-shard filters). TSan runs this (the CI regex
// matches "Filter"); the assertion here is no failures and no data races.
TEST(ShardedFilterConcurrencyTest, QueriesRaceInsertRemoveFlush) {
  constexpr int kHashes = 64;
  auto family = HashFamily::Create(kHashes, 7).value();
  CorpusGenOptions gen;
  gen.num_domains = 240;
  gen.seed = 47;
  const Corpus corpus = CorpusGenerator(gen).Generate().value();
  std::vector<MinHash> sketches;
  sketches.reserve(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    sketches.push_back(MinHash::FromValues(family, corpus.domain(i).values));
  }

  ShardedEnsembleOptions options;
  options.base.base.num_partitions = 4;
  options.base.base.num_hashes = kHashes;
  options.base.base.tree_depth = 4;
  options.base.min_delta_for_rebuild = 1 << 30;  // flushes are explicit
  options.num_shards = 4;
  auto index = ShardedEnsemble::Create(options, family).value();

  const size_t seeded = corpus.size() / 2;
  for (size_t i = 0; i < seeded; ++i) {
    ASSERT_TRUE(
        index.Insert(corpus.domain(i).id, corpus.domain(i).size(), sketches[i])
            .ok());
  }
  ASSERT_TRUE(index.Flush().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::vector<QuerySpec> specs;
      for (size_t j = 0; j < 12; ++j) {
        const size_t pick =
            (static_cast<size_t>(r) * 71 + j * 19) % corpus.size();
        specs.push_back(
            QuerySpec{&sketches[pick], corpus.domain(pick).size(), 0.5});
      }
      std::vector<std::vector<uint64_t>> outs(specs.size());
      while (!stop.load(std::memory_order_relaxed)) {
        if (!index.BatchQuery(specs, outs.data()).ok()) {
          reader_failures.fetch_add(1);
          return;
        }
      }
    });
  }

  // Writer: grow the delta, tombstone indexed ids, and flush repeatedly —
  // each flush swaps in freshly built per-shard filters under the shard
  // write locks while the readers keep probing.
  for (size_t i = seeded; i < corpus.size(); ++i) {
    ASSERT_TRUE(
        index.Insert(corpus.domain(i).id, corpus.domain(i).size(), sketches[i])
            .ok());
    if (i % 13 == 0) {
      ASSERT_TRUE(index.Remove(corpus.domain(i - seeded).id).ok());
    }
    if (i % 30 == 0) {
      ASSERT_TRUE(index.Flush().ok());
    }
  }
  ASSERT_TRUE(index.Flush().ok());
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(index.size(), 0u);
}

}  // namespace
}  // namespace lshensemble
