// The unified batched query surface: build an index over a synthetic
// corpus, then answer a whole workload of containment queries with one
// BatchQuery() call per batch, reusing a QueryContext so the steady state
// allocates nothing. This is the serving-path shape: one context per
// worker thread, batches drained from a request queue.
//
// The same shape covers all three query modes:
//   * static     — LshEnsemble::BatchQuery
//   * dynamic    — DynamicLshEnsemble::BatchQuery (indexed + delta domains,
//                  the delta scanned once per batch)
//   * top-k      — ShardedEnsemble::BatchSearch on one shard (lockstep
//                  threshold descents, one scatter wave per round whose
//                  tasks score the candidates they find)
//
// Build & run:
//   cmake --build build --target example_batch_search
//   ./build/example_batch_search

#include <cstdio>
#include <vector>

#include "core/dynamic_ensemble.h"
#include "core/lsh_ensemble.h"
#include "core/sharded_ensemble.h"
#include "core/topk.h"
#include "minhash/minhash.h"
#include "util/timer.h"
#include "workload/generator.h"

using namespace lshensemble;  // NOLINT — example brevity

int main() {
  // A power-law corpus standing in for a web-table crawl.
  CorpusGenOptions gen;
  gen.num_domains = 20000;
  gen.min_size = 10;
  gen.max_size = 20000;
  gen.seed = 7;
  Corpus corpus = CorpusGenerator(gen).Generate().value();

  auto family = HashFamily::Create(256, /*seed=*/7).value();
  LshEnsembleBuilder builder(LshEnsembleOptions{}, family);
  std::vector<MinHash> sketches;
  sketches.reserve(corpus.size());
  for (const Domain& domain : corpus.domains()) {
    sketches.push_back(MinHash::FromValues(family, domain.values));
    if (!builder.Add(domain.id, domain.size(), sketches.back()).ok()) {
      std::fprintf(stderr, "Add failed\n");
      return 1;
    }
  }
  auto built = std::move(builder).Build();
  if (!built.ok()) {
    std::fprintf(stderr, "Build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const LshEnsemble& ensemble = *built;
  std::printf("indexed %zu domains into %zu partitions\n", ensemble.size(),
              ensemble.partitions().size());

  // The workload: every 5th corpus domain queried at t* = 0.6.
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < corpus.size(); i += 5) {
    specs.push_back(QuerySpec{&sketches[i], corpus.domain(i).size(), 0.6});
  }
  std::vector<std::vector<uint64_t>> outs(specs.size());

  QueryContext ctx;  // reused across every batch below
  constexpr size_t kBatch = 1024;
  StopWatch watch;
  size_t candidates = 0;
  for (size_t begin = 0; begin < specs.size(); begin += kBatch) {
    const size_t len = std::min(kBatch, specs.size() - begin);
    const Status status = ensemble.BatchQuery(
        std::span<const QuerySpec>(specs.data() + begin, len), &ctx,
        outs.data() + begin);
    if (!status.ok()) {
      std::fprintf(stderr, "BatchQuery failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  const double elapsed = watch.ElapsedSeconds();
  for (const auto& out : outs) candidates += out.size();

  std::printf(
      "%zu queries in %.1f ms (%.0f queries/sec), %.1f candidates/query, "
      "context scratch: %.1f KiB\n",
      specs.size(), elapsed * 1e3, specs.size() / elapsed,
      static_cast<double>(candidates) / specs.size(),
      static_cast<double>(ctx.MemoryBytes()) / 1024.0);

  // --- the same batch against a live (dynamic) index -------------------
  // 90% of the corpus indexed, 10% freshly inserted (unindexed delta):
  // DynamicLshEnsemble::BatchQuery answers the identical workload, the
  // delta scanned once per batch with the kernel's batch compare.
  DynamicEnsembleOptions dyn_options;
  dyn_options.min_delta_for_rebuild = corpus.size() + 1;  // keep the delta
  auto dynamic =
      DynamicLshEnsemble::Create(dyn_options, family).value();
  const size_t indexed_count = corpus.size() - corpus.size() / 10;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Domain& domain = corpus.domain(i);
    if (!dynamic.Insert(domain.id, domain.size(), sketches[i]).ok() ||
        (i + 1 == indexed_count && !dynamic.Flush().ok())) {
      std::fprintf(stderr, "dynamic build failed\n");
      return 1;
    }
  }
  watch.Restart();
  for (size_t begin = 0; begin < specs.size(); begin += kBatch) {
    const size_t len = std::min(kBatch, specs.size() - begin);
    if (!dynamic
             .BatchQuery(std::span<const QuerySpec>(specs.data() + begin, len),
                         &ctx, outs.data() + begin)
             .ok()) {
      std::fprintf(stderr, "dynamic BatchQuery failed\n");
      return 1;
    }
  }
  std::printf(
      "dynamic (%zu indexed + %zu delta): same workload in %.1f ms "
      "(%.0f queries/sec)\n",
      dynamic.indexed_size(), dynamic.delta_size(),
      watch.ElapsedSeconds() * 1e3, specs.size() / watch.ElapsedSeconds());

  // --- batched top-k over the same indexed + delta corpus -------------
  // Top-k runs on the serving layer, here with one shard: one BatchSearch
  // call advances every query's threshold descent in lockstep, and each
  // round's shard tasks score the candidates they find.
  ShardedEnsembleOptions sharded_options;
  sharded_options.base = dyn_options;
  auto sharded = ShardedEnsemble::Create(sharded_options, family).value();
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Domain& domain = corpus.domain(i);
    if (!sharded.Insert(domain.id, domain.size(), sketches[i]).ok() ||
        (i + 1 == indexed_count && !sharded.Flush().ok())) {
      std::fprintf(stderr, "sharded build failed\n");
      return 1;
    }
  }
  std::vector<TopKQuery> topk_queries;
  for (size_t i = 0; i < corpus.size(); i += 500) {
    topk_queries.push_back(TopKQuery{&sketches[i], corpus.domain(i).size()});
  }
  std::vector<std::vector<TopKResult>> rankings(topk_queries.size());
  watch.Restart();
  if (!sharded.BatchSearch(topk_queries, /*k=*/5, rankings.data()).ok()) {
    std::fprintf(stderr, "BatchSearch failed\n");
    return 1;
  }
  std::printf("top-5 of %zu queries in one BatchSearch: %.1f ms; best "
              "containment of query 0: %.3f\n",
              topk_queries.size(), watch.ElapsedSeconds() * 1e3,
              rankings[0].empty() ? 0.0
                                  : rankings[0].front().estimated_containment);
  return 0;
}
