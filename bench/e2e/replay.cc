// Layer replay: the recorded query stream, re-issued one layer boundary at
// a time so each layer's cost can be read from outside the library.
//
// Per wave, on the calling thread: the sharded scatter/gather
// (ShardedEnsemble::BatchQuery, shards on the pool), then every shard's
// DynamicLshEnsemble::BatchQuery (indexed probe + delta scan), then every
// shard's indexed LshEnsemble::BatchQuery (probe only), then
// TuneForPartition for every (partition, query) the probe would tune.
// The differences between boundaries give a layer's self time
// (trace_summary.py). Query statistics come from a separate untimed pass:
// collecting them turns off the engine-level Bloom reject, so a timed pass
// with stats would not be the serving path.

#include <algorithm>
#include <memory>
#include <vector>

#include "e2e.h"
#include "util/thread_pool.h"

namespace lshensemble {
namespace e2e {
namespace {

/// Span name for wave `w`: none (untraced) for the warm-up wave, w < 0.
const char* Named(int64_t w, const char* name) {
  return w < 0 ? nullptr : name;
}

/// Every boundary of one threshold wave; `w` < 0 runs it untraced (warm-up).
void ReplayWave(const ShardedEnsemble& index, std::span<const QuerySpec> specs,
                int64_t w, std::vector<std::unique_ptr<QueryContext>>* ctxs,
                std::vector<std::vector<uint64_t>>* outs) {
  const size_t shards = index.num_shards();
  {
    const uint64_t allocs0 = trace::Allocs();
    trace::Span span(Named(w, "sharded.BatchQuery"), w);
    trace::CountAllocs(true);
    const Status status = index.BatchQuery(specs, outs->data());
    trace::CountAllocs(false);
    if (!status.ok()) Die("replay sharded BatchQuery", status);
    span.Arg("allocs", static_cast<double>(trace::Allocs() - allocs0));
  }
  for (size_t s = 0; s < shards; ++s) {
    trace::Span span(Named(w, "dynamic.BatchQuery"), w);
    span.Arg("shard", static_cast<double>(s));
    if (Status status =
            index.shard(s).BatchQuery(specs, (*ctxs)[s].get(), outs->data());
        !status.ok()) {
      Die("replay dynamic BatchQuery", status);
    }
  }
  for (size_t s = 0; s < shards; ++s) {
    const LshEnsemble* indexed = index.shard(s).indexed();
    if (indexed == nullptr) continue;
    trace::Span span(Named(w, "ensemble.BatchQuery"), w);
    span.Arg("shard", static_cast<double>(s));
    if (Status status =
            indexed->BatchQuery(specs, (*ctxs)[s].get(), outs->data());
        !status.ok()) {
      Die("replay indexed BatchQuery", status);
    }
  }
  trace::Span span(Named(w, "ensemble.Tune"), w);
  size_t calls = 0;
  double trees = 0;  // trees the tuned probes walk (filter skips included)
  for (size_t s = 0; s < shards; ++s) {
    const LshEnsemble* indexed = index.shard(s).indexed();
    if (indexed == nullptr) continue;
    const std::vector<PartitionSpec>& partitions = indexed->partitions();
    for (const QuerySpec& spec : specs) {
      const auto q = static_cast<double>(spec.query_size);
      for (size_t p = 0; p < partitions.size(); ++p) {
        // The probe's reachability prune: unreachable partitions are not
        // tuned (lsh_ensemble.cc).
        const auto max_size = static_cast<double>(partitions[p].upper - 1);
        if (max_size + 1e-9 < spec.t_star * q) continue;
        Result<TunedParams> tuned = indexed->TuneForPartition(p, q, spec.t_star);
        if (!tuned.ok()) Die("replay TuneForPartition", tuned.status());
        trees += tuned.value().b;
        ++calls;
      }
    }
  }
  span.Arg("calls", static_cast<double>(calls));
  span.Arg("trees", trees);
}

}  // namespace

void ReplayLayers(const ReplayStream& stream) {
  const ShardedEnsemble& index = *stream.index;
  const size_t wave = std::max<size_t>(1, stream.wave);
  std::vector<std::unique_ptr<QueryContext>> ctxs;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    ctxs.push_back(std::make_unique<QueryContext>());
  }
  std::vector<std::vector<uint64_t>> outs(wave);
  const double start = NowSeconds();
  const double threshold_budget =
      stream.budget_seconds * (stream.topk.empty() ? 1.0 : 0.7);

  trace::Span root("replay");
  root.Arg("shards", static_cast<double>(index.num_shards()));
  root.Arg("workers", static_cast<double>(ThreadPool::DefaultThreads()));
  root.Arg("wave", static_cast<double>(wave));

  const std::span<const QuerySpec> all(stream.threshold);
  size_t replayed = 0;
  if (!all.empty()) {
    ReplayWave(index, all.first(std::min(wave, all.size())), -1, &ctxs,
               &outs);  // warm every context and cache once, untimed
  }
  for (int64_t w = 0; replayed < all.size() &&
                      NowSeconds() - start < threshold_budget;
       ++w) {
    const auto specs =
        all.subspan(replayed, std::min(wave, all.size() - replayed));
    trace::Span span("replay.wave", w);
    span.Arg("queries", static_cast<double>(specs.size()));
    span.Arg("container", 1);
    ReplayWave(index, specs, w, &ctxs, &outs);
    replayed += specs.size();
  }

  if (replayed > 0) {
    trace::Span span("replay.stats");
    std::vector<QueryStats> stats(wave);
    double probed = 0, pruned = 0, skipped = 0, candidates = 0, hits = 0,
           gallops = 0;
    for (size_t begin = 0; begin < replayed; begin += wave) {
      const auto specs = all.subspan(begin, std::min(wave, replayed - begin));
      if (Status status = index.BatchQuery(specs, outs.data(), stats.data());
          !status.ok()) {
        Die("replay stats BatchQuery", status);
      }
      for (size_t i = 0; i < specs.size(); ++i) {
        probed += static_cast<double>(stats[i].partitions_probed);
        pruned += static_cast<double>(stats[i].partitions_pruned);
        skipped += static_cast<double>(stats[i].partitions_filter_skipped);
        candidates += static_cast<double>(outs[i].size());
        hits += static_cast<double>(stats[i].slot0_cache_hits);
        gallops += static_cast<double>(stats[i].slot0_gallop_resumes);
      }
    }
    span.Arg("queries", static_cast<double>(replayed));
    span.Arg("partitions_probed", probed);
    span.Arg("partitions_pruned", pruned);
    span.Arg("filter_skipped", skipped);
    span.Arg("candidates", candidates);
    span.Arg("slot0_hits", hits);
    span.Arg("gallop_resumes", gallops);
  }

  if (!stream.topk.empty()) {
    const std::span<const TopKQuery> queries(stream.topk);
    std::vector<std::vector<TopKResult>> ranked(wave);
    if (Status status = index.BatchSearch(
            queries.first(std::min(wave, queries.size())), stream.topk_k,
            ranked.data());
        !status.ok()) {
      Die("replay BatchSearch warm-up", status);
    }
    trace::Span span("replay.topk");
    for (size_t begin = 0; begin < queries.size() &&
                           NowSeconds() - start < stream.budget_seconds;
         begin += wave) {
      const auto batch =
          queries.subspan(begin, std::min(wave, queries.size() - begin));
      const uint64_t allocs0 = trace::Allocs();
      trace::Span call("topk.BatchSearch", static_cast<int64_t>(begin / wave));
      call.Arg("queries", static_cast<double>(batch.size()));
      trace::CountAllocs(true);
      const Status status =
          index.BatchSearch(batch, stream.topk_k, ranked.data());
      trace::CountAllocs(false);
      if (!status.ok()) Die("replay BatchSearch", status);
      call.Arg("allocs", static_cast<double>(trace::Allocs() - allocs0));
    }
  }
}

}  // namespace e2e
}  // namespace lshensemble
