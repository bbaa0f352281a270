#include "core/lsh_ensemble.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/clock.h"
#include "util/thread_pool.h"

namespace lshensemble {

Status LshEnsembleOptions::Validate() const {
  if (num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  if (num_hashes < 1 || tree_depth < 1) {
    return Status::InvalidArgument("num_hashes and tree_depth must be >= 1");
  }
  if (num_hashes % tree_depth != 0) {
    return Status::InvalidArgument(
        "tree_depth must divide num_hashes (the signature is split into "
        "num_hashes / tree_depth trees)");
  }
  if (integration_nodes < 8) {
    return Status::InvalidArgument("integration_nodes must be >= 8");
  }
  if (interpolation_lambda > 1.0) {
    return Status::InvalidArgument("interpolation_lambda must be <= 1");
  }
  if (filter_bits_per_key < 1 || filter_bits_per_key > 64) {
    return Status::InvalidArgument("filter_bits_per_key must be in [1, 64]");
  }
  for (size_t i = 0; i < pinned_partitions.size(); ++i) {
    if (pinned_partitions[i].upper <= pinned_partitions[i].lower) {
      return Status::InvalidArgument(
          "pinned partitions must have upper > lower");
    }
    if (i > 0 && pinned_partitions[i].lower < pinned_partitions[i - 1].upper) {
      return Status::InvalidArgument(
          "pinned partitions must be ascending and disjoint");
    }
  }
  return Status::OK();
}

Result<std::vector<PartitionSpec>> ComputePartitions(
    const std::vector<uint64_t>& sorted_sizes,
    const LshEnsembleOptions& options) {
  if (sorted_sizes.empty()) {
    return Status::InvalidArgument("no domain sizes to partition");
  }
  if (!options.pinned_partitions.empty()) {
    // Recompute counts for the pinned intervals and require full coverage:
    // a size falling between intervals would silently vanish from the
    // index otherwise.
    std::vector<PartitionSpec> specs = options.pinned_partitions;
    size_t covered = 0;
    for (PartitionSpec& spec : specs) {
      const auto begin = std::lower_bound(sorted_sizes.begin(),
                                          sorted_sizes.end(), spec.lower);
      const auto end =
          std::lower_bound(sorted_sizes.begin(), sorted_sizes.end(),
                           spec.upper);
      spec.count = static_cast<size_t>(end - begin);
      covered += spec.count;
    }
    if (covered != sorted_sizes.size()) {
      return Status::InvalidArgument(
          "pinned partitions do not cover every domain size");
    }
    return specs;
  }
  if (options.interpolation_lambda >= 0.0) {
    return InterpolatedPartitions(sorted_sizes, options.num_partitions,
                                  options.interpolation_lambda);
  }
  switch (options.strategy) {
    case PartitioningStrategy::kEquiDepth:
      return EquiDepthPartitions(sorted_sizes, options.num_partitions);
    case PartitioningStrategy::kEquiWidth:
      return EquiWidthPartitions(sorted_sizes, options.num_partitions);
    case PartitioningStrategy::kMinimaxCost:
      return MinimaxCostPartitions(sorted_sizes, options.num_partitions);
  }
  return Status::InvalidArgument("unknown partitioning strategy");
}

LshEnsemble::LshEnsemble(LshEnsembleOptions options,
                         std::shared_ptr<const HashFamily> family)
    : options_(std::move(options)), family_(std::move(family)) {}

size_t QueryContext::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) {
    bytes += sizeof(Shard) + shard->probe.MemoryBytes() +
             shard->chunk_q.capacity() * sizeof(double) +
             shard->filter_hashes.capacity() * sizeof(uint64_t) +
             shard->filter_admit.capacity() +
             shard->stats.capacity() * sizeof(QueryStats);
  }
  bytes += statuses_.capacity() * sizeof(Status);
  bytes += dynamic_q_.capacity() * sizeof(double);
  bytes += dynamic_specs_.capacity() * sizeof(QuerySpec);
  bytes += dynamic_delta_x_.capacity() * sizeof(double);
  bytes += dynamic_delta_arena_.capacity() * sizeof(uint64_t);
  bytes += dynamic_delta_block_max_.capacity() * sizeof(double);
  for (const auto& staged : dynamic_outs_) {
    bytes += sizeof(staged) + staged.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

QueryContext::Shard* QueryContext::AcquireShard() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!free_.empty()) {
    Shard* shard = free_.back();
    free_.pop_back();
    return shard;
  }
  shards_.push_back(std::make_unique<Shard>());
  return shards_.back().get();
}

void QueryContext::ReleaseShard(Shard* shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(shard);
}

LshEnsembleBuilder::LshEnsembleBuilder(LshEnsembleOptions options,
                                       std::shared_ptr<const HashFamily> family)
    : options_(std::move(options)), family_(std::move(family)) {}

Status LshEnsembleBuilder::Add(uint64_t id, size_t size, MinHash signature) {
  if (family_ == nullptr) {
    return Status::InvalidArgument("builder has no hash family");
  }
  if (size < 1) {
    return Status::InvalidArgument("domain size must be >= 1");
  }
  if (!signature.valid() || !signature.family()->SameAs(*family_)) {
    return Status::InvalidArgument(
        "signature does not belong to the builder's hash family");
  }
  records_.push_back({id, size, std::move(signature)});
  return Status::OK();
}

namespace {

/// Append a forest's occupied-bucket keys — the (tree, slot-0 key) pairs
/// its probes can match (exactly the first-key arena) — to `keys`.
void AppendForestProbeKeys(const LshForest& forest,
                           std::vector<uint64_t>* keys) {
  const std::span<const uint32_t> first_keys = forest.first_key_arena();
  const size_t count = forest.size();
  keys->reserve(keys->size() + first_keys.size());
  for (size_t t = 0; t < static_cast<size_t>(forest.num_trees()); ++t) {
    for (size_t j = 0; j < count; ++j) {
      keys->push_back(ProbeFilter::ProbeKey(static_cast<uint32_t>(t),
                                            first_keys[t * count + j]));
    }
  }
}

}  // namespace

Result<LshEnsemble> LshEnsembleBuilder::Build() && {
  LSHE_RETURN_IF_ERROR(options_.Validate());
  if (family_ == nullptr) {
    return Status::InvalidArgument("builder has no hash family");
  }
  if (options_.num_hashes != family_->num_hashes()) {
    return Status::InvalidArgument(
        "options.num_hashes does not match the hash family");
  }
  if (records_.empty()) {
    return Status::FailedPrecondition("no domains added");
  }

  // The query path unions candidates across partitions without re-dedup,
  // which is only sound when every id occurs once (see the invariant note
  // on LshEnsemble). Enforce it here, where it is still cheap.
  {
    std::vector<uint64_t> ids;
    ids.reserve(records_.size());
    for (const Record& record : records_) ids.push_back(record.id);
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      return Status::InvalidArgument("duplicate domain id added");
    }
  }

  // Stage 1 (Section 5): partition by domain size.
  std::vector<uint64_t> sizes;
  sizes.reserve(records_.size());
  for (const Record& record : records_) sizes.push_back(record.size);
  std::sort(sizes.begin(), sizes.end());

  std::vector<PartitionSpec> all_specs;
  LSHE_ASSIGN_OR_RETURN(all_specs, ComputePartitions(sizes, options_));

  LshEnsemble ensemble(options_, family_);
  for (const PartitionSpec& spec : all_specs) {
    if (spec.count > 0) ensemble.specs_.push_back(spec);
  }
  ensemble.total_ = records_.size();

  // Stage 2: one dynamic LSH per partition.
  const int num_trees = options_.num_hashes / options_.tree_depth;
  ensemble.forests_.reserve(ensemble.specs_.size());
  for (size_t i = 0; i < ensemble.specs_.size(); ++i) {
    auto forest = LshForest::Create(num_trees, options_.tree_depth);
    if (!forest.ok()) return forest.status();
    ensemble.forests_.push_back(std::move(forest).value());
  }

  // Group records by partition: sort by size, then cut at partition bounds.
  std::sort(records_.begin(), records_.end(),
            [](const Record& a, const Record& b) { return a.size < b.size; });
  std::vector<std::pair<size_t, size_t>> ranges;  // record index ranges
  ranges.reserve(ensemble.specs_.size());
  for (const PartitionSpec& spec : ensemble.specs_) {
    const auto begin = std::lower_bound(
        records_.begin(), records_.end(), spec.lower,
        [](const Record& record, uint64_t key) { return record.size < key; });
    const auto end = std::lower_bound(
        records_.begin(), records_.end(), spec.upper,
        [](const Record& record, uint64_t key) { return record.size < key; });
    ranges.emplace_back(begin - records_.begin(), end - records_.begin());
  }

  std::vector<Status> statuses(ensemble.specs_.size());
  std::vector<std::vector<uint64_t>> filter_keys(
      options_.build_probe_filter ? ensemble.specs_.size() : 0);
  if (options_.build_probe_filter) {
    ensemble.filters_.resize(ensemble.specs_.size());
  }
  auto build_partition = [&](size_t i) {
    LshForest& forest = ensemble.forests_[i];
    for (size_t j = ranges[i].first; j < ranges[i].second; ++j) {
      Status status = forest.Add(records_[j].id, records_[j].signature);
      if (!status.ok()) {
        statuses[i] = std::move(status);
        return;
      }
    }
    forest.Index();
    if (options_.build_probe_filter) {
      // Summarize the forest's occupied buckets into this partition's
      // filter (the engine union is built from the same keys below).
      std::vector<uint64_t>& keys = filter_keys[i];
      AppendForestProbeKeys(forest, &keys);
      ensemble.filters_[i] =
          ProbeFilter::Build(keys, options_.filter_bits_per_key);
    }
  };
  if (options_.parallel_build && ensemble.specs_.size() > 1) {
    ThreadPool::Shared().ParallelFor(ensemble.specs_.size(), build_partition);
  } else {
    for (size_t i = 0; i < ensemble.specs_.size(); ++i) build_partition(i);
  }
  for (const Status& status : statuses) {
    LSHE_RETURN_IF_ERROR(status);
  }
  if (options_.build_probe_filter) {
    // The engine-wide union filter: one membership test per tree answers
    // "can any partition of this engine match the query at all?" — the
    // shard-level prune of the serving layer.
    std::vector<uint64_t> all_keys;
    size_t total_keys = 0;
    for (const auto& keys : filter_keys) total_keys += keys.size();
    all_keys.reserve(total_keys);
    for (const auto& keys : filter_keys) {
      all_keys.insert(all_keys.end(), keys.begin(), keys.end());
    }
    ensemble.engine_filter_ =
        ProbeFilter::Build(all_keys, options_.filter_bits_per_key);
  }

  Tuner::Options tuner_options;
  tuner_options.max_b = num_trees;
  tuner_options.max_r = options_.tree_depth;
  tuner_options.integration_nodes = options_.integration_nodes;
  LSHE_ASSIGN_OR_RETURN(ensemble.tuner_, Tuner::Create(tuner_options));

  records_.clear();
  return ensemble;
}

namespace {

/// Debug-build check of the cross-partition uniqueness invariant (see the
/// class comment): partitions are disjoint, so a query's candidate union
/// must be duplicate-free.
inline void AssertUniqueCandidates(const std::vector<uint64_t>& ids) {
#ifndef NDEBUG
  std::vector<uint64_t> sorted(ids);
  std::sort(sorted.begin(), sorted.end());
  assert(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end() &&
         "partition candidate sets must be disjoint");
#else
  (void)ids;
#endif
}

/// Stage the pre-mixed probe-filter keys of `query`: one hash per tree,
/// derived with exactly the slot-0 truncation Probe matches on. Written to
/// `out[0 .. num_trees)`.
inline void StageFilterHashes(const MinHash& query, int num_trees, int depth,
                              uint64_t* out) {
  const auto& mins = query.values();
  for (int t = 0; t < num_trees; ++t) {
    out[t] = ProbeFilter::HashKey(ProbeFilter::ProbeKey(
        static_cast<uint32_t>(t),
        LshForest::TruncateHash(mins[static_cast<size_t>(t) * depth])));
  }
}

/// The per-query deadline gate (QuerySpec::deadline_ns), checked before
/// any probing; the kernel re-checks it once per partition row.
inline Status CheckDeadline(uint64_t deadline_ns) {
  if (DeadlineExpired(deadline_ns)) {
    return Status::DeadlineExceeded("query deadline expired");
  }
  return Status::OK();
}

/// True when `filter` may contain any of the first `b` staged tree keys —
/// i.e. the probe could surface candidates. False answers are exact, so a
/// rejected probe can be skipped without changing the candidate set.
inline bool FilterAdmits(const ProbeFilter& filter, const uint64_t* hashes,
                         int b) {
  // Prefetch every block first: a reject must miss on all b trees, and
  // each probe is a random cache line — overlapped misses instead of a
  // serialized chain is most of the fast-reject's speed.
  for (int t = 0; t < b; ++t) filter.PrefetchHash(hashes[t]);
  for (int t = 0; t < b; ++t) {
    if (filter.MayContainHash(hashes[t])) return true;
  }
  return false;
}

}  // namespace

Status LshEnsemble::ValidateSpec(const QuerySpec& spec, size_t* q) const {
  if (spec.query == nullptr) {
    return Status::InvalidArgument("query must not be null");
  }
  if (!spec.query->valid() || !spec.query->family()->SameAs(*family_)) {
    return Status::InvalidArgument(
        "query signature does not belong to the index's hash family");
  }
  if (spec.t_star < 0.0 || spec.t_star > 1.0) {
    return Status::InvalidArgument("t_star must be in [0, 1]");
  }
  // approx(|Q|) in Algorithm 1: fall back to the sketch estimate when the
  // exact cardinality is not supplied.
  *q = spec.query_size;
  if (*q == 0) {
    *q = static_cast<size_t>(std::max<int64_t>(
        1, std::llround(spec.query->EstimateCardinality())));
  }
  return Status::OK();
}

Status LshEnsemble::QueryChunk(std::span<const QuerySpec> specs,
                               QueryContext::Shard* shard,
                               std::vector<uint64_t>* outs,
                               QueryStats* stats) const {
  const size_t m = specs.size();
  const size_t n = specs_.size();
  // The counters are always kept; without a caller array they land in
  // scratch, so asking for stats never changes what the kernel does.
  if (stats == nullptr) {
    shard->stats.resize(m);
    stats = shard->stats.data();
  }

  bool any_deadline = false;
  shard->chunk_q.resize(m);
  for (size_t i = 0; i < m; ++i) {
    size_t q = 0;
    LSHE_RETURN_IF_ERROR(ValidateSpec(specs[i], &q));
    LSHE_RETURN_IF_ERROR(CheckDeadline(specs[i].deadline_ns));
    if (specs[i].deadline_ns != 0) any_deadline = true;
    shard->chunk_q[i] = static_cast<double>(q);
    outs[i].clear();
    stats[i] = QueryStats{};
    stats[i].query_size_used = q;
  }

  // A domain of size x has containment at most x/q; if even the largest
  // domain of partition p cannot reach query i's t*, the partition is
  // skipped (no false negatives).
  auto unreachable = [&](size_t p, size_t i) {
    return options_.prune_unreachable_partitions &&
           static_cast<double>(specs_[p].upper - 1) + 1e-9 <
               specs[i].t_star * shard->chunk_q[i];
  };

  const bool use_filters = !filters_.empty();
  const auto num_trees =
      static_cast<size_t>(options_.num_hashes / options_.tree_depth);
  shard->filter_admit.assign(m, 1);
  if (use_filters) {
    // Stage every query's tree keys once; they are reused by the engine
    // admit check here and by each partition's filter below.
    shard->filter_hashes.resize(m * num_trees);
    for (size_t i = 0; i < m; ++i) {
      uint64_t* row = shard->filter_hashes.data() + i * num_trees;
      StageFilterHashes(*specs[i].query, static_cast<int>(num_trees),
                        options_.tree_depth, row);
      if (engine_filter_.empty() ||
          FilterAdmits(engine_filter_, row, static_cast<int>(num_trees))) {
        continue;
      }
      // Whole-engine fast reject: no partition holds any of the query's
      // slot-0 keys, so every probe would come back empty. Accounted as if
      // each reachable partition's own filter had said no.
      shard->filter_admit[i] = 0;
      for (size_t p = 0; p < n; ++p) {
        if (unreachable(p, i)) {
          ++stats[i].partitions_pruned;
        } else {
          ++stats[i].partitions_probed;
          ++stats[i].partitions_filter_skipped;
        }
      }
    }
  }

  // Partition-major: each partition's trees are walked by every query of
  // the chunk before moving on, so its arenas are read while still warm.
  // Per query, partitions are still visited in ascending order, so outs[i]
  // does not depend on which queries share its chunk.
  for (size_t p = 0; p < n; ++p) {
    const auto max_size = static_cast<double>(specs_[p].upper - 1);
    const LshForest& forest = forests_[p];
    // One clock read per partition row covers every query of the chunk:
    // a deadline can overrun by at most one row of probes.
    const uint64_t now = any_deadline ? SteadyNowNanos() : 0;
    // Tuning memo within the row: runs of queries with equal (q, t*) — the
    // common shape of service traffic — tune once per partition.
    double memo_q = -1.0, memo_t = -1.0;
    TunedParams params;
    for (size_t i = 0; i < m; ++i) {
      if (specs[i].deadline_ns != 0 && now >= specs[i].deadline_ns) {
        return Status::DeadlineExceeded("query deadline expired");
      }
      if (!shard->filter_admit[i]) continue;
      QueryStats& st = stats[i];
      if (unreachable(p, i)) {
        ++st.partitions_pruned;
        continue;
      }
      const double qd = shard->chunk_q[i];
      if (qd != memo_q || specs[i].t_star != memo_t) {
        params = tuner_->Tune(max_size, qd, specs[i].t_star);
        memo_q = qd;
        memo_t = specs[i].t_star;
      }
      ++st.partitions_probed;
      // Probe fast-path: a filter miss proves the probe comes back empty,
      // so the arena walk is skipped. Still counted as probed.
      if (use_filters &&
          !FilterAdmits(filters_[p],
                        shard->filter_hashes.data() + i * num_trees,
                        params.b)) {
        ++st.partitions_filter_skipped;
        continue;
      }
      LSHE_RETURN_IF_ERROR(forest.Probe(*specs[i].query, params.b, params.r,
                                        &shard->probe, &outs[i]));
    }
  }

  for (size_t i = 0; i < m; ++i) AssertUniqueCandidates(outs[i]);
  return Status::OK();
}

Status LshEnsemble::Query(const MinHash& query, size_t query_size,
                          double t_star, std::vector<uint64_t>* out,
                          QueryStats* stats) const {
  if (out == nullptr) {
    return Status::InvalidArgument("out must not be null");
  }
  QueryContext ctx;
  const QuerySpec spec{&query, query_size, t_star};
  return BatchQuery(std::span<const QuerySpec>(&spec, 1), &ctx, out, stats);
}

Status LshEnsemble::BatchQuery(std::span<const QuerySpec> specs,
                               QueryContext* ctx, std::vector<uint64_t>* outs,
                               QueryStats* stats) const {
  if (ctx == nullptr) {
    return Status::InvalidArgument("ctx must not be null");
  }
  if (specs.empty()) return Status::OK();
  if (outs == nullptr) {
    return Status::InvalidArgument("outs must not be null");
  }

  const size_t count = specs.size();
  // Across-query parallelism: contiguous chunks keep one shard (and the
  // partition arenas QueryChunk revisits) hot per worker while the 4x
  // over-decomposition lets the pool balance uneven query costs. A single
  // query is a chunk of one.
  const size_t participants = ThreadPool::Shared().num_threads() + 1;
  const size_t chunks =
      options_.parallel_query ? std::min(count, participants * 4) : 1;
  if (chunks == 1) {
    QueryContext::Shard* shard = ctx->AcquireShard();
    const Status status = QueryChunk(specs, shard, outs, stats);
    ctx->ReleaseShard(shard);
    return status;
  }
  ctx->statuses_.clear();
  ctx->statuses_.resize(chunks);
  ThreadPool::Shared().ParallelFor(chunks, [&](size_t c) {
    const size_t begin = c * count / chunks;
    const size_t end = (c + 1) * count / chunks;
    QueryContext::Shard* shard = ctx->AcquireShard();
    ctx->statuses_[c] =
        QueryChunk(specs.subspan(begin, end - begin), shard, outs + begin,
                   stats != nullptr ? stats + begin : nullptr);
    ctx->ReleaseShard(shard);
  });
  for (const Status& status : ctx->statuses_) {
    LSHE_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

Result<TunedParams> LshEnsemble::TuneForPartition(size_t index, double q,
                                                  double t_star) const {
  if (index >= specs_.size()) {
    return Status::OutOfRange("partition index out of range");
  }
  if (q <= 0.0 || t_star < 0.0 || t_star > 1.0) {
    return Status::InvalidArgument("q must be > 0 and t_star in [0, 1]");
  }
  return tuner_->Tune(static_cast<double>(specs_[index].upper - 1), q, t_star);
}

void LshEnsemble::RebuildProbeFilters() {
  filters_.clear();
  engine_filter_ = ProbeFilter();
  if (!options_.build_probe_filter) return;
  filters_.resize(forests_.size());
  std::vector<uint64_t> all_keys;
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < forests_.size(); ++i) {
    keys.clear();
    AppendForestProbeKeys(forests_[i], &keys);
    filters_[i] = ProbeFilter::Build(keys, options_.filter_bits_per_key);
    all_keys.insert(all_keys.end(), keys.begin(), keys.end());
  }
  engine_filter_ =
      ProbeFilter::Build(all_keys, options_.filter_bits_per_key);
}

size_t LshEnsemble::MemoryBytes() const {
  size_t bytes = 0;
  for (const LshForest& forest : forests_) bytes += forest.MemoryBytes();
  for (const ProbeFilter& filter : filters_) bytes += filter.MemoryBytes();
  bytes += engine_filter_.MemoryBytes();
  return bytes;
}

}  // namespace lshensemble
