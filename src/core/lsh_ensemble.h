// LSH Ensemble (paper Section 5): the domain-search index.
//
// Indexing (two stages, §5): domains are partitioned into disjoint size
// intervals (equi-depth by default, per Theorem 2), and each partition is
// indexed by a dynamic MinHash LSH (LshForest). Querying (Algorithm 1 +
// Partitioned-Containment-Search): the containment threshold t* is
// converted per partition to a conservative Jaccard threshold using the
// partition's upper size bound, each partition's LSH is retuned to its own
// optimal (b, r) (Eq. 26), all partitions are probed, and the candidate
// unions are returned.
//
// The query engine is batched: BatchQuery() answers many queries per call
// through one partition-major kernel, parallelizing *across queries* on the
// shared ThreadPool and reusing all per-query scratch through a
// caller-owned QueryContext, so the steady state performs no allocation.
// Single-query Query() is a batch of one through the same kernel.
//
// Typical use:
//
//   auto family = HashFamily::Create(256, seed).value();
//   LshEnsembleBuilder builder(options, family);
//   for (const auto& d : domains)
//     builder.Add(d.id, d.values.size(),
//                 MinHash::FromValues(family, d.values));
//   auto ensemble = std::move(builder).Build().value();
//   std::vector<uint64_t> ids;
//   ensemble.Query(query_sketch, query_size, /*t_star=*/0.5, &ids);
//
// High-throughput use:
//
//   QueryContext ctx;                        // reuse across batches
//   std::vector<QuerySpec> specs = ...;      // one per query
//   std::vector<std::vector<uint64_t>> outs(specs.size());
//   ensemble.BatchQuery(specs, &ctx, outs.data());

#ifndef LSHENSEMBLE_CORE_LSH_ENSEMBLE_H_
#define LSHENSEMBLE_CORE_LSH_ENSEMBLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "core/cost_model.h"
#include "core/partitioner.h"
#include "core/tuning.h"
#include "filter/probe_filter.h"
#include "lsh/lsh_forest.h"
#include "minhash/minhash.h"
#include "util/result.h"
#include "util/status.h"

namespace lshensemble {

/// \brief Configuration of an LshEnsemble.
struct LshEnsembleOptions {
  /// Number of size partitions n (the paper evaluates 8/16/32).
  int num_partitions = 16;
  /// Signature length m; must equal the hash family's size.
  int num_hashes = 256;
  /// r_max: prefix-tree depth of each partition's forest. The number of
  /// trees (b_max) is num_hashes / tree_depth; must divide num_hashes.
  int tree_depth = 8;
  /// How partition boundaries are chosen.
  PartitioningStrategy strategy = PartitioningStrategy::kEquiDepth;
  /// When in [0, 1], overrides `strategy` with the equi-depth(0) <->
  /// equi-width(1) interpolation of Figure 8. Negative disables.
  double interpolation_lambda = -1.0;
  /// Lattice size for the tuner's FP/FN integrals.
  int integration_nodes = 256;
  /// When non-empty, partition boundaries are pinned to exactly these
  /// [lower, upper) intervals instead of being derived from the indexed
  /// sizes (`strategy` / `interpolation_lambda` are ignored; counts are
  /// recomputed at build time and empty intervals are dropped). Intervals
  /// must be ascending and disjoint, and every added domain's size must
  /// fall inside one of them. The sharded serving layer pins every shard
  /// to one corpus-global partitioning so per-partition tuning — and with
  /// it the candidate set — is independent of how domains were sharded.
  /// Never serialized: a persisted image stores the built partitions.
  std::vector<PartitionSpec> pinned_partitions = {};
  /// Skip partitions whose largest domain cannot reach the containment
  /// threshold (max size < t* * q). Introduces no false negatives.
  bool prune_unreachable_partitions = true;
  /// Build a split-block Bloom filter over each partition's (tree, slot-0
  /// key) buckets — plus one engine-wide union — at Build()/Flush() time
  /// (filter/probe_filter.h). Queries whose slot-0 keys miss every tree of
  /// a partition skip that forest's probe; a query that misses the whole
  /// engine skips all of them. One-sided error: candidate sets are
  /// byte-identical with or without the filter. Costs one pass over the
  /// first-key arenas at build and ~filter_bits_per_key bits per (record,
  /// tree) of memory. Never serialized as an option: snapshots carry the
  /// filter blocks themselves (absent section = no pruning).
  bool build_probe_filter = true;
  /// Bits per (record, tree) bucket key in the probe filters, clamped to
  /// [1, 64]. 8 gives ~2% false positives (wasted probes, never wrong
  /// results); raise it to prune harder on very selective workloads.
  int filter_bits_per_key = 8;
  /// Build partition forests on the shared thread pool.
  bool parallel_build = true;
  /// Parallelize queries on the shared thread pool: BatchQuery() spreads
  /// chunks of queries over workers.
  bool parallel_query = true;

  Status Validate() const;
};

/// \brief Per-query diagnostics (optional output of Query()/BatchQuery()).
/// Plain counters, observation-only: the engine keeps them on every call,
/// and passing an array to receive them never changes which partitions are
/// probed or what is returned.
struct QueryStats {
  /// The query cardinality actually used (exact or MinHash-estimated).
  size_t query_size_used = 0;
  /// Every partition is counted exactly once, as probed or pruned.
  size_t partitions_probed = 0;
  size_t partitions_pruned = 0;
  /// Probed partitions whose forest probe was answered "empty" by a probe
  /// filter without touching the key arenas — the partition's own filter,
  /// or the engine-wide one (which skips every reachable partition of the
  /// query, untuned). Filter-skipped partitions still count as probed: the
  /// filter is a probe fast-path, not a pruning rule, so the accounting
  /// above holds with or without filters.
  size_t partitions_filter_skipped = 0;
  /// Always 0: every probe descends over whole trees, so nothing skips
  /// or narrows a slot-0 search. Kept only because the end-to-end
  /// benchmark's replay (bench/e2e/replay.cc) still reads both fields.
  uint64_t slot0_cache_hits = 0;
  uint64_t slot0_gallop_resumes = 0;
  /// Shard accounting, filled only by ShardedEnsemble's stats overload:
  /// shards whose candidates made this query's output vs shards skipped
  /// because the query deadline cut them off (partial-results mode).
  /// Engine-level paths leave both 0.
  size_t shards_gathered = 0;
  size_t shards_skipped = 0;
};
static_assert(std::is_trivially_copyable_v<QueryStats>);

/// \brief One query of a BatchQuery() call. The referenced MinHash is
/// borrowed, not owned; it must outlive the call.
struct QuerySpec {
  const MinHash* query = nullptr;
  /// Exact |Q| if known; 0 means "use the MinHash cardinality estimate"
  /// (`approx(|Q|)` in Algorithm 1).
  size_t query_size = 0;
  /// Containment threshold t* in [0, 1].
  double t_star = 0.5;
  /// Absolute steady-clock deadline in nanoseconds (util/clock.h;
  /// 0 = none). Checked before probing and between partition probes:
  /// once it passes, the query — and the batch carrying it — fails with
  /// DeadlineExceeded instead of stalling (ShardedEnsemble's opt-in
  /// partial-results mode degrades to skipped shards instead).
  uint64_t deadline_ns = 0;
};

class LshEnsemble;

/// \brief Reusable query-path scratch: probe memos, staged filter keys and
/// per-chunk buffers, pooled in per-worker shards so one context serves a
/// whole BatchQuery() fan-out.
///
/// A context is bound to no particular ensemble — buffers grow to the
/// largest index seen and are reused verbatim afterwards, so steady-state
/// queries allocate nothing. One context must not be shared by concurrent
/// BatchQuery() calls; give each calling thread its own (the shard pool
/// only serves the internal across-query parallelism of a single call).
class QueryContext {
 public:
  QueryContext() = default;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Approximate heap footprint of all pooled scratch, in bytes.
  size_t MemoryBytes() const;
  /// Number of internal shards created so far (one per concurrent worker
  /// observed; for tests/introspection).
  size_t num_shards() const { return shards_.size(); }

 private:
  friend class LshEnsemble;
  friend class DynamicLshEnsemble;  // candidate buffer for delta merging

  /// One worker's worth of scratch.
  struct Shard {
    LshForest::ProbeScratch probe;
    /// Effective per-query cardinalities of the current chunk.
    std::vector<double> chunk_q;
    /// Pre-mixed probe-filter keys of the current chunk (one row of
    /// num_trees hashes per query; see ProbeFilter::HashKey), and the
    /// per-query engine-level admit flags derived from them. Staged once
    /// per chunk and reused across every partition.
    std::vector<uint64_t> filter_hashes;
    std::vector<uint8_t> filter_admit;
    /// Counter sink for calls that pass no stats array.
    std::vector<QueryStats> stats;
  };

  Shard* AcquireShard();
  void ReleaseShard(Shard* shard);

  std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Shard*> free_;

  // Per-chunk statuses of the current batch.
  std::vector<Status> statuses_;
  // DynamicLshEnsemble::BatchQuery scratch: the batch's effective query
  // cardinalities (resolved once per batch, reused across every delta
  // record), the specs re-staged with those resolved cardinalities (so
  // the inner engine skips re-estimating them), and per-query staging
  // buffers for the indexed candidates when tombstone filtering is
  // active.
  std::vector<double> dynamic_q_;
  std::vector<QuerySpec> dynamic_specs_;
  std::vector<std::vector<uint64_t>> dynamic_outs_;
  // Flattened view of the delta buffer (sizes + a contiguous signature
  // arena in delta order) so the scan's hot loop walks dense arrays with
  // the kernel's batch compare instead of chasing the record hash map.
  // Cached across calls, keyed on the index's (instance id, mutation
  // epoch): consecutive batches and top-k descent rounds against an
  // unchanged index reuse it verbatim.
  std::vector<double> dynamic_delta_x_;
  std::vector<uint64_t> dynamic_delta_arena_;
  // Per-block maxima of dynamic_delta_x_ (the scan's tile grid): lets the
  // size-based admission bound skip a whole block's collision-count call.
  std::vector<double> dynamic_delta_block_max_;
  uint64_t dynamic_delta_index_id_ = 0;
  uint64_t dynamic_delta_epoch_ = 0;
  bool dynamic_delta_valid_ = false;
};

/// \brief The partition layout `options` selects for `sorted_sizes`
/// (ascending, non-empty): the pinned intervals with recomputed counts when
/// `options.pinned_partitions` is set, otherwise the configured strategy /
/// interpolation. Build() routes through this, and the sharded serving
/// layer calls it on the corpus-global size distribution to derive the
/// boundaries it pins every shard to.
Result<std::vector<PartitionSpec>> ComputePartitions(
    const std::vector<uint64_t>& sorted_sizes,
    const LshEnsembleOptions& options);

/// \brief Accumulates (id, size, signature) records and builds the
/// immutable index in one pass (single-pass construction, §2).
class LshEnsembleBuilder {
 public:
  /// \param family the hash family every added signature must come from.
  LshEnsembleBuilder(LshEnsembleOptions options,
                     std::shared_ptr<const HashFamily> family);

  /// \brief Register a domain. `size` is the domain's exact distinct-value
  /// count (known during sketching); `signature` its MinHash.
  /// Ids must be unique (enforced by Build()); sizes must be >= 1.
  Status Add(uint64_t id, size_t size, MinHash signature);

  size_t size() const { return records_.size(); }

  /// \brief Partition, build and index every partition's forest. Consumes
  /// the builder. Fails if no domain was added, a duplicate id was added,
  /// or options are invalid.
  Result<LshEnsemble> Build() &&;

 private:
  struct Record {
    uint64_t id;
    uint64_t size;
    MinHash signature;
  };

  LshEnsembleOptions options_;
  std::shared_ptr<const HashFamily> family_;
  std::vector<Record> records_;
};

/// \brief The immutable LSH Ensemble index. Thread-safe for concurrent
/// queries.
///
/// Candidate-uniqueness invariant: partitions hold disjoint id sets (ids
/// are unique — Build() enforces it — and every domain lands in exactly
/// one size partition), and each partition's forest dedups its own
/// collisions, so the per-query union of partition candidates never
/// repeats an id. Query()/BatchQuery() output relies on this rather than
/// re-deduplicating; debug builds verify it with an assertion.
class LshEnsemble {
 public:
  LshEnsemble(LshEnsemble&&) = default;
  LshEnsemble& operator=(LshEnsemble&&) = default;

  /// \brief Domain search with set containment (Algorithm 1, unioned over
  /// partitions). Appends the ids of all candidate domains to `out`
  /// (order: by partition, then forest order; ids are unique).
  ///
  /// A thin wrapper over BatchQuery() with a batch of one and a private
  /// context; prefer BatchQuery() when issuing many queries.
  ///
  /// \param query      MinHash of the query domain (same family).
  /// \param query_size exact |Q| if known; pass 0 to use the MinHash
  ///                   cardinality estimate (`approx(|Q|)` in Alg. 1).
  /// \param t_star     containment threshold in [0, 1].
  /// \param stats      optional per-query diagnostics.
  Status Query(const MinHash& query, size_t query_size, double t_star,
               std::vector<uint64_t>* out, QueryStats* stats = nullptr) const;

  /// \brief Answer `specs.size()` queries in one call. Query i's candidates
  /// are written to `outs[i]` (cleared first; order as in Query()); when
  /// `stats` is non-null, query i's diagnostics go to `stats[i]`.
  ///
  /// `outs` (and `stats` if given) must point to arrays of at least
  /// specs.size() elements. With options().parallel_query the batch is
  /// spread across the shared ThreadPool in chunks; a batch of one is one
  /// chunk. Passing `stats` only observes: outputs are identical without
  /// it. All scratch comes from `ctx`, so a warm context makes the whole
  /// call allocation-free apart from output growth.
  ///
  /// On error the first failing query's status is returned and the
  /// contents of `outs`/`stats` are unspecified.
  Status BatchQuery(std::span<const QuerySpec> specs, QueryContext* ctx,
                    std::vector<uint64_t>* outs,
                    QueryStats* stats = nullptr) const;

  /// The non-empty partitions, ascending by size interval.
  const std::vector<PartitionSpec>& partitions() const { return specs_; }
  /// Total number of indexed domains.
  size_t size() const { return total_; }
  const LshEnsembleOptions& options() const { return options_; }
  const std::shared_ptr<const HashFamily>& family() const { return family_; }

  /// Tuned (b, r) the ensemble would use for partition `index` given query
  /// size `q` and threshold `t_star` (exposed for tests and benches).
  Result<TunedParams> TuneForPartition(size_t index, double q,
                                       double t_star) const;

  /// The engine-wide probe filter (union of every partition's buckets),
  /// or nullptr when the index carries no filters (built with
  /// build_probe_filter=false, or loaded from a pre-filter image).
  const ProbeFilter* engine_probe_filter() const {
    return engine_filter_.empty() ? nullptr : &engine_filter_;
  }
  /// Per-partition probe filters, parallel to partitions(); empty when
  /// the index carries no filters.
  std::span<const ProbeFilter> partition_probe_filters() const {
    return {filters_.data(), filters_.size()};
  }

  /// Approximate heap footprint of all partition forests, in bytes.
  size_t MemoryBytes() const;

  /// \brief Build (or rebuild) the probe-filter tier from the indexed
  /// forests' bucket keys. A no-op when options().build_probe_filter is
  /// off. Used by loaders of filterless images (v1 decode) so converted
  /// snapshots carry filters; builders construct the same tier inline.
  void RebuildProbeFilters();

 private:
  friend class LshEnsembleBuilder;
  friend class EnsembleSerializer;  // io/ensemble_io.cc (v1 save/load)
  friend class SnapshotIO;          // io/snapshot.cc (v2 zero-copy open)
  LshEnsemble(LshEnsembleOptions options,
              std::shared_ptr<const HashFamily> family);

  /// Validates one spec against this index. Returns the effective query
  /// cardinality through `q`.
  Status ValidateSpec(const QuerySpec& spec, size_t* q) const;

  /// The query kernel (Algorithm 1 over a contiguous run of queries):
  /// validate, engine-filter reject, then partition-major (outer loop over
  /// partitions, inner over queries) prune, tune, filter and probe, so each
  /// partition's key arenas stay cache-hot across the whole run. Each
  /// query's output is independent of the run it shares. `stats` may be
  /// null; the counters are kept either way.
  Status QueryChunk(std::span<const QuerySpec> specs,
                    QueryContext::Shard* shard, std::vector<uint64_t>* outs,
                    QueryStats* stats) const;

  LshEnsembleOptions options_;
  std::shared_ptr<const HashFamily> family_;
  std::vector<PartitionSpec> specs_;  // non-empty partitions only
  std::vector<LshForest> forests_;    // parallel to specs_
  /// Probe filters: one per forest plus the engine-wide union, or empty /
  /// default when the index was built without them. filters_ is either
  /// empty or parallel to forests_.
  std::vector<ProbeFilter> filters_;
  ProbeFilter engine_filter_;
  std::unique_ptr<Tuner> tuner_;
  size_t total_ = 0;
};

}  // namespace lshensemble

#endif  // LSHENSEMBLE_CORE_LSH_ENSEMBLE_H_
