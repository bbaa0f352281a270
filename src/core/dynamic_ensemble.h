// Incremental domain search: an LshEnsemble plus an LSM-style write path.
//
// The paper studies dynamic data in Section 6.2: the index tolerates
// considerable domain-size drift before its equi-depth partitioning
// degrades, and is rebuilt when the distribution shifts drastically. This
// module packages that lifecycle:
//
//  * Insert()  — new domains land in an unindexed delta buffer that is
//                scanned exactly at query time (sketch-estimated Jaccard
//                against the same conservative threshold the ensemble
//                uses), so they are searchable immediately.
//  * Remove()  — removals tombstone indexed domains; tombstones filter
//                query results until the next rebuild.
//  * Flush()   — rebuilds the ensemble over all live domains. An insert
//                triggers it automatically once the delta holds at least
//                min_delta_for_rebuild domains and at least 10% of the
//                indexed domain count (RebuildDue).
//
// The structure retains every live domain's size and signature (the
// side-car top-k ranking reads) — that is what makes rebuilds possible
// without re-reading the raw data.
//
// Zero-copy open (io/snapshot.h): an index opened from a mapped v2
// snapshot serves the indexed records' side-car straight out of the
// mapping (sorted-id binary search) instead of the records_ map, which
// then holds only the post-open overlay (restored delta + new inserts).
// Queries, mutations and top-k ranking behave identically; the first
// Flush() materializes the mapped records, rebuilds on the heap and
// releases the mapping.
//
// Queries run on the calling thread, delta scan included: this engine is
// the single-thread building block of a ShardedEnsemble shard, whose
// (shard x query-chunk) wave is the only query dispatch to the thread
// pool. Use a ShardedEnsemble (S = 1 for no sharding) to answer a batch
// in parallel.

#ifndef LSHENSEMBLE_CORE_DYNAMIC_ENSEMBLE_H_
#define LSHENSEMBLE_CORE_DYNAMIC_ENSEMBLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/lsh_ensemble.h"
#include "minhash/minhash.h"
#include "util/result.h"
#include "util/status.h"

namespace lshensemble {

/// \brief Configuration of a DynamicLshEnsemble.
struct DynamicEnsembleOptions {
  /// Options used for every (re)build of the underlying ensemble.
  LshEnsembleOptions base;
  /// Never rebuild automatically before the delta holds at least this
  /// many domains (avoids rebuild storms while the index is small).
  size_t min_delta_for_rebuild = 1024;
};

/// \brief The automatic rebuild rule, shared by the dynamic and sharded
/// engines: true once `delta` domains wait unindexed, at least
/// options.min_delta_for_rebuild of them and at least 10% of `indexed`.
bool RebuildDue(size_t delta, size_t indexed,
                const DynamicEnsembleOptions& options);

/// \brief Mutable domain-search index: immediate-visibility inserts,
/// tombstoned removals, automatic rebuilds.
///
/// Not thread-safe for concurrent mutation; concurrent Query() calls are
/// safe between mutations.
class DynamicLshEnsemble {
 public:
  /// \param family the hash family all inserted signatures must share.
  static Result<DynamicLshEnsemble> Create(
      DynamicEnsembleOptions options,
      std::shared_ptr<const HashFamily> family);

  /// \brief Add a domain; it is searchable immediately. `id` must not be
  /// live (re-inserting a Remove()d id is allowed). May trigger a rebuild.
  Status Insert(uint64_t id, size_t size, MinHash signature);

  /// \brief Add a domain from its raw (pre-hashed, distinct) values: the
  /// signature is built internally with the batched SIMD kernel and the
  /// size taken from values.size(). Same semantics as Insert() above.
  Status Insert(uint64_t id, std::span<const uint64_t> values);

  /// \brief Remove a live domain. Indexed domains are tombstoned until the
  /// next rebuild; unflushed (delta) domains are dropped outright.
  Status Remove(uint64_t id);

  /// \brief Domain search with set containment over indexed + delta
  /// domains, minus tombstones. Same contract as LshEnsemble::Query.
  ///
  /// A thin wrapper over the context-taking overload with a private
  /// QueryContext (allocates); prefer that overload on hot paths.
  Status Query(const MinHash& query, size_t query_size, double t_star,
               std::vector<uint64_t>* out) const;

  /// \brief Same search, routed through the batched engine with
  /// caller-owned scratch: a thin wrapper over BatchQuery() with a batch
  /// of one. One context must not be used by concurrent callers.
  Status Query(const MinHash& query, size_t query_size, double t_star,
               QueryContext* ctx, std::vector<uint64_t>* out) const;

  /// \brief Answer `specs.size()` queries in one call, same per-query
  /// contract as LshEnsemble::BatchQuery (query i's live candidates go to
  /// `outs[i]`, cleared first; optional per-query `stats`).
  ///
  /// The indexed portion rides the underlying ensemble's batched engine;
  /// the delta buffer is then scanned ONCE for the whole batch — records
  /// in the outer loop, queries in the inner loop, so each unindexed
  /// signature is compared against every query while cache-resident (via
  /// the dispatched collision-count kernel). Per-query threshold terms are
  /// hoisted out of the record loop, and all staging (tombstone filtering,
  /// hoisted terms) lives in `ctx`, so a warm context makes the whole call
  /// allocation-free apart from output growth. Runs on the calling
  /// thread. Thread-safe between mutations; give each calling thread its
  /// own context.
  ///
  /// Under base.prune_unreachable_partitions (the same flag the indexed
  /// path's partition prune honors), delta records whose size cannot
  /// reach a query's containment threshold (x < t* * q implies
  /// t(Q, X) <= x/q < t*) skip the collision count — whole scan tiles are
  /// skipped when even their largest record is unreachable. Like the
  /// partition prune, this admits no record the threshold semantics could
  /// require (no new false negatives).
  Status BatchQuery(std::span<const QuerySpec> specs, QueryContext* ctx,
                    std::vector<uint64_t>* outs,
                    QueryStats* stats = nullptr) const;

  /// \brief Rebuild the ensemble over all live domains now. No-op when
  /// nothing changed since the last build. Clears the delta and tombstones.
  Status Flush();

  /// \brief Rebuild with partition boundaries pinned to `pinned` instead of
  /// partitioning this index's own size distribution (see
  /// LshEnsembleOptions::pinned_partitions). Always rebuilds — the caller
  /// changes the boundaries, so "nothing changed" cannot be inferred here.
  /// The sharded serving layer drives every shard's rebuilds through this
  /// with one corpus-global partitioning.
  Status Flush(std::vector<PartitionSpec> pinned);

  /// \brief Append every live domain's size to `out` (unspecified order).
  /// The sharded layer aggregates these across shards to compute the
  /// corpus-global partitioning it pins rebuilds to.
  void AppendLiveSizes(std::vector<uint64_t>* out) const;

  /// \brief Invoke `fn(id, size, signature)` for every live domain —
  /// heap (overlay) records and still-live snapshot-resident records
  /// alike, in unspecified order. The views carry the FindSignature()
  /// stability contract: callers that outlive the enumeration (or run
  /// concurrently with mutations, like the cluster self-join) must copy
  /// the slots out inside `fn`. This is the corpus enumeration the
  /// all-pairs self-join driver (cluster/clusterer.h) feeds its query
  /// waves from, which is why a snapshot-opened index can be clustered
  /// without its catalog.
  void ForEachLiveRecord(
      const std::function<void(uint64_t id, size_t size, SignatureView sig)>&
          fn) const;

  /// Number of live (searchable) domains: the heap records (overlay) plus
  /// the still-live records of a mapped snapshot base.
  size_t size() const {
    return records_.size() + mapped_.n - mapped_removed_;
  }
  /// Domains in the built ensemble (including tombstoned ones).
  size_t indexed_size() const;
  /// Domains awaiting the next rebuild.
  size_t delta_size() const { return delta_.size(); }
  /// Tombstoned (removed but still indexed) domains.
  size_t tombstone_count() const { return tombstones_.size(); }

  /// The built ensemble, or nullptr before the first flush.
  const LshEnsemble* indexed() const {
    return ensemble_.has_value() ? &*ensemble_ : nullptr;
  }

  /// Exact size of a live domain (0 if not live) — the side-car lookup.
  size_t SizeOf(uint64_t id) const;
  /// Signature of a live domain as an owned MinHash (nullptr if not
  /// live). For an index opened from a mapped snapshot this only covers
  /// the overlay (post-open inserts); snapshot-resident records have no
  /// owned MinHash — use FindSignature(), which covers both.
  const MinHash* SignatureOf(uint64_t id) const;
  /// \brief Borrowed view of a live domain's signature and, on success,
  /// its exact size — overlay records and snapshot-resident records
  /// alike. This is the lookup top-k ranking uses; the view is stable
  /// until the domain is removed, the index flushes, or it is destroyed.
  SignatureView FindSignature(uint64_t id, size_t* size) const;

  /// The hash family all signatures share.
  const std::shared_ptr<const HashFamily>& family() const { return family_; }

 private:
  struct Record {
    size_t size;
    MinHash signature;
  };

  DynamicLshEnsemble(DynamicEnsembleOptions options,
                     std::shared_ptr<const HashFamily> family)
      : options_(std::move(options)), family_(std::move(family)) {}

  friend class SnapshotIO;  // io/snapshot.cc (v2 save + zero-copy open)

  /// \brief Side-car of the records that live only in the mapped
  /// snapshot: parallel id/size arrays (ids strictly ascending) plus the
  /// signature arena, all borrowed views into the mapping. n == 0 means
  /// "no mapped base" (the common, fully-heap case).
  struct MappedSideCar {
    const uint64_t* ids = nullptr;
    const uint64_t* sizes = nullptr;
    const uint64_t* signatures = nullptr;  // n rows of m slot minima
    size_t n = 0;
    size_t m = 0;
  };

  /// Add a validated record to records_ and to the end of the delta
  /// arrays (Insert and the snapshot restore).
  void AppendDelta(uint64_t id, size_t size, MinHash signature);
  /// Rebuild over all live records with `build_options` (Flush plumbing).
  Status Rebuild(const LshEnsembleOptions& build_options);
  /// Index into mapped_.ids for `id`, or mapped_.n when absent.
  size_t MappedFind(uint64_t id) const;
  /// True when `id` is live in the mapped base (present, not tombstoned).
  bool MappedLive(uint64_t id) const;
  /// Copy every live mapped record into records_ and drop the mapped base
  /// (the first step of any rebuild of a snapshot-opened index).
  Status MaterializeMapped();

  DynamicEnsembleOptions options_;
  std::shared_ptr<const HashFamily> family_;

  // All live domains (authoritative copy used for rebuilds).
  std::unordered_map<uint64_t, Record> records_;
  // The delta: records inserted since the last rebuild (a subset of
  // records_), as ids, exact sizes and signature rows, all in delta order.
  // The delta scan reads these arrays directly. A row points at the
  // record's num_hashes slots inside its records_ entry, which stays put
  // until the record is removed (map nodes never move), so each delta
  // signature is stored once.
  std::vector<uint64_t> delta_;
  std::vector<uint64_t> delta_sizes_;
  std::vector<const uint64_t*> delta_rows_;
  // Ids removed (or replaced) since the last rebuild but still present in
  // the built ensemble.
  std::unordered_set<uint64_t> tombstones_;

  std::optional<LshEnsemble> ensemble_;
  size_t indexed_count_ = 0;

  // Zero-copy open state: the mapped side-car view, how many of its
  // records were Remove()d since the open (they stay in mapped_.ids but
  // are tombstoned), and the keepalive for the mapping (type-erased so
  // this header does not depend on io/). All empty for heap indexes.
  MappedSideCar mapped_;
  size_t mapped_removed_ = 0;
  std::shared_ptr<const void> mapped_backing_;
};

}  // namespace lshensemble

#endif  // LSHENSEMBLE_CORE_DYNAMIC_ENSEMBLE_H_
