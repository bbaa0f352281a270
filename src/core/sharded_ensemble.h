// Shard-per-core serving layer over the batched engine.
//
// The paper's premise is internet-scale corpora; one monolithic index on
// one thread pool stops scaling at a single socket's memory bandwidth.
// Distributed LSH layouts (Bahmani et al.; Teixeira et al.) partition the
// corpus across independent index replicas and answer queries by
// scatter/gather. This module is that layout inside one process:
//
//  * The corpus is hash-partitioned by domain id into S shards, each
//    backed by its own DynamicLshEnsemble — every shard keeps the full
//    static + delta + tombstone lifecycle, guarded by a per-shard
//    reader/writer lock, so queries run concurrently with inserts.
//  * Rebuilds are corpus-global: the serving layer gathers every live
//    size across shards, computes ONE partitioning with the configured
//    strategy, and pins each shard's rebuild to those boundaries
//    (LshEnsembleOptions::pinned_partitions). Per-partition tuning then
//    depends only on the global boundaries, so the union of shard
//    candidates equals the unsharded engine's candidate set exactly —
//    sharding changes throughput, never results.
//  * BatchQuery() scatters the batch in ONE thread-pool wave of
//    (shard x query-chunk) tasks — the only place any query work reaches
//    the pool. Each shard's batch is cut into ChunksPerShard() contiguous
//    chunks, so a wave keeps every pool thread busy at any shard count,
//    S = 1 included; each task answers its chunk on one shard's
//    single-thread engine, under that shard's read lock, with its own
//    pinned scratch. The gather merges the per-chunk outputs into
//    caller-order results, each query's candidates in canonical
//    ascending-id order. Inside each task the engine's probe-filter tier
//    (filter/probe_filter.h) turns the all-shard scatter into an
//    effectively routed probe: a query whose slot-0 keys miss a shard's
//    union filter is rejected by that shard in O(trees) Bloom probes
//    before any forest work, and a query that passes skips the
//    individual partitions its keys miss — with one-sided error, so the
//    merged output is byte-identical to the unfiltered scatter.
//  * BatchSearch() is the top-k search (core/topk.h): a lockstep
//    threshold descent whose every round is one such wave. Each task of
//    a round scores the candidates its shard found against their query,
//    under the shard's read lock it already holds, with one many-row
//    collision count per query; the gather merges the (id, estimate)
//    pairs, and each query's retire decision comes from the k-th best
//    estimate of that cross-shard merge, so the ranked output is the
//    same for every shard count.
//
// Per-shard scratch (QueryContext, gather staging, scoring buffers) is
// pooled per shard so every task of a wave, and every concurrent call,
// gets its own; a context holds no index state. An unsharded caller that
// wants a batch answered in parallel, or ranked, builds this layer with
// S = 1: LshEnsemble and DynamicLshEnsemble answer threshold queries on
// the calling thread.
//
// Threading contract: Insert/Remove/Flush are safe concurrently with
// BatchQuery and BatchSearch (per-shard locks); concurrent mutators are
// serialized per shard. A task probes, looks up and scores under one
// hold of its shard's read lock, so a concurrent Flush() — which may
// release a snapshot-opened shard's mapping — can never unmap a
// signature mid-estimate. The scatter paths — BatchQuery and
// BatchSearch — must never be issued from inside a thread-pool worker
// (the shard wave would submit pool work from within the pool, which can
// deadlock it); they fail with FailedPrecondition if they are — see
// ThreadPool::InWorkerThread(). Rebuilds deliberately run serially on the
// flushing thread: holding every shard's write lock across a pool
// dispatch could deadlock against a waiting caller that "helps" with a
// queued reader task.

#ifndef LSHENSEMBLE_CORE_SHARDED_ENSEMBLE_H_
#define LSHENSEMBLE_CORE_SHARDED_ENSEMBLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/dynamic_ensemble.h"
#include "core/lsh_ensemble.h"
#include "core/topk.h"
#include "io/snapshot.h"
#include "minhash/minhash.h"
#include "util/result.h"
#include "util/status.h"

namespace lshensemble {

/// \brief Configuration of a ShardedEnsemble.
struct ShardedEnsembleOptions {
  /// Per-shard build/query options plus the global rebuild policy. The
  /// rebuild trigger is evaluated on corpus-global counts (total delta vs
  /// total indexed), matching the unsharded engine's schedule on the same
  /// insert sequence. parallel_build is overridden per shard: shard
  /// rebuilds run serially under the shard write locks.
  DynamicEnsembleOptions base;
  /// Number of shards S; hash(id) mod S picks a domain's shard.
  size_t num_shards = 1;
  /// Admission bound: the number of BatchQuery/BatchSearch calls allowed
  /// in flight at once (0 = unbounded). A call past the bound is shed
  /// immediately with Status::Unavailable — it does no shard work — so an
  /// overloaded server degrades to fast rejections instead of a growing
  /// queue of slow answers. Admitted batches are unaffected: their
  /// results are byte-identical with or without shedding around them.
  size_t max_in_flight_batches = 0;
  /// Opt-in partial results: when a shard's gather fails ONLY because a
  /// query deadline expired, BatchQuery returns OK with the candidates
  /// from the shards that finished and reports the split per query in
  /// QueryStats::shards_gathered / shards_skipped (stats overload). A
  /// shard counts as finished only when every query chunk of its batch
  /// finished, so one expired chunk skips the whole shard. Off,
  /// a deadline expiry anywhere fails the whole batch with
  /// DeadlineExceeded. Any other shard error is fatal either way.
  bool partial_results = false;

  Status Validate() const;
};

/// \brief The decoded MANIFEST of a SaveSnapshot() directory.
struct ShardSnapshotManifest {
  uint64_t num_shards = 0;
  uint32_t num_hashes = 0;
  uint64_t seed = 0;
};

/// \brief Scatter/gather serving layer: S independent dynamic shards, one
/// global partitioning, results identical to the unsharded engine.
class ShardedEnsemble {
 public:
  /// \param family the hash family all inserted signatures must share.
  static Result<ShardedEnsemble> Create(
      ShardedEnsembleOptions options,
      std::shared_ptr<const HashFamily> family);

  ShardedEnsemble(ShardedEnsemble&&) = default;
  ShardedEnsemble& operator=(ShardedEnsemble&&) = default;

  /// \brief Add a domain to its shard; searchable immediately (delta).
  /// Same id contract as DynamicLshEnsemble::Insert. May trigger a global
  /// rebuild.
  Status Insert(uint64_t id, size_t size, MinHash signature);

  /// \brief Add a domain from its raw (pre-hashed, distinct) values.
  Status Insert(uint64_t id, std::span<const uint64_t> values);

  /// \brief Remove a live domain from its shard (tombstone or delta drop).
  Status Remove(uint64_t id);

  /// \brief Rebuild every shard now against one corpus-global partitioning
  /// (no-op when every shard is clean and boundaries cannot have changed).
  Status Flush();

  /// \brief Write a v2 snapshot of every shard under `dir` (created if
  /// absent): one zero-copy shard image per shard plus a checksummed
  /// MANIFEST naming the shard count, hash family and per-shard files.
  /// Invalidate-then-commit: any existing manifest is retracted first
  /// (unlink + directory fsync, ordering it before the shard writes)
  /// and the fresh one written last, so a save torn at any point —
  /// including a re-save over a previous snapshot — leaves a directory
  /// that refuses to open rather than one that opens inconsistently.
  /// Holds every shard's read lock for the whole save: queries proceed,
  /// mutations block, and the snapshot describes one point-in-time
  /// state of the index (arenas, side-cars, deltas, tombstones).
  /// `env` selects the file operations (nullptr = Env::Default()).
  Status SaveSnapshot(const std::string& dir, Env* env = nullptr) const;

  /// \brief Open a serving layer from a SaveSnapshot() directory with no
  /// arena copies: every shard mmaps its segment file (deltas restore as
  /// overlays). `options` supplies the serving/rebuild policy and must
  /// request the saved shard count (resharding a snapshot would need to
  /// re-hash every id). Results are identical to the saved engine.
  /// `open_options` selects validation depth and the Env; a failed open
  /// names the shard file that failed and leaves no mappings live.
  static Result<ShardedEnsemble> OpenSnapshot(
      const std::string& dir, ShardedEnsembleOptions options,
      const SnapshotOpenOptions& open_options = {});

  /// \brief Read + CRC-validate `dir`'s MANIFEST without opening any
  /// shard (verification tools; OpenSnapshot uses it internally).
  static Result<ShardSnapshotManifest> ReadSnapshotManifest(
      const std::string& dir, Env* env = nullptr);

  /// \brief File name of shard `shard` inside a snapshot directory.
  static std::string ShardSnapshotFileName(size_t shard);

  /// \brief Answer `specs.size()` queries in one scatter/gather wave.
  /// Query i's live candidates across all shards go to `outs[i]` (cleared
  /// first) in ascending-id order — a canonical order, so results are
  /// byte-identical for every shard count, including S = 1 vs unsharded
  /// (after the same ordering). Safe concurrently with mutations; must
  /// not be called from a pool worker.
  Status BatchQuery(std::span<const QuerySpec> specs,
                    std::vector<uint64_t>* outs) const;

  /// \brief BatchQuery with per-query statistics: `stats[i]` receives the
  /// shard-summed probe counters for query i plus the gather split
  /// (shards_gathered / shards_skipped — the latter nonzero only in
  /// partial-results mode). Stats only observe: outputs are identical to
  /// the overload without them.
  Status BatchQuery(std::span<const QuerySpec> specs,
                    std::vector<uint64_t>* outs, QueryStats* stats) const;

  /// \brief Rank `queries.size()` top-k queries in one lockstep descent
  /// over the shards; query i's results go to `outs[i]`: the k domains
  /// with the highest estimated containment, by descending estimate (ties
  /// by ascending id), fewer when fewer domains overlap the query. The
  /// output is the same for every shard count. Safe concurrently with
  /// mutations, though results then reflect some interleaving of the
  /// concurrent writes. One admission covers the whole descent. On error
  /// the contents of `outs` are unspecified. Must not be called from a
  /// pool worker.
  Status BatchSearch(std::span<const TopKQuery> queries, size_t k,
                     std::vector<TopKResult>* outs) const;

  size_t num_shards() const { return shards_.size(); }

  /// \brief The scatter's chunk rule: a batch of `count` queries is cut
  /// into min(count, ceil(2 * participants / num_shards)) contiguous
  /// chunks per shard, where `participants` is the pool's thread count
  /// plus the calling thread. That gives a wave about two tasks per
  /// thread at every shard count. Chunk c spans queries
  /// [c * count / chunks, (c + 1) * count / chunks).
  static size_t ChunksPerShard(size_t count, size_t num_shards,
                               size_t participants);

  /// The hash family every shard shares; queries must be sketched with
  /// it (network callers check seed/num_hashes against this).
  const std::shared_ptr<const HashFamily>& family() const { return family_; }
  /// Shard owning `id` (stable hash, independent of corpus content).
  size_t ShardOf(uint64_t id) const;

  /// Live (searchable) domains across all shards.
  size_t size() const;
  /// Domains in built shard ensembles (including tombstoned ones).
  size_t indexed_size() const;
  /// Domains awaiting the next global rebuild, across all shards.
  size_t delta_size() const;
  /// Tombstoned (removed but still indexed) domains, across all shards.
  size_t tombstone_count() const;

  /// Exact size of a live domain (0 if not live) — owner-shard lookup.
  size_t SizeOf(uint64_t id) const;
  /// Signature of a live domain (nullptr if not live). The pointer is
  /// stable until the domain is Remove()d or this object is destroyed.
  /// Covers only heap records on snapshot-opened shards (see
  /// DynamicLshEnsemble::SignatureOf); FindSignature covers both.
  const MinHash* SignatureOf(uint64_t id) const;
  /// \brief Borrowed signature view + exact size in one owner-shard
  /// lookup — heap and snapshot-resident records alike. The view is
  /// only stable until the owning shard mutates, flushes (a flush of a
  /// snapshot-opened shard releases its mapping), or is destroyed.
  SignatureView FindSignature(uint64_t id, size_t* size) const;

  /// \brief Invoke `fn(id, size, signature)` for every live domain across
  /// all shards (unspecified order), each shard enumerated under its read
  /// lock. The views are only guaranteed stable while `fn` runs (a
  /// concurrent Flush of a snapshot-opened shard can release the mapping
  /// they point into afterwards), so `fn` must copy what it keeps. The
  /// cluster self-join (cluster/clusterer.h) uses this to turn an index —
  /// including one opened straight off a snapshot directory — into its
  /// own query stream.
  void ForEachLiveRecord(
      const std::function<void(uint64_t id, size_t size, SignatureView sig)>&
          fn) const;

  /// Shard introspection for tests and benches (not locked; do not call
  /// concurrently with mutations).
  const DynamicLshEnsemble& shard(size_t index) const {
    return shards_[index]->engine;
  }

 private:
  struct Counters;

 public:
  /// \brief RAII hold on one in-flight admission slot. The slot is
  /// released when the object is destroyed (or moved from). A
  /// default-constructed slot holds nothing — TryAdmit() returns one when
  /// admission is unbounded.
  class AdmissionSlot {
   public:
    AdmissionSlot() = default;
    AdmissionSlot(AdmissionSlot&& other) noexcept
        : counters_(other.counters_) {
      other.counters_ = nullptr;
    }
    AdmissionSlot& operator=(AdmissionSlot&& other) noexcept {
      if (this != &other) {
        Release();
        counters_ = other.counters_;
        other.counters_ = nullptr;
      }
      return *this;
    }
    ~AdmissionSlot() { Release(); }

   private:
    friend class ShardedEnsemble;
    explicit AdmissionSlot(Counters* counters) : counters_(counters) {}
    void Release();

    Counters* counters_ = nullptr;
  };

  /// \brief Claim one in-flight slot under max_in_flight_batches, or
  /// Unavailable when the layer is at capacity. BatchQuery/BatchSearch
  /// admit themselves; this is public so callers (and tests) can hold
  /// slots explicitly — e.g. to reserve capacity or to drive the shed
  /// path deterministically.
  Result<AdmissionSlot> TryAdmit() const;

  /// In-flight admitted batches right now (0 when unbounded: slots are
  /// only counted under a bound).
  size_t in_flight_batches() const;

 private:
  /// Tests reach a shard's lock to hold a shard back mid-wave.
  friend class ShardedEnsembleTestPeer;

  /// One shard: its engine, its reader/writer lock, and its scratch pool.
  struct Shard {
    explicit Shard(DynamicLshEnsemble e) : engine(std::move(e)) {}

    DynamicLshEnsemble engine;
    /// Guards `engine` (shared for queries, exclusive for mutation).
    mutable std::shared_mutex mutex;
    /// One scatter task's scratch: the chunk's context, its gather
    /// staging, its per-query counters and scored candidates (indexed
    /// from the chunk start), and one query's candidate rows and
    /// collision counts while it is scored.
    struct Scratch {
      QueryContext ctx;
      std::vector<std::vector<uint64_t>> outs;
      std::vector<QueryStats> stats;
      std::vector<std::vector<TopKResult>> scored;
      std::vector<const uint64_t*> rows;
      std::vector<uint32_t> collisions;
    };
    mutable std::mutex scratch_mutex;
    mutable std::vector<std::unique_ptr<Scratch>> scratch_pool;
    mutable std::vector<Scratch*> scratch_free;

    /// Pin one scratch per chunk of a call (out[c] serves chunk c), and
    /// return them. Release hands them back in order, so a serial caller
    /// gets the same scratch for the same chunk every call and its warm
    /// buffers fit.
    void AcquireScratch(std::span<Scratch*> out) const;
    void ReleaseScratch(std::span<Scratch* const> scratch) const;
  };

  ShardedEnsemble(ShardedEnsembleOptions options,
                  std::shared_ptr<const HashFamily> family)
      : options_(std::move(options)), family_(std::move(family)) {}

  /// The scatter/gather wave behind BatchQuery and every top-k descent
  /// round. Each task probes its chunk on its shard, then finishes each
  /// query one of two ways: with `ids` set it sorts the candidate ids
  /// (the gather writes each query's ids to `ids[i]` in canonical
  /// ascending-id order); with `scored` set it scores them against their
  /// query (ScoreCandidates; the gather writes each query's (id,
  /// estimate) pairs to `scored[i]`, unordered). Exactly one of the two
  /// is non-null. `stats` (optional) receives shard-summed per-query
  /// counters and the partial-results gather split. Does NOT admit —
  /// public entry points do (the top-k descent calls this per round
  /// under ONE admission).
  Status BatchQueryImpl(std::span<const QuerySpec> specs,
                        std::vector<uint64_t>* ids,
                        std::vector<TopKResult>* scored,
                        QueryStats* stats = nullptr) const;

  /// A top-k task's last step (defined in topk.cc, beside the descent):
  /// writes to `scored` an (id, estimated containment) pair for each
  /// live candidate in `ids`, estimated against `spec` (whose query size
  /// is resolved) with one collision count over all of the rows. The
  /// caller holds the shard's read lock.
  static void ScoreCandidates(const DynamicLshEnsemble& engine,
                              const QuerySpec& spec,
                              const std::vector<uint64_t>& ids,
                              Shard::Scratch* scratch,
                              std::vector<TopKResult>* scored);

  /// FailedPrecondition when called from a pool worker (see file comment).
  Status GuardNotInWorker(const char* what) const;
  /// The global rebuild trigger, mirroring DynamicLshEnsemble's policy on
  /// corpus-global counts (read from the O(1) counters below).
  bool ShouldRebuild() const;
  /// Lock every shard exclusively (in index order) and rebuild all of
  /// them against one freshly computed global partitioning.
  Status FlushLocked();

  /// Corpus-global delta / indexed totals, maintained on Insert/Remove
  /// and reset by rebuilds, so the per-insert rebuild check reads two
  /// atomics instead of locking and summing all S shards. Heap-allocated
  /// to keep the index movable.
  struct Counters {
    std::atomic<size_t> delta{0};
    std::atomic<size_t> indexed{0};
    /// Admitted batches currently in flight (see max_in_flight_batches).
    std::atomic<size_t> in_flight{0};
  };

  ShardedEnsembleOptions options_;
  std::shared_ptr<const HashFamily> family_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Counters> counters_ = std::make_unique<Counters>();
};

}  // namespace lshensemble

#endif  // LSHENSEMBLE_CORE_SHARDED_ENSEMBLE_H_
