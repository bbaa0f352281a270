// Top-k containment search on top of an LshEnsemble.
//
// The paper (Section 2) frames domain search by threshold and notes that
// the top-k formulation is "closely related and complementary". This
// module provides the complementary form: find the k domains with the
// highest (estimated) containment of the query.
//
// Strategy: descend through containment thresholds (geometric decay).
// At each threshold the ensemble returns every candidate whose containment
// plausibly reaches it; new candidates are scored by sketch-estimated
// containment (Jaccard estimate converted through Eq. 6 with the
// candidate's exact stored size). Descent stops as soon as the k-th best
// estimate is at least the current threshold — any domain not yet
// retrieved would have to beat it from below the threshold, which the
// threshold semantics rule out (up to LSH recall error).
//
// Ranking needs the indexed signatures, which the ensemble itself does not
// retain; callers keep them in a SketchStore (built during sketching, or
// reloaded alongside a persisted index). A DynamicLshEnsemble already
// retains sizes and signatures for every live domain (its rebuild side-car
// is exactly a sketch store), so a searcher can bind to one directly —
// top-k then ranks over indexed + delta domains, minus tombstones.
//
// The search is batched: BatchSearch() advances many queries' threshold
// descents in lockstep — every round issues ONE BatchQuery() over the
// still-active queries, retiring each query as soon as its k-th best
// estimate clears the current threshold. Search() is a batch of one.

#ifndef LSHENSEMBLE_CORE_TOPK_H_
#define LSHENSEMBLE_CORE_TOPK_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/lsh_ensemble.h"
#include "minhash/minhash.h"
#include "util/result.h"
#include "util/status.h"

namespace lshensemble {

class DynamicLshEnsemble;
class ShardedEnsemble;

/// \brief Sizes and signatures of indexed domains, keyed by id; the
/// side-car data top-k ranking needs.
class SketchStore {
 public:
  /// \brief Register a domain's exact size and signature. Ids must be
  /// unique; `size` >= 1; the signature must be valid.
  Status Add(uint64_t id, size_t size, MinHash signature);

  size_t size() const { return entries_.size(); }
  bool Contains(uint64_t id) const { return entries_.count(id) > 0; }

  /// Domain size for `id`; 0 when unknown.
  size_t SizeOf(uint64_t id) const;
  /// Signature for `id`; nullptr when unknown.
  const MinHash* SignatureOf(uint64_t id) const;
  /// \brief Borrowed signature view + exact size in one lookup — the
  /// shape the top-k ranking loop wants (dynamic and sharded engines
  /// serve the same view straight from a mapped snapshot's side-car).
  SignatureView FindSignature(uint64_t id, size_t* size) const;

 private:
  struct Entry {
    size_t size;
    MinHash signature;
  };
  std::unordered_map<uint64_t, Entry> entries_;
};

/// \brief One ranked answer.
struct TopKResult {
  uint64_t id = 0;
  /// Sketch-estimated containment t(Q, X), in [0, 1].
  double estimated_containment = 0.0;

  friend bool operator==(const TopKResult&, const TopKResult&) = default;
};

/// \brief One query of a BatchSearch() call. The referenced MinHash is
/// borrowed, not owned; it must outlive the call.
struct TopKQuery {
  const MinHash* query = nullptr;
  /// Exact |Q| if known; 0 means "use the MinHash cardinality estimate".
  size_t query_size = 0;
  /// Absolute steady-clock deadline in nanoseconds (0 = none). Carried
  /// into every descent round's probe; an expired deadline fails the
  /// whole search with DeadlineExceeded.
  uint64_t deadline_ns = 0;
};

/// \brief Top-k searcher over an ensemble + sketch store, or over a
/// DynamicLshEnsemble (which carries its own side-car).
///
/// All referenced objects must outlive the searcher. Thread-safe:
/// Search/BatchSearch only read shared state (each BatchSearch call needs
/// its own QueryContext, like any batched query).
class TopKSearcher {
 public:
  struct Options {
    /// First containment threshold probed.
    double initial_threshold = 0.95;
    /// Multiplicative threshold decay between rounds, in (0, 1).
    double decay = 0.7;
    /// Descent floor: below this threshold the search returns its best
    /// effort (protects against scanning the whole index when fewer than
    /// k overlapping domains exist).
    double min_threshold = 0.05;

    Status Validate() const;
  };

  /// Binds with default options.
  TopKSearcher(const LshEnsemble* ensemble, const SketchStore* store);
  TopKSearcher(const LshEnsemble* ensemble, const SketchStore* store,
               Options options);
  /// Binds to a dynamic index: candidates come from its batched query path
  /// (indexed + delta, minus tombstones) and ranking data from its records
  /// side-car. No separate SketchStore needed.
  explicit TopKSearcher(const DynamicLshEnsemble* index);
  TopKSearcher(const DynamicLshEnsemble* index, Options options);
  /// Binds to a sharded serving layer: every descent round's candidate
  /// probe is one scatter/gather wave over the shards, and ranking data
  /// comes from the owning shard's side-car — the cross-shard k-th-best
  /// merge that keeps sharded top-k identical to unsharded. BatchSearch's
  /// `ctx` is unused on this path (shards pin their own scratch) and may
  /// be null. Must not be driven from inside a thread-pool worker.
  explicit TopKSearcher(const ShardedEnsemble* index);
  TopKSearcher(const ShardedEnsemble* index, Options options);

  /// \brief The k domains with the highest estimated containment of the
  /// query, sorted by descending estimate (ties by ascending id). A thin
  /// wrapper over BatchSearch() with a batch of one and a private context.
  ///
  /// \param query      MinHash of the query domain (ensemble's family).
  /// \param query_size exact |Q|, or 0 to use the sketch estimate.
  /// \param k          number of results requested; fewer are returned
  ///                   when fewer candidate domains overlap the query.
  Result<std::vector<TopKResult>> Search(const MinHash& query,
                                         size_t query_size, size_t k) const;

  /// \brief Rank `queries.size()` top-k queries in one call; query i's
  /// results (contract as in Search()) are written to `outs[i]`.
  ///
  /// All queries descend the same threshold schedule in lockstep: each
  /// round issues one BatchQuery() over the still-active queries on the
  /// batched engine, scores the new candidates, and retires a query once
  /// its k-th best estimate reaches the round's threshold. Results are
  /// identical to calling Search() per query. `outs` must point to at
  /// least queries.size() vectors; `ctx` must not be shared by concurrent
  /// callers. On error the contents of `outs` are unspecified.
  Status BatchSearch(std::span<const TopKQuery> queries, size_t k,
                     QueryContext* ctx, std::vector<TopKResult>* outs) const;

 private:
  /// Candidate generation on whichever engine the searcher is bound to.
  Status EngineBatchQuery(std::span<const QuerySpec> specs, QueryContext* ctx,
                          std::vector<uint64_t>* outs) const;
  /// One side-car ranking probe per candidate: returns false when the id
  /// is unrankable, otherwise fills its exact size and the sketch
  /// Jaccard estimate against `query`. A single lookup per candidate,
  /// and for snapshot-resident records the signature is read straight
  /// from the mapping (no copy). On the sharded binding the lookup AND
  /// the estimate both run under the owner shard's lock — a concurrent
  /// Flush() releasing a shard's mapped snapshot can therefore never
  /// unmap a signature mid-estimate.
  Result<bool> RankLookup(const MinHash& query, uint64_t id, size_t* size,
                          double* jaccard) const;

  const LshEnsemble* ensemble_ = nullptr;
  const SketchStore* store_ = nullptr;
  const DynamicLshEnsemble* dynamic_ = nullptr;
  const ShardedEnsemble* sharded_ = nullptr;
  Options options_;
};

}  // namespace lshensemble

#endif  // LSHENSEMBLE_CORE_TOPK_H_
