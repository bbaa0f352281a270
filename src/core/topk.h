// Top-k containment search: the query and result types of
// ShardedEnsemble::BatchSearch, whose body (the threshold descent) lives
// in topk.cc.
//
// The paper (Section 2) frames domain search by threshold and notes that
// the top-k formulation is "closely related and complementary". This
// module provides the complementary form: find the k domains with the
// highest (estimated) containment of the query.
//
// Strategy: descend through containment thresholds on a fixed geometric
// schedule: 0.95 first, each round 0.7x the last, and a last round at the
// 0.05 floor (0.95, 0.665, 0.466, ..., 0.055, 0.05: 10 rounds at most).
// The floor keeps a query that overlaps fewer than k domains from
// scanning the whole index. At each threshold the index returns every
// candidate whose containment plausibly reaches it; each candidate is
// scored by sketch-estimated containment (Jaccard estimate converted
// through Eq. 6 with the candidate's exact stored size, capped at
// min(1, |X|/|Q|)). Descent stops as soon as the k-th best estimate is at
// least the current threshold — any domain not yet retrieved would have
// to beat it from below the threshold, which the threshold semantics rule
// out (up to LSH recall error).
//
// The search is batched: all queries of a BatchSearch call advance their
// descents in lockstep, each round ONE scatter/gather wave over the
// still-active queries, and a query retires as soon as its k-th best
// estimate clears the round's threshold. Scoring happens where the data
// lives: each (shard x query-chunk) task of the wave scores the
// candidates its shard found, under that shard's read lock, with one
// many-row collision count per query, and hands (id, estimate) pairs to
// the gather. A single query is a batch of one.

#ifndef LSHENSEMBLE_CORE_TOPK_H_
#define LSHENSEMBLE_CORE_TOPK_H_

#include <cstdint>

#include "minhash/minhash.h"

namespace lshensemble {

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

}  // namespace lshensemble

#endif  // LSHENSEMBLE_CORE_TOPK_H_
