// Corpus-scale near-duplicate clustering: the "group everything similar"
// workload (ROADMAP's data-cleaning scenario family — dedup,
// canonicalization, join-graph discovery).
//
// The standard LSH clustering shape (DSU over LSH candidate buckets; cf.
// the Jafari et al. survey, arXiv:2102.08942) adapted to the ensemble: the
// corpus is self-joined through the serving layer's own batched engine —
// every indexed record becomes a query against the index that holds it —
// in bounded tiles of ShardedEnsemble::BatchQuery waves, so the scratch
// (per-shard scratch pools, gather staging, output vectors) stays resident
// however large the corpus is. This is BatchQuery's largest possible
// workload: a batch the size of the corpus itself.
//
// Candidate (query, candidate) hits become undirected edges, deduped by
// canonical (min, max) record order; an optional verification pass
// recomputes the EXACT containment of each unique edge from raw values and
// drops edges below the threshold (LSH false positives) before the edge
// reaches the union-find. A path-halving, union-by-size DSU
// (cluster/union_find.h) folds the surviving edges into connected
// components, and the result labels every record with its component's
// smallest member id.
//
// Invariance: shard count and tile size only change how the same query set
// is grouped into waves — the candidate-edge SET is identical (the sharded
// layer's pinned-partition property guarantees shard-invariant candidate
// sets), and min-id canonical roots are order-free — so cluster output is
// byte-identical across S and tile sizes. Property-tested in
// tests/cluster_test.cc.
//
// Threading: Cluster() issues scatter/gather waves, so it must not be
// called from inside a thread-pool worker (the engine would refuse with
// FailedPrecondition). It is safe concurrently with Insert/Remove/Flush on
// the same index — records hold OWNED signature copies, so no borrowed
// view can dangle — but concurrent mutations are not part of the clustered
// snapshot: candidates pointing at records the caller did not enumerate
// are counted (ClusterStats::unknown_candidates) and skipped.

#ifndef LSHENSEMBLE_CLUSTER_CLUSTERER_H_
#define LSHENSEMBLE_CLUSTER_CLUSTERER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/sharded_ensemble.h"
#include "data/corpus.h"
#include "minhash/minhash.h"
#include "util/result.h"
#include "util/status.h"

namespace lshensemble {

/// \brief Configuration of a near-duplicate clustering run.
struct ClusterOptions {
  /// Containment threshold t*: records A, B are near-duplicates when
  /// max(t(A,B), t(B,A)) >= threshold (either direction suffices, like the
  /// pair-level ground truth the eval harness computes).
  double threshold = 0.9;
  /// Queries per self-join BatchQuery wave. Bounds resident scratch
  /// (specs, gather staging, per-query outputs); the clusters produced do
  /// not depend on it.
  size_t tile_size = 2048;
  /// Recompute each unique candidate edge's exact containment from raw
  /// values and drop edges below `threshold` before they reach the DSU.
  /// Removes LSH false-positive edges (precision goes to the transitive
  /// closure of the EXACT pair graph restricted to LSH candidates) at the
  /// cost of one sorted-merge intersection per unique edge. Requires every
  /// record to carry its Domain.
  bool verify_exact = false;
  /// Keep the post-verification edge list in ClusterResult::edges
  /// (canonical (min-id, max-id) pairs, sorted). Tests and debugging.
  bool collect_edges = false;

  Status Validate() const;
};

/// \brief One clusterable record: the query-side view of an indexed
/// domain. The signature is owned (copied out of the engine or catalog) so
/// clustering can run concurrently with index mutation; `domain` supplies
/// raw values and is only required by ClusterOptions::verify_exact.
struct ClusterRecord {
  uint64_t id = 0;
  size_t size = 0;
  MinHash signature;
  const Domain* domain = nullptr;
};

/// \brief Self-join + union-find counters.
struct ClusterStats {
  size_t num_records = 0;
  size_t num_tiles = 0;
  /// Candidate ids returned by the self-join, self-hits excluded.
  size_t candidates = 0;
  /// Candidates naming records outside the enumerated set (concurrent
  /// inserts landing mid-job); skipped.
  size_t unknown_candidates = 0;
  /// Unique undirected candidate edges after (min, max) dedup.
  size_t unique_pairs = 0;
  /// Unique edges rejected by the exact-containment verification.
  size_t verified_rejected = 0;
  /// Edges fed to the DSU (unique_pairs - verified_rejected).
  size_t union_edges = 0;
  /// Unions that actually joined two distinct components.
  size_t merges = 0;
  size_t num_clusters = 0;
  /// Components with >= 2 members, and their total membership.
  size_t num_duplicate_groups = 0;
  size_t num_duplicated_records = 0;
};

/// \brief The clustering: parallel arrays mapping every record id
/// (ascending) to its cluster's canonical root — the smallest id in the
/// component. A singleton record is its own root.
struct ClusterResult {
  std::vector<uint64_t> ids;
  std::vector<uint64_t> roots;
  /// Post-verification candidate edges as canonical (min-id, max-id)
  /// pairs, sorted ascending; filled only under
  /// ClusterOptions::collect_edges.
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  size_t num_clusters = 0;
};

/// \brief Tiled self-join clustering driver over the sharded serving
/// engine. Stateless apart from its options; one instance can run many
/// corpora.
class NearDupClusterer {
 public:
  explicit NearDupClusterer(ClusterOptions options)
      : options_(std::move(options)) {}

  /// \brief Cluster `records` against `index`, which must already hold
  /// every record (each record is queried with its own signature and
  /// exact size at the configured threshold). Record ids must be unique;
  /// under verify_exact every record must carry its Domain. Must not be
  /// called from a thread-pool worker.
  Result<ClusterResult> Cluster(const ShardedEnsemble& index,
                                std::span<const ClusterRecord> records,
                                ClusterStats* stats = nullptr) const;

  const ClusterOptions& options() const { return options_; }

 private:
  ClusterOptions options_;
};

/// \brief Enumerate `index`'s live records into owned ClusterRecords
/// (signatures copied under the owning shard's lock), sorted by id. This
/// is how a snapshot-opened serving layer — which has no catalog — feeds
/// its own contents to the clusterer.
std::vector<ClusterRecord> CollectRecords(const ShardedEnsemble& index);

/// \brief One-call convenience for benches, tests and the CSV path:
/// sketch `corpus`, build an S-shard serving layer over it, self-join and
/// cluster. Records carry their Domains, so verify_exact works. Corpus
/// ids must be unique.
Result<ClusterResult> ClusterCorpus(const Corpus& corpus,
                                    std::shared_ptr<const HashFamily> family,
                                    const ClusterOptions& options,
                                    size_t num_shards,
                                    ClusterStats* stats = nullptr);

}  // namespace lshensemble

#endif  // LSHENSEMBLE_CLUSTER_CLUSTERER_H_
