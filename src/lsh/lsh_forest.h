// Dynamic MinHash LSH a la LSH Forest (Bawa, Condie & Ganesan, WWW'05):
// instead of fixing (b, r) at build time, the index stores `num_trees`
// prefix trees of depth `tree_depth` and lets every query choose its own
// effective b <= num_trees (how many trees to probe) and r <= tree_depth
// (how deep a prefix must match). LSH Ensemble relies on this to retune
// (b, r) per query and per partition (paper Section 5.5).
//
// Each "tree" is stored flattened: a sorted array of fixed-width keys
// (tree_depth hash values) plus the owning entry. A depth-r probe of the
// first b trees is two searches per tree: one lockstep descent finds the
// slot-0 equal range of all b trees at once (HashKernelOps::
// lower_bound_many over the dense first-key arrays), then each range is
// refined on slots 1..r-1 of the full rows. This is equivalent to b prefix
// trees probed to depth r, but contiguous in memory. Keys keep the top 32
// bits of each 61-bit min-hash value: a spurious per-slot collision has
// probability ~2^-32, far below the LSH's intrinsic error, and the index
// halves in size.
//
// All trees live in ONE contiguous key arena (tree-major after Index(),
// record-major while building) plus one entry-permutation arena, so the
// whole forest is two allocations and probes never chase per-tree vector
// headers. The query path is allocation-free: Probe() appends into a
// caller-owned output buffer and dedups through a reusable ProbeScratch.
//
// Arenas are owned-or-mapped (lsh/arena_ref.h): a forest built in memory
// owns its vectors, while FromMapped() borrows raw spans into a mapped v2
// snapshot (io/snapshot.h) — same probe code, zero copies on open.

#ifndef LSHENSEMBLE_LSH_LSH_FOREST_H_
#define LSHENSEMBLE_LSH_LSH_FOREST_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "lsh/arena_ref.h"
#include "minhash/minhash.h"
#include "util/result.h"
#include "util/status.h"

namespace lshensemble {

/// \brief A forest of `num_trees` flattened prefix trees over MinHash
/// signatures, supporting per-query (b, r) selection.
///
/// Lifecycle: Add() signatures, then Index() once, then Probe()/Query().
/// Add after Index() is rejected (rebuild instead; the paper's index is
/// likewise built in a single pass over the data, Section 2).
class LshForest {
 public:
  /// \brief Reusable per-thread scratch for Probe(): an epoch-stamped mark
  /// array (one slot per forest entry) used to dedup collisions across
  /// trees without allocating, plus the per-tree slot-0 keys and equal
  /// ranges and the probe-prefix buffer. Every buffer is sized to the
  /// forest's (num_trees, tree_depth), not the probe's (b, r), so a warm
  /// scratch never allocates again, whatever (b, r) later probes pick.
  ///
  /// A scratch may be reused across Probe() calls against *different*
  /// forests (it grows to the largest forest seen and never shrinks), but
  /// must not be used by two threads at once.
  class ProbeScratch {
   public:
    ProbeScratch() = default;

    /// Bytes held by the scratch buffers (for tests/introspection).
    size_t MemoryBytes() const {
      return (marks_.capacity() + prefix_.capacity() +
              slot0_keys_.capacity() + range_lo_.capacity() +
              range_hi_.capacity()) *
             sizeof(uint32_t);
    }

   private:
    friend class LshForest;

    /// Start a new probe over a forest of `n` entries, `num_trees` trees
    /// and depth `tree_depth`: grow the buffers if needed and open a fresh
    /// dedup epoch (clearing the marks only on epoch wrap).
    void Begin(size_t n, int num_trees, int tree_depth);
    /// True the first time `entry` is seen in the current epoch.
    bool MarkOnce(uint32_t entry) {
      if (marks_[entry] == epoch_) return false;
      marks_[entry] = epoch_;
      return true;
    }

    std::vector<uint32_t> marks_;
    std::vector<uint32_t> prefix_;
    // Slot-0 search state, one element per tree: the probe's first-slot
    // keys (HashKernelOps::lower_bound_many input) and the equal ranges
    // [range_lo_[t], range_hi_[t]) it writes back.
    std::vector<uint32_t> slot0_keys_;
    std::vector<uint32_t> range_lo_;
    std::vector<uint32_t> range_hi_;
    uint32_t epoch_ = 0;
  };

  /// \param num_trees   b_max: maximum number of probe trees.
  /// \param tree_depth  r_max: hash values per tree (maximum prefix depth).
  /// Signatures must carry at least num_trees * tree_depth hash values.
  static Result<LshForest> Create(int num_trees, int tree_depth);

  int num_trees() const { return num_trees_; }
  int tree_depth() const { return tree_depth_; }
  size_t size() const { return ids_.size(); }
  bool indexed() const { return indexed_; }

  /// Buffer one signature under `id`. Fails after Index(), and once the
  /// forest holds 2^32 - 1 entries (entry indices are u32).
  Status Add(uint64_t id, const MinHash& signature);

  /// Sort all trees; call once after the last Add. Idempotent.
  void Index();

  /// \brief Probe the first `b` trees at prefix depth `r`; append the ids
  /// of all colliding entries to `out`, each entry reported at most once
  /// per call (deduplication is per entry: if the same id was Add()ed
  /// more than once, each of its entries reports independently).
  /// Performs no allocation beyond growing `out`.
  /// Requires indexed(), 1 <= b <= num_trees, 1 <= r <= tree_depth.
  Status Probe(const MinHash& signature, int b, int r, ProbeScratch* scratch,
               std::vector<uint64_t>* out) const;

  /// \brief Convenience wrapper over Probe() with a private scratch
  /// (allocates; prefer Probe() on hot paths). Appends to `out`.
  Status Query(const MinHash& signature, int b, int r,
               std::vector<uint64_t>* out) const;

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const;

  /// \brief Append a binary image of this forest to `out`. Requires
  /// indexed(); the image contains the sorted key arrays, entry
  /// permutations and ids, so Deserialize() restores a query-ready forest.
  /// The wire format is unchanged from the per-tree-vector layout: trees
  /// are emitted one after another (keys, then entries).
  Status SerializeTo(std::string* out) const;

  /// \brief Rebuild a forest from a SerializeTo() image. Structural
  /// corruption is reported as Corruption (checksums are the caller's
  /// concern; see io/ensemble_io.h). This is the copying path: every arena
  /// is materialized into owned storage (and counted by ArenaCopyBytes()).
  static Result<LshForest> Deserialize(std::string_view data);

  /// \brief Construct a query-ready forest whose arenas BORROW the given
  /// spans — no copy is made; `backing` keeps the owner (typically a
  /// mapped snapshot) alive for the forest's lifetime. Spans must hold
  /// exactly n < 2^32 ids, n*num_trees*tree_depth keys, n*num_trees entries and
  /// n*num_trees first-slot keys, laid out tree-major as after Index().
  /// Entry indices are range-checked up front (an out-of-range entry in a
  /// lazily-verified snapshot must fail the open, not crash a probe);
  /// key bytes are NOT inspected — they are only ever compared, so
  /// undetected corruption yields wrong candidates, never UB (enable
  /// checksum verification on open to detect it).
  static Result<LshForest> FromMapped(int num_trees, int tree_depth,
                                      std::span<const uint64_t> ids,
                                      std::span<const uint32_t> keys,
                                      std::span<const uint32_t> entries,
                                      std::span<const uint32_t> first_keys,
                                      std::shared_ptr<const void> backing);

  /// True when the arenas are borrowed views into mapped storage.
  bool mapped() const { return keys_.is_view(); }

  /// Raw arena views (require indexed()): the snapshot writer serializes
  /// these verbatim, and tests use them to assert zero-copy identity.
  std::span<const uint64_t> id_array() const {
    return {ids_.data(), ids_.size()};
  }
  std::span<const uint32_t> key_arena() const {
    return {keys_.data(), keys_.size()};
  }
  std::span<const uint32_t> entry_arena() const {
    return {entry_of_.data(), entry_of_.size()};
  }
  std::span<const uint32_t> first_key_arena() const {
    return {first_keys_.data(), first_keys_.size()};
  }

  /// Truncate a 61-bit min-hash value to the forest's 32-bit key space.
  /// Public so the probe-filter tier (filter/probe_filter.h) derives query
  /// keys with exactly the slot-0 truncation Probe matches against.
  static uint32_t TruncateHash(uint64_t h) {
    return static_cast<uint32_t>(h >> 29);
  }

 private:
  LshForest(int num_trees, int tree_depth);

  /// Tree t's keys inside the arena (valid after Index()): size() rows of
  /// tree_depth_ u32 values each, sorted lexicographically.
  const uint32_t* TreeKeys(int t) const {
    return keys_.data() +
           static_cast<size_t>(t) * ids_.size() * tree_depth_;
  }
  /// Tree t's sorted-position -> insertion-index permutation.
  const uint32_t* TreeEntries(int t) const {
    return entry_of_.data() + static_cast<size_t>(t) * ids_.size();
  }

  /// Tree t's dense first-slot array (valid after Index()): size() values,
  /// first_keys[pos] == TreeKeys(t)[pos * tree_depth_]. Probes narrow on
  /// this 4-bytes-per-entry array first (16 entries per cache line instead
  /// of one row per line), then refine the match range on the full rows.
  const uint32_t* TreeFirstKeys(int t) const {
    return first_keys_.data() + static_cast<size_t>(t) * ids_.size();
  }

  /// Derive first_keys_ from the tree-major sorted key arena.
  void BuildFirstKeys();

  int num_trees_;
  int tree_depth_;
  bool indexed_ = false;

  // All four arenas are owned-or-mapped (lsh/arena_ref.h): owned vectors
  // on the build and v1-deserialize paths, borrowed views into a mapped
  // v2 snapshot on the zero-copy open path. Probes only read data().
  //
  // One contiguous key arena of size() * num_trees_ * tree_depth_ values.
  // While building (before Index()) it is record-major: record j's keys for
  // tree t start at j * num_trees_ * tree_depth_ + t * tree_depth_. After
  // Index() it is tree-major and sorted: see TreeKeys().
  ArenaRef<uint32_t> keys_;
  // Derived acceleration structure, rebuilt by Index()/Deserialize() and
  // absent from the v1 wire format (v2 snapshots store it so a mapped
  // open derives nothing): see TreeFirstKeys().
  ArenaRef<uint32_t> first_keys_;
  // Tree-major permutation arena (filled by Index()): TreeEntries(t)[pos]
  // is the insertion index of tree t's key at sorted position `pos`, so
  // ids_[TreeEntries(t)[pos]] is the owning id.
  ArenaRef<uint32_t> entry_of_;
  ArenaRef<uint64_t> ids_;
  // Keeps the mapped snapshot alive while any arena views it (null for
  // owned forests). Type-erased so this header does not depend on io/.
  std::shared_ptr<const void> backing_;
};

}  // namespace lshensemble

#endif  // LSHENSEMBLE_LSH_LSH_FOREST_H_
