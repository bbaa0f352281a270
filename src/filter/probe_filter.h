// Split-block Bloom filter over LshForest slot-0 probe keys — the pruning
// tier consulted before forest probes (ISSUE 6; NearBucket-LSH-style bucket
// occupancy knowledge, PAPERS.md).
//
// An LshForest probe with r >= 1 can only surface candidates from tree t
// when the query's truncated slot-0 key for t exactly matches some entry's
// slot-0 key in that tree (lsh/lsh_forest.cc, Probe phase 1). A ProbeFilter
// summarizes the set of (tree, slot-0 key) pairs present in one forest — or
// in a whole engine's worth of forests — so a query whose keys miss every
// tree can skip the probe entirely. Bloom filters have one-sided error:
// a "no" is exact, so pruned query results stay byte-identical to unpruned
// scatter; a false positive only costs a wasted probe.
//
// The layout is the standard split-block (register-blocked) design used by
// Parquet and Impala: the bit array is an array of 256-bit blocks (8 u32
// lanes); a key sets / tests exactly one bit per lane inside one block, so
// every query touches a single cache line. Block selection uses the high
// 32 bits of the mixed key via the fast-range reduction (no power-of-two
// constraint); the per-lane bit index comes from the low 32 bits multiplied
// by eight odd salts. The salts and the block probe live in the kernel
// table (minhash/hash_kernel.h: kBlockProbeSalts, block_may_contain), so
// the probe takes the same once-per-process dispatch and LSHE_KERNEL
// override as every other hot loop; every table's probe is bit-exact
// equal to the scalar one.
//
// Blocks live in ArenaRef<uint32_t> storage, so a filter is either owned
// (built at Flush/Build time) or a borrowed view into an mmap'ed snapshot
// segment (io/snapshot.cc serves filters zero-copy like every other arena).

#ifndef LSHENSEMBLE_FILTER_PROBE_FILTER_H_
#define LSHENSEMBLE_FILTER_PROBE_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>

#include "lsh/arena_ref.h"
#include "minhash/hash_kernel.h"
#include "util/hashing.h"
#include "util/result.h"
#include "util/status.h"

namespace lshensemble {

/// \brief Number of u32 lanes in one filter block (one 32-byte half cache
/// line; a probe touches exactly one block): one lane per salt.
inline constexpr size_t kProbeFilterBlockLanes = std::size(kBlockProbeSalts);

/// \brief Split-block Bloom filter over 64-bit probe keys.
///
/// Keys are arbitrary u64 values; callers that summarize forest buckets use
/// ProbeKey() to pack a (tree, truncated slot-0 key) pair. An empty filter
/// (default-constructed or moved-from) reports MayContain == false for
/// every key, which is correct for "no keys were inserted" — callers that
/// mean "no filter available, cannot prune" must branch on empty()
/// themselves before consulting it.
class ProbeFilter {
 public:
  /// A filter with no blocks; MayContain is false for everything.
  ProbeFilter() = default;

  ProbeFilter(ProbeFilter&&) = default;
  ProbeFilter& operator=(ProbeFilter&&) = default;
  ProbeFilter(const ProbeFilter&) = delete;
  ProbeFilter& operator=(const ProbeFilter&) = delete;

  /// \brief Build an owned filter sized for `keys.size()` keys at
  /// `bits_per_key` bits each (clamped to [1, 64]; ~8 gives FPR around 2%,
  /// the classic split-block curve) and insert every key. Duplicate keys
  /// are fine — sizing by total count only lowers the realized FPR.
  static ProbeFilter Build(std::span<const uint64_t> keys, int bits_per_key);

  /// \brief Wrap a mapped block array without copying. `blocks` must hold
  /// exactly `num_blocks * kProbeFilterBlockLanes` lanes; `backing` keeps
  /// the mapping alive for the filter's lifetime.
  static Result<ProbeFilter> FromMapped(uint64_t num_blocks,
                                        std::span<const uint32_t> blocks,
                                        std::shared_ptr<const void> backing);

  /// \brief Pack a (tree, truncated slot-0 key) pair into a filter key.
  static constexpr uint64_t ProbeKey(uint32_t tree, uint32_t slot0_key) {
    return (static_cast<uint64_t>(tree) << 32) | slot0_key;
  }

  /// \brief The mixed form of a key; precompute once per query and reuse
  /// across every filter consulted for it (engine + per-partition).
  static uint64_t HashKey(uint64_t key) { return Mix64(key); }

  /// True when the filter may contain `key`; false answers are exact.
  bool MayContain(uint64_t key) const { return MayContainHash(HashKey(key)); }

  /// MayContain for a pre-mixed key (see HashKey).
  bool MayContainHash(uint64_t hash) const {
    if (num_blocks_ == 0) return false;
    return probe_(blocks_.data() + BlockIndex(hash) * kProbeFilterBlockLanes,
                  static_cast<uint32_t>(hash));
  }

  /// \brief Hint the cache that MayContainHash(hash) is imminent. Each
  /// probe touches one random cache line; a caller testing many hashes
  /// against one filter (e.g. one key per tree, where a reject must miss
  /// on every tree) should prefetch them all first so the misses overlap
  /// instead of serializing.
  void PrefetchHash(uint64_t hash) const {
    if (num_blocks_ == 0) return;
    __builtin_prefetch(
        blocks_.data() + BlockIndex(hash) * kProbeFilterBlockLanes,
        /*rw=*/0, /*locality=*/1);
  }

  /// True when no blocks are present (default-constructed / moved-from) —
  /// i.e. no filter was built, as opposed to "built over zero keys".
  bool empty() const { return num_blocks_ == 0; }

  /// Number of 256-bit blocks (0 for an empty filter).
  uint64_t num_blocks() const { return num_blocks_; }

  /// The raw lane array (num_blocks() * kProbeFilterBlockLanes u32 values,
  /// little-endian serialized like every other snapshot arena).
  std::span<const uint32_t> blocks() const {
    return {blocks_.data(), blocks_.size()};
  }

  /// True when the blocks are a borrowed view (mapped snapshot).
  bool is_view() const { return blocks_.is_view(); }

  /// Heap bytes owned by this filter (0 for views).
  size_t MemoryBytes() const { return blocks_.OwnedCapacityBytes(); }

 private:
  /// Fast-range block pick: high hash bits scale into [0, num_blocks_)
  /// without a modulo (and without a power-of-two size constraint).
  size_t BlockIndex(uint64_t hash) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(static_cast<uint32_t>(hash >> 32)) *
         num_blocks_) >>
        32);
  }

  void Insert(uint64_t hash);

  ArenaRef<uint32_t> blocks_;
  /// Keeps a mapped snapshot alive while blocks_ views into it.
  std::shared_ptr<const void> backing_;
  uint64_t num_blocks_ = 0;
  /// The active table's block probe, read once at construction.
  bool (*probe_)(const uint32_t*, uint32_t) =
      ActiveKernelOps().block_may_contain;
};

}  // namespace lshensemble

#endif  // LSHENSEMBLE_FILTER_PROBE_FILTER_H_
