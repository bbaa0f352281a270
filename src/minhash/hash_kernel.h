// Runtime-dispatched SIMD kernels for the hot inner loops of the
// library, one table entry per job: folding values into MinHash
// signatures (the ingest path the paper's Table 4 measures), counting
// signature collisions for the Jaccard estimate, the two phases of an
// LshForest probe (the lockstep slot-0 equal-range descent over the
// per-tree first-key arrays, gather-based 8/16-way on AVX2/AVX-512, and
// the prefix-match range refinement), and the split-block Bloom probe of
// the filter tier in front of it (filter/probe_filter.h).
//
// Every job has exactly one form per table, the batch form: a single
// value, a single signature pair or a single tree is a batch of one.
// Each kernel exists in a portable scalar form and, on x86-64 builds with
// a GNU-compatible compiler, AVX2 and AVX-512F forms compiled via
// function-level `target(...)` attributes (no special compile flags
// needed; non-x86 builds simply have no vector tables). Dispatch happens
// once per process: ActiveKernelOps() picks the best table the CPU
// supports, overridable with the environment variable
// LSHE_KERNEL=scalar|avx2|avx512 for benchmarking and debugging; it is
// the only kernel dispatcher in the library, so one override pins the
// sketching, the forest probe and the filter probe alike. All
// implementations of one operation are bit-exact equals — the vector
// mulmods reproduce the scalar Mersenne-61 arithmetic through 32-bit limb
// splitting — so sketches, serialized bytes and candidate sets never
// depend on the host CPU (tests/hash_kernel_test.cc and
// tests/probe_filter_test.cc enforce this).

#ifndef LSHENSEMBLE_MINHASH_HASH_KERNEL_H_
#define LSHENSEMBLE_MINHASH_HASH_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace lshensemble {

/// \brief The eight odd salt multipliers of the split-block Bloom filter
/// (the Parquet/Impala design): lane i of a block holds the bit at index
/// (h * kBlockProbeSalts[i]) >> 27 of every inserted key's low hash word
/// `h`. Odd constants make each lane's map a permutation of the 32-bit
/// space. ProbeFilter::Insert sets these bits; block_may_contain tests
/// them.
inline constexpr uint32_t kBlockProbeSalts[8] = {
    0x47b6137bU, 0x44974d91U, 0x8824ad5bU, 0xa2b7289dU,
    0x705495c7U, 0x2df1424bU, 0x9efc4947U, 0x5c6bfb31U};

/// \brief A table of interchangeable kernel implementations: a name plus
/// one function per job. All function pointers are non-null and produce
/// results identical to the scalar table.
struct HashKernelOps {
  /// Implementation name ("scalar", "avx2", "avx512") as reported by
  /// benches, tests and `lshe stats`.
  const char* name;

  /// Fold `n` values into `mins`: for every value v and i in [0, m),
  /// mins[i] = min(mins[i], (mul[i] * Reduce(v) + add[i]) mod p), with
  /// p = 2^61 - 1. `mul`/`add` are the hash family's coefficient arrays;
  /// each value is an arbitrary 64-bit base hash. Blocked so each run of
  /// min-registers stays in registers across the whole batch; n = 1 folds
  /// a single value (MinHash::Update).
  void (*update_batch)(const uint64_t* mul, const uint64_t* add, size_t m,
                       const uint64_t* values, size_t n, uint64_t* mins);

  /// out_counts[j] = the number of slots i in [0, m) where
  /// query[i] == sigs[j][i] and the slot has seen a value
  /// (query[i] != 2^61 - 1, the MinHash empty sentinel), for j in [0, n)
  /// over n m-slot signatures wherever they live — the collision count
  /// behind the Jaccard estimator (paper Eq. 4). One call scores a whole
  /// record block against one query (the dynamic delta scan's inner
  /// loop); n = 1 is one pair (MinHash::EstimateJaccard, top-k ranking).
  void (*count_collisions_many)(const uint64_t* query,
                                const uint64_t* const* sigs, size_t m,
                                size_t n, uint32_t* out_counts);

  /// Phase 2 of an LshForest prefix lookup: given the slot-0 match range
  /// [*lo, *hi) of a tree whose full rows (of `depth` u32 keys) start at
  /// `keys`, shrink it to the rows whose slots 1..r-1 also match `prefix`.
  /// Requires r >= 2 and *lo <= *hi; rows in [*lo, *hi) are sorted by
  /// slots 1..depth-1.
  void (*refine_prefix_range)(const uint32_t* keys, size_t depth,
                              const uint32_t* prefix, int r, size_t* lo,
                              size_t* hi);

  /// Phase 1 of an LshForest probe, batched over trees: the slot-0 equal
  /// ranges of trees 0..count-1, answered in one lockstep branchless
  /// descent (one shared halving schedule over [0, n)) so the loads of a
  /// round overlap their cache misses. `first_keys` is the forest's dense
  /// first-key arena — at least `count` sorted arrays of `n` u32 keys
  /// each, tree t's array starting at t*n. For i in [0, count), writes
  /// tree i's equal range for `keys[i]` to [lo[i], hi[i]); both arrays
  /// are outputs only. Requires n >= 1. The vector forms delegate to scalar when count*n
  /// overflows a signed 32-bit gather index.
  void (*lower_bound_many)(const uint32_t* first_keys, uint32_t n,
                           const uint32_t* keys, size_t count, uint32_t* lo,
                           uint32_t* hi);

  /// The split-block Bloom filter probe: true when every salted bit of
  /// `h` (see kBlockProbeSalts) is set in the 8-lane `block`. A false
  /// answer is exact.
  bool (*block_may_contain)(const uint32_t* block, uint32_t h);
};

/// The portable scalar table; always available.
const HashKernelOps& ScalarKernelOps();

/// The AVX2 table, or nullptr when the build target or the running CPU
/// does not support AVX2.
const HashKernelOps* Avx2KernelOps();

/// The AVX-512F table, or nullptr when the build target or the running
/// CPU does not support AVX-512F.
const HashKernelOps* Avx512KernelOps();

/// \brief The table every hot path should use: the most capable table the
/// CPU supports (avx512 > avx2 > scalar), resolved once per process. The
/// LSHE_KERNEL environment variable ("scalar", "avx2" or "avx512") forces
/// a specific table; an unavailable choice falls back to the default
/// resolution with a one-line warning on stderr. This is the only place
/// that reads LSHE_KERNEL.
const HashKernelOps& ActiveKernelOps();

}  // namespace lshensemble

#endif  // LSHENSEMBLE_MINHASH_HASH_KERNEL_H_
