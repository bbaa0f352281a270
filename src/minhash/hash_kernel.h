// Runtime-dispatched SIMD kernels for the hot inner loops of the
// library: folding values into MinHash signatures (the ingest path the
// paper's Table 4 measures), and the two phases of an LshForest probe —
// the lockstep slot-0 equal-range descent over the per-tree first-key
// arrays (gather-based 8/16-way on AVX2/AVX-512) and the prefix-match
// range refinement (the query path).
//
// Every kernel exists in a portable scalar form and, on x86-64 builds with
// a GNU-compatible compiler, an AVX2 form compiled via function-level
// `target("avx2")` attributes (no special compile flags needed; non-x86
// builds simply have no AVX2 table). Dispatch happens once per process:
// ActiveKernelOps() picks the best table the CPU supports, overridable with
// the environment variable LSHE_KERNEL=scalar|avx2 for benchmarking and
// debugging. All implementations of one operation are bit-exact equals —
// the AVX2 mulmod reproduces the scalar Mersenne-61 arithmetic through
// 32-bit limb splitting — so sketches and serialized bytes never depend on
// the host CPU (tests/hash_kernel_test.cc enforces this).

#ifndef LSHENSEMBLE_MINHASH_HASH_KERNEL_H_
#define LSHENSEMBLE_MINHASH_HASH_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace lshensemble {

/// \brief A table of interchangeable kernel implementations. All function
/// pointers are non-null and produce results identical to the scalar table.
struct HashKernelOps {
  /// Implementation name ("scalar", "avx2") as reported by benches/tests.
  const char* name;

  /// mins[i] = min(mins[i], (mul[i] * Reduce(value) + add[i]) mod p) for
  /// i in [0, m), with p = 2^61 - 1. `mul`/`add` are the hash family's
  /// coefficient arrays; `value` is an arbitrary 64-bit base hash.
  void (*update_one)(const uint64_t* mul, const uint64_t* add, size_t m,
                     uint64_t value, uint64_t* mins);

  /// Fold `n` values into `mins` in one call: equivalent to calling
  /// update_one for every value, but blocked so each run of min-registers
  /// stays in registers across the whole batch instead of round-tripping
  /// through memory per value.
  void (*update_batch)(const uint64_t* mul, const uint64_t* add, size_t m,
                       const uint64_t* values, size_t n, uint64_t* mins);

  /// Number of slots where a[i] == b[i] and the slot has seen a value
  /// (a[i] != 2^61 - 1, the MinHash empty sentinel) — the collision count
  /// behind the Jaccard estimator (paper Eq. 4). Hot in top-k candidate
  /// verification and the dynamic delta scan, where one record signature
  /// is compared against a whole batch of query signatures.
  size_t (*count_collisions)(const uint64_t* a, const uint64_t* b, size_t m);

  /// Batch form: out_counts[j] = count_collisions(query, sigs[j], m) for
  /// j in [0, n), over n m-slot signatures wherever they live. One call
  /// scores a whole record block against one query — the dynamic delta
  /// scan's inner loop, reading each record's signature in place —
  /// amortizing dispatch overhead and letting each implementation keep its
  /// constants and the query signature hot.
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
};

/// The portable scalar table; always available.
const HashKernelOps& ScalarKernelOps();

/// The AVX2 table, or nullptr when the build target or the running CPU
/// does not support AVX2.
const HashKernelOps* Avx2KernelOps();

/// The AVX-512F table (8-lane ingest kernels), or nullptr when
/// unsupported.
const HashKernelOps* Avx512KernelOps();

/// \brief The table every hot path should use: the most capable table the
/// CPU supports (avx512 > avx2 > scalar), resolved once per process. The
/// LSHE_KERNEL environment variable ("scalar", "avx2" or "avx512") forces
/// a specific table; an unavailable choice falls back to the default
/// resolution.
const HashKernelOps& ActiveKernelOps();

}  // namespace lshensemble

#endif  // LSHENSEMBLE_MINHASH_HASH_KERNEL_H_
