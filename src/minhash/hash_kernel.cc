#include "minhash/hash_kernel.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string_view>

#include "minhash/hash_family.h"

#if defined(__GNUC__) && defined(__x86_64__)
#define LSHE_KERNEL_HAVE_AVX2 1
#include <immintrin.h>
#define LSHE_TARGET_AVX2 __attribute__((target("avx2")))
#define LSHE_TARGET_AVX512 __attribute__((target("avx512f")))
#endif

namespace lshensemble {
namespace {

// ------------------------------------------------------------- scalar ----

/// Values per blocking chunk: the chunk's reduced limbs stay L1-resident
/// while every hash block streams over them.
constexpr size_t kValueChunk = 256;
/// Hash functions per scalar block: the block's running minima live in
/// locals (registers) for the whole value chunk instead of round-tripping
/// through `mins` per value.
constexpr size_t kHashBlock = 8;

void ScalarUpdateBatch(const uint64_t* mul, const uint64_t* add, size_t m,
                       const uint64_t* values, size_t n, uint64_t* mins) {
  uint64_t reduced[kValueChunk];
  for (size_t begin = 0; begin < n; begin += kValueChunk) {
    const size_t chunk = std::min(kValueChunk, n - begin);
    for (size_t j = 0; j < chunk; ++j) {
      reduced[j] = ReduceMod61(values[begin + j]);
    }

    size_t i = 0;
    for (; i + kHashBlock <= m; i += kHashBlock) {
      uint64_t mn[kHashBlock];
      for (size_t k = 0; k < kHashBlock; ++k) mn[k] = mins[i + k];
      for (size_t j = 0; j < chunk; ++j) {
        const uint64_t v = reduced[j];
        for (size_t k = 0; k < kHashBlock; ++k) {
          const uint64_t h = AddMod61(MulMod61(mul[i + k], v), add[i + k]);
          mn[k] = std::min(mn[k], h);
        }
      }
      for (size_t k = 0; k < kHashBlock; ++k) mins[i + k] = mn[k];
    }
    for (; i < m; ++i) {
      uint64_t mn = mins[i];
      for (size_t j = 0; j < chunk; ++j) {
        mn = std::min(mn, AddMod61(MulMod61(mul[i], reduced[j]), add[i]));
      }
      mins[i] = mn;
    }
  }
}

/// One signature pair: the single-row loop of ScalarCountCollisionsMany.
size_t ScalarCountCollisions(const uint64_t* a, const uint64_t* b, size_t m) {
  // Branchless mask-sum: collision outcomes are near-random on the top-k
  // verification path, so a per-element branch would mispredict constantly.
  size_t collisions = 0;
  for (size_t i = 0; i < m; ++i) {
    collisions += static_cast<size_t>(a[i] == b[i]) &
                  static_cast<size_t>(a[i] != kMersennePrime61);
  }
  return collisions;
}

void ScalarCountCollisionsMany(const uint64_t* query,
                               const uint64_t* const* sigs, size_t m,
                               size_t n, uint32_t* out_counts) {
  for (size_t j = 0; j < n; ++j) {
    out_counts[j] =
        static_cast<uint32_t>(ScalarCountCollisions(query, sigs[j], m));
  }
}

// Compares the first `r` values of `key` against `prefix`:
// negative if key < prefix, 0 on prefix match, positive if key > prefix.
inline int ComparePrefix(const uint32_t* key, const uint32_t* prefix, int r) {
  for (int d = 0; d < r; ++d) {
    if (key[d] != prefix[d]) return key[d] < prefix[d] ? -1 : 1;
  }
  return 0;
}

void ScalarRefinePrefixRange(const uint32_t* keys, size_t depth,
                             const uint32_t* prefix, int r, size_t* lo,
                             size_t* hi) {
  size_t begin = *lo, end = *hi;
  // Short ranges (the common case: a few 32-bit collisions) are filtered by
  // a linear scan that fits in a cache line or two; long runs of a popular
  // value get the usual pair of binary searches.
  if (end - begin <= 8) {
    while (begin < end &&
           ComparePrefix(keys + begin * depth + 1, prefix + 1, r - 1) < 0) {
      ++begin;
    }
    size_t match_end = begin;
    while (match_end < end &&
           ComparePrefix(keys + match_end * depth + 1, prefix + 1, r - 1) ==
               0) {
      ++match_end;
    }
    end = match_end;
  } else {
    size_t a = begin, b = end;
    while (a < b) {
      const size_t mid = a + (b - a) / 2;
      if (ComparePrefix(keys + mid * depth + 1, prefix + 1, r - 1) < 0) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    begin = a;
    b = end;
    while (a < b) {
      const size_t mid = a + (b - a) / 2;
      if (ComparePrefix(keys + mid * depth + 1, prefix + 1, r - 1) <= 0) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    end = a;
  }
  *lo = begin;
  *hi = end;
}

/// Trees per lockstep block of the scalar slot-0 descent: the block's
/// cursors and keys live in locals, and the loads of one round
/// are independent so the core overlaps their cache misses (the same
/// memory-level parallelism the gather kernels get architecturally).
constexpr size_t kDescentBlock = 16;

/// Upper-bound finish shared by every lower_bound_many form: the matching
/// slot-0 run is almost always short (a 32-bit collision plus whatever
/// true duplicates the data carries), so scan forward from the lower
/// bound, falling back to a binary search when a popular value produces a
/// long run.
inline uint32_t ScanRunEnd(const uint32_t* first, uint32_t lb, uint32_t n,
                           uint32_t key) {
  uint32_t hi = lb;
  int steps = 8;
  while (hi < n && first[hi] == key) {
    if (--steps == 0) {
      return static_cast<uint32_t>(
          std::upper_bound(first + hi, first + n, key) - first);
    }
    ++hi;
  }
  return hi;
}

void ScalarLowerBoundMany(const uint32_t* first_keys, uint32_t n,
                          const uint32_t* keys, size_t count, uint32_t* lo,
                          uint32_t* hi) {
  for (size_t begin = 0; begin < count; begin += kDescentBlock) {
    const size_t block = std::min(kDescentBlock, count - begin);
    // Absolute cursors into the arena (64-bit: tree*n can exceed u32 for
    // owned giant forests). Every window starts as the whole tree, so the
    // block shares one halving schedule.
    uint64_t cur[kDescentBlock];
    uint32_t key[kDescentBlock];
    for (size_t j = 0; j < block; ++j) {
      cur[j] = static_cast<uint64_t>(begin + j) * n;
      key[j] = keys[begin + j];
    }
    for (uint32_t len = n; len > 1;) {
      const uint32_t half = len >> 1;
      for (size_t j = 0; j < block; ++j) {
        cur[j] += (first_keys[cur[j] + half - 1] < key[j]) ? half : 0;
      }
      len -= half;
    }
    for (size_t j = 0; j < block; ++j) {
      const uint64_t base = static_cast<uint64_t>(begin + j) * n;
      const uint32_t lb = static_cast<uint32_t>(cur[j] - base) +
                          (first_keys[cur[j]] < key[j] ? 1u : 0u);
      lo[begin + j] = lb;
      hi[begin + j] = ScanRunEnd(first_keys + base, lb, n, key[j]);
    }
  }
}

bool ScalarBlockMayContain(const uint32_t* block, uint32_t h) {
  for (size_t i = 0; i < std::size(kBlockProbeSalts); ++i) {
    const uint32_t bit = 1u << ((h * kBlockProbeSalts[i]) >> 27);
    if ((block[i] & bit) == 0) return false;
  }
  return true;
}

// ----------------------------------------------------------- x86 SIMD ----
//
// Neither AVX2 nor AVX-512F has a 64x64 multiply, so the 61-bit mulmod is
// computed from 32-bit limb products (_mm256/_mm512_mul_epu32) with a
// 3-multiply Karatsuba on *31-bit* limbs:
//
//   a = a_hi*2^31 + a_lo          (a < 2^61, so a_lo < 2^31, a_hi < 2^30)
//   v = v_hi*2^31 + v_lo
//   a*v = hh*2^62 + mid*2^31 + lolo
//   mid = (a_lo+a_hi)*(v_lo+v_hi) - hh - lolo   (all sums fit 32 bits)
//
// Folding with 2^61 = 1 (mod p), 2^62 = 2 (mod p), and mid split at 30
// bits (mid*2^31 = (mid>>30) * 2^61 + (mid & (2^30-1)) * 2^31):
//
//   t = (hh<<1) + (mid>>30) + ((mid & mask30)<<31) + lolo + b
//
// Every addend is < 2^62 and the sum stays < 2^64, so a single
// fold-and-conditional-subtract after adding b canonicalizes t into
// [0, p) — exactly the value the scalar AddMod61(MulMod61()) pair
// produces, which keeps signatures bit-identical across kernels.

#if defined(LSHE_KERNEL_HAVE_AVX2)

/// Split the next chunk of values into reduced 31-bit limbs (lo, hi and
/// Karatsuba sum), ready for broadcast loads in the vector loops.
inline void SplitChunk(const uint64_t* values, size_t chunk, uint64_t* v_lo,
                       uint64_t* v_hi, uint64_t* v_sum) {
  for (size_t j = 0; j < chunk; ++j) {
    const uint64_t r = ReduceMod61(values[j]);
    v_lo[j] = r & ((1ULL << 31) - 1);
    v_hi[j] = r >> 31;
    v_sum[j] = v_lo[j] + v_hi[j];
  }
}

/// Per-hash loop invariants of one 4-lane (ymm) coefficient vector.
struct Avx2Coeffs {
  __m256i a_lo, a_hi, a_sum, b;
};

LSHE_TARGET_AVX2 inline Avx2Coeffs LoadCoeffsAvx2(const uint64_t* mul,
                                                  const uint64_t* add,
                                                  size_t i) {
  const __m256i mask31 =
      _mm256_set1_epi64x(static_cast<long long>((1ULL << 31) - 1));
  const __m256i a =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mul + i));
  Avx2Coeffs c;
  c.a_lo = _mm256_and_si256(a, mask31);
  c.a_hi = _mm256_srli_epi64(a, 31);
  c.a_sum = _mm256_add_epi64(c.a_lo, c.a_hi);
  c.b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(add + i));
  return c;
}

LSHE_TARGET_AVX2 inline __m256i HashAvx2(const Avx2Coeffs& c, __m256i v_lo,
                                         __m256i v_hi, __m256i v_sum,
                                         __m256i p, __m256i p_minus_1,
                                         __m256i mask30) {
  const __m256i lolo = _mm256_mul_epu32(c.a_lo, v_lo);
  const __m256i hh = _mm256_mul_epu32(c.a_hi, v_hi);
  const __m256i s = _mm256_mul_epu32(c.a_sum, v_sum);
  const __m256i mid = _mm256_sub_epi64(s, _mm256_add_epi64(hh, lolo));
  const __m256i mid_lo = _mm256_and_si256(mid, mask30);
  const __m256i mid_hi = _mm256_srli_epi64(mid, 30);
  __m256i t = _mm256_add_epi64(_mm256_slli_epi64(hh, 1), mid_hi);
  t = _mm256_add_epi64(t, _mm256_add_epi64(_mm256_slli_epi64(mid_lo, 31),
                                           lolo));
  t = _mm256_add_epi64(t, c.b);
  t = _mm256_add_epi64(_mm256_and_si256(t, p), _mm256_srli_epi64(t, 61));
  t = _mm256_sub_epi64(t,
                       _mm256_and_si256(p, _mm256_cmpgt_epi64(t, p_minus_1)));
  return t;
}

/// min(cur, h) per 64-bit lane; both operands are < 2^62, so the signed
/// compare is exact.
LSHE_TARGET_AVX2 inline __m256i Min64Avx2(__m256i cur, __m256i h) {
  return _mm256_blendv_epi8(cur, h, _mm256_cmpgt_epi64(cur, h));
}

LSHE_TARGET_AVX2 void Avx2UpdateBatch(const uint64_t* mul,
                                      const uint64_t* add, size_t m,
                                      const uint64_t* values, size_t n,
                                      uint64_t* mins) {
  const __m256i p =
      _mm256_set1_epi64x(static_cast<long long>(kMersennePrime61));
  const __m256i p_minus_1 =
      _mm256_set1_epi64x(static_cast<long long>(kMersennePrime61 - 1));
  const __m256i mask30 =
      _mm256_set1_epi64x(static_cast<long long>((1ULL << 30) - 1));

  uint64_t v_lo[kValueChunk], v_hi[kValueChunk], v_sum[kValueChunk];
  for (size_t begin = 0; begin < n; begin += kValueChunk) {
    const size_t chunk = std::min(kValueChunk, n - begin);
    SplitChunk(values + begin, chunk, v_lo, v_hi, v_sum);

    // Two vectors of minima (8 hash functions) stay live in registers
    // across the whole value chunk; the per-value limb broadcasts are
    // plain loads that overlap the ALU-bound hash math.
    size_t i = 0;
    for (; i + 8 <= m; i += 8) {
      const Avx2Coeffs c0 = LoadCoeffsAvx2(mul, add, i);
      const Avx2Coeffs c1 = LoadCoeffsAvx2(mul, add, i + 4);
      __m256i mn0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mins + i));
      __m256i mn1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mins + i + 4));
      for (size_t j = 0; j < chunk; ++j) {
        const __m256i bv_lo =
            _mm256_set1_epi64x(static_cast<long long>(v_lo[j]));
        const __m256i bv_hi =
            _mm256_set1_epi64x(static_cast<long long>(v_hi[j]));
        const __m256i bv_sum =
            _mm256_set1_epi64x(static_cast<long long>(v_sum[j]));
        mn0 = Min64Avx2(mn0, HashAvx2(c0, bv_lo, bv_hi, bv_sum, p, p_minus_1,
                                      mask30));
        mn1 = Min64Avx2(mn1, HashAvx2(c1, bv_lo, bv_hi, bv_sum, p, p_minus_1,
                                      mask30));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(mins + i), mn0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(mins + i + 4), mn1);
    }
    for (; i < m; ++i) {
      uint64_t mn = mins[i];
      for (size_t j = 0; j < chunk; ++j) {
        const uint64_t v = v_lo[j] | (v_hi[j] << 31);
        mn = std::min(mn, AddMod61(MulMod61(mul[i], v), add[i]));
      }
      mins[i] = mn;
    }
  }
}

// AVX-512F: the same Karatsuba mulmod in 8 lanes, with the native
// unsigned 64-bit min and mask-register conditional subtract shaving the
// AVX2 compare/blend pairs down to single instructions.

/// Per-hash loop invariants of one 8-lane (zmm) coefficient vector.
struct Avx512Coeffs {
  __m512i a_lo, a_hi, a_sum, b;
};

LSHE_TARGET_AVX512 inline Avx512Coeffs LoadCoeffsAvx512(const uint64_t* mul,
                                                        const uint64_t* add,
                                                        size_t i) {
  const __m512i mask31 = _mm512_set1_epi64((1ULL << 31) - 1);
  const __m512i a = _mm512_loadu_si512(mul + i);
  Avx512Coeffs c;
  c.a_lo = _mm512_and_si512(a, mask31);
  c.a_hi = _mm512_srli_epi64(a, 31);
  c.a_sum = _mm512_add_epi64(c.a_lo, c.a_hi);
  c.b = _mm512_loadu_si512(add + i);
  return c;
}

LSHE_TARGET_AVX512 inline __m512i HashAvx512(const Avx512Coeffs& c,
                                             __m512i v_lo, __m512i v_hi,
                                             __m512i v_sum, __m512i p,
                                             __m512i mask30) {
  const __m512i lolo = _mm512_mul_epu32(c.a_lo, v_lo);
  const __m512i hh = _mm512_mul_epu32(c.a_hi, v_hi);
  const __m512i s = _mm512_mul_epu32(c.a_sum, v_sum);
  const __m512i mid = _mm512_sub_epi64(s, _mm512_add_epi64(hh, lolo));
  const __m512i mid_lo = _mm512_and_si512(mid, mask30);
  const __m512i mid_hi = _mm512_srli_epi64(mid, 30);
  __m512i t = _mm512_add_epi64(_mm512_slli_epi64(hh, 1), mid_hi);
  t = _mm512_add_epi64(t, _mm512_add_epi64(_mm512_slli_epi64(mid_lo, 31),
                                           lolo));
  t = _mm512_add_epi64(t, c.b);
  t = _mm512_add_epi64(_mm512_and_si512(t, p), _mm512_srli_epi64(t, 61));
  const __mmask8 ge = _mm512_cmpge_epu64_mask(t, p);
  return _mm512_mask_sub_epi64(t, ge, t, p);
}

LSHE_TARGET_AVX512 void Avx512UpdateBatch(const uint64_t* mul,
                                          const uint64_t* add, size_t m,
                                          const uint64_t* values, size_t n,
                                          uint64_t* mins) {
  const __m512i p = _mm512_set1_epi64(static_cast<long long>(kMersennePrime61));
  const __m512i mask30 = _mm512_set1_epi64((1ULL << 30) - 1);

  uint64_t v_lo[kValueChunk], v_hi[kValueChunk], v_sum[kValueChunk];
  for (size_t begin = 0; begin < n; begin += kValueChunk) {
    const size_t chunk = std::min(kValueChunk, n - begin);
    SplitChunk(values + begin, chunk, v_lo, v_hi, v_sum);

    size_t i = 0;
    for (; i + 16 <= m; i += 16) {
      const Avx512Coeffs c0 = LoadCoeffsAvx512(mul, add, i);
      const Avx512Coeffs c1 = LoadCoeffsAvx512(mul, add, i + 8);
      __m512i mn0 = _mm512_loadu_si512(mins + i);
      __m512i mn1 = _mm512_loadu_si512(mins + i + 8);
      for (size_t j = 0; j < chunk; ++j) {
        const __m512i bv_lo =
            _mm512_set1_epi64(static_cast<long long>(v_lo[j]));
        const __m512i bv_hi =
            _mm512_set1_epi64(static_cast<long long>(v_hi[j]));
        const __m512i bv_sum =
            _mm512_set1_epi64(static_cast<long long>(v_sum[j]));
        mn0 = _mm512_min_epu64(mn0,
                               HashAvx512(c0, bv_lo, bv_hi, bv_sum, p, mask30));
        mn1 = _mm512_min_epu64(mn1,
                               HashAvx512(c1, bv_lo, bv_hi, bv_sum, p, mask30));
      }
      _mm512_storeu_si512(mins + i, mn0);
      _mm512_storeu_si512(mins + i + 8, mn1);
    }
    for (; i + 8 <= m; i += 8) {
      const Avx512Coeffs c = LoadCoeffsAvx512(mul, add, i);
      __m512i mn = _mm512_loadu_si512(mins + i);
      for (size_t j = 0; j < chunk; ++j) {
        const __m512i bv_lo =
            _mm512_set1_epi64(static_cast<long long>(v_lo[j]));
        const __m512i bv_hi =
            _mm512_set1_epi64(static_cast<long long>(v_hi[j]));
        const __m512i bv_sum =
            _mm512_set1_epi64(static_cast<long long>(v_sum[j]));
        mn = _mm512_min_epu64(mn,
                              HashAvx512(c, bv_lo, bv_hi, bv_sum, p, mask30));
      }
      _mm512_storeu_si512(mins + i, mn);
    }
    for (; i < m; ++i) {
      uint64_t mn = mins[i];
      for (size_t j = 0; j < chunk; ++j) {
        const uint64_t v = v_lo[j] | (v_hi[j] << 31);
        mn = std::min(mn, AddMod61(MulMod61(mul[i], v), add[i]));
      }
      mins[i] = mn;
    }
  }
}

/// One signature pair, 4 lanes per compare: the single-row remainder of
/// Avx2CountCollisionsMany (and the whole call when n = 1). Equal-and-
/// not-empty lanes drop out of a movemask whose set bits are popcounted.
/// Both signatures are canonical Mersenne-61 residues (< 2^61), so the
/// signed 64-bit lane compare is exact.
LSHE_TARGET_AVX2 size_t Avx2CountCollisions(const uint64_t* a,
                                            const uint64_t* b, size_t m) {
  const __m256i empty =
      _mm256_set1_epi64x(static_cast<long long>(kMersennePrime61));
  size_t collisions = 0;
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i eq = _mm256_cmpeq_epi64(va, vb);
    const __m256i hit =
        _mm256_andnot_si256(_mm256_cmpeq_epi64(va, empty), eq);
    collisions += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(hit)))));
  }
  for (; i < m; ++i) {
    collisions += static_cast<size_t>(a[i] == b[i]) &
                  static_cast<size_t>(a[i] != kMersennePrime61);
  }
  return collisions;
}

/// One signature pair, 8 lanes per compare with the two mask registers
/// combined directly: the single-row remainder of
/// Avx512CountCollisionsMany (and the whole call when n = 1).
LSHE_TARGET_AVX512 size_t Avx512CountCollisions(const uint64_t* a,
                                                const uint64_t* b, size_t m) {
  const __m512i empty =
      _mm512_set1_epi64(static_cast<long long>(kMersennePrime61));
  size_t collisions = 0;
  size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    const __mmask8 hit = _mm512_cmpeq_epu64_mask(va, vb) &
                         _mm512_cmpneq_epu64_mask(va, empty);
    collisions += static_cast<size_t>(__builtin_popcount(hit));
  }
  for (; i < m; ++i) {
    collisions += static_cast<size_t>(a[i] == b[i]) &
                  static_cast<size_t>(a[i] != kMersennePrime61);
  }
  return collisions;
}

/// Record pairs share each query-vector load and its not-empty mask, so
/// the record walk is load/compare/popcount bound.
LSHE_TARGET_AVX2 void Avx2CountCollisionsMany(const uint64_t* query,
                                              const uint64_t* const* sigs,
                                              size_t m, size_t n,
                                              uint32_t* out_counts) {
  const __m256i empty =
      _mm256_set1_epi64x(static_cast<long long>(kMersennePrime61));
  size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const uint64_t* b0 = sigs[j];
    const uint64_t* b1 = sigs[j + 1];
    uint32_t c0 = 0, c1 = 0;
    size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query + i));
      const __m256i nonempty = _mm256_cmpeq_epi64(va, empty);  // inverted
      const __m256i eq0 = _mm256_andnot_si256(
          nonempty,
          _mm256_cmpeq_epi64(
              va, _mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(b0 + i))));
      const __m256i eq1 = _mm256_andnot_si256(
          nonempty,
          _mm256_cmpeq_epi64(
              va, _mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(b1 + i))));
      c0 += static_cast<uint32_t>(__builtin_popcount(static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_castsi256_pd(eq0)))));
      c1 += static_cast<uint32_t>(__builtin_popcount(static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_castsi256_pd(eq1)))));
    }
    for (; i < m; ++i) {
      const uint64_t qv = query[i];
      const bool live = qv != kMersennePrime61;
      c0 += static_cast<uint32_t>(qv == b0[i]) & static_cast<uint32_t>(live);
      c1 += static_cast<uint32_t>(qv == b1[i]) & static_cast<uint32_t>(live);
    }
    out_counts[j] = c0;
    out_counts[j + 1] = c1;
  }
  for (; j < n; ++j) {
    out_counts[j] =
        static_cast<uint32_t>(Avx2CountCollisions(query, sigs[j], m));
  }
}

LSHE_TARGET_AVX512 void Avx512CountCollisionsMany(const uint64_t* query,
                                                  const uint64_t* const* sigs,
                                                  size_t m, size_t n,
                                                  uint32_t* out_counts) {
  const __m512i empty =
      _mm512_set1_epi64(static_cast<long long>(kMersennePrime61));
  size_t j = 0;
  // 4 records per query pass: one query load + not-empty mask serves four
  // compare/popcount chains, keeping the port-5 compares saturated.
  for (; j + 4 <= n; j += 4) {
    const uint64_t* b0 = sigs[j];
    const uint64_t* b1 = sigs[j + 1];
    const uint64_t* b2 = sigs[j + 2];
    const uint64_t* b3 = sigs[j + 3];
    uint32_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    size_t i = 0;
    for (; i + 8 <= m; i += 8) {
      const __m512i va = _mm512_loadu_si512(query + i);
      const __mmask8 nonempty = _mm512_cmpneq_epu64_mask(va, empty);
      c0 += static_cast<uint32_t>(__builtin_popcount(
          _mm512_cmpeq_epu64_mask(va, _mm512_loadu_si512(b0 + i)) & nonempty));
      c1 += static_cast<uint32_t>(__builtin_popcount(
          _mm512_cmpeq_epu64_mask(va, _mm512_loadu_si512(b1 + i)) & nonempty));
      c2 += static_cast<uint32_t>(__builtin_popcount(
          _mm512_cmpeq_epu64_mask(va, _mm512_loadu_si512(b2 + i)) & nonempty));
      c3 += static_cast<uint32_t>(__builtin_popcount(
          _mm512_cmpeq_epu64_mask(va, _mm512_loadu_si512(b3 + i)) & nonempty));
    }
    for (; i < m; ++i) {
      const uint64_t qv = query[i];
      const auto live = static_cast<uint32_t>(qv != kMersennePrime61);
      c0 += static_cast<uint32_t>(qv == b0[i]) & live;
      c1 += static_cast<uint32_t>(qv == b1[i]) & live;
      c2 += static_cast<uint32_t>(qv == b2[i]) & live;
      c3 += static_cast<uint32_t>(qv == b3[i]) & live;
    }
    out_counts[j] = c0;
    out_counts[j + 1] = c1;
    out_counts[j + 2] = c2;
    out_counts[j + 3] = c3;
  }
  for (; j < n; ++j) {
    out_counts[j] =
        static_cast<uint32_t>(Avx512CountCollisions(query, sigs[j], m));
  }
}

/// Per-lane load masks for _mm256_maskload_epi32: row `8 - count` of this
/// table enables the first `count` lanes.
alignas(32) constexpr int32_t kLaneMaskTable[16] = {-1, -1, -1, -1, -1, -1,
                                                    -1, -1, 0,  0,  0,  0,
                                                    0,  0,  0,  0};

/// ComparePrefix over `count <= 8` u32 values in one 256-bit compare:
/// masked-load the row (never reading past row end), find the first
/// mismatching lane with a movemask, and order by that lane alone.
LSHE_TARGET_AVX2 inline int ComparePrefixAvx2(const uint32_t* key,
                                              __m256i prefix_vec,
                                              __m256i lane_mask,
                                              const uint32_t* prefix,
                                              int count) {
  const __m256i k = _mm256_maskload_epi32(
      reinterpret_cast<const int*>(key), lane_mask);
  const __m256i eq = _mm256_cmpeq_epi32(k, prefix_vec);
  const unsigned neq =
      ~static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(eq))) &
      ((1u << count) - 1u);
  if (neq == 0) return 0;
  const int d = __builtin_ctz(neq);
  return key[d] < prefix[d] ? -1 : 1;
}

LSHE_TARGET_AVX2 void Avx2RefinePrefixRange(const uint32_t* keys,
                                            size_t depth,
                                            const uint32_t* prefix, int r,
                                            size_t* lo, size_t* hi) {
  const int count = r - 1;
  if (count > 8) {
    // Deeper prefixes than one vector holds are rare (tree_depth > 9);
    // they take the scalar path.
    ScalarRefinePrefixRange(keys, depth, prefix, r, lo, hi);
    return;
  }
  const __m256i lane_mask = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLaneMaskTable + 8 - count));
  const __m256i prefix_vec = _mm256_maskload_epi32(
      reinterpret_cast<const int*>(prefix + 1), lane_mask);

  size_t begin = *lo, end = *hi;
  if (end - begin <= 8) {
    while (begin < end &&
           ComparePrefixAvx2(keys + begin * depth + 1, prefix_vec, lane_mask,
                             prefix + 1, count) < 0) {
      ++begin;
    }
    size_t match_end = begin;
    while (match_end < end &&
           ComparePrefixAvx2(keys + match_end * depth + 1, prefix_vec,
                             lane_mask, prefix + 1, count) == 0) {
      ++match_end;
    }
    end = match_end;
  } else {
    size_t a = begin, b = end;
    while (a < b) {
      const size_t mid = a + (b - a) / 2;
      if (ComparePrefixAvx2(keys + mid * depth + 1, prefix_vec, lane_mask,
                            prefix + 1, count) < 0) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    begin = a;
    b = end;
    while (a < b) {
      const size_t mid = a + (b - a) / 2;
      if (ComparePrefixAvx2(keys + mid * depth + 1, prefix_vec, lane_mask,
                            prefix + 1, count) <= 0) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    end = a;
  }
  *lo = begin;
  *hi = end;
}

/// True when every gather index count*n - 1 of a lower_bound_many call
/// fits the SIGNED 32-bit lane of vpgatherdd; oversized arenas take the
/// scalar descent (which indexes with 64-bit cursors).
inline bool GatherIndexable(size_t count, uint32_t n) {
  return static_cast<uint64_t>(count) * n <= static_cast<uint64_t>(INT32_MAX);
}

/// 8 trees per descent round: vpgatherdd probes the midpoints of all
/// eight windows at once, and the branchless halving runs entirely in
/// registers (the windows share one length, so no lane ever idles). Only
/// the lower bound descends; the equal range's end is found by the shared
/// short forward scan, which beats a second descent because slot-0 runs
/// are nearly always a handful of entries. AVX2 has no unsigned 32-bit
/// compare, so keys and gathered values are biased by 2^31 and compared
/// signed.
LSHE_TARGET_AVX2 void Avx2LowerBoundMany(const uint32_t* first_keys,
                                         uint32_t n, const uint32_t* keys,
                                         size_t count, uint32_t* lo,
                                         uint32_t* hi) {
  if (!GatherIndexable(count, n)) {
    ScalarLowerBoundMany(first_keys, n, keys, count, lo, hi);
    return;
  }
  const int* base_ptr = reinterpret_cast<const int*>(first_keys);
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i vn = _mm256_set1_epi32(static_cast<int>(n));
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i vbase = _mm256_mullo_epi32(
        _mm256_add_epi32(lanes, _mm256_set1_epi32(static_cast<int>(i))), vn);
    const __m256i vkeyb = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)), bias);
    __m256i vcur = vbase;
    for (uint32_t len = n; len > 1;) {
      const uint32_t half = len >> 1;
      const __m256i idx = _mm256_add_epi32(
          vcur, _mm256_set1_epi32(static_cast<int>(half - 1)));
      const __m256i g = _mm256_i32gather_epi32(base_ptr, idx, 4);
      const __m256i lt = _mm256_cmpgt_epi32(vkeyb, _mm256_xor_si256(g, bias));
      vcur = _mm256_add_epi32(
          vcur,
          _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(half)), lt));
      len -= half;
    }
    // Final fixup: the surviving single-slot window's key is below the
    // query's iff the lower bound sits one past it (cmpgt yields -1).
    const __m256i g = _mm256_i32gather_epi32(base_ptr, vcur, 4);
    const __m256i lt = _mm256_cmpgt_epi32(vkeyb, _mm256_xor_si256(g, bias));
    alignas(32) uint32_t lb[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lb),
                       _mm256_sub_epi32(_mm256_sub_epi32(vcur, vbase), lt));
    for (size_t j = 0; j < 8; ++j) {
      lo[i + j] = lb[j];
      hi[i + j] = ScanRunEnd(first_keys + (i + j) * n, lb[j], n, keys[i + j]);
    }
  }
  if (i < count) {
    ScalarLowerBoundMany(first_keys + i * n, n, keys + i, count - i, lo + i,
                         hi + i);
  }
}

/// 16 trees per round with native unsigned compares and mask registers;
/// otherwise the same descent as the AVX2 form.
LSHE_TARGET_AVX512 void Avx512LowerBoundMany(const uint32_t* first_keys,
                                             uint32_t n, const uint32_t* keys,
                                             size_t count, uint32_t* lo,
                                             uint32_t* hi) {
  if (!GatherIndexable(count, n)) {
    ScalarLowerBoundMany(first_keys, n, keys, count, lo, hi);
    return;
  }
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i vn = _mm512_set1_epi32(static_cast<int>(n));
  const __m512i lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                          11, 12, 13, 14, 15);
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512i vbase = _mm512_mullo_epi32(
        _mm512_add_epi32(lanes, _mm512_set1_epi32(static_cast<int>(i))), vn);
    const __m512i vkey = _mm512_loadu_si512(keys + i);
    __m512i vcur = vbase;
    for (uint32_t len = n; len > 1;) {
      const uint32_t half = len >> 1;
      const __m512i idx = _mm512_add_epi32(
          vcur, _mm512_set1_epi32(static_cast<int>(half - 1)));
      const __m512i g = _mm512_i32gather_epi32(idx, first_keys, 4);
      const __mmask16 lt = _mm512_cmplt_epu32_mask(g, vkey);
      vcur = _mm512_mask_add_epi32(vcur, lt, vcur,
                                   _mm512_set1_epi32(static_cast<int>(half)));
      len -= half;
    }
    const __m512i g = _mm512_i32gather_epi32(vcur, first_keys, 4);
    const __mmask16 add = _mm512_cmplt_epu32_mask(g, vkey);
    const __m512i pos = _mm512_sub_epi32(vcur, vbase);
    alignas(64) uint32_t lb[16];
    _mm512_store_si512(lb, _mm512_mask_add_epi32(pos, add, pos, one));
    for (size_t j = 0; j < 16; ++j) {
      lo[i + j] = lb[j];
      hi[i + j] = ScanRunEnd(first_keys + (i + j) * n, lb[j], n, keys[i + j]);
    }
  }
  if (i < count) {
    ScalarLowerBoundMany(first_keys + i * n, n, keys + i, count - i, lo + i,
                         hi + i);
  }
}

/// All eight salted bit tests in one 256-bit multiply/shift and a single
/// testc against the block.
LSHE_TARGET_AVX2 bool Avx2BlockMayContain(const uint32_t* block,
                                          uint32_t h) {
  const __m256i salts = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kBlockProbeSalts));
  const __m256i salted =
      _mm256_mullo_epi32(_mm256_set1_epi32(static_cast<int>(h)), salts);
  const __m256i mask =
      _mm256_sllv_epi32(_mm256_set1_epi32(1), _mm256_srli_epi32(salted, 27));
  const __m256i blk =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
  // testc(blk, mask) == 1 iff (~blk & mask) == 0, i.e. every mask bit set.
  return _mm256_testc_si256(blk, mask) != 0;
}

#endif  // LSHE_KERNEL_HAVE_AVX2

constexpr HashKernelOps kScalarOps = {"scalar",
                                      &ScalarUpdateBatch,
                                      &ScalarCountCollisionsMany,
                                      &ScalarRefinePrefixRange,
                                      &ScalarLowerBoundMany,
                                      &ScalarBlockMayContain};

#if defined(LSHE_KERNEL_HAVE_AVX2)
constexpr HashKernelOps kAvx2Ops = {"avx2",
                                    &Avx2UpdateBatch,
                                    &Avx2CountCollisionsMany,
                                    &Avx2RefinePrefixRange,
                                    &Avx2LowerBoundMany,
                                    &Avx2BlockMayContain};
// The AVX-512 ingest, collision and descent kernels each earn their place
// end to end (docs/ARCHITECTURE.md records the A/B). The probe refine and
// the Bloom probe are search-bound, and 256-bit compares already cover a
// whole prefix or block, so the AVX-512 table reuses the AVX2 forms.
constexpr HashKernelOps kAvx512Ops = {"avx512",
                                      &Avx512UpdateBatch,
                                      &Avx512CountCollisionsMany,
                                      &Avx2RefinePrefixRange,
                                      &Avx512LowerBoundMany,
                                      &Avx2BlockMayContain};
#endif

}  // namespace

const HashKernelOps& ScalarKernelOps() { return kScalarOps; }

const HashKernelOps* Avx2KernelOps() {
#if defined(LSHE_KERNEL_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) return &kAvx2Ops;
#endif
  return nullptr;
}

const HashKernelOps* Avx512KernelOps() {
#if defined(LSHE_KERNEL_HAVE_AVX2)
  if (__builtin_cpu_supports("avx512f")) return &kAvx512Ops;
#endif
  return nullptr;
}

const HashKernelOps& ActiveKernelOps() {
  static const HashKernelOps* const ops = [] {
    if (const char* env = std::getenv("LSHE_KERNEL")) {
      const std::string_view choice(env);
      if (choice == "scalar") return &ScalarKernelOps();
      if (choice == "avx2") {
        if (const HashKernelOps* avx2 = Avx2KernelOps()) return avx2;
      }
      if (choice == "avx512") {
        if (const HashKernelOps* avx512 = Avx512KernelOps()) return avx512;
      }
      // A typo must not silently measure (or test) the wrong kernel.
      std::fprintf(stderr,
                   "LSHE_KERNEL=%s not available; using default dispatch\n",
                   env);
    }
    if (const HashKernelOps* avx512 = Avx512KernelOps()) return avx512;
    if (const HashKernelOps* avx2 = Avx2KernelOps()) return avx2;
    return &ScalarKernelOps();
  }();
  return *ops;
}

}  // namespace lshensemble
