// The family of minwise hash functions shared by every signature in an
// index. Each function is a universal hash h_i(v) = (a_i * v + b_i) mod p
// over the Mersenne prime p = 2^61 - 1, applied to a 64-bit base hash of the
// raw value. Signatures are only comparable when produced by the same
// family (same seed and size).

#ifndef LSHENSEMBLE_MINHASH_HASH_FAMILY_H_
#define LSHENSEMBLE_MINHASH_HASH_FAMILY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace lshensemble {

/// Mersenne prime 2^61 - 1 used as the modulus of the permutation family.
inline constexpr uint64_t kMersennePrime61 = (1ULL << 61) - 1;

/// \brief Multiply-mod over the Mersenne prime 2^61 - 1.
/// Preconditions: a, b < 2^61 - 1.
inline uint64_t MulMod61(uint64_t a, uint64_t b) {
  const unsigned __int128 product =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  uint64_t folded = static_cast<uint64_t>(product & kMersennePrime61) +
                    static_cast<uint64_t>(product >> 61);
  folded = (folded & kMersennePrime61) + (folded >> 61);
  if (folded >= kMersennePrime61) folded -= kMersennePrime61;
  return folded;
}

/// \brief Add-mod over the Mersenne prime 2^61 - 1.
/// Preconditions: a, b < 2^61 - 1.
inline uint64_t AddMod61(uint64_t a, uint64_t b) {
  uint64_t sum = a + b;  // < 2^62, no overflow
  if (sum >= kMersennePrime61) sum -= kMersennePrime61;
  return sum;
}

/// \brief Reduce an arbitrary 64-bit value into [0, 2^61 - 1). The single
/// definition shared by the hash family and every SIMD kernel — the
/// bit-identical-signature guarantee depends on all paths folding values
/// the same way.
inline uint64_t ReduceMod61(uint64_t value) {
  uint64_t folded = (value & kMersennePrime61) + (value >> 61);
  if (folded >= kMersennePrime61) folded -= kMersennePrime61;
  return folded;
}

/// \brief A seeded family of `num_hashes` independent minwise hash
/// functions. Immutable after creation; shared (via shared_ptr) by all
/// signatures of a corpus.
class HashFamily {
 public:
  /// Largest value any member function can return.
  static constexpr uint64_t kMaxHash = kMersennePrime61 - 1;

  /// \param num_hashes the signature length m; must be > 0.
  /// \param seed determines the coefficients; equal seeds give equal
  ///        families.
  static Result<std::shared_ptr<const HashFamily>> Create(int num_hashes,
                                                          uint64_t seed);

  int num_hashes() const { return static_cast<int>(mul_.size()); }
  uint64_t seed() const { return seed_; }

  /// The raw coefficient arrays a_i / b_i, exposed so kernel benches and
  /// parity tests can drive a specific HashKernelOps table directly.
  const std::vector<uint64_t>& multipliers() const { return mul_; }
  const std::vector<uint64_t>& offsets() const { return add_; }

  /// The i-th hash of `value`. `value` may be any 64-bit base hash.
  uint64_t HashOne(uint64_t value, int i) const {
    return AddMod61(MulMod61(mul_[i], ReduceMod61(value)), add_[i]);
  }

  /// \brief Fold `n` values into a running minimum signature:
  /// mins[i] = min(mins[i], h_i(v)) for every value v and all i. `mins`
  /// must have num_hashes() elements; n = 1 folds a single value.
  /// Dispatches to the active SIMD kernel (minhash/hash_kernel.h), which
  /// blocks the work so min-registers stay in registers across the whole
  /// batch; results are identical on every CPU.
  void UpdateMinsBatch(const uint64_t* values, size_t n,
                       uint64_t* mins) const;

  /// True iff `other` was created with the same seed and size (and thus
  /// produces identical hash values).
  bool SameAs(const HashFamily& other) const {
    return seed_ == other.seed_ && mul_.size() == other.mul_.size();
  }

 private:
  HashFamily(std::vector<uint64_t> mul, std::vector<uint64_t> add,
             uint64_t seed)
      : mul_(std::move(mul)), add_(std::move(add)), seed_(seed) {}

  std::vector<uint64_t> mul_;  // a_i in [1, p-1]
  std::vector<uint64_t> add_;  // b_i in [0, p-1]
  uint64_t seed_;
};

}  // namespace lshensemble

#endif  // LSHENSEMBLE_MINHASH_HASH_FAMILY_H_
