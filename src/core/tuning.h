// Per-query (b, r) tuning for the dynamic LSH in each partition
// (paper Section 5.5).
//
// The probability that a domain X with |X| = x becomes a candidate, as a
// function of its containment t = t(Q, X) (Eq. 22):
//
//     P(t | x, q, b, r) = 1 - (1 - s(t)^r)^b,   s(t) = t / (x/q + 1 - t)
//
// Integrating P below the containment threshold gives the false-positive
// probability mass, and 1 - P above it the false-negative mass
// (Eqs. 23/24). The tuner minimizes FP + FN over the (b, r) grid the
// LshForest can serve, using the partition's upper size bound for x
// (Eq. 26).

#ifndef LSHENSEMBLE_CORE_TUNING_H_
#define LSHENSEMBLE_CORE_TUNING_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/result.h"
#include "util/status.h"

namespace lshensemble {

/// \brief P(t | x, q, b, r), Eq. 22. Containment values above x/q are
/// unreachable and clamp to s = 1.
double CandidateProbability(double t, double x, double q, int b, int r);

/// \brief False-positive probability mass (Eq. 23): integral of P over
/// containments in [0, min(t_star, x/q)).
double FalsePositiveArea(double x, double q, double t_star, int b, int r,
                         int integration_steps = 256);

/// \brief False-negative probability mass (Eq. 24): integral of (1 - P)
/// over containments in [t_star, min(1, x/q)]; zero when x/q < t_star.
double FalseNegativeArea(double x, double q, double t_star, int b, int r,
                         int integration_steps = 256);

/// \brief A tuned parameter pair with its predicted error masses.
struct TunedParams {
  int b = 1;
  int r = 1;
  double fp = 0.0;  ///< predicted false-positive mass at (b, r)
  double fn = 0.0;  ///< predicted false-negative mass at (b, r)

  double objective() const { return fp + fn; }
};

/// \brief Finds argmin_{b <= max_b, r <= max_r} (FP + FN)(x, q, t*, b, r).
///
/// The full grid is evaluated with a shared integration lattice and
/// incremental powers, so one call costs O(max_b * max_r * nodes) fused
/// multiply-adds rather than O(...) pow() calls. This realizes the paper's
/// "the computation of (b, r) can be handled offline" as a lazily warmed
/// memo keyed on the quantized (x/q, t*) pair.
///
/// The memo is shared: every Tuner in the process with equal Options (each
/// shard's engine, every rebuilt or reopened engine) reads and warms one
/// fixed-size table of kMaxCacheEntries slots in 4-way sets, so a key one
/// engine tuned is a hit for all of them. Each slot is a seqlock of atomic
/// fields: a hit is atomic loads only and writes no shared memory, and a
/// reader that overlaps a write sees the slot as a miss, never a torn
/// entry. Both key values come from the query (and so from the wire); the
/// slot count is the bound. A miss overwrites an empty way or the way of
/// its set written longest ago, and a write that races another writer for
/// the same slot is dropped. An entry holds the answer for the exact
/// (x/q, t*) of the query that missed; Optimize() is deterministic, so
/// that query recomputes the same answer after an eviction.
class Tuner {
 public:
  struct Options {
    int max_b = 32;             ///< number of trees in the forest
    int max_r = 8;              ///< depth of each tree
    int integration_nodes = 256;  ///< lattice size per integral segment

    Status Validate() const;
    bool operator==(const Options&) const = default;
  };

  /// Slots in each shared memo: 40 B each, so about 2.6 MB per distinct
  /// Options, allocated when the first Tuner with those Options is created.
  static constexpr size_t kMaxCacheEntries = size_t{1} << 16;

  /// Binds the process-wide memo for `options`, creating it on first use.
  static Result<std::unique_ptr<Tuner>> Create(const Options& options);

  const Options& options() const { return options_; }

  /// \brief Optimal (b, r) for a partition whose largest domain size is `x`,
  /// a query of size `q`, and containment threshold `t_star`.
  /// Preconditions: x > 0, q > 0, 0 <= t_star <= 1.
  TunedParams Tune(double x, double q, double t_star) const;

  /// Occupied slots of this tuner's shared memo (for tests/introspection;
  /// scans every slot).
  size_t CacheSize() const;

  /// The memo set that Tune(x, q, t_star) looks up (for tests).
  static size_t CacheSet(double x, double q, double t_star);

  /// Memo misses (Optimize runs) counted over every Tuner in the process.
  static uint64_t TotalMisses();

 private:
  class Memo;

  Tuner(const Options& options, Memo* memo)
      : options_(options), memo_(memo) {}

  TunedParams Optimize(double x_over_q, double t_star) const;
  static uint64_t CacheKey(double x_over_q, double t_star);

  Options options_;
  Memo* memo_;  ///< lives until exit, shared by Tuners with equal Options
};

}  // namespace lshensemble

#endif  // LSHENSEMBLE_CORE_TUNING_H_
