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

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

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
/// multiply-adds rather than O(...) pow() calls. Results are cached keyed
/// on the quantized (x/q, t*) pair; the cache is thread-safe. This realizes
/// the paper's "the computation of (b, r) can be handled offline" as a
/// lazily warmed memo table. Both key values come from the query (and so
/// from the wire), so the memo holds at most kMaxCacheEntries keys and is
/// cleared when full; answers do not change, because Optimize() is
/// deterministic.
class Tuner {
 public:
  struct Options {
    int max_b = 32;             ///< number of trees in the forest
    int max_r = 8;              ///< depth of each tree
    int integration_nodes = 256;  ///< lattice size per integral segment

    Status Validate() const;
  };

  /// Memo bound: about 64 B per key, so 4 MB at most per tuner.
  static constexpr size_t kMaxCacheEntries = size_t{1} << 16;

  /// Returned by pointer because the internal cache makes Tuner immovable.
  static Result<std::unique_ptr<Tuner>> Create(const Options& options);

  const Options& options() const { return options_; }

  /// \brief Optimal (b, r) for a partition whose largest domain size is `x`,
  /// a query of size `q`, and containment threshold `t_star`.
  /// Preconditions: x > 0, q > 0, 0 <= t_star <= 1.
  TunedParams Tune(double x, double q, double t_star) const;

  /// Number of entries currently memoized (for tests/introspection).
  size_t CacheSize() const;

 private:
  explicit Tuner(const Options& options) : options_(options) {}

  TunedParams Optimize(double x_over_q, double t_star) const;
  static uint64_t CacheKey(double x_over_q, double t_star);

  Options options_;
  mutable std::shared_mutex mutex_;
  mutable std::unordered_map<uint64_t, TunedParams> cache_;
};

}  // namespace lshensemble

#endif  // LSHENSEMBLE_CORE_TUNING_H_
