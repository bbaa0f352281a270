#include "core/tuning.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>
#include <vector>

#include "core/threshold.h"
#include "util/math.h"

namespace lshensemble {

double CandidateProbability(double t, double x, double q, int b, int r) {
  assert(x > 0 && q > 0 && b >= 1 && r >= 1);
  // Containment cannot exceed the size ratio x/q (Section 5.5).
  const double t_eff = std::min(t, x / q);
  const double s = ContainmentToJaccard(t_eff, x, q);
  if (s <= 0.0) return 0.0;
  if (s >= 1.0) return 1.0;
  return 1.0 - std::pow(1.0 - std::pow(s, r), b);
}

double FalsePositiveArea(double x, double q, double t_star, int b, int r,
                         int integration_steps) {
  const double hi = std::min(t_star, x / q);
  if (hi <= 0.0) return 0.0;
  return Integrate(
      [&](double t) { return CandidateProbability(t, x, q, b, r); }, 0.0, hi,
      integration_steps);
}

double FalseNegativeArea(double x, double q, double t_star, int b, int r,
                         int integration_steps) {
  const double hi = std::min(1.0, x / q);
  if (hi <= t_star) return 0.0;
  return Integrate(
      [&](double t) { return 1.0 - CandidateProbability(t, x, q, b, r); },
      t_star, hi, integration_steps);
}

Status Tuner::Options::Validate() const {
  if (max_b < 1 || max_r < 1) {
    return Status::InvalidArgument("tuner grid must have max_b, max_r >= 1");
  }
  if (integration_nodes < 8) {
    return Status::InvalidArgument("integration_nodes must be >= 8");
  }
  return Status::OK();
}

Result<std::unique_ptr<Tuner>> Tuner::Create(const Options& options) {
  LSHE_RETURN_IF_ERROR(options.Validate());
  return std::unique_ptr<Tuner>(new Tuner(options));
}

uint64_t Tuner::CacheKey(double x_over_q, double t_star) {
  // Quantize the ratio on a log lattice (1/4096 of a doubling) and the
  // threshold to 1e-4. Neighbouring queries share tuned parameters; the
  // objective is flat at that granularity.
  const auto ratio_q =
      static_cast<int64_t>(std::llround(std::log2(x_over_q) * 4096.0));
  const auto t_q = static_cast<int64_t>(std::llround(t_star * 10000.0));
  return (static_cast<uint64_t>(ratio_q) << 20) ^ static_cast<uint64_t>(t_q);
}

TunedParams Tuner::Tune(double x, double q, double t_star) const {
  assert(x > 0 && q > 0);
  assert(t_star >= 0.0 && t_star <= 1.0);
  const double ratio = x / q;
  const uint64_t key = CacheKey(ratio, t_star);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  TunedParams params = Optimize(ratio, t_star);
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (cache_.size() >= kMaxCacheEntries) cache_.clear();
    cache_.emplace(key, params);
  }
  return params;
}

size_t Tuner::CacheSize() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return cache_.size();
}

TunedParams Tuner::Optimize(double x_over_q, double t_star) const {
  // Containment support is [0, t_hi] with t_hi = min(1, x/q); split it at
  // a = min(t*, t_hi) into the FP segment [0, a] and FN segment [a, t_hi].
  const double t_hi = std::min(1.0, x_over_q);
  const double a = std::min(t_star, t_hi);
  const int nodes = options_.integration_nodes;

  // Trapezoid lattices for both segments, including both endpoints.
  struct Lattice {
    std::vector<double> s;       // Jaccard at each node
    std::vector<double> weight;  // trapezoid weights (sums to segment width)
  };
  auto make_lattice = [&](double lo, double hi) {
    Lattice lattice;
    if (hi <= lo) return lattice;
    const int n = nodes;
    const double h = (hi - lo) / n;
    lattice.s.resize(n + 1);
    lattice.weight.assign(n + 1, h);
    lattice.weight.front() = lattice.weight.back() = h / 2.0;
    for (int j = 0; j <= n; ++j) {
      const double t = lo + h * j;
      const double denom = x_over_q + 1.0 - t;
      lattice.s[j] = std::clamp(denom <= 0.0 ? 1.0 : t / denom, 0.0, 1.0);
    }
    return lattice;
  };
  Lattice fp_lattice = make_lattice(0.0, a);
  Lattice fn_lattice = make_lattice(a, t_hi);

  const size_t n_fp = fp_lattice.s.size();
  const size_t n_fn = fn_lattice.s.size();

  // sr[j] accumulates s_j^r across the r loop; qb[j] accumulates
  // (1 - s_j^r)^b across the b loop. All powers are incremental products.
  std::vector<double> fp_sr(n_fp, 1.0), fn_sr(n_fn, 1.0);
  std::vector<double> fp_base(n_fp), fn_base(n_fn);
  std::vector<double> fp_qb(n_fp), fn_qb(n_fn);

  TunedParams best;
  double best_objective = std::numeric_limits<double>::infinity();
  for (int r = 1; r <= options_.max_r; ++r) {
    for (size_t j = 0; j < n_fp; ++j) {
      fp_sr[j] *= fp_lattice.s[j];
      fp_base[j] = 1.0 - fp_sr[j];
      fp_qb[j] = 1.0;
    }
    for (size_t j = 0; j < n_fn; ++j) {
      fn_sr[j] *= fn_lattice.s[j];
      fn_base[j] = 1.0 - fn_sr[j];
      fn_qb[j] = 1.0;
    }
    for (int b = 1; b <= options_.max_b; ++b) {
      double fp = 0.0;
      for (size_t j = 0; j < n_fp; ++j) {
        fp_qb[j] *= fp_base[j];
        fp += (1.0 - fp_qb[j]) * fp_lattice.weight[j];
      }
      double fn = 0.0;
      for (size_t j = 0; j < n_fn; ++j) {
        fn_qb[j] *= fn_base[j];
        fn += fn_qb[j] * fn_lattice.weight[j];
      }
      const double objective = fp + fn;
      if (objective < best_objective - 1e-15) {
        best_objective = objective;
        best = TunedParams{b, r, fp, fn};
      }
    }
  }
  return best;
}

}  // namespace lshensemble
