#include "core/tuning.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>
#include <utility>
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

namespace {

// Misses across every Tuner; each one's ordinal also stamps the slot it
// fills (see Slot).
std::atomic<uint64_t> g_misses{0};

// One memo entry behind a seqlock. `seq` is 0 while the slot is empty,
// odd while a writer fills it, and otherwise twice the miss ordinal of its
// last write. Ordinals are unique, so an even value never returns to a
// slot: a reader that loads the same even `seq` before and after the
// fields read one writer's fields. Every field is atomic, so no access is
// a data race.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> key{0};
  std::atomic<uint64_t> br{0};  // b << 32 | r
  std::atomic<uint64_t> fp{0};  // bits of TunedParams::fp
  std::atomic<uint64_t> fn{0};  // bits of TunedParams::fn
};

constexpr size_t kWays = 4;
constexpr size_t kSets = Tuner::kMaxCacheEntries / kWays;
static_assert(std::has_single_bit(kSets));

size_t SetOf(uint64_t key) {
  // splitmix64's finalizer: CacheKey's low bits are the threshold alone.
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ull;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebull;
  key ^= key >> 31;
  return static_cast<size_t>(key >> (64 - std::countr_zero(kSets)));
}

}  // namespace

class Tuner::Memo {
 public:
  bool Find(uint64_t key, TunedParams* out) const {
    const Slot* set = &slots_[SetOf(key) * kWays];
    for (size_t way = 0; way < kWays; ++way) {
      const Slot& slot = set[way];
      const uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == 0 || (seq & 1) != 0) continue;
      // Acquire field loads keep the closing `seq` load after them, and a
      // field written by a later writer makes that load see its odd claim.
      if (slot.key.load(std::memory_order_acquire) != key) continue;
      const uint64_t br = slot.br.load(std::memory_order_acquire);
      const uint64_t fp = slot.fp.load(std::memory_order_acquire);
      const uint64_t fn = slot.fn.load(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != seq) continue;
      *out = TunedParams{static_cast<int>(br >> 32),
                         static_cast<int>(br & 0xffffffffu),
                         std::bit_cast<double>(fp), std::bit_cast<double>(fn)};
      return true;
    }
    return false;
  }

  // Victim: the way already holding `key`, else an empty way or the one
  // written longest ago. A writer that loses the claim drops its entry.
  void Store(uint64_t key, const TunedParams& params, uint64_t ordinal) {
    Slot* set = &slots_[SetOf(key) * kWays];
    Slot* victim = nullptr;
    uint64_t victim_seq = std::numeric_limits<uint64_t>::max();
    for (size_t way = 0; way < kWays; ++way) {
      const uint64_t seq = set[way].seq.load(std::memory_order_relaxed);
      if ((seq & 1) != 0) continue;
      if (seq != 0 && set[way].key.load(std::memory_order_relaxed) == key) {
        victim = &set[way];
        victim_seq = seq;
        break;
      }
      if (seq < victim_seq) {
        victim = &set[way];
        victim_seq = seq;
      }
    }
    if (victim == nullptr ||
        !victim->seq.compare_exchange_strong(victim_seq, victim_seq | 1,
                                             std::memory_order_relaxed)) {
      return;
    }
    // Release stores: a reader that sees any of them also sees the claim.
    victim->key.store(key, std::memory_order_release);
    victim->br.store(static_cast<uint64_t>(params.b) << 32 |
                         static_cast<uint32_t>(params.r),
                     std::memory_order_release);
    victim->fp.store(std::bit_cast<uint64_t>(params.fp),
                     std::memory_order_release);
    victim->fn.store(std::bit_cast<uint64_t>(params.fn),
                     std::memory_order_release);
    victim->seq.store(2 * ordinal, std::memory_order_release);
  }

  size_t Occupied() const {
    size_t occupied = 0;
    for (size_t i = 0; i < kMaxCacheEntries; ++i) {
      occupied += slots_[i].seq.load(std::memory_order_relaxed) != 0;
    }
    return occupied;
  }

 private:
  Slot slots_[kMaxCacheEntries];
};

Result<std::unique_ptr<Tuner>> Tuner::Create(const Options& options) {
  LSHE_RETURN_IF_ERROR(options.Validate());
  // One memo per distinct Options, kept until exit. The lock guards this
  // registry only; Tune never takes it.
  struct Registry {
    std::mutex mutex;
    std::vector<std::pair<Options, std::unique_ptr<Memo>>> memos;
  };
  static Registry* const registry = new Registry;
  std::lock_guard<std::mutex> lock(registry->mutex);
  for (const auto& [existing, memo] : registry->memos) {
    if (existing == options) {
      return std::unique_ptr<Tuner>(new Tuner(options, memo.get()));
    }
  }
  Memo* memo = registry->memos.emplace_back(options, std::make_unique<Memo>())
                   .second.get();
  return std::unique_ptr<Tuner>(new Tuner(options, memo));
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
  TunedParams params;
  if (memo_->Find(key, &params)) return params;
  const uint64_t ordinal = g_misses.fetch_add(1, std::memory_order_relaxed) + 1;
  params = Optimize(ratio, t_star);
  memo_->Store(key, params, ordinal);
  return params;
}

size_t Tuner::CacheSize() const { return memo_->Occupied(); }

size_t Tuner::CacheSet(double x, double q, double t_star) {
  return SetOf(CacheKey(x / q, t_star));
}

uint64_t Tuner::TotalMisses() {
  return g_misses.load(std::memory_order_relaxed);
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
