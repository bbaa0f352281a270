#include "core/tuning.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "core/threshold.h"
#include "util/math.h"

namespace lshensemble {
namespace {

// Memo answers are compared bit for bit, error masses included.
void ExpectSameBits(const TunedParams& a, const TunedParams& b) {
  EXPECT_EQ(a.b, b.b);
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.fp), std::bit_cast<uint64_t>(b.fp));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.fn), std::bit_cast<uint64_t>(b.fn));
}

TEST(CandidateProbabilityTest, SpecialCaseB1R1IsJaccard) {
  // With one band of one hash value, P = s (Eq. 22 with b = r = 1).
  for (double t : {0.1, 0.4, 0.8}) {
    const double x = 20, q = 10;
    EXPECT_NEAR(CandidateProbability(t, x, q, 1, 1),
                ContainmentToJaccard(t, x, q), 1e-12);
  }
}

TEST(CandidateProbabilityTest, ClampsAboveSizeRatio) {
  // t cannot exceed x/q; beyond it the probability saturates at the ratio's
  // value (Section 5.5).
  const double x = 5, q = 10;  // ratio 0.5
  const double at_ratio = CandidateProbability(0.5, x, q, 8, 2);
  EXPECT_NEAR(CandidateProbability(0.9, x, q, 8, 2), at_ratio, 1e-12);
}

TEST(CandidateProbabilityTest, MonotoneInContainment) {
  double previous = 0.0;
  for (double t = 0.0; t <= 1.0; t += 0.02) {
    const double p = CandidateProbability(t, 10, 5, 256, 4);
    EXPECT_GE(p, previous - 1e-12);
    previous = p;
  }
}

TEST(CandidateProbabilityTest, Figure3Shape) {
  // Figure 3's parameters: x=10, q=5, b=256, r=4 — an S-curve that is low
  // near 0 and ~1 near the ratio boundary.
  EXPECT_LT(CandidateProbability(0.05, 10, 5, 256, 4), 0.25);
  EXPECT_GT(CandidateProbability(0.95, 10, 5, 256, 4), 0.95);
}

TEST(FpFnAreaTest, AnalyticCheckForB1R1) {
  // For b=r=1, P(t) = t / (x/q + 1 - t) = s(t). With x=q (ratio 1):
  // integral_0^a t/(2-t) dt = -a - 2 ln(1 - a/2).
  const double x = 100, q = 100, t_star = 0.5;
  const double fp = FalsePositiveArea(x, q, t_star, 1, 1, 2048);
  const double analytic = -t_star - 2.0 * std::log(1.0 - t_star / 2.0);
  EXPECT_NEAR(fp, analytic, 1e-6);

  // FN = integral_{t*}^{1} (1 - P) dt = (1 - t*) - [analytic(1)-analytic(t*)]
  const double fn = FalseNegativeArea(x, q, t_star, 1, 1, 2048);
  const double full = -1.0 - 2.0 * std::log(0.5);
  EXPECT_NEAR(fn, (1.0 - t_star) - (full - analytic), 1e-6);
}

TEST(FpFnAreaTest, FnZeroWhenRatioBelowThreshold) {
  // x/q < t*: no domain in this size class can qualify (Eq. 24, third case).
  EXPECT_EQ(FalseNegativeArea(10, 100, 0.5, 8, 4), 0.0);
}

TEST(FpFnAreaTest, FpCappedAtRatioWhenSmall) {
  // x/q < t*: the FP integral stops at the ratio (Eq. 23, second case).
  const double fp = FalsePositiveArea(10, 100, 0.5, 256, 1, 1024);
  EXPECT_LE(fp, 0.1 + 1e-9);  // ratio = 0.1 bounds the integral length
  EXPECT_GT(fp, 0.0);
}

TEST(FpFnAreaTest, MoreBandsRaiseFpLowerFn) {
  const double x = 50, q = 10, t = 0.5;
  double previous_fp = 0.0;
  double previous_fn = std::numeric_limits<double>::infinity();
  for (int b = 1; b <= 32; b *= 2) {
    const double fp = FalsePositiveArea(x, q, t, b, 4);
    const double fn = FalseNegativeArea(x, q, t, b, 4);
    EXPECT_GE(fp, previous_fp - 1e-12);
    EXPECT_LE(fn, previous_fn + 1e-12);
    previous_fp = fp;
    previous_fn = fn;
  }
}

TEST(TunerTest, OptionsValidated) {
  Tuner::Options bad;
  bad.max_b = 0;
  EXPECT_FALSE(Tuner::Create(bad).ok());
  bad = Tuner::Options();
  bad.integration_nodes = 2;
  EXPECT_FALSE(Tuner::Create(bad).ok());
  EXPECT_TRUE(Tuner::Create(Tuner::Options()).ok());
}

TEST(TunerTest, StaysInsideGrid) {
  Tuner::Options options;
  options.max_b = 32;
  options.max_r = 8;
  auto tuner = std::move(Tuner::Create(options)).value();
  for (double ratio : {0.5, 1.0, 3.0, 100.0}) {
    for (double t : {0.05, 0.5, 0.95}) {
      const TunedParams params = tuner->Tune(ratio * 100.0, 100.0, t);
      EXPECT_GE(params.b, 1);
      EXPECT_LE(params.b, 32);
      EXPECT_GE(params.r, 1);
      EXPECT_LE(params.r, 8);
    }
  }
}

// The incremental-power optimizer must agree with an exhaustive scan that
// uses the independent Simpson-quadrature implementation of Eqs. 23/24.
class TunerOptimality
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(TunerOptimality, MatchesExhaustiveSearch) {
  const auto [ratio, t_star] = GetParam();
  const double q = 50.0;
  const double x = ratio * q;

  Tuner::Options options;
  options.max_b = 16;
  options.max_r = 4;
  options.integration_nodes = 512;
  auto tuner = std::move(Tuner::Create(options)).value();
  const TunedParams tuned = tuner->Tune(x, q, t_star);

  double best = std::numeric_limits<double>::infinity();
  for (int b = 1; b <= options.max_b; ++b) {
    for (int r = 1; r <= options.max_r; ++r) {
      const double objective = FalsePositiveArea(x, q, t_star, b, r, 2048) +
                               FalseNegativeArea(x, q, t_star, b, r, 2048);
      best = std::min(best, objective);
    }
  }
  EXPECT_NEAR(tuned.objective(), best, 5e-3)
      << "ratio=" << ratio << " t*=" << t_star << " chose (" << tuned.b
      << "," << tuned.r << ")";
}

INSTANTIATE_TEST_SUITE_P(
    RatioThresholdGrid, TunerOptimality,
    ::testing::Combine(::testing::Values(0.2, 1.0, 2.0, 10.0, 200.0),
                       ::testing::Values(0.1, 0.5, 0.9)));

TEST(TunerTest, HighThresholdPrefersSelectiveParams) {
  // For x ~ q and a high threshold, deep prefixes (large r) win; for a very
  // low threshold, the tuner must lean recall-heavy (large b, small r).
  Tuner::Options options;
  auto tuner = std::move(Tuner::Create(options)).value();
  const TunedParams strict = tuner->Tune(100, 100, 0.95);
  const TunedParams loose = tuner->Tune(100, 100, 0.05);
  EXPECT_GT(strict.r, loose.r);
}

TEST(TunerTest, CacheHitsAreConsistent) {
  // The memo is shared per Options; a grid no other test uses starts it
  // cold, so every miss below is this test's own.
  Tuner::Options options;
  options.max_b = 20;
  options.max_r = 5;
  auto tuner = std::move(Tuner::Create(options)).value();
  uint64_t misses = Tuner::TotalMisses();
  const TunedParams first = tuner->Tune(1000, 10, 0.5);
  EXPECT_EQ(Tuner::TotalMisses() - misses, 1u);
  misses = Tuner::TotalMisses();
  const TunedParams second = tuner->Tune(1000, 10, 0.5);
  EXPECT_EQ(Tuner::TotalMisses() - misses, 0u);
  ExpectSameBits(first, second);
  // A different threshold misses.
  misses = Tuner::TotalMisses();
  tuner->Tune(1000, 10, 0.6);
  EXPECT_EQ(Tuner::TotalMisses() - misses, 1u);
}

TEST(TunerTest, MemoIsBounded) {
  // A 1x1 grid on the smallest lattice keeps each miss cheap.
  Tuner::Options options;
  options.max_b = 1;
  options.max_r = 1;
  options.integration_nodes = 8;
  auto tuner = std::move(Tuner::Create(options)).value();
  const TunedParams before = tuner->Tune(300, 100, 0.37);
  // 20 ratios on the key's log2 lattice (1/4096 of a doubling) times
  // 10,000 thresholds on its 1e-4 lattice: 200,000 distinct keys, the
  // shape of traffic whose sizes and thresholds are all different.
  // CacheSize() scans the table, so the bound is checked every 10,000.
  for (int i = 0; i < 200000; ++i) {
    const double ratio = std::exp2((i / 10000) / 4096.0);
    const double t_star = (i % 10000) / 10000.0;
    tuner->Tune(ratio * 100.0, 100.0, t_star);
    if (i % 10000 == 9999) {
      ASSERT_LE(tuner->CacheSize(), Tuner::kMaxCacheEntries) << "key " << i;
    }
  }
  // The first key's set has since taken more than four newer keys, so it
  // was evicted; recomputing it does not change the answer.
  const uint64_t misses = Tuner::TotalMisses();
  const TunedParams after = tuner->Tune(300, 100, 0.37);
  EXPECT_EQ(Tuner::TotalMisses() - misses, 1u);
  ExpectSameBits(after, before);
}

TEST(TunerTest, EqualOptionsShareTheMemo) {
  Tuner::Options options;
  options.max_b = 12;
  options.max_r = 3;
  auto first = std::move(Tuner::Create(options)).value();
  auto second = std::move(Tuner::Create(options)).value();
  uint64_t misses = Tuner::TotalMisses();
  const TunedParams warmed = first->Tune(640, 20, 0.42);
  EXPECT_EQ(Tuner::TotalMisses() - misses, 1u);
  misses = Tuner::TotalMisses();
  const TunedParams shared = second->Tune(640, 20, 0.42);
  EXPECT_EQ(Tuner::TotalMisses() - misses, 0u);
  ExpectSameBits(shared, warmed);
}

TEST(TunerTest, DifferentOptionsNeverShareEntries) {
  // Interleaved on one key, each grid computes and then keeps its own
  // answer: the small grid's (b, r) cannot come from the large one's.
  Tuner::Options small_options;
  small_options.max_b = 2;
  small_options.max_r = 2;
  small_options.integration_nodes = 64;
  Tuner::Options big_options = small_options;
  big_options.max_b = 32;
  big_options.max_r = 8;
  auto small_tuner = std::move(Tuner::Create(small_options)).value();
  auto big_tuner = std::move(Tuner::Create(big_options)).value();
  uint64_t misses = Tuner::TotalMisses();
  const TunedParams small_first = small_tuner->Tune(150, 100, 0.55);
  const TunedParams big_first = big_tuner->Tune(150, 100, 0.55);
  EXPECT_EQ(Tuner::TotalMisses() - misses, 2u);
  EXPECT_LE(small_first.b, 2);
  EXPECT_LE(small_first.r, 2);
  EXPECT_TRUE(big_first.b != small_first.b || big_first.r != small_first.r);
  EXPECT_LT(big_first.objective(), small_first.objective());
  misses = Tuner::TotalMisses();
  const TunedParams small_again = small_tuner->Tune(150, 100, 0.55);
  const TunedParams big_again = big_tuner->Tune(150, 100, 0.55);
  EXPECT_EQ(Tuner::TotalMisses() - misses, 0u);
  ExpectSameBits(small_again, small_first);
  ExpectSameBits(big_again, big_first);
}

TEST(TunerTest, PredictedErrorsAreProbabilityMasses) {
  Tuner::Options options;
  auto tuner = std::move(Tuner::Create(options)).value();
  for (double ratio : {0.5, 1.0, 10.0}) {
    const TunedParams params = tuner->Tune(ratio * 100, 100, 0.5);
    EXPECT_GE(params.fp, 0.0);
    EXPECT_GE(params.fn, 0.0);
    EXPECT_LE(params.fp, 1.0);
    EXPECT_LE(params.fn, 1.0);
  }
}

TEST(TunerTest, LargerGridNeverHurts) {
  // Enlarging the (b, r) search space cannot worsen the optimum.
  Tuner::Options small_options;
  small_options.max_b = 8;
  small_options.max_r = 4;
  Tuner::Options big_options;
  big_options.max_b = 32;
  big_options.max_r = 8;
  auto small_tuner = std::move(Tuner::Create(small_options)).value();
  auto big_tuner = std::move(Tuner::Create(big_options)).value();
  for (double t : {0.2, 0.5, 0.8}) {
    const double small_objective = small_tuner->Tune(500, 50, t).objective();
    const double big_objective = big_tuner->Tune(500, 50, t).objective();
    EXPECT_LE(big_objective, small_objective + 1e-9);
  }
}

// `count` keys (x, t*) at q = 100 that share one memo set, found by
// scanning the threshold lattice at a few ratios.
std::vector<std::pair<double, double>> KeysInOneSet(size_t count) {
  std::map<size_t, std::vector<std::pair<double, double>>> by_set;
  for (double ratio : {0.5, 1.5, 2.5, 3.5, 4.5, 5.5}) {
    for (int i = 0; i <= 10000; ++i) {
      const double t_star = i / 10000.0;
      auto& keys = by_set[Tuner::CacheSet(ratio * 100, 100, t_star)];
      keys.emplace_back(ratio * 100, t_star);
      if (keys.size() == count) return keys;
    }
  }
  return {};
}

TEST(TunerTest, FourKeysInOneSetStayResident) {
  Tuner::Options options;
  options.max_b = 4;
  options.max_r = 4;
  options.integration_nodes = 16;
  auto tuner = std::move(Tuner::Create(options)).value();
  const auto keys = KeysInOneSet(5);
  ASSERT_EQ(keys.size(), 5u);
  const auto tune = [&](size_t i) {
    tuner->Tune(keys[i].first, 100, keys[i].second);
  };
  for (size_t i = 0; i < 4; ++i) tune(i);
  uint64_t misses = Tuner::TotalMisses();
  for (size_t i = 0; i < 4; ++i) tune(i);
  EXPECT_EQ(Tuner::TotalMisses() - misses, 0u) << "a set holds four keys";
  // A fifth key evicts the one written longest ago.
  misses = Tuner::TotalMisses();
  tune(4);
  tune(1);
  EXPECT_EQ(Tuner::TotalMisses() - misses, 1u);
  tune(0);
  EXPECT_EQ(Tuner::TotalMisses() - misses, 2u);
}

}  // namespace
}  // namespace lshensemble
