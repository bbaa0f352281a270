#include "baselines/asym_minhash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "minhash/minhash.h"
#include "util/random.h"

namespace lshensemble {
namespace {

std::shared_ptr<const HashFamily> Family(int m = 256, uint64_t seed = 14) {
  return HashFamily::Create(m, seed).value();
}

TEST(SamplePadMinimumTest, ZeroPadIsNeutral) {
  EXPECT_EQ(SamplePadMinimum(1, 2, 3, 0), HashFamily::kMaxHash);
}

TEST(SamplePadMinimumTest, Deterministic) {
  EXPECT_EQ(SamplePadMinimum(1, 2, 3, 100), SamplePadMinimum(1, 2, 3, 100));
  EXPECT_NE(SamplePadMinimum(1, 2, 3, 100), SamplePadMinimum(1, 2, 4, 100));
  EXPECT_NE(SamplePadMinimum(1, 3, 3, 100), SamplePadMinimum(1, 2, 3, 100));
}

TEST(SamplePadMinimumTest, MeanMatchesOrderStatistic) {
  // E[min of p uniforms] = max_hash / (p + 1).
  for (uint64_t p : {1ULL, 10ULL, 1000ULL}) {
    double sum = 0.0;
    constexpr int kTrials = 20000;
    for (int trial = 0; trial < kTrials; ++trial) {
      sum += static_cast<double>(
          SamplePadMinimum(99, static_cast<uint64_t>(trial), 0, p));
    }
    const double mean = sum / kTrials;
    const double expected =
        static_cast<double>(HashFamily::kMaxHash) / static_cast<double>(p + 1);
    // stderr of the mean ~ expected / sqrt(kTrials) * ~1; allow 10%.
    EXPECT_NEAR(mean, expected, expected * 0.10) << "p=" << p;
  }
}

TEST(SamplePadMinimumTest, LargePadDrivesMinTowardZero) {
  // Padding mass dominates the signature for large p (the recall-collapse
  // mechanism of appendix Figure 10).
  double sum = 0.0;
  for (int trial = 0; trial < 1000; ++trial) {
    sum += static_cast<double>(SamplePadMinimum(7, trial, 1, 1000000));
  }
  EXPECT_LT(sum / 1000.0, static_cast<double>(HashFamily::kMaxHash) * 1e-4);
}

TEST(AsymMinhashBuilderTest, Validation) {
  auto family = Family();
  AsymMinhashOptions options;
  options.tree_depth = 7;  // does not divide 256
  {
    AsymMinhash::Builder builder(options, family);
    auto sketch = MinHash::FromValues(family, std::vector<uint64_t>{1});
    ASSERT_TRUE(builder.Add(1, 1, sketch).ok());
    EXPECT_FALSE(std::move(builder).Build().ok());
  }
  {
    AsymMinhash::Builder builder(AsymMinhashOptions{}, family);
    EXPECT_FALSE(std::move(builder).Build().ok());  // empty
  }
  {
    AsymMinhash::Builder builder(AsymMinhashOptions{}, family);
    EXPECT_FALSE(builder.Add(1, 0, MinHash(family)).ok());  // zero size
    auto foreign =
        MinHash::FromValues(Family(256, 999), std::vector<uint64_t>{1});
    EXPECT_FALSE(builder.Add(1, 1, foreign).ok());
  }
}

TEST(AsymMinhashTest, PaddedSizeIsMaxDomainSize) {
  auto family = Family();
  AsymMinhash::Builder builder(AsymMinhashOptions{}, family);
  Rng rng(3);
  for (uint64_t id = 0; id < 50; ++id) {
    const size_t size = 10 + rng.NextBounded(500);
    std::vector<uint64_t> values(size);
    for (auto& v : values) v = rng.Next();
    ASSERT_TRUE(
        builder.Add(id, size, MinHash::FromValues(family, values)).ok());
  }
  std::vector<uint64_t> big(2000);
  for (auto& v : big) v = rng.Next();
  ASSERT_TRUE(builder.Add(99, 2000, MinHash::FromValues(family, big)).ok());
  auto index = std::move(builder).Build();
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->padded_size(), 2000u);
  EXPECT_EQ(index->size(), 51u);
}

TEST(AsymMinhashTest, FindsContainedDomainWhenSkewIsLow) {
  // With little skew (all domains near the max size), padding is light and
  // Asym behaves well — the regime where Shrivastava & Li shine.
  auto family = Family();
  AsymMinhash::Builder builder(AsymMinhashOptions{}, family);
  Rng rng(15);
  std::vector<uint64_t> base(1000);
  for (auto& v : base) v = rng.Next();
  // Domain 0: the query's superset. Others: same size, disjoint.
  ASSERT_TRUE(
      builder.Add(0, base.size(), MinHash::FromValues(family, base)).ok());
  for (uint64_t id = 1; id < 40; ++id) {
    std::vector<uint64_t> other(1000);
    for (auto& v : other) v = rng.Next();
    ASSERT_TRUE(
        builder.Add(id, other.size(), MinHash::FromValues(family, other))
            .ok());
  }
  auto index = std::move(builder).Build();
  ASSERT_TRUE(index.ok());

  // Query: 500 of domain 0's values -> containment 1.0 in domain 0.
  std::vector<uint64_t> query_values(base.begin(), base.begin() + 500);
  auto query = MinHash::FromValues(family, query_values);
  std::vector<uint64_t> out;
  TunedParams tuned;
  ASSERT_TRUE(index->Query(query, 500, 0.7, &out, &tuned).ok());
  EXPECT_NE(std::find(out.begin(), out.end(), 0ULL), out.end())
      << "fully contained domain missed (b=" << tuned.b << ", r=" << tuned.r
      << ")";
}

TEST(AsymMinhashTest, RecallCollapsesUnderHeavySkew) {
  // The paper's core observation (Section 6.1, appendix): one huge domain
  // forces massive padding on everything else; fully-contained small
  // domains then almost never collide with the query.
  auto family = Family();
  AsymMinhash::Builder builder(AsymMinhashOptions{}, family);
  Rng rng(16);

  // 30 small target domains of size 60, each fully containing one query.
  std::vector<std::vector<uint64_t>> targets;
  for (uint64_t id = 0; id < 30; ++id) {
    std::vector<uint64_t> values(60);
    for (auto& v : values) v = rng.Next();
    targets.push_back(values);
    ASSERT_TRUE(
        builder.Add(id, values.size(), MinHash::FromValues(family, values))
            .ok());
  }
  // One gigantic domain inducing the skew (M = 200000).
  std::vector<uint64_t> huge(200000);
  for (auto& v : huge) v = rng.Next();
  ASSERT_TRUE(
      builder.Add(1000, huge.size(), MinHash::FromValues(family, huge)).ok());
  auto index = std::move(builder).Build();
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->padded_size(), 200000u);

  size_t found = 0;
  for (uint64_t id = 0; id < 30; ++id) {
    std::vector<uint64_t> query_values(targets[id].begin(),
                                       targets[id].begin() + 30);
    auto query = MinHash::FromValues(family, query_values);
    std::vector<uint64_t> out;
    ASSERT_TRUE(index->Query(query, query_values.size(), 0.8, &out).ok());
    if (std::find(out.begin(), out.end(), id) != out.end()) ++found;
  }
  // With padding 199940/200000 of every slot, collision probability is tiny.
  EXPECT_LE(found, 3u) << "expected recall collapse under skew";
}

TEST(AsymMinhashTest, QueryValidation) {
  auto family = Family();
  AsymMinhash::Builder builder(AsymMinhashOptions{}, family);
  auto sketch = MinHash::FromValues(family, std::vector<uint64_t>{1, 2, 3});
  ASSERT_TRUE(builder.Add(1, 3, sketch).ok());
  auto index = std::move(builder).Build();
  ASSERT_TRUE(index.ok());
  std::vector<uint64_t> out;
  EXPECT_FALSE(index->Query(sketch, 3, -0.5, &out).ok());
  EXPECT_FALSE(index->Query(sketch, 3, 0.5, nullptr).ok());
  EXPECT_FALSE(index->Query(MinHash(), 3, 0.5, &out).ok());
}

}  // namespace
}  // namespace lshensemble
