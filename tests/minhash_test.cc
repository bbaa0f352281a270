#include "minhash/minhash.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "minhash/hash_family.h"
#include "util/hashing.h"
#include "util/random.h"

namespace lshensemble {
namespace {

std::shared_ptr<const HashFamily> Family(int m = 128, uint64_t seed = 1) {
  auto family = HashFamily::Create(m, seed);
  EXPECT_TRUE(family.ok());
  return family.value();
}

// ------------------------------------------------------------ hash family

TEST(HashFamilyTest, RejectsNonPositiveSize) {
  EXPECT_FALSE(HashFamily::Create(0, 1).ok());
  EXPECT_FALSE(HashFamily::Create(-3, 1).ok());
}

TEST(HashFamilyTest, SameSeedSameFunctions) {
  auto a = Family(64, 9);
  auto b = Family(64, 9);
  auto c = Family(64, 10);
  EXPECT_TRUE(a->SameAs(*b));
  EXPECT_FALSE(a->SameAs(*c));
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a->HashOne(12345, i), b->HashOne(12345, i));
  }
}

TEST(HashFamilyTest, DifferentSizesAreDifferentFamilies) {
  auto a = Family(64, 9);
  auto b = Family(128, 9);
  EXPECT_FALSE(a->SameAs(*b));
}

TEST(HashFamilyTest, HashesStayBelowMax) {
  auto family = Family(256, 3);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t value = rng.Next();
    for (int i = 0; i < 256; ++i) {
      EXPECT_LE(family->HashOne(value, i), HashFamily::kMaxHash);
    }
  }
}

TEST(HashFamilyTest, MulMod61Identities) {
  EXPECT_EQ(MulMod61(0, 12345), 0u);
  EXPECT_EQ(MulMod61(1, 12345), 12345u);
  EXPECT_EQ(MulMod61(kMersennePrime61 - 1, 1), kMersennePrime61 - 1);
  // (p-1)*(p-1) mod p = 1 since (p-1) = -1 mod p.
  EXPECT_EQ(MulMod61(kMersennePrime61 - 1, kMersennePrime61 - 1), 1u);
}

TEST(HashFamilyTest, AddMod61Wraps) {
  EXPECT_EQ(AddMod61(kMersennePrime61 - 1, 1), 0u);
  EXPECT_EQ(AddMod61(5, 6), 11u);
}

TEST(HashFamilyTest, UpdateMinsMatchesHashOne) {
  auto family = Family(32, 8);
  std::vector<uint64_t> mins(32, MinHash::kEmptySlot);
  const uint64_t value = 777;
  family->UpdateMinsBatch(&value, 1, mins.data());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(mins[i], family->HashOne(777, i));
  }
}

// --------------------------------------------------------------- signature

TEST(MinHashTest, InvalidByDefault) {
  MinHash sketch;
  EXPECT_FALSE(sketch.valid());
  EXPECT_EQ(sketch.num_hashes(), 0);
}

TEST(MinHashTest, EmptyUntilUpdated) {
  MinHash sketch(Family());
  EXPECT_TRUE(sketch.valid());
  EXPECT_TRUE(sketch.empty());
  sketch.Update(5);
  EXPECT_FALSE(sketch.empty());
}

TEST(MinHashTest, OrderInsensitive) {
  auto family = Family();
  MinHash a(family), b(family);
  for (uint64_t v : {5ULL, 9ULL, 100ULL}) a.Update(v);
  for (uint64_t v : {100ULL, 5ULL, 9ULL, 5ULL}) b.Update(v);
  EXPECT_EQ(a.values(), b.values());
}

TEST(MinHashTest, IdenticalSetsEstimateOne) {
  auto family = Family();
  std::vector<uint64_t> values = {1, 2, 3, 4, 5};
  auto a = MinHash::FromValues(family, values);
  auto b = MinHash::FromValues(family, values);
  auto jaccard = a.EstimateJaccard(b);
  ASSERT_TRUE(jaccard.ok());
  EXPECT_DOUBLE_EQ(*jaccard, 1.0);
}

TEST(MinHashTest, DisjointSetsEstimateNearZero) {
  auto family = Family(256);
  std::vector<uint64_t> a_values, b_values;
  for (uint64_t i = 0; i < 500; ++i) {
    a_values.push_back(i);
    b_values.push_back(1000000 + i);
  }
  auto a = MinHash::FromValues(family, a_values);
  auto b = MinHash::FromValues(family, b_values);
  auto jaccard = a.EstimateJaccard(b);
  ASSERT_TRUE(jaccard.ok());
  EXPECT_LT(*jaccard, 0.03);
}

TEST(MinHashTest, CrossFamilyComparisonRejected) {
  auto a = MinHash::FromValues(Family(128, 1), std::vector<uint64_t>{1, 2});
  auto b = MinHash::FromValues(Family(128, 2), std::vector<uint64_t>{1, 2});
  EXPECT_FALSE(a.EstimateJaccard(b).ok());
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(MinHashTest, StringsAndPrehashedAgree) {
  auto family = Family();
  const std::vector<std::string> strings = {"Ontario", "Toronto"};
  auto from_strings = MinHash::FromStrings(family, strings);
  MinHash incremental(family);
  incremental.UpdateString("Toronto");
  incremental.UpdateString("Ontario");
  EXPECT_EQ(from_strings.values(), incremental.values());
}

// Property: the Jaccard estimator is unbiased with stderr
// sqrt(s(1-s)/m); check the estimate within 5 sigma across overlap levels.
class MinHashJaccardProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MinHashJaccardProperty, EstimateWithinFiveSigma) {
  const int m = std::get<0>(GetParam());
  const double target_jaccard = std::get<1>(GetParam());
  auto family = Family(m, 77);

  // Two sets of equal size n with overlap o have Jaccard o / (2n - o);
  // solve o = 2n*j/(1+j).
  const size_t n = 4000;
  const auto overlap = static_cast<size_t>(
      std::llround(2.0 * n * target_jaccard / (1.0 + target_jaccard)));
  std::vector<uint64_t> a_values, b_values;
  for (size_t i = 0; i < n; ++i) a_values.push_back(i);
  for (size_t i = 0; i < overlap; ++i) b_values.push_back(i);
  for (size_t i = overlap; i < n; ++i) b_values.push_back(1000000 + i);
  const double true_jaccard =
      static_cast<double>(overlap) / static_cast<double>(2 * n - overlap);

  auto a = MinHash::FromValues(family, a_values);
  auto b = MinHash::FromValues(family, b_values);
  auto estimate = a.EstimateJaccard(b);
  ASSERT_TRUE(estimate.ok());
  const double sigma = std::sqrt(true_jaccard * (1 - true_jaccard) / m);
  EXPECT_NEAR(*estimate, true_jaccard, 5.0 * sigma + 1e-9)
      << "m=" << m << " target=" << target_jaccard;
}

INSTANTIATE_TEST_SUITE_P(
    OverlapSweep, MinHashJaccardProperty,
    ::testing::Combine(::testing::Values(128, 256, 512),
                       ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9)));

// Property: cardinality estimation error is within ~5/sqrt(m) relative.
class MinHashCardinalityProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(MinHashCardinalityProperty, RelativeErrorBounded) {
  const size_t n = GetParam();
  const int m = 256;
  auto family = Family(m, 99);
  MinHash sketch(family);
  for (size_t i = 0; i < n; ++i) sketch.Update(Mix64(i * 2654435761ULL));
  const double estimate = sketch.EstimateCardinality();
  const double relative_error =
      std::abs(estimate - static_cast<double>(n)) / static_cast<double>(n);
  EXPECT_LT(relative_error, 5.0 / std::sqrt(static_cast<double>(m)))
      << "n=" << n << " estimate=" << estimate;
}

INSTANTIATE_TEST_SUITE_P(CardinalitySweep, MinHashCardinalityProperty,
                         ::testing::Values(10, 100, 1000, 10000, 100000));

TEST(MinHashTest, EmptyCardinalityIsZero) {
  MinHash sketch(Family());
  EXPECT_EQ(sketch.EstimateCardinality(), 0.0);
}

TEST(MinHashTest, MergeEqualsSketchOfUnion) {
  auto family = Family();
  std::vector<uint64_t> a_values = {1, 2, 3, 10, 20};
  std::vector<uint64_t> b_values = {3, 4, 30, 40};
  auto a = MinHash::FromValues(family, a_values);
  auto b = MinHash::FromValues(family, b_values);
  ASSERT_TRUE(a.Merge(b).ok());

  std::vector<uint64_t> union_values = {1, 2, 3, 4, 10, 20, 30, 40};
  auto expected = MinHash::FromValues(family, union_values);
  EXPECT_EQ(a.values(), expected.values());
}

TEST(MinHashTest, SerializeRoundTrip) {
  auto family = Family(64, 123);
  auto sketch =
      MinHash::FromValues(family, std::vector<uint64_t>{5, 7, 9, 11});
  std::string blob;
  sketch.SerializeTo(&blob);
  auto restored = MinHash::Deserialize(blob, family);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->values(), sketch.values());
}

TEST(MinHashTest, DeserializeRejectsWrongFamily) {
  auto family = Family(64, 123);
  auto sketch = MinHash::FromValues(family, std::vector<uint64_t>{5});
  std::string blob;
  sketch.SerializeTo(&blob);
  EXPECT_FALSE(MinHash::Deserialize(blob, Family(64, 124)).ok());
  EXPECT_FALSE(MinHash::Deserialize(blob, Family(32, 123)).ok());
}

TEST(MinHashTest, DeserializeRejectsTruncatedOrCorrupt) {
  auto family = Family(64, 123);
  auto sketch = MinHash::FromValues(family, std::vector<uint64_t>{5});
  std::string blob;
  sketch.SerializeTo(&blob);
  EXPECT_FALSE(MinHash::Deserialize(blob.substr(0, 4), family).ok());
  EXPECT_FALSE(
      MinHash::Deserialize(blob.substr(0, blob.size() - 3), family).ok());
  std::string corrupt = blob;
  // Overwrite one slot with an out-of-range value (> kEmptySlot).
  uint64_t bad = ~0ULL;
  std::memcpy(corrupt.data() + 12, &bad, sizeof(bad));
  EXPECT_FALSE(MinHash::Deserialize(corrupt, family).ok());
}

TEST(MinHashTest, FromSlotsValidates) {
  auto family = Family(8, 1);
  std::vector<uint64_t> slots(8, 42);
  auto ok = MinHash::FromSlots(family, slots);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->values(), slots);

  EXPECT_FALSE(MinHash::FromSlots(family, std::vector<uint64_t>(7, 1)).ok());
  std::vector<uint64_t> out_of_range(8, MinHash::kEmptySlot + 1);
  EXPECT_FALSE(MinHash::FromSlots(family, out_of_range).ok());
  EXPECT_FALSE(MinHash::FromSlots(nullptr, slots).ok());
}

}  // namespace
}  // namespace lshensemble
