// The probe filter's contract is one-sided error: a key that was inserted
// must always test positive (false negatives would silently drop query
// candidates), and keys never inserted should rarely test positive (a
// false positive only wastes a forest probe). These tests pin both sides,
// the block-probe parity across kernel tables, and the zero-copy mapped
// view.

#include "filter/probe_filter.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "minhash/hash_kernel.h"

namespace lshensemble {
namespace {

std::vector<uint64_t> RandomKeys(size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(count);
  for (size_t i = 0; i < count; ++i) keys.push_back(rng());
  return keys;
}

TEST(ProbeFilterTest, EmptyFilterContainsNothing) {
  ProbeFilter filter;
  EXPECT_TRUE(filter.empty());
  EXPECT_EQ(filter.num_blocks(), 0u);
  for (uint64_t key : RandomKeys(64, 1)) {
    EXPECT_FALSE(filter.MayContain(key));
  }
}

TEST(ProbeFilterTest, NoFalseNegativesEver) {
  for (const int bits : {1, 4, 8, 16}) {
    SCOPED_TRACE("bits_per_key=" + std::to_string(bits));
    const std::vector<uint64_t> keys = RandomKeys(5000, 42);
    ProbeFilter filter = ProbeFilter::Build(keys, bits);
    EXPECT_FALSE(filter.empty());
    for (uint64_t key : keys) {
      EXPECT_TRUE(filter.MayContain(key)) << "lost key " << key;
    }
  }
}

TEST(ProbeFilterTest, FalsePositiveRateIsSane) {
  const std::vector<uint64_t> keys = RandomKeys(20000, 7);
  ProbeFilter filter = ProbeFilter::Build(keys, /*bits_per_key=*/8);
  // Disjoint probe set (different seed; collisions with `keys` are
  // negligible over a 64-bit space).
  const std::vector<uint64_t> probes = RandomKeys(20000, 8);
  size_t positives = 0;
  for (uint64_t probe : probes) {
    if (filter.MayContain(probe)) ++positives;
  }
  // Split-block at 8 bits/key sits around 2% FPR; 5% leaves seed margin.
  EXPECT_LT(static_cast<double>(positives) / probes.size(), 0.05)
      << positives << " of " << probes.size() << " foreign keys admitted";
}

TEST(ProbeFilterTest, DuplicateAndZeroKeysAreFine) {
  const std::vector<uint64_t> keys = {0, 0, 0, 17, 17, ~uint64_t{0}};
  ProbeFilter filter = ProbeFilter::Build(keys, 8);
  for (uint64_t key : keys) {
    EXPECT_TRUE(filter.MayContain(key));
  }
}

TEST(ProbeFilterTest, ProbeKeySeparatesTrees) {
  // The same slot-0 key under different trees must form distinct filter
  // keys, or a filter could not distinguish per-tree bucket occupancy.
  EXPECT_NE(ProbeFilter::ProbeKey(0, 123), ProbeFilter::ProbeKey(1, 123));
  EXPECT_EQ(ProbeFilter::ProbeKey(2, 9),
            (uint64_t{2} << 32) | uint64_t{9});
}

TEST(ProbeFilterTest, MappedViewAnswersIdentically) {
  const std::vector<uint64_t> keys = RandomKeys(3000, 99);
  ProbeFilter built = ProbeFilter::Build(keys, 8);

  // Simulate the snapshot path: copy the block lanes into a separate
  // buffer and wrap it without copying.
  auto backing = std::make_shared<std::vector<uint32_t>>(
      built.blocks().begin(), built.blocks().end());
  auto mapped = ProbeFilter::FromMapped(
      built.num_blocks(), std::span<const uint32_t>(*backing), backing);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  EXPECT_TRUE(mapped->is_view());
  EXPECT_EQ(mapped->MemoryBytes(), 0u);

  const std::vector<uint64_t> probes = RandomKeys(4000, 100);
  for (uint64_t key : keys) {
    EXPECT_TRUE(mapped->MayContain(key));
  }
  for (uint64_t probe : probes) {
    EXPECT_EQ(mapped->MayContain(probe), built.MayContain(probe));
  }
}

TEST(ProbeFilterTest, FromMappedValidatesLaneCount) {
  std::vector<uint32_t> lanes(kProbeFilterBlockLanes * 2);
  EXPECT_FALSE(ProbeFilter::FromMapped(/*num_blocks=*/3,
                                       std::span<const uint32_t>(lanes),
                                       nullptr)
                   .ok());
  EXPECT_TRUE(ProbeFilter::FromMapped(/*num_blocks=*/2,
                                      std::span<const uint32_t>(lanes),
                                      nullptr)
                  .ok());
}

// Every available kernel table's block probe (scalar, AVX2, and the
// AVX-512 table, which reuses the AVX2 form) must agree with the
// salted-bit definition on every (block, hash) pair — including blocks
// with all bits set and none set.
TEST(ProbeFilterTest, ScalarAndAvx2BlockProbesAgree) {
  std::vector<const HashKernelOps*> tables = {&ScalarKernelOps()};
  if (const HashKernelOps* avx2 = Avx2KernelOps()) tables.push_back(avx2);
  if (const HashKernelOps* avx512 = Avx512KernelOps()) {
    tables.push_back(avx512);
  }
  std::mt19937_64 rng(2026);
  uint32_t block[kProbeFilterBlockLanes];
  for (int trial = 0; trial < 20000; ++trial) {
    for (auto& lane : block) {
      // Mix dense and sparse blocks so both outcomes are exercised.
      lane = static_cast<uint32_t>(rng()) &
             static_cast<uint32_t>(rng()) &
             ((trial % 3 == 0) ? ~0u : static_cast<uint32_t>(rng()));
    }
    if (trial == 0) std::memset(block, 0, sizeof(block));
    if (trial == 1) std::memset(block, 0xFF, sizeof(block));
    const auto h = static_cast<uint32_t>(rng());
    bool expected = true;
    for (size_t i = 0; i < kProbeFilterBlockLanes; ++i) {
      const uint32_t bit = 1u << ((h * kBlockProbeSalts[i]) >> 27);
      expected = expected && (block[i] & bit) != 0;
    }
    for (const HashKernelOps* ops : tables) {
      ASSERT_EQ(ops->block_may_contain(block, h), expected)
          << ops->name << " trial " << trial << " hash " << h;
    }
  }
}

}  // namespace
}  // namespace lshensemble
