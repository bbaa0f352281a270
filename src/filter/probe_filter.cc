#include "filter/probe_filter.h"

#include <algorithm>

namespace lshensemble {

void ProbeFilter::Insert(uint64_t hash) {
  uint32_t* lanes =
      blocks_.owned().data() + BlockIndex(hash) * kProbeFilterBlockLanes;
  const uint32_t h = static_cast<uint32_t>(hash);
  for (size_t i = 0; i < kProbeFilterBlockLanes; ++i) {
    lanes[i] |= 1u << ((h * kBlockProbeSalts[i]) >> 27);
  }
}

ProbeFilter ProbeFilter::Build(std::span<const uint64_t> keys,
                               int bits_per_key) {
  const int bits = std::clamp(bits_per_key, 1, 64);
  ProbeFilter filter;
  // One 256-bit block per 256/bits keys, rounded up; at least one block so
  // a built filter is never confused with "no filter" (empty()).
  const uint64_t total_bits = static_cast<uint64_t>(keys.size()) * bits;
  filter.num_blocks_ = std::max<uint64_t>(1, (total_bits + 255) / 256);
  filter.blocks_.owned().assign(
      filter.num_blocks_ * kProbeFilterBlockLanes, 0);
  for (const uint64_t key : keys) filter.Insert(HashKey(key));
  return filter;
}

Result<ProbeFilter> ProbeFilter::FromMapped(
    uint64_t num_blocks, std::span<const uint32_t> blocks,
    std::shared_ptr<const void> backing) {
  if (num_blocks == 0 ||
      blocks.size() != num_blocks * kProbeFilterBlockLanes) {
    return Status::Corruption("probe filter: block count/segment mismatch");
  }
  ProbeFilter filter;
  filter.num_blocks_ = num_blocks;
  filter.blocks_.SetView(blocks.data(), blocks.size());
  filter.backing_ = std::move(backing);
  return filter;
}

}  // namespace lshensemble
