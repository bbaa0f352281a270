#include "minhash/minhash.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "minhash/hash_kernel.h"
#include "util/hashing.h"

namespace lshensemble {

MinHash::MinHash(std::shared_ptr<const HashFamily> family)
    : family_(std::move(family)) {
  assert(family_ != nullptr);
  mins_.assign(family_->num_hashes(), kEmptySlot);
}

MinHash MinHash::FromValues(std::shared_ptr<const HashFamily> family,
                            std::span<const uint64_t> values) {
  MinHash sketch(std::move(family));
  sketch.UpdateBatch(values);
  return sketch;
}

MinHash MinHash::FromStrings(std::shared_ptr<const HashFamily> family,
                             std::span<const std::string> values) {
  std::vector<uint64_t> hashes;
  hashes.reserve(values.size());
  for (const std::string& v : values) hashes.push_back(HashString(v));
  return FromValues(std::move(family), hashes);
}

Result<MinHash> MinHash::FromSlots(std::shared_ptr<const HashFamily> family,
                                   std::vector<uint64_t> slots) {
  if (family == nullptr) {
    return Status::InvalidArgument("FromSlots requires a hash family");
  }
  if (slots.size() != static_cast<size_t>(family->num_hashes())) {
    return Status::InvalidArgument(
        "slot count does not match the hash family size");
  }
  for (uint64_t v : slots) {
    if (v > kEmptySlot) {
      return Status::InvalidArgument("slot value exceeds the hash range");
    }
  }
  MinHash sketch(std::move(family));
  sketch.mins_ = std::move(slots);
  return sketch;
}

int MinHash::num_hashes() const {
  return family_ ? family_->num_hashes() : 0;
}

bool MinHash::SameFamily(const MinHash& other) const {
  if (family_ == nullptr || other.family_ == nullptr) return false;
  return family_ == other.family_ || family_->SameAs(*other.family_);
}

bool MinHash::empty() const {
  return mins_.empty() || mins_[0] == kEmptySlot;
}

void MinHash::Update(uint64_t value) {
  assert(valid());
  family_->UpdateMinsBatch(&value, 1, mins_.data());
}

void MinHash::UpdateString(std::string_view value) {
  Update(HashString(value));
}

void MinHash::UpdateBatch(std::span<const uint64_t> values) {
  assert(valid());
  family_->UpdateMinsBatch(values.data(), values.size(), mins_.data());
}

Result<double> MinHash::EstimateJaccard(const MinHash& other) const {
  if (!valid() || !other.valid()) {
    return Status::InvalidArgument("comparing invalid MinHash");
  }
  if (!SameFamily(other)) {
    return Status::InvalidArgument(
        "MinHash signatures built from different hash families");
  }
  return EstimateJaccard(other.view());
}

Result<double> MinHash::EstimateJaccard(SignatureView other) const {
  if (!valid() || !other) {
    return Status::InvalidArgument("comparing invalid MinHash");
  }
  if (other.num_hashes != mins_.size()) {
    return Status::InvalidArgument(
        "MinHash signatures have different lengths");
  }
  // A batch of one row through the dispatched collision kernel: this runs
  // once per candidate on the top-k ranking hot path.
  const size_t m = mins_.size();
  uint32_t collisions = 0;
  ActiveKernelOps().count_collisions_many(mins_.data(), &other.values, m, 1,
                                          &collisions);
  return static_cast<double>(collisions) / static_cast<double>(m);
}

double MinHash::EstimateCardinality() const {
  if (mins_.empty() || empty()) return 0.0;
  // With n distinct values, each normalized slot min is ~ Beta(1, n) with
  // mean 1/(n+1); invert the mean of the normalized minima.
  const double max_hash = static_cast<double>(HashFamily::kMaxHash);
  double sum = 0.0;
  for (uint64_t v : mins_) {
    sum += static_cast<double>(v) / max_hash;
  }
  const double m = static_cast<double>(mins_.size());
  if (sum <= 0.0) return 0.0;
  return m / sum - 1.0;
}

Status MinHash::Merge(const MinHash& other) {
  if (!valid() || !other.valid()) {
    return Status::InvalidArgument("merging invalid MinHash");
  }
  if (!SameFamily(other)) {
    return Status::InvalidArgument(
        "cannot merge MinHash signatures from different hash families");
  }
  // Branchless slot-wise min (cmov/vectorizable): slot outcomes are
  // near-random, so a per-slot branch would mispredict.
  const uint64_t* src = other.mins_.data();
  uint64_t* dst = mins_.data();
  for (size_t i = 0; i < mins_.size(); ++i) {
    dst[i] = std::min(dst[i], src[i]);
  }
  return Status::OK();
}

void MinHash::SerializeTo(std::string* out) const {
  assert(valid());
  const uint32_t m = static_cast<uint32_t>(mins_.size());
  const uint64_t seed = family_->seed();
  out->reserve(out->size() + sizeof(m) + sizeof(seed) +
               mins_.size() * sizeof(uint64_t));
  out->append(reinterpret_cast<const char*>(&m), sizeof(m));
  out->append(reinterpret_cast<const char*>(&seed), sizeof(seed));
  out->append(reinterpret_cast<const char*>(mins_.data()),
              mins_.size() * sizeof(uint64_t));
}

Result<MinHash> MinHash::Deserialize(
    std::string_view data, std::shared_ptr<const HashFamily> family) {
  if (family == nullptr) {
    return Status::InvalidArgument("Deserialize requires a hash family");
  }
  uint32_t m = 0;
  uint64_t seed = 0;
  if (data.size() < sizeof(m) + sizeof(seed)) {
    return Status::Corruption("MinHash blob truncated (header)");
  }
  std::memcpy(&m, data.data(), sizeof(m));
  std::memcpy(&seed, data.data() + sizeof(m), sizeof(seed));
  if (static_cast<int>(m) != family->num_hashes() || seed != family->seed()) {
    return Status::InvalidArgument(
        "serialized MinHash does not match the supplied hash family");
  }
  const size_t expected = sizeof(m) + sizeof(seed) + m * sizeof(uint64_t);
  if (data.size() != expected) {
    return Status::Corruption("MinHash blob truncated (values)");
  }
  MinHash sketch(std::move(family));
  std::memcpy(sketch.mins_.data(), data.data() + sizeof(m) + sizeof(seed),
              m * sizeof(uint64_t));
  for (uint64_t v : sketch.mins_) {
    if (v > kEmptySlot) {
      return Status::Corruption("MinHash blob contains out-of-range values");
    }
  }
  return sketch;
}

}  // namespace lshensemble
