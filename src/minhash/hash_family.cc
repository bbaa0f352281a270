#include "minhash/hash_family.h"

#include "minhash/hash_kernel.h"
#include "util/random.h"

namespace lshensemble {

Result<std::shared_ptr<const HashFamily>> HashFamily::Create(int num_hashes,
                                                             uint64_t seed) {
  if (num_hashes <= 0) {
    return Status::InvalidArgument("num_hashes must be positive");
  }
  Rng rng(seed);
  std::vector<uint64_t> mul(num_hashes);
  std::vector<uint64_t> add(num_hashes);
  for (int i = 0; i < num_hashes; ++i) {
    mul[i] = rng.NextInRange(1, kMersennePrime61 - 1);
    add[i] = rng.NextInRange(0, kMersennePrime61 - 1);
  }
  return std::shared_ptr<const HashFamily>(
      new HashFamily(std::move(mul), std::move(add), seed));
}

void HashFamily::UpdateMinsBatch(const uint64_t* values, size_t n,
                                 uint64_t* mins) const {
  ActiveKernelOps().update_batch(mul_.data(), add_.data(), mul_.size(),
                                 values, n, mins);
}

}  // namespace lshensemble
