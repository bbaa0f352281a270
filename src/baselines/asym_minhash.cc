#include "baselines/asym_minhash.h"

#include <algorithm>
#include <cmath>

#include "util/hashing.h"

namespace lshensemble {

namespace {

/// Seed of the pad minima every AsymMinhash index draws.
constexpr uint64_t kPadSeed = 0x5eed5eed5eed5eedULL;

}  // namespace

Status AsymMinhashOptions::Validate() const {
  if (num_hashes < 1 || tree_depth < 1) {
    return Status::InvalidArgument("num_hashes and tree_depth must be >= 1");
  }
  if (num_hashes % tree_depth != 0) {
    return Status::InvalidArgument("tree_depth must divide num_hashes");
  }
  return Status::OK();
}

uint64_t SamplePadMinimum(uint64_t pad_seed, uint64_t domain_id, int slot,
                          uint64_t pad_count) {
  if (pad_count == 0) return HashFamily::kMaxHash;
  // Deterministic uniform in (0, 1] for this (domain, slot).
  const uint64_t bits = Mix64(
      pad_seed ^ HashCombine(domain_id, static_cast<uint64_t>(slot) + 1));
  const double u = (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
  // Minimum of pad_count iid U(0,1): V = 1 - U^(1/p) by survival inversion.
  const double v =
      -std::expm1(std::log(u) / static_cast<double>(pad_count));  // 1 - u^(1/p)
  const double scaled = v * static_cast<double>(HashFamily::kMaxHash);
  if (scaled >= static_cast<double>(HashFamily::kMaxHash)) {
    return HashFamily::kMaxHash;
  }
  return static_cast<uint64_t>(scaled);
}

AsymMinhash::Builder::Builder(AsymMinhashOptions options,
                              std::shared_ptr<const HashFamily> family)
    : options_(options), family_(std::move(family)) {}

Status AsymMinhash::Builder::Add(uint64_t id, size_t size, MinHash signature) {
  if (family_ == nullptr) {
    return Status::InvalidArgument("builder has no hash family");
  }
  if (size < 1) {
    return Status::InvalidArgument("domain size must be >= 1");
  }
  if (!signature.valid() || !signature.family()->SameAs(*family_)) {
    return Status::InvalidArgument(
        "signature does not belong to the builder's hash family");
  }
  records_.push_back({id, size, std::move(signature)});
  return Status::OK();
}

Result<AsymMinhash> AsymMinhash::Builder::Build() && {
  LSHE_RETURN_IF_ERROR(options_.Validate());
  if (family_ == nullptr) {
    return Status::InvalidArgument("builder has no hash family");
  }
  if (options_.num_hashes != family_->num_hashes()) {
    return Status::InvalidArgument(
        "options.num_hashes does not match the hash family");
  }
  if (records_.empty()) {
    return Status::FailedPrecondition("no domains added");
  }

  uint64_t padded_size = 0;
  for (const Record& record : records_) {
    padded_size = std::max(padded_size, record.size);
  }

  const int num_trees = options_.num_hashes / options_.tree_depth;
  auto forest_result = LshForest::Create(num_trees, options_.tree_depth);
  if (!forest_result.ok()) return forest_result.status();
  LshForest forest = std::move(forest_result).value();

  // The asymmetric transformation: pad each signature up to `padded_size`
  // by folding in the sampled minimum of the fresh pad values, slot-wise.
  for (Record& record : records_) {
    const uint64_t pad_count = padded_size - record.size;
    if (pad_count == 0) continue;
    std::vector<uint64_t> slots = record.signature.values();
    for (size_t slot = 0; slot < slots.size(); ++slot) {
      const uint64_t pad_min = SamplePadMinimum(
          kPadSeed, record.id, static_cast<int>(slot), pad_count);
      if (pad_min < slots[slot]) slots[slot] = pad_min;
    }
    auto padded = MinHash::FromSlots(family_, std::move(slots));
    if (!padded.ok()) return padded.status();
    record.signature = std::move(padded).value();
  }

  Tuner::Options tuner_options;
  tuner_options.max_b = num_trees;
  tuner_options.max_r = options_.tree_depth;
  auto tuner = Tuner::Create(tuner_options);
  if (!tuner.ok()) return tuner.status();

  for (const Record& record : records_) {
    LSHE_RETURN_IF_ERROR(forest.Add(record.id, record.signature));
  }
  forest.Index();

  return AsymMinhash(options_, std::move(family_), std::move(forest),
                     std::move(tuner).value(), padded_size);
}

Status AsymMinhash::Query(const MinHash& query, size_t query_size,
                          double t_star, std::vector<uint64_t>* out,
                          TunedParams* tuned_out) const {
  if (out == nullptr) {
    return Status::InvalidArgument("out must not be null");
  }
  if (!query.valid() || !query.family()->SameAs(*family_)) {
    return Status::InvalidArgument(
        "query signature does not belong to the index's hash family");
  }
  if (t_star < 0.0 || t_star > 1.0) {
    return Status::InvalidArgument("t_star must be in [0, 1]");
  }
  out->clear();
  size_t q = query_size;
  if (q == 0) {
    q = static_cast<size_t>(
        std::max<int64_t>(1, std::llround(query.EstimateCardinality())));
  }
  // Every padded domain has size M, so the conversion uses x = M exactly
  // (appendix Eq. 31); the same tuner objective applies with x = M.
  const TunedParams tuned = tuner_->Tune(static_cast<double>(padded_size_),
                                         static_cast<double>(q), t_star);
  if (tuned_out != nullptr) *tuned_out = tuned;
  return forest_.Query(query, tuned.b, tuned.r, out);
}

}  // namespace lshensemble
