#include "lsh/lsh_forest.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "io/coding.h"
#include "minhash/hash_kernel.h"

namespace lshensemble {

std::atomic<uint64_t>& ArenaCopyBytes() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

LshForest::LshForest(int num_trees, int tree_depth)
    : num_trees_(num_trees), tree_depth_(tree_depth) {}

Result<LshForest> LshForest::Create(int num_trees, int tree_depth) {
  if (num_trees <= 0 || tree_depth <= 0) {
    return Status::InvalidArgument(
        "LshForest requires num_trees > 0 and tree_depth > 0");
  }
  return LshForest(num_trees, tree_depth);
}

Status LshForest::Add(uint64_t id, const MinHash& signature) {
  if (indexed_) {
    return Status::FailedPrecondition("LshForest already indexed");
  }
  if (!signature.valid() ||
      signature.num_hashes() < num_trees_ * tree_depth_) {
    return Status::InvalidArgument(
        "signature shorter than num_trees * tree_depth hash values");
  }
  if (ids_.size() >= std::numeric_limits<uint32_t>::max()) {
    // Entry indices and slot-0 positions are u32.
    return Status::OutOfRange("LshForest holds at most 2^32 - 1 entries");
  }
  const auto& mins = signature.values();
  const size_t row = static_cast<size_t>(num_trees_) * tree_depth_;
  // Record-major append: the whole row is contiguous, so one record costs
  // at most one arena growth instead of num_trees_ vector touches.
  std::vector<uint32_t>& keys = keys_.owned();
  for (size_t slot = 0; slot < row; ++slot) {
    keys.push_back(TruncateHash(mins[slot]));
  }
  ids_.owned().push_back(id);
  return Status::OK();
}

void LshForest::Index() {
  if (indexed_) return;
  const size_t n = ids_.size();
  const size_t depth = static_cast<size_t>(tree_depth_);
  const size_t row = static_cast<size_t>(num_trees_) * depth;

  entry_of_.owned().resize(static_cast<size_t>(num_trees_) * n);
  // The record-major build arena is re-laid tree-major + sorted into a
  // second arena; every tree needs the full build arena as sort input, so
  // the rewrite cannot be done in place (peak memory is 2x the key arena
  // for the duration of Index()).
  std::vector<uint32_t> sorted(keys_.size());
  for (int t = 0; t < num_trees_; ++t) {
    uint32_t* entries = entry_of_.owned().data() + static_cast<size_t>(t) * n;
    std::iota(entries, entries + n, 0u);
    const uint32_t* keys = keys_.data() + static_cast<size_t>(t) * depth;
    std::sort(entries, entries + n, [keys, row, depth](uint32_t a, uint32_t b) {
      const uint32_t* ka = keys + static_cast<size_t>(a) * row;
      const uint32_t* kb = keys + static_cast<size_t>(b) * row;
      return std::lexicographical_compare(ka, ka + depth, kb, kb + depth);
    });
    // Apply the permutation so binary searches scan contiguous memory.
    uint32_t* tree_out = sorted.data() + static_cast<size_t>(t) * n * depth;
    for (size_t pos = 0; pos < n; ++pos) {
      std::memcpy(tree_out + pos * depth,
                  keys + static_cast<size_t>(entries[pos]) * row,
                  depth * sizeof(uint32_t));
    }
  }
  keys_.owned() = std::move(sorted);
  BuildFirstKeys();
  indexed_ = true;
}

void LshForest::BuildFirstKeys() {
  const size_t n = ids_.size();
  const size_t depth = static_cast<size_t>(tree_depth_);
  first_keys_.owned().resize(static_cast<size_t>(num_trees_) * n);
  for (int t = 0; t < num_trees_; ++t) {
    const uint32_t* keys = keys_.data() + static_cast<size_t>(t) * n * depth;
    uint32_t* first = first_keys_.owned().data() + static_cast<size_t>(t) * n;
    for (size_t pos = 0; pos < n; ++pos) first[pos] = keys[pos * depth];
  }
}

void LshForest::ProbeScratch::Begin(size_t n, int num_trees,
                                     int tree_depth) {
  if (marks_.size() < n) {
    marks_.assign(n, 0);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {
    // Epoch counter wrapped: stale marks from 2^32 probes ago could alias
    // the new epoch, so wipe once and restart.
    std::fill(marks_.begin(), marks_.end(), 0u);
    epoch_ = 1;
  }
  const size_t trees = static_cast<size_t>(num_trees);
  if (slot0_keys_.size() < trees) {
    slot0_keys_.resize(trees);
    range_lo_.resize(trees);
    range_hi_.resize(trees);
  }
  if (prefix_.size() < static_cast<size_t>(tree_depth)) {
    prefix_.resize(static_cast<size_t>(tree_depth));
  }
}

Status LshForest::Probe(const MinHash& signature, int b, int r,
                        ProbeScratch* scratch,
                        std::vector<uint64_t>* out) const {
  if (!indexed_) {
    return Status::FailedPrecondition("LshForest::Index() not called");
  }
  if (scratch == nullptr || out == nullptr) {
    return Status::InvalidArgument("scratch and out must not be null");
  }
  if (b < 1 || b > num_trees_ || r < 1 || r > tree_depth_) {
    return Status::InvalidArgument("query (b, r) outside forest capacity");
  }
  if (!signature.valid() ||
      signature.num_hashes() < num_trees_ * tree_depth_) {
    return Status::InvalidArgument(
        "signature shorter than num_trees * tree_depth hash values");
  }

  const size_t n = ids_.size();
  scratch->slot0_empty_ = true;
  if (n == 0) return Status::OK();
  const auto& mins = signature.values();
  const size_t depth = static_cast<size_t>(tree_depth_);
  // Prefix refinement is dispatched once per probe: the AVX2 kernel
  // compares a whole depth-(r-1) suffix with one masked 256-bit load and
  // movemask instead of a scalar slot loop (minhash/hash_kernel.h).
  const HashKernelOps& kernel = ActiveKernelOps();
  scratch->Begin(n, num_trees_, tree_depth_);
  uint32_t* prefix = scratch->prefix_.data();
  uint32_t* keys0 = scratch->slot0_keys_.data();
  uint32_t* range_lo = scratch->range_lo_.data();
  uint32_t* range_hi = scratch->range_hi_.data();
  for (int t = 0; t < b; ++t) {
    keys0[t] = TruncateHash(mins[static_cast<size_t>(t) * depth]);
  }
  // One lockstep branchless descent answers every probed tree's slot-0
  // equal range (lower and upper bound together); the dispatched kernel
  // gathers 8/16 trees per round on AVX2/AVX-512, and the scalar form
  // interleaves its loads for the same memory-level parallelism. n fits
  // u32: Add() and both load paths cap a forest at 2^32 - 1 entries.
  kernel.lower_bound_many(first_keys_.data(), static_cast<uint32_t>(n), keys0,
                          static_cast<size_t>(b), range_lo, range_hi);

  // Refine hand-off: the refine/emit loop below first touches each tree's
  // full key rows and entry permutation at range_lo — b independent
  // likely-misses. Issue them all up front so they overlap instead of
  // serializing tree by tree.
  for (int t = 0; t < b; ++t) {
    const size_t lo = range_lo[t];
    if (lo < range_hi[t]) {
      scratch->slot0_empty_ = false;
      __builtin_prefetch(TreeKeys(t) + lo * depth);
      __builtin_prefetch(TreeEntries(t) + lo);
    }
  }

  for (int t = 0; t < b; ++t) {
    size_t lo = range_lo[t];
    size_t hi = range_hi[t];
    if (lo >= hi) continue;
    if (r > 1) {
      const size_t base = static_cast<size_t>(t) * depth;
      prefix[0] = keys0[t];
      for (int d = 1; d < r; ++d) prefix[d] = TruncateHash(mins[base + d]);
      kernel.refine_prefix_range(TreeKeys(t), depth, prefix, r, &lo, &hi);
    }
    const uint32_t* entries = TreeEntries(t);
    for (size_t pos = lo; pos < hi; ++pos) {
      const uint32_t entry = entries[pos];
      // Entry indices feed ids_[entry] and the dedup bitmap; the writer
      // bounds them (< n, checked at serialization time) but a
      // lazily-verified snapshot (verify_checksums=false) may carry a
      // corrupt value. Skipping it here keeps corrupt images
      // memory-safe without the former O(n·trees) scan on every mapped
      // open; the branch is never taken on intact data.
      if (entry >= n) continue;
      if (scratch->MarkOnce(entry)) out->push_back(ids_.data()[entry]);
    }
  }
  return Status::OK();
}

Status LshForest::Query(const MinHash& signature, int b, int r,
                        std::vector<uint64_t>* out) const {
  ProbeScratch scratch;
  return Probe(signature, b, r, &scratch, out);
}

Status LshForest::SerializeTo(std::string* out) const {
  if (!indexed_) {
    return Status::FailedPrecondition(
        "only an indexed forest can be serialized");
  }
  const size_t n = ids_.size();
  const size_t depth = static_cast<size_t>(tree_depth_);
  PutVarint32(out, static_cast<uint32_t>(num_trees_));
  PutVarint32(out, static_cast<uint32_t>(tree_depth_));
  PutVarint64(out, n);
  for (uint64_t id : id_array()) PutFixed64(out, id);
  for (int t = 0; t < num_trees_; ++t) {
    const uint32_t* keys = TreeKeys(t);
    for (size_t i = 0; i < n * depth; ++i) PutFixed32(out, keys[i]);
    const uint32_t* entries = TreeEntries(t);
    for (size_t i = 0; i < n; ++i) PutFixed32(out, entries[i]);
  }
  return Status::OK();
}

Result<LshForest> LshForest::Deserialize(std::string_view data) {
  DecodeCursor cursor(data);
  uint32_t num_trees = 0;
  uint32_t tree_depth = 0;
  uint64_t n = 0;
  if (!cursor.GetVarint32(&num_trees) || !cursor.GetVarint32(&tree_depth) ||
      !cursor.GetVarint64(&n)) {
    return Status::Corruption("forest image: truncated header");
  }
  if (num_trees == 0 || tree_depth == 0 || num_trees > 4096 ||
      tree_depth > 4096 || n > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("forest image: implausible shape");
  }
  // Reject sizes the payload cannot possibly hold before allocating.
  const uint64_t per_tree_bytes =
      n * (static_cast<uint64_t>(tree_depth) + 1) * sizeof(uint32_t);
  if (cursor.remaining() < n * sizeof(uint64_t) + num_trees * per_tree_bytes) {
    return Status::Corruption("forest image: truncated payload");
  }

  auto forest_result =
      Create(static_cast<int>(num_trees), static_cast<int>(tree_depth));
  if (!forest_result.ok()) return forest_result.status();
  LshForest forest = std::move(forest_result).value();

  const size_t count = static_cast<size_t>(n);
  const size_t depth = static_cast<size_t>(tree_depth);
  forest.ids_.owned().resize(count);
  for (uint64_t& id : forest.ids_.owned()) {
    if (!cursor.GetFixed64(&id)) {
      return Status::Corruption("forest image: truncated ids");
    }
  }
  forest.keys_.owned().resize(count * num_trees * depth);
  forest.entry_of_.owned().resize(count * num_trees);
  for (uint32_t t = 0; t < num_trees; ++t) {
    uint32_t* keys =
        forest.keys_.owned().data() + static_cast<size_t>(t) * count * depth;
    for (size_t i = 0; i < count * depth; ++i) {
      if (!cursor.GetFixed32(&keys[i])) {
        return Status::Corruption("forest image: truncated keys");
      }
    }
    uint32_t* entries =
        forest.entry_of_.owned().data() + static_cast<size_t>(t) * count;
    for (size_t i = 0; i < count; ++i) {
      if (!cursor.GetFixed32(&entries[i])) {
        return Status::Corruption("forest image: truncated entries");
      }
      if (entries[i] >= n) {
        return Status::Corruption("forest image: entry index out of range");
      }
    }
  }
  if (!cursor.empty()) {
    return Status::Corruption("forest image: trailing bytes");
  }
  forest.BuildFirstKeys();
  forest.indexed_ = true;
  CountArenaCopy(forest.ids_.size() * sizeof(uint64_t) +
                 (forest.keys_.size() + forest.entry_of_.size() +
                  forest.first_keys_.size()) *
                     sizeof(uint32_t));
  return forest;
}

Result<LshForest> LshForest::FromMapped(int num_trees, int tree_depth,
                                        std::span<const uint64_t> ids,
                                        std::span<const uint32_t> keys,
                                        std::span<const uint32_t> entries,
                                        std::span<const uint32_t> first_keys,
                                        std::shared_ptr<const void> backing) {
  auto forest_result = Create(num_trees, tree_depth);
  if (!forest_result.ok()) return forest_result.status();
  LshForest forest = std::move(forest_result).value();

  const size_t n = ids.size();
  const size_t trees = static_cast<size_t>(num_trees);
  const size_t depth = static_cast<size_t>(tree_depth);
  if (n > std::numeric_limits<uint32_t>::max() ||
      keys.size() != n * trees * depth || entries.size() != n * trees ||
      first_keys.size() != n * trees) {
    return Status::Corruption("mapped forest: arena extents do not match");
  }
  // Entry values are NOT scanned here: the writer bounds them at
  // serialization time and Probe clamps at the single read site, so a
  // mapped open touches only manifest pages (no O(n·trees) fault-in).
  forest.ids_.SetView(ids.data(), ids.size());
  forest.keys_.SetView(keys.data(), keys.size());
  forest.entry_of_.SetView(entries.data(), entries.size());
  forest.first_keys_.SetView(first_keys.data(), first_keys.size());
  forest.backing_ = std::move(backing);
  forest.indexed_ = true;
  return forest;
}

size_t LshForest::MemoryBytes() const {
  return ids_.OwnedCapacityBytes() + keys_.OwnedCapacityBytes() +
         first_keys_.OwnedCapacityBytes() + entry_of_.OwnedCapacityBytes();
}

}  // namespace lshensemble
