#include "core/dynamic_ensemble.h"

#include <algorithm>
#include <cmath>

#include "core/threshold.h"
#include "minhash/hash_kernel.h"
#include "util/clock.h"
#include "util/thread_pool.h"

namespace lshensemble {

Status DynamicEnsembleOptions::Validate() const {
  LSHE_RETURN_IF_ERROR(base.Validate());
  if (rebuild_fraction <= 0.0) {
    return Status::InvalidArgument("rebuild_fraction must be > 0");
  }
  return Status::OK();
}

Result<DynamicLshEnsemble> DynamicLshEnsemble::Create(
    DynamicEnsembleOptions options, std::shared_ptr<const HashFamily> family) {
  LSHE_RETURN_IF_ERROR(options.Validate());
  if (family == nullptr) {
    return Status::InvalidArgument("family must not be null");
  }
  if (options.base.num_hashes != family->num_hashes()) {
    return Status::InvalidArgument(
        "options.base.num_hashes does not match the hash family");
  }
  return DynamicLshEnsemble(std::move(options), std::move(family));
}

Status DynamicLshEnsemble::Insert(uint64_t id, size_t size,
                                  MinHash signature) {
  if (size < 1) {
    return Status::InvalidArgument("domain size must be >= 1");
  }
  if (!signature.valid() || !signature.family()->SameAs(*family_)) {
    return Status::InvalidArgument(
        "signature does not belong to the index's hash family");
  }
  if (records_.count(id) > 0 || MappedLive(id)) {
    return Status::InvalidArgument("id is already live");
  }
  // A re-insert after Remove(): the stale indexed entry stays tombstoned;
  // the new version is authoritative in the delta until the next rebuild.
  AppendDelta(id, size, std::move(signature));
  if (ShouldRebuild()) {
    return Flush();
  }
  return Status::OK();
}

void DynamicLshEnsemble::AppendDelta(uint64_t id, size_t size,
                                     MinHash signature) {
  const auto it =
      records_.emplace(id, Record{size, std::move(signature)}).first;
  delta_.push_back(id);
  delta_sizes_.push_back(size);
  delta_rows_.push_back(it->second.signature.values().data());
}

Status DynamicLshEnsemble::Insert(uint64_t id,
                                  std::span<const uint64_t> values) {
  if (values.empty()) {
    return Status::InvalidArgument("domain must have at least one value");
  }
  MinHash sketch(family_);
  sketch.UpdateBatch(values);
  return Insert(id, values.size(), std::move(sketch));
}

Status DynamicLshEnsemble::Remove(uint64_t id) {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    // Not in the overlay; a snapshot-resident record is tombstoned in
    // place (it stays in the mapped arenas and side-car until a rebuild).
    if (MappedLive(id)) {
      tombstones_.insert(id);
      ++mapped_removed_;
      return Status::OK();
    }
    return Status::NotFound("id is not live");
  }
  records_.erase(it);
  const auto delta_it = std::find(delta_.begin(), delta_.end(), id);
  if (delta_it != delta_.end()) {
    // Erase in place so the survivors keep their delta (scan) order.
    const auto pos = delta_it - delta_.begin();
    delta_.erase(delta_it);
    delta_sizes_.erase(delta_sizes_.begin() + pos);
    delta_rows_.erase(delta_rows_.begin() + pos);
    // If the id was ALSO indexed (re-insert after Remove), the tombstone
    // from the earlier Remove is still in place; nothing more to do.
  } else {
    tombstones_.insert(id);
  }
  return Status::OK();
}

Status DynamicLshEnsemble::Query(const MinHash& query, size_t query_size,
                                 double t_star,
                                 std::vector<uint64_t>* out) const {
  QueryContext ctx;
  return Query(query, query_size, t_star, &ctx, out);
}

Status DynamicLshEnsemble::Query(const MinHash& query, size_t query_size,
                                 double t_star, QueryContext* ctx,
                                 std::vector<uint64_t>* out) const {
  if (out == nullptr) {
    return Status::InvalidArgument("ctx and out must not be null");
  }
  const QuerySpec spec{&query, query_size, t_star};
  return BatchQuery(std::span<const QuerySpec>(&spec, 1), ctx, out);
}

Status DynamicLshEnsemble::BatchQuery(std::span<const QuerySpec> specs,
                                      QueryContext* ctx,
                                      std::vector<uint64_t>* outs,
                                      QueryStats* stats) const {
  if (ctx == nullptr) {
    return Status::InvalidArgument("ctx must not be null");
  }
  if (specs.empty()) return Status::OK();
  if (outs == nullptr) {
    return Status::InvalidArgument("outs must not be null");
  }
  const size_t count = specs.size();

  // Validate the whole batch and resolve every query's effective
  // cardinality up front, re-staging the specs with the resolved
  // cardinalities: the conservative-threshold conversion's per-query
  // terms are hoisted out of the per-record delta loop below (only the
  // record-size term x/q remains per pair), and the inner engine sees
  // exact sizes, so it never re-runs the cardinality estimate.
  ctx->dynamic_q_.resize(count);
  ctx->dynamic_specs_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    const QuerySpec& spec = specs[i];
    if (spec.query == nullptr || !spec.query->valid() ||
        !spec.query->family()->SameAs(*family_)) {
      return Status::InvalidArgument(
          "query signature does not belong to the index's hash family");
    }
    if (spec.t_star < 0.0 || spec.t_star > 1.0) {
      return Status::InvalidArgument("t_star must be in [0, 1]");
    }
    size_t q = spec.query_size;
    if (q == 0) {
      q = static_cast<size_t>(std::max<int64_t>(
          1, std::llround(spec.query->EstimateCardinality())));
    }
    if (DeadlineExpired(spec.deadline_ns)) {
      return Status::DeadlineExceeded("query deadline expired");
    }
    ctx->dynamic_q_[i] = static_cast<double>(q);
    // Re-stage with the deadline intact: the inner engine keeps checking
    // it between partition probes.
    ctx->dynamic_specs_[i] =
        QuerySpec{spec.query, q, spec.t_star, spec.deadline_ns};
  }
  const std::span<const QuerySpec> resolved(ctx->dynamic_specs_.data(),
                                            count);

  if (ensemble_.has_value()) {
    if (tombstones_.empty()) {
      // Nothing to filter: let the batched engine fill the caller's
      // buffers directly (it clears each output vector itself).
      LSHE_RETURN_IF_ERROR(ensemble_->BatchQuery(resolved, ctx, outs, stats));
    } else {
      // Stage the indexed candidates in the context (capacities persist
      // across calls) and copy through the tombstone filter.
      if (ctx->dynamic_outs_.size() < count) ctx->dynamic_outs_.resize(count);
      LSHE_RETURN_IF_ERROR(
          ensemble_->BatchQuery(resolved, ctx, ctx->dynamic_outs_.data(),
                                stats));
      for (size_t i = 0; i < count; ++i) {
        outs[i].clear();
        for (uint64_t id : ctx->dynamic_outs_[i]) {
          if (tombstones_.count(id) == 0) outs[i].push_back(id);
        }
      }
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      outs[i].clear();
      if (stats != nullptr) {
        stats[i] = QueryStats{};
        stats[i].query_size_used = static_cast<size_t>(ctx->dynamic_q_[i]);
      }
    }
  }

  if (delta_.empty()) return Status::OK();

  // Deadline boundary between the indexed probes above and the delta
  // scan below (the scan itself is one cache-tiled pass; the batch fails
  // here rather than mid-tile).
  for (size_t i = 0; i < count; ++i) {
    if (DeadlineExpired(specs[i].deadline_ns)) {
      return Status::DeadlineExceeded("query deadline expired");
    }
  }

  // Exact scan of the delta buffer, ONCE per batch. A domain is admitted
  // when its estimated Jaccard reaches the same conservative threshold
  // the ensemble would apply, computed with the domain's exact size
  // (tighter than any partition bound, still no new false negatives
  // beyond sketch error). Under the same option as the indexed path's
  // partition prune, a record whose size cannot reach the containment
  // threshold (x < t* * q, so t(Q, X) <= x/q < t*) skips the collision
  // count entirely — the delta-scan analog of pruning an unreachable
  // partition, with the identical size comparison.
  const auto& kernel = ActiveKernelOps();
  const auto num_hashes = static_cast<size_t>(family_->num_hashes());
  const auto m = static_cast<double>(num_hashes);
  const size_t num_delta = delta_.size();
  const bool prune = options_.base.prune_unreachable_partitions;

  // Records in the outer loop, queries inner, tiled: a block of record
  // signatures small enough to stay cache-resident (~128 KiB) is scored
  // against every query of the chunk before the next block is touched, so
  // each query signature is streamed once per block instead of once per
  // record. One batch-compare kernel call scores the whole block against a
  // query (families were checked above, so the kernel works on raw slot
  // arrays and reproduces exactly the count EstimateJaccard uses). Per
  // query, records are still visited in delta order. A single query is a
  // chunk of one.
  constexpr size_t kMaxBlock = 512;
  const size_t block_records = std::min(
      kMaxBlock,
      std::max<size_t>(1, (static_cast<size_t>(128) << 10) /
                              (num_hashes * sizeof(uint64_t))));
  auto scan_queries = [&](size_t query_begin, size_t query_end) {
    uint32_t counts[kMaxBlock];
    for (size_t base = 0; base < num_delta; base += block_records) {
      const size_t block_len = std::min(block_records, num_delta - base);
      const uint64_t* block_sizes = delta_sizes_.data() + base;
      const uint64_t* const* block_sigs = delta_rows_.data() + base;
      // The admission bound applied wholesale: a block's kernel call is
      // skipped when even its largest record cannot reach the threshold.
      const auto block_max = static_cast<double>(
          *std::max_element(block_sizes, block_sizes + block_len));
      for (size_t i = query_begin; i < query_end; ++i) {
        const double q = ctx->dynamic_q_[i];
        const double t_star = specs[i].t_star;
        if (prune && block_max + 1e-9 < t_star * q) continue;
        kernel.count_collisions_many(specs[i].query->values().data(),
                                     block_sigs, num_hashes, block_len,
                                     counts);
        std::vector<uint64_t>& out = outs[i];
        for (size_t r = 0; r < block_len; ++r) {
          const auto x = static_cast<double>(block_sizes[r]);
          if (prune && x + 1e-9 < t_star * q) continue;
          const double s_star = ContainmentToJaccardHoisted(t_star, x / q);
          if (static_cast<double>(counts[r]) / m + 1e-12 >= s_star) {
            out.push_back(delta_[base + r]);
          }
        }
      }
    }
  };

  // Spread query chunks over the pool when the scan is worth it; each
  // chunk writes only its own outs[] range.
  const size_t participants = ThreadPool::Shared().num_threads() + 1;
  const size_t chunks = options_.base.parallel_query && participants > 1
                            ? std::min(count, participants * 4)
                            : 1;
  if (chunks <= 1 || num_delta * count < 4096) {
    scan_queries(0, count);
  } else {
    ThreadPool::Shared().ParallelFor(chunks, [&](size_t c) {
      scan_queries(c * count / chunks, (c + 1) * count / chunks);
    });
  }
  return Status::OK();
}

Status DynamicLshEnsemble::Flush() {
  // A snapshot-opened index always rebuilds, even when clean: Flush() is
  // documented to materialize the mapped records and release the mapping
  // (so the snapshot file can be replaced / its space reclaimed).
  if (mapped_.n == 0 && !records_.empty() && delta_.empty() &&
      tombstones_.empty() && ensemble_.has_value()) {
    return Status::OK();  // already up to date
  }
  return Rebuild(options_.base);
}

Status DynamicLshEnsemble::Flush(std::vector<PartitionSpec> pinned) {
  LshEnsembleOptions build_options = options_.base;
  build_options.pinned_partitions = std::move(pinned);
  return Rebuild(build_options);
}

size_t DynamicLshEnsemble::MappedFind(uint64_t id) const {
  const uint64_t* begin = mapped_.ids;
  const uint64_t* end = mapped_.ids + mapped_.n;
  const uint64_t* it = std::lower_bound(begin, end, id);
  return (it != end && *it == id) ? static_cast<size_t>(it - begin)
                                  : mapped_.n;
}

bool DynamicLshEnsemble::MappedLive(uint64_t id) const {
  return mapped_.n > 0 && MappedFind(id) < mapped_.n &&
         tombstones_.count(id) == 0;
}

Status DynamicLshEnsemble::MaterializeMapped() {
  if (mapped_.n == 0) return Status::OK();
  // Stage-then-commit: a slot-validation failure partway through (a
  // corrupt arena under verify_checksums=false) must leave the engine
  // exactly as it was — half-materialized records would double-count in
  // size() and duplicate ids in a re-serialized side-car.
  std::vector<std::pair<uint64_t, Record>> staged;
  staged.reserve(mapped_.n - mapped_removed_);
  for (size_t i = 0; i < mapped_.n; ++i) {
    const uint64_t id = mapped_.ids[i];
    if (tombstones_.count(id) > 0) continue;  // removed (or re-inserted)
    std::vector<uint64_t> slots(mapped_.signatures + i * mapped_.m,
                                mapped_.signatures + (i + 1) * mapped_.m);
    auto signature = MinHash::FromSlots(family_, std::move(slots));
    if (!signature.ok()) return signature.status();
    staged.emplace_back(id, Record{static_cast<size_t>(mapped_.sizes[i]),
                                   std::move(signature).value()});
  }
  records_.reserve(records_.size() + staged.size());
  for (auto& [id, record] : staged) {
    records_.emplace(id, std::move(record));
  }
  mapped_ = MappedSideCar{};
  mapped_removed_ = 0;
  mapped_backing_.reset();
  return Status::OK();
}

Status DynamicLshEnsemble::Rebuild(const LshEnsembleOptions& build_options) {
  // A snapshot-opened index rebuilds on the heap: copy the still-live
  // mapped records into the authoritative map first (the only point where
  // a zero-copy open pays for its records), then drop the mapping.
  LSHE_RETURN_IF_ERROR(MaterializeMapped());
  if (records_.empty()) {
    // Nothing live: drop the ensemble entirely.
    ensemble_.reset();
    indexed_count_ = 0;
  } else {
    LshEnsembleBuilder builder(build_options, family_);
    for (const auto& [id, record] : records_) {
      LSHE_RETURN_IF_ERROR(builder.Add(id, record.size, record.signature));
    }
    auto built = std::move(builder).Build();
    if (!built.ok()) return built.status();
    ensemble_.emplace(std::move(built).value());
    indexed_count_ = records_.size();
  }
  delta_.clear();
  delta_sizes_.clear();
  delta_rows_.clear();
  tombstones_.clear();
  return Status::OK();
}

void DynamicLshEnsemble::AppendLiveSizes(std::vector<uint64_t>* out) const {
  out->reserve(out->size() + size());
  for (const auto& [id, record] : records_) {
    out->push_back(record.size);
  }
  for (size_t i = 0; i < mapped_.n; ++i) {
    if (tombstones_.count(mapped_.ids[i]) == 0) {
      out->push_back(mapped_.sizes[i]);
    }
  }
}

void DynamicLshEnsemble::ForEachLiveRecord(
    const std::function<void(uint64_t, size_t, SignatureView)>& fn) const {
  for (const auto& [id, record] : records_) {
    fn(id, record.size, record.signature.view());
  }
  // A mapped id can only coexist with a heap record when it was Remove()d
  // first (re-insert), and a Remove of a mapped record always tombstones
  // it — so the tombstone check alone prevents double enumeration.
  for (size_t i = 0; i < mapped_.n; ++i) {
    if (tombstones_.count(mapped_.ids[i]) == 0) {
      fn(mapped_.ids[i], static_cast<size_t>(mapped_.sizes[i]),
         SignatureView{mapped_.signatures + i * mapped_.m, mapped_.m});
    }
  }
}

size_t DynamicLshEnsemble::indexed_size() const { return indexed_count_; }

size_t DynamicLshEnsemble::SizeOf(uint64_t id) const {
  const auto it = records_.find(id);
  if (it != records_.end()) return it->second.size;
  if (mapped_.n > 0 && tombstones_.count(id) == 0) {
    const size_t pos = MappedFind(id);
    if (pos < mapped_.n) return static_cast<size_t>(mapped_.sizes[pos]);
  }
  return 0;
}

const MinHash* DynamicLshEnsemble::SignatureOf(uint64_t id) const {
  const auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second.signature;
}

SignatureView DynamicLshEnsemble::FindSignature(uint64_t id,
                                                size_t* size) const {
  const auto it = records_.find(id);
  if (it != records_.end()) {
    *size = it->second.size;
    return it->second.signature.view();
  }
  if (mapped_.n > 0 && tombstones_.count(id) == 0) {
    const size_t pos = MappedFind(id);
    if (pos < mapped_.n) {
      *size = static_cast<size_t>(mapped_.sizes[pos]);
      return {mapped_.signatures + pos * mapped_.m, mapped_.m};
    }
  }
  return {};
}

bool DynamicLshEnsemble::ShouldRebuild() const {
  if (delta_.size() < options_.min_delta_for_rebuild) return false;
  return static_cast<double>(delta_.size()) >=
         options_.rebuild_fraction * static_cast<double>(indexed_count_);
}

}  // namespace lshensemble
