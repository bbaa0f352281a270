#include "core/sharded_ensemble.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "io/coding.h"
#include "io/crc32c.h"
#include "io/env.h"
#include "io/file.h"
#include "io/snapshot.h"
#include "util/clock.h"
#include "util/hashing.h"
#include "util/thread_pool.h"

namespace lshensemble {

namespace {

constexpr uint32_t kManifestMagic = 0x4D534845u;  // "EHSM" LE = shard set
constexpr uint32_t kManifestVersion = 2;

std::string ShardFileName(size_t shard) {
  return "shard-" + std::to_string(shard) + ".lshe2";
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/MANIFEST";
}

}  // namespace

Status ShardedEnsembleOptions::Validate() const {
  LSHE_RETURN_IF_ERROR(base.Validate());
  LSHE_RETURN_IF_ERROR(topk.Validate());
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  return Status::OK();
}

namespace {

/// The per-shard engine policy: shards are the unit of parallelism, so
/// their engines must stay off the pool (a shard task dispatching a
/// nested wave could deadlock it), and their rebuild schedule is driven
/// globally from this layer.
DynamicEnsembleOptions ShardEngineOptions(
    const ShardedEnsembleOptions& options) {
  DynamicEnsembleOptions shard_options = options.base;
  shard_options.base.parallel_build = false;
  shard_options.base.parallel_query = false;
  shard_options.min_delta_for_rebuild = std::numeric_limits<size_t>::max();
  return shard_options;
}

}  // namespace

Result<ShardedEnsemble> ShardedEnsemble::Create(
    ShardedEnsembleOptions options, std::shared_ptr<const HashFamily> family) {
  LSHE_RETURN_IF_ERROR(options.Validate());
  if (family == nullptr) {
    return Status::InvalidArgument("family must not be null");
  }
  const DynamicEnsembleOptions shard_options = ShardEngineOptions(options);

  ShardedEnsemble index(std::move(options), family);
  index.shards_.reserve(index.options_.num_shards);
  for (size_t s = 0; s < index.options_.num_shards; ++s) {
    auto engine = DynamicLshEnsemble::Create(shard_options, family);
    if (!engine.ok()) return engine.status();
    index.shards_.push_back(
        std::make_unique<Shard>(std::move(engine).value()));
  }
  return index;
}

size_t ShardedEnsemble::ShardOf(uint64_t id) const {
  return static_cast<size_t>(Mix64(id) % shards_.size());
}

Status ShardedEnsemble::GuardNotInWorker(const char* what) const {
  if (ThreadPool::Shared().InWorkerThread()) {
    return Status::FailedPrecondition(
        std::string(what) +
        " must not be called from a thread-pool worker: the shard "
        "scatter would submit pool work from inside the pool");
  }
  return Status::OK();
}

bool ShardedEnsemble::ShouldRebuild() const {
  // The unsharded policy, evaluated on corpus-global counts: with the
  // same insert sequence, a sharded index rebuilds exactly when the
  // unsharded one would. The counters make this O(1) per insert; the
  // unlocked read is the same momentary snapshot a lock-and-sum would
  // give.
  const size_t delta = counters_->delta.load(std::memory_order_relaxed);
  const size_t indexed = counters_->indexed.load(std::memory_order_relaxed);
  if (delta < options_.base.min_delta_for_rebuild) return false;
  return static_cast<double>(delta) >=
         options_.base.rebuild_fraction * static_cast<double>(indexed);
}

Status ShardedEnsemble::Insert(uint64_t id, size_t size, MinHash signature) {
  {
    Shard& shard = *shards_[ShardOf(id)];
    std::unique_lock lock(shard.mutex);
    LSHE_RETURN_IF_ERROR(shard.engine.Insert(id, size, std::move(signature)));
    // Bump while still holding the shard lock: a concurrent FlushLocked
    // (which holds every shard lock while it re-anchors the counters)
    // must either see this record still in the delta or see the bump —
    // never miss both and leave the counter drifted.
    counters_->delta.fetch_add(1, std::memory_order_relaxed);
  }
  if (ShouldRebuild()) return FlushLocked();
  return Status::OK();
}

Status ShardedEnsemble::Insert(uint64_t id, std::span<const uint64_t> values) {
  if (values.empty()) {
    return Status::InvalidArgument("domain must have at least one value");
  }
  MinHash sketch(family_);
  sketch.UpdateBatch(values);
  return Insert(id, values.size(), std::move(sketch));
}

Status ShardedEnsemble::Remove(uint64_t id) {
  Shard& shard = *shards_[ShardOf(id)];
  std::unique_lock lock(shard.mutex);
  const size_t delta_before = shard.engine.delta_size();
  LSHE_RETURN_IF_ERROR(shard.engine.Remove(id));
  // An unflushed (delta) domain is dropped outright; an indexed one is
  // tombstoned, which leaves both counters unchanged (indexed counts
  // tombstoned domains until the next rebuild, like the unsharded
  // engine's indexed_size()).
  if (shard.engine.delta_size() < delta_before) {
    counters_->delta.fetch_sub(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status ShardedEnsemble::Flush() { return FlushLocked(); }

Status ShardedEnsemble::SaveSnapshot(const std::string& dir,
                                     Env* env) const {
  if (env == nullptr) env = Env::Default();
  LSHE_RETURN_IF_ERROR(env->CreateDirectories(dir));
  // Invalidate-then-commit: retract any existing manifest FIRST (and
  // fsync the directory so the unlink is ordered BEFORE the shard
  // renames on disk), write the shard images, write the fresh manifest
  // LAST. A save torn at any point leaves a directory OpenSnapshot()
  // refuses (no readable manifest) — without the ordered retraction,
  // tearing a re-save over an existing snapshot could leave the OLD
  // manifest presiding over a mix of old and new shard files, which
  // would open as a cross-shard-inconsistent index.
  LSHE_RETURN_IF_ERROR(env->RemoveFileIfExists(ManifestPath(dir)));
  LSHE_RETURN_IF_ERROR(env->SyncDirectory(dir));

  // Read-lock EVERY shard for the whole save (index order, like
  // FlushLocked): mutators are blocked, so all shard images — and the
  // manifest that blesses them — describe one point-in-time state. A
  // per-shard lock would let a concurrent global rebuild land between
  // two shard serializations and commit a cross-generation snapshot.
  // No pool work is dispatched under these locks (WriteDynamicSnapshot
  // is plain serialization + file IO), so the FlushLocked deadlock
  // concern does not apply.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
  for (size_t s = 0; s < shards_.size(); ++s) {
    LSHE_RETURN_IF_ERROR(WriteDynamicSnapshot(
        shards_[s]->engine, dir + "/" + ShardFileName(s), env));
  }
  std::string manifest;
  PutFixed32(&manifest, kManifestMagic);
  PutFixed32(&manifest, kManifestVersion);
  std::string payload;
  PutVarint64(&payload, shards_.size());
  PutVarint32(&payload, static_cast<uint32_t>(family_->num_hashes()));
  PutFixed64(&payload, family_->seed());
  PutLengthPrefixed(&manifest, payload);
  PutFixed32(&manifest, crc32c::Mask(crc32c::Value(payload)));
  return WriteFileAtomic(env, ManifestPath(dir), manifest);
}

std::string ShardedEnsemble::ShardSnapshotFileName(size_t shard) {
  return ShardFileName(shard);
}

Result<ShardSnapshotManifest> ShardedEnsemble::ReadSnapshotManifest(
    const std::string& dir, Env* env) {
  if (env == nullptr) env = Env::Default();
  std::string manifest;
  LSHE_RETURN_IF_ERROR(env->ReadFileToString(ManifestPath(dir), &manifest));
  DecodeCursor cursor(manifest);
  uint32_t magic = 0;
  uint32_t version = 0;
  std::string_view payload;
  uint32_t stored_crc = 0;
  if (!cursor.GetFixed32(&magic) || !cursor.GetFixed32(&version)) {
    return Status::Corruption("shard manifest: truncated header");
  }
  if (magic != kManifestMagic) {
    return Status::Corruption("shard manifest: bad magic");
  }
  if (version > kManifestVersion) {
    return Status::NotSupported("shard manifest: written by a newer version");
  }
  if (!cursor.GetLengthPrefixed(&payload) ||
      !cursor.GetFixed32(&stored_crc) || !cursor.empty()) {
    return Status::Corruption("shard manifest: truncated body");
  }
  if (crc32c::Unmask(stored_crc) != crc32c::Value(payload)) {
    return Status::Corruption("shard manifest: checksum mismatch");
  }
  DecodeCursor body(payload);
  ShardSnapshotManifest decoded;
  if (!body.GetVarint64(&decoded.num_shards) ||
      !body.GetVarint32(&decoded.num_hashes) ||
      !body.GetFixed64(&decoded.seed) || !body.empty() ||
      decoded.num_shards == 0) {
    return Status::Corruption("shard manifest: malformed body");
  }
  return decoded;
}

Result<ShardedEnsemble> ShardedEnsemble::OpenSnapshot(
    const std::string& dir, ShardedEnsembleOptions options,
    const SnapshotOpenOptions& open_options) {
  LSHE_RETURN_IF_ERROR(options.Validate());
  Env* env = open_options.env != nullptr ? open_options.env : Env::Default();
  ShardSnapshotManifest manifest;
  LSHE_ASSIGN_OR_RETURN(manifest, ReadSnapshotManifest(dir, env));
  if (options.num_shards != manifest.num_shards) {
    return Status::InvalidArgument(
        "snapshot holds " + std::to_string(manifest.num_shards) +
        " shards; resharding on open is not supported");
  }
  if (options.base.base.num_hashes != static_cast<int>(manifest.num_hashes)) {
    return Status::InvalidArgument(
        "options.base.base.num_hashes does not match the snapshot");
  }
  std::shared_ptr<const HashFamily> family;
  LSHE_ASSIGN_OR_RETURN(
      family, HashFamily::Create(static_cast<int>(manifest.num_hashes),
                                 manifest.seed));

  const DynamicEnsembleOptions shard_options = ShardEngineOptions(options);
  ShardedEnsemble index(std::move(options), family);
  index.shards_.reserve(index.options_.num_shards);
  size_t indexed_total = 0;
  size_t delta_total = 0;
  for (size_t s = 0; s < index.options_.num_shards; ++s) {
    // Each shard opens with the caller's validation/Env settings. On ANY
    // failure the error names the failing shard file, and destroying the
    // partially built `index` releases every mapping the earlier shards
    // took — a failed open leaves nothing live.
    const std::string shard_path = dir + "/" + ShardFileName(s);
    auto engine = OpenDynamicSnapshot(shard_path, shard_options,
                                      open_options);
    if (!engine.ok()) {
      return engine.status().WithMessagePrefix(shard_path);
    }
    if (!engine->family()->SameAs(*family)) {
      return Status::Corruption(
          shard_path + ": shard snapshot disagrees with the manifest "
                       "hash family");
    }
    indexed_total += engine->indexed_size();
    delta_total += engine->delta_size();
    index.shards_.push_back(
        std::make_unique<Shard>(std::move(engine).value()));
  }
  index.counters_->indexed.store(indexed_total, std::memory_order_relaxed);
  index.counters_->delta.store(delta_total, std::memory_order_relaxed);
  return index;
}

Status ShardedEnsemble::FlushLocked() {
  // Exclusive locks on every shard, in index order (the only place more
  // than one shard lock is held, so the order cannot deadlock). Rebuilds
  // run serially on this thread: holding locks across a pool dispatch is
  // forbidden — a waiting ParallelFor caller helps with queued tasks, and
  // helping a reader task that wants one of these locks would deadlock.
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);

  const bool all_clean = std::all_of(
      shards_.begin(), shards_.end(), [](const std::unique_ptr<Shard>& s) {
        return s->engine.delta_size() == 0 && s->engine.tombstone_count() == 0;
      });
  if (all_clean) {
    const bool any_built = std::any_of(
        shards_.begin(), shards_.end(),
        [](const std::unique_ptr<Shard>& s) { return s->engine.size() > 0; });
    const bool all_built = std::all_of(
        shards_.begin(), shards_.end(), [](const std::unique_ptr<Shard>& s) {
          return s->engine.size() == 0 || s->engine.indexed() != nullptr;
        });
    // Nothing pending anywhere and every non-empty shard is built: the
    // live set — hence the global partitioning — is what the last flush
    // saw, so rebuilding would reproduce the same shards. Re-anchor the
    // counters anyway (still under every shard lock) so the clean path
    // also heals any drift.
    if (!any_built || all_built) {
      size_t indexed = 0;
      for (const auto& shard : shards_) {
        indexed += shard->engine.indexed_size();
      }
      counters_->delta.store(0, std::memory_order_relaxed);
      counters_->indexed.store(indexed, std::memory_order_relaxed);
      return Status::OK();
    }
  }

  std::vector<uint64_t> sizes;
  for (const auto& shard : shards_) shard->engine.AppendLiveSizes(&sizes);
  if (sizes.empty()) {
    // Nothing live: drop every shard's ensemble.
    for (const auto& shard : shards_) {
      LSHE_RETURN_IF_ERROR(shard->engine.Flush());
    }
    counters_->delta.store(0, std::memory_order_relaxed);
    counters_->indexed.store(0, std::memory_order_relaxed);
    return Status::OK();
  }
  std::sort(sizes.begin(), sizes.end());
  std::vector<PartitionSpec> global;
  LSHE_ASSIGN_OR_RETURN(global, ComputePartitions(sizes, options_.base.base));
  for (const auto& shard : shards_) {
    LSHE_RETURN_IF_ERROR(shard->engine.Flush(global));
  }
  // Re-anchor the O(1) trigger counters to the rebuilt state (still
  // holding every shard's write lock, so the sums are exact).
  size_t indexed = 0;
  for (const auto& shard : shards_) indexed += shard->engine.indexed_size();
  counters_->delta.store(0, std::memory_order_relaxed);
  counters_->indexed.store(indexed, std::memory_order_relaxed);
  return Status::OK();
}

void ShardedEnsemble::AdmissionSlot::Release() {
  if (counters_ != nullptr) {
    counters_->in_flight.fetch_sub(1, std::memory_order_acq_rel);
    counters_ = nullptr;
  }
}

Result<ShardedEnsemble::AdmissionSlot> ShardedEnsemble::TryAdmit() const {
  const size_t bound = options_.max_in_flight_batches;
  if (bound == 0) return AdmissionSlot();  // unbounded: nothing to count
  size_t current = counters_->in_flight.load(std::memory_order_relaxed);
  while (true) {
    if (current >= bound) {
      return Status::Unavailable(
          "serving layer at capacity: " + std::to_string(current) +
          " of " + std::to_string(bound) + " batches in flight");
    }
    // CAS instead of unconditional increment: a loser re-reads and
    // re-checks the bound, so the counter can never overshoot it.
    if (counters_->in_flight.compare_exchange_weak(
            current, current + 1, std::memory_order_acq_rel,
            std::memory_order_relaxed)) {
      return AdmissionSlot(counters_.get());
    }
  }
}

size_t ShardedEnsemble::in_flight_batches() const {
  return counters_->in_flight.load(std::memory_order_relaxed);
}

ShardedEnsemble::Shard::Scratch* ShardedEnsemble::Shard::AcquireScratch()
    const {
  std::lock_guard<std::mutex> lock(scratch_mutex);
  if (!scratch_free.empty()) {
    Scratch* scratch = scratch_free.back();
    scratch_free.pop_back();
    return scratch;
  }
  scratch_pool.push_back(std::make_unique<Scratch>());
  return scratch_pool.back().get();
}

void ShardedEnsemble::Shard::ReleaseScratch(Scratch* scratch) const {
  std::lock_guard<std::mutex> lock(scratch_mutex);
  scratch_free.push_back(scratch);
}

Status ShardedEnsemble::BatchQuery(std::span<const QuerySpec> specs,
                                   std::vector<uint64_t>* outs) const {
  return BatchQuery(specs, outs, /*stats=*/nullptr);
}

Status ShardedEnsemble::BatchQuery(std::span<const QuerySpec> specs,
                                   std::vector<uint64_t>* outs,
                                   QueryStats* stats) const {
  AdmissionSlot slot;
  LSHE_ASSIGN_OR_RETURN(slot, TryAdmit());
  return BatchQueryImpl(specs, outs, /*sort_outputs=*/true, stats);
}

Status ShardedEnsemble::BatchQueryImpl(std::span<const QuerySpec> specs,
                                       std::vector<uint64_t>* outs,
                                       bool sort_outputs,
                                       QueryStats* stats) const {
  LSHE_RETURN_IF_ERROR(GuardNotInWorker("ShardedEnsemble::BatchQuery"));
  if (specs.empty()) return Status::OK();
  if (outs == nullptr) {
    return Status::InvalidArgument("outs must not be null");
  }
  const size_t count = specs.size();
  const size_t num_shards = shards_.size();

  // Resolve every query's effective cardinality once, up front, so the S
  // shard engines don't re-estimate it S times each.
  std::vector<QuerySpec> resolved(specs.begin(), specs.end());
  for (QuerySpec& spec : resolved) {
    if (spec.query == nullptr) {
      return Status::InvalidArgument("query must not be null");
    }
    if (!spec.query->valid() || !spec.query->family()->SameAs(*family_)) {
      return Status::InvalidArgument(
          "query signature does not belong to the index's hash family");
    }
    if (spec.query_size == 0) {
      spec.query_size = static_cast<size_t>(std::max<int64_t>(
          1, std::llround(spec.query->EstimateCardinality())));
    }
    // Fast-fail an already-expired deadline before any scatter: the
    // caller gets DeadlineExceeded without a single shard probed, in
    // partial-results mode too (nothing could be gathered anyway).
    if (DeadlineExpired(spec.deadline_ns)) {
      return Status::DeadlineExceeded("query deadline expired");
    }
  }

  // Scatter: ONE wave over the shards. Each shard task takes its shard's
  // read lock, borrows pinned scratch, and walks the whole batch
  // sequentially (the shard engines have pool parallelism off, so the
  // wave never nests a dispatch). Queries inside the shard run through the
  // engine's partition-major query kernel. The scatter still VISITS every
  // shard, but it rarely COSTS every shard: each shard engine consults its
  // union probe filter (filter/probe_filter.h) first and rejects a query
  // none of its partitions can answer in O(trees) filter probes — so on a
  // skewed corpus each query does forest work only in the shards that may
  // hold its keys, and pruning needs no cross-shard routing state here.
  std::vector<Shard::Scratch*> scratch(num_shards, nullptr);
  std::vector<Status> statuses(num_shards);
  ThreadPool::Shared().ParallelFor(num_shards, [&](size_t s) {
    const Shard& shard = *shards_[s];
    std::shared_lock lock(shard.mutex);
    Shard::Scratch* mine = shard.AcquireScratch();
    scratch[s] = mine;
    if (mine->outs.size() < count) mine->outs.resize(count);
    mine->stats.resize(count);
    statuses[s] = shard.engine.BatchQuery(resolved, &mine->ctx,
                                          mine->outs.data(),
                                          mine->stats.data());
  });

  // Classify the shard outcomes. A deadline expiry inside a shard is
  // fatal by default; in partial-results mode it only skips that shard's
  // contribution (the others still gathered a full answer for their ids).
  // Any other failure is fatal either way.
  const bool partial = options_.partial_results;
  Status first_error = Status::OK();
  std::vector<bool> shard_gathered(num_shards, false);
  size_t gathered_count = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    if (statuses[s].ok()) {
      shard_gathered[s] = true;
      ++gathered_count;
    } else if (!(partial && statuses[s].IsDeadlineExceeded())) {
      first_error = statuses[s];
      break;
    }
  }
  if (first_error.ok() && gathered_count == 0) {
    // Partial mode with EVERY shard expired: there is no partial answer
    // to return, only the deadline failure itself.
    first_error = Status::DeadlineExceeded("query deadline expired");
  }
  if (first_error.ok()) {
    // Gather: per query, concatenate the shard candidate sets (disjoint —
    // every id lives in exactly one shard) and canonicalize to ascending
    // id so the output is independent of shard count and merge order.
    for (size_t i = 0; i < count; ++i) {
      std::vector<uint64_t>& out = outs[i];
      out.clear();
      size_t total = 0;
      for (size_t s = 0; s < num_shards; ++s) {
        if (shard_gathered[s]) total += scratch[s]->outs[i].size();
      }
      out.reserve(total);
      for (size_t s = 0; s < num_shards; ++s) {
        if (!shard_gathered[s]) continue;
        const std::vector<uint64_t>& part = scratch[s]->outs[i];
        out.insert(out.end(), part.begin(), part.end());
      }
      if (sort_outputs) std::sort(out.begin(), out.end());
      if (stats != nullptr) {
        // Shard-summed probe counters plus the gather split.
        QueryStats& merged = stats[i];
        merged = QueryStats{};
        for (size_t s = 0; s < num_shards; ++s) {
          if (!shard_gathered[s]) continue;
          const QueryStats& part_stats = scratch[s]->stats[i];
          merged.query_size_used = part_stats.query_size_used;
          merged.partitions_probed += part_stats.partitions_probed;
          merged.partitions_pruned += part_stats.partitions_pruned;
          merged.partitions_filter_skipped +=
              part_stats.partitions_filter_skipped;
        }
        merged.shards_gathered = gathered_count;
        merged.shards_skipped = num_shards - gathered_count;
      }
    }
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (scratch[s] != nullptr) shards_[s]->ReleaseScratch(scratch[s]);
  }
  return first_error;
}

Status ShardedEnsemble::BatchSearch(std::span<const TopKQuery> queries,
                                    size_t k,
                                    std::vector<TopKResult>* outs) const {
  LSHE_RETURN_IF_ERROR(GuardNotInWorker("ShardedEnsemble::BatchSearch"));
  // ONE admission covers the whole descent: the searcher re-enters
  // BatchQueryImpl every round, which deliberately does not re-admit
  // (re-admitting per round could self-deadlock at a bound of 1).
  AdmissionSlot slot;
  LSHE_ASSIGN_OR_RETURN(slot, TryAdmit());
  // The searcher's lockstep descent drives BatchQuery() above every
  // round; its per-query retire check IS the cross-shard k-th-best merge.
  const TopKSearcher searcher(this, options_.topk);
  return searcher.BatchSearch(queries, k, nullptr, outs);
}

size_t ShardedEnsemble::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    total += shard->engine.size();
  }
  return total;
}

size_t ShardedEnsemble::indexed_size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    total += shard->engine.indexed_size();
  }
  return total;
}

size_t ShardedEnsemble::delta_size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    total += shard->engine.delta_size();
  }
  return total;
}

size_t ShardedEnsemble::tombstone_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    total += shard->engine.tombstone_count();
  }
  return total;
}

size_t ShardedEnsemble::SizeOf(uint64_t id) const {
  const Shard& shard = *shards_[ShardOf(id)];
  std::shared_lock lock(shard.mutex);
  return shard.engine.SizeOf(id);
}

const MinHash* ShardedEnsemble::SignatureOf(uint64_t id) const {
  const Shard& shard = *shards_[ShardOf(id)];
  std::shared_lock lock(shard.mutex);
  return shard.engine.SignatureOf(id);
}

SignatureView ShardedEnsemble::FindSignature(uint64_t id,
                                             size_t* size) const {
  const Shard& shard = *shards_[ShardOf(id)];
  std::shared_lock lock(shard.mutex);
  return shard.engine.FindSignature(id, size);
}

void ShardedEnsemble::ForEachLiveRecord(
    const std::function<void(uint64_t, size_t, SignatureView)>& fn) const {
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    shard->engine.ForEachLiveRecord(fn);
  }
}

Result<bool> ShardedEnsemble::ScoreRecord(const MinHash& query, uint64_t id,
                                          size_t* size,
                                          double* jaccard) const {
  const Shard& shard = *shards_[ShardOf(id)];
  std::shared_lock lock(shard.mutex);
  size_t record_size = 0;
  const SignatureView signature =
      shard.engine.FindSignature(id, &record_size);
  if (!signature) return false;
  LSHE_ASSIGN_OR_RETURN(*jaccard, query.EstimateJaccard(signature));
  *size = record_size;
  return true;
}

}  // namespace lshensemble
