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
  LSHE_RETURN_IF_ERROR(base.base.Validate());
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  return Status::OK();
}

namespace {

/// The per-shard engine policy: shard rebuilds stay off the pool (they
/// run under every shard's write lock; see FlushLocked), and their
/// rebuild schedule is driven globally from this layer.
DynamicEnsembleOptions ShardEngineOptions(
    const ShardedEnsembleOptions& options) {
  DynamicEnsembleOptions shard_options = options.base;
  shard_options.base.parallel_build = false;
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

size_t ShardedEnsemble::ChunksPerShard(size_t count, size_t num_shards,
                                       size_t participants) {
  const size_t per_shard = (2 * participants + num_shards - 1) / num_shards;
  return std::min(count, per_shard);
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
  return RebuildDue(delta, indexed, options_.base);
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

void ShardedEnsemble::Shard::AcquireScratch(std::span<Scratch*> out) const {
  std::lock_guard<std::mutex> lock(scratch_mutex);
  const size_t reused = std::min(out.size(), scratch_free.size());
  const auto first = scratch_free.end() - static_cast<ptrdiff_t>(reused);
  std::copy(first, scratch_free.end(), out.begin());
  scratch_free.erase(first, scratch_free.end());
  for (size_t c = reused; c < out.size(); ++c) {
    scratch_pool.push_back(std::make_unique<Scratch>());
    out[c] = scratch_pool.back().get();
  }
}

void ShardedEnsemble::Shard::ReleaseScratch(
    std::span<Scratch* const> scratch) const {
  std::lock_guard<std::mutex> lock(scratch_mutex);
  scratch_free.insert(scratch_free.end(), scratch.begin(), scratch.end());
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
  return BatchQueryImpl(specs, outs, /*scored=*/nullptr, stats);
}

Status ShardedEnsemble::BatchQueryImpl(std::span<const QuerySpec> specs,
                                       std::vector<uint64_t>* ids,
                                       std::vector<TopKResult>* scored,
                                       QueryStats* stats) const {
  LSHE_RETURN_IF_ERROR(GuardNotInWorker("ShardedEnsemble::BatchQuery"));
  if (specs.empty()) return Status::OK();
  if (ids == nullptr && scored == nullptr) {
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

  // Scatter: ONE wave of (shard x query-chunk) tasks, the only query
  // dispatch to the pool. Chunks split each shard's batch so a wave keeps
  // every participant busy even at S = 1; each task takes its shard's
  // read lock and runs its chunk through the shard's single-thread engine
  // (partition-major kernel, then delta scan) with its own pinned
  // scratch. The scatter still VISITS every shard, but it rarely COSTS
  // every shard: each shard engine consults its union probe filter
  // (filter/probe_filter.h) first and rejects a query none of its
  // partitions can answer in O(trees) filter probes — so on a skewed
  // corpus each query does forest work only in the shards that may hold
  // its keys, and pruning needs no cross-shard routing state here.
  const size_t chunks = ChunksPerShard(
      count, num_shards, ThreadPool::Shared().num_threads() + 1);
  const size_t tasks = num_shards * chunks;
  auto chunk_begin = [&](size_t c) { return c * count / chunks; };
  std::vector<Shard::Scratch*> scratch(tasks, nullptr);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_[s]->AcquireScratch(
        std::span(scratch).subspan(s * chunks, chunks));
  }
  std::vector<Status> statuses(tasks);
  ThreadPool::Shared().ParallelFor(tasks, [&](size_t task) {
    const Shard& shard = *shards_[task / chunks];
    const size_t c = task % chunks;
    const size_t begin = chunk_begin(c);
    const size_t len = chunk_begin(c + 1) - begin;
    Shard::Scratch& mine = *scratch[task];
    if (mine.outs.size() < len) mine.outs.resize(len);
    mine.stats.resize(len);
    std::shared_lock lock(shard.mutex);
    statuses[task] = shard.engine.BatchQuery(
        std::span<const QuerySpec>(resolved).subspan(begin, len), &mine.ctx,
        mine.outs.data(), mine.stats.data());
    if (!statuses[task].ok()) return;
    // The task's last step keeps per-query work off the serial gather. A
    // threshold answer sorts its ids (at S = 1 a chunk's sorted candidates
    // are already the canonical output); a top-k round scores them here,
    // under the read lock that still pins every row it reads.
    if (scored == nullptr) {
      for (size_t j = 0; j < len; ++j) {
        std::sort(mine.outs[j].begin(), mine.outs[j].end());
      }
      return;
    }
    if (mine.scored.size() < len) mine.scored.resize(len);
    for (size_t j = 0; j < len; ++j) {
      ScoreCandidates(shard.engine, resolved[begin + j], mine.outs[j], &mine,
                      &mine.scored[j]);
    }
  });

  // Classify the task outcomes. A deadline expiry inside a task is fatal
  // by default; in partial-results mode it only skips that shard's
  // contribution — the whole shard, even when its other chunks finished,
  // so every query of the batch gathers from the same shards. Any other
  // failure is fatal either way.
  const bool partial = options_.partial_results;
  Status first_error = Status::OK();
  std::vector<bool> shard_gathered(num_shards, true);
  for (size_t task = 0; task < tasks; ++task) {
    const Status& status = statuses[task];
    if (status.ok()) continue;
    if (!(partial && status.IsDeadlineExceeded())) {
      first_error = status;
      break;
    }
    shard_gathered[task / chunks] = false;
  }
  const auto gathered_count = static_cast<size_t>(
      std::count(shard_gathered.begin(), shard_gathered.end(), true));
  if (first_error.ok() && gathered_count == 0) {
    // Partial mode with EVERY shard expired: there is no partial answer
    // to return, only the deadline failure itself.
    first_error = Status::DeadlineExceeded("query deadline expired");
  }
  if (first_error.ok()) {
    // Gather: per query, concatenate the shard outputs (disjoint — every
    // id lives in exactly one shard). Ids are canonicalized to ascending
    // order so the output is independent of shard count and merge order;
    // one shard's sorted set needs no merge. Scored pairs stay unordered:
    // the descent ranks them. Query i of chunk c sits at i - chunk_begin(c)
    // in that chunk's scratch on every shard.
    auto concat = [&](auto& out, auto staging, size_t c, size_t local) {
      out.clear();
      size_t total = 0;
      for (size_t s = 0; s < num_shards; ++s) {
        if (!shard_gathered[s]) continue;
        total += (scratch[s * chunks + c]->*staging)[local].size();
      }
      out.reserve(total);
      for (size_t s = 0; s < num_shards; ++s) {
        if (!shard_gathered[s]) continue;
        const auto& part = (scratch[s * chunks + c]->*staging)[local];
        out.insert(out.end(), part.begin(), part.end());
      }
    };
    for (size_t c = 0; c < chunks; ++c) {
      const size_t begin = chunk_begin(c);
      const size_t end = chunk_begin(c + 1);
      for (size_t i = begin; i < end; ++i) {
        const size_t local = i - begin;
        if (scored != nullptr) {
          concat(scored[i], &Shard::Scratch::scored, c, local);
        } else {
          concat(ids[i], &Shard::Scratch::outs, c, local);
          if (num_shards > 1) std::sort(ids[i].begin(), ids[i].end());
        }
        if (stats != nullptr) {
          // Shard-summed probe counters plus the gather split.
          QueryStats& merged = stats[i];
          merged = QueryStats{};
          for (size_t s = 0; s < num_shards; ++s) {
            if (!shard_gathered[s]) continue;
            const QueryStats& part_stats =
                scratch[s * chunks + c]->stats[local];
            merged.query_size_used = part_stats.query_size_used;
            merged.partitions_probed += part_stats.partitions_probed;
            merged.partitions_pruned += part_stats.partitions_pruned;
            merged.partitions_filter_skipped +=
                part_stats.partitions_filter_skipped;
            merged.filter_false_admits += part_stats.filter_false_admits;
          }
          merged.shards_gathered = gathered_count;
          merged.shards_skipped = num_shards - gathered_count;
        }
      }
    }
  }
  for (size_t s = 0; s < num_shards; ++s) {
    shards_[s]->ReleaseScratch(
        std::span(scratch).subspan(s * chunks, chunks));
  }
  return first_error;
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

}  // namespace lshensemble
