// Hot snapshot swap for a serving process.
//
// A server answering BatchQuery/BatchSearch from a snapshot-opened
// ShardedEnsemble periodically receives a fresh snapshot directory (from
// a builder process or a local rebuild+save). Swapping to it must not
// pause serving: in-flight query waves keep probing the mapping they
// started on, new waves start on the new one, and the old mapping —
// mmapped shard segments included — is released only when its last
// reader finishes.
//
// SnapshotManager is that flip. Serving state is ONE
// shared_ptr<const ShardedEnsemble>:
//
//  * Acquire() hands a reader the current generation; the shared_ptr IS
//    the refcounted mapping handle. A query wave holds it across the
//    whole scatter/gather, so nothing it probes can be unmapped under
//    it.
//  * SwapTo() validates the ENTIRE new snapshot first — manifest,
//    per-shard opens, whatever SnapshotOpenOptions request — in the
//    calling thread (run it on a background thread; the manager does not
//    own one), then flips the pointer under the mutex. Readers never
//    observe a half-open generation: the flip is pointer-atomic, and a
//    failed validation leaves the old generation serving untouched.
//  * The displaced generation goes to a weak_ptr retired list: it
//    expires (and its arenas unmap) the moment the last in-flight
//    reader drops its handle. retired_count() observes the drain;
//    nothing blocks on it.
//
// Transient open failures — a directory still being renamed into place,
// NFS hiccups — retry before SwapTo gives up: 5 attempts in all, with
// backoffs of 1, 2, 4 and 8 ms between them (15 ms of waiting at most).
// Corruption and contract errors fail immediately (retrying cannot fix a
// bad checksum). The old generation serves throughout.
//
// Thread safety: all public methods are safe to call concurrently.
// Acquire() is a mutex-guarded pointer copy (microseconds); opens happen
// OUTSIDE the mutex, so a slow validation never blocks readers.

#ifndef LSHENSEMBLE_SERVE_SNAPSHOT_MANAGER_H_
#define LSHENSEMBLE_SERVE_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/sharded_ensemble.h"
#include "io/snapshot.h"
#include "util/status.h"

namespace lshensemble {

/// \brief Serves one ShardedEnsemble generation at a time and hot-swaps
/// to new snapshot directories without pausing readers.
class SnapshotManager {
 public:
  struct Options {
    /// Serving/rebuild policy for every generation opened (must request
    /// the snapshots' shard count, like ShardedEnsemble::OpenSnapshot).
    ShardedEnsembleOptions serving;
    /// Validation depth + Env for every open.
    SnapshotOpenOptions open;
    /// Test hook: called instead of sleeping when set (receives the
    /// backoff the manager would have slept, in microseconds).
    std::function<void(uint64_t)> backoff_sleep;
  };

  explicit SnapshotManager(Options options) : options_(std::move(options)) {}

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// \brief Open the first generation from `dir` and start serving it.
  /// Same retry policy as SwapTo(). Fails if already serving (use
  /// SwapTo() for every generation after the first).
  Status Open(const std::string& dir);

  /// \brief Validate the snapshot in `dir` (full open, retried per the
  /// backoff policy) and atomically flip serving to it. On failure the
  /// current generation keeps serving, unchanged. Call from a background
  /// thread; only the final pointer flip excludes readers.
  Status SwapTo(const std::string& dir);

  /// \brief The current generation, pinned: the returned handle keeps
  /// every mapping the generation serves alive until released. nullptr
  /// before the first successful Open().
  std::shared_ptr<const ShardedEnsemble> Acquire() const;

  /// True once a generation is serving.
  bool serving() const { return epoch_.load(std::memory_order_acquire) > 0; }

  /// Generations successfully opened so far (0 before the first Open;
  /// each successful SwapTo increments it).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Displaced generations whose mappings are still pinned by in-flight
  /// readers (prunes fully drained entries as a side effect).
  size_t retired_count();

  /// Drop bookkeeping for drained generations; returns how many are
  /// still pinned (identical to retired_count(), named for call sites
  /// that run it as a periodic sweep).
  size_t CollectRetired() { return retired_count(); }

 private:
  /// Full open of `dir`, retried on TRANSIENT failures (IOError,
  /// Unavailable, NotFound — a snapshot still being published) on the
  /// schedule above. Corruption and contract errors never retry.
  Status OpenWithRetry(const std::string& dir,
                       std::shared_ptr<const ShardedEnsemble>* out) const;

  Options options_;
  mutable std::mutex mutex_;
  std::shared_ptr<const ShardedEnsemble> current_;
  std::vector<std::weak_ptr<const ShardedEnsemble>> retired_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace lshensemble

#endif  // LSHENSEMBLE_SERVE_SNAPSHOT_MANAGER_H_
