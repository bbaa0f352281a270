#include "serve/snapshot_manager.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace lshensemble {

namespace {

/// A failure that publishing may fix on its own: the directory (or its
/// manifest) not there yet, or the filesystem momentarily unwilling.
/// Corruption, NotSupported and contract errors are permanent — the
/// bytes will not improve by waiting.
bool IsTransientOpenError(const Status& status) {
  return status.IsIOError() || status.IsUnavailable() || status.IsNotFound();
}

constexpr size_t kMaxOpenAttempts = 5;
/// The first backoff; each retry doubles it.
constexpr uint64_t kInitialBackoffUs = 1000;

}  // namespace

Status SnapshotManager::OpenWithRetry(
    const std::string& dir,
    std::shared_ptr<const ShardedEnsemble>* out) const {
  uint64_t backoff_us = kInitialBackoffUs;
  Status last = Status::OK();
  for (size_t attempt = 0; attempt < kMaxOpenAttempts; ++attempt) {
    if (attempt > 0) {
      if (options_.backoff_sleep) {
        options_.backoff_sleep(backoff_us);
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      }
      backoff_us *= 2;
    }
    auto opened =
        ShardedEnsemble::OpenSnapshot(dir, options_.serving, options_.open);
    if (opened.ok()) {
      *out = std::make_shared<const ShardedEnsemble>(
          std::move(opened).value());
      return Status::OK();
    }
    last = opened.status();
    if (!IsTransientOpenError(last)) return last;
  }
  return last.WithMessagePrefix(
      "snapshot open failed after " + std::to_string(kMaxOpenAttempts) +
      " attempts");
}

Status SnapshotManager::Open(const std::string& dir) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (current_ != nullptr) {
      return Status::FailedPrecondition(
          "already serving: use SwapTo() to change generations");
    }
  }
  return SwapTo(dir);
}

Status SnapshotManager::SwapTo(const std::string& dir) {
  // The expensive part — manifest parse, S shard opens, checksum sweeps —
  // runs with no lock held: readers keep Acquiring the old generation at
  // full speed while the new one validates.
  std::shared_ptr<const ShardedEnsemble> fresh;
  LSHE_RETURN_IF_ERROR(OpenWithRetry(dir, &fresh));

  std::shared_ptr<const ShardedEnsemble> displaced;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    displaced = std::move(current_);
    current_ = std::move(fresh);
    if (displaced != nullptr) retired_.push_back(displaced);
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  // `displaced` (the local) drops here: if no wave is mid-flight on the
  // old generation, this release is the one that unmaps it — outside the
  // mutex, so a slow munmap never stalls readers.
  return Status::OK();
}

std::shared_ptr<const ShardedEnsemble> SnapshotManager::Acquire() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

size_t SnapshotManager::retired_count() {
  std::lock_guard<std::mutex> lock(mutex_);
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [](const auto& weak) {
                                  return weak.expired();
                                }),
                 retired_.end());
  return retired_.size();
}

}  // namespace lshensemble
