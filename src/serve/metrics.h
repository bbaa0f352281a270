// Server-side observability: lock-free counters and histograms behind a
// plaintext exposition endpoint.
//
// Every metric is a relaxed std::atomic — the hot paths (reactor reads,
// batcher dispatches) only ever increment, and the scrape path reads
// whatever values are current; exact cross-counter consistency is not a
// goal (no scrape should ever contend with serving). Histograms use
// power-of-two buckets so recording is a handful of instructions
// (clz + one atomic add) and the exposition stays small.
//
// RenderPrometheus() emits the Prometheus text format (one
// `# TYPE`-annotated family per metric, `_bucket`/`_sum`/`_count` for
// histograms) so `curl host:port/metrics` drops straight into any
// scraper — but nothing here depends on Prometheus; it is plain text.

#ifndef LSHENSEMBLE_SERVE_METRICS_H_
#define LSHENSEMBLE_SERVE_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace lshensemble {
namespace serve {

/// \brief Power-of-two-bucket histogram: value v lands in bucket
/// floor(log2(max(v, 1))), capped at kBuckets - 1. Thread-safe, wait-free
/// recording; Render() emits cumulative Prometheus buckets.
class Pow2Histogram {
 public:
  static constexpr size_t kBuckets = 32;

  /// Record one observation (relaxed ordering; safe from any thread).
  void Record(uint64_t value);

  /// Total observations so far.
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of all observed values.
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Mean observed value (0 when empty).
  double mean() const;

  /// \brief Append this histogram in Prometheus text format as family
  /// `name` (with `unit` documented in the HELP line).
  void Render(const std::string& name, const std::string& help,
              std::string* out) const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// \brief Every counter and histogram the server exports. One instance
/// per Server; all members are safe to mutate from any thread.
struct ServerMetrics {
  // ---- connection lifecycle ----
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_closed{0};
  // ---- request traffic, by type ----
  std::atomic<uint64_t> query_requests{0};
  std::atomic<uint64_t> topk_requests{0};
  std::atomic<uint64_t> stats_requests{0};
  std::atomic<uint64_t> reload_requests{0};
  std::atomic<uint64_t> responses_sent{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  // ---- degradation ----
  /// Requests rejected with a retryable error because the pending queue
  /// or the engine's admission bound was full.
  std::atomic<uint64_t> sheds{0};
  /// Requests that failed with DeadlineExceeded.
  std::atomic<uint64_t> deadline_exceeded{0};
  /// Responses flagged partial (deadline cut off some shards).
  std::atomic<uint64_t> partial_responses{0};
  /// Non-retryable error responses (bad requests, engine errors).
  std::atomic<uint64_t> request_errors{0};
  /// Connections dropped for protocol violations (bad framing).
  std::atomic<uint64_t> protocol_errors{0};
  // ---- the micro-batcher ----
  /// Engine dispatch waves issued (each one BatchQuery/BatchSearch).
  std::atomic<uint64_t> batches_dispatched{0};
  /// Requests answered through a dispatch wave (sum of batch fills).
  std::atomic<uint64_t> batched_requests{0};
  /// Batch fill: requests coalesced per dispatch wave.
  Pow2Histogram batch_fill;
  /// Coalesce latency: enqueue -> dispatch wait per request, in
  /// microseconds (the price paid for batching; bounded by the linger).
  Pow2Histogram coalesce_latency_us;
  /// Engine latency: dispatch -> results per wave, in microseconds.
  Pow2Histogram dispatch_latency_us;

  /// \brief Render every family in Prometheus text format (metric names
  /// prefixed `lshe_serve_`).
  std::string RenderPrometheus() const;
};

}  // namespace serve
}  // namespace lshensemble

#endif  // LSHENSEMBLE_SERVE_METRICS_H_
