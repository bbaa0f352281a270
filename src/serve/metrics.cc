#include "serve/metrics.h"

#include <bit>
#include <cinttypes>
#include <cstdio>

#include "core/tuning.h"

namespace lshensemble {
namespace serve {
namespace {

void AppendCounter(std::string* out, const char* name, const char* help,
                   uint64_t value) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "# HELP %s %s\n# TYPE %s counter\n%s %" PRIu64 "\n", name,
                help, name, name, value);
  out->append(line);
}

}  // namespace

void Pow2Histogram::Record(uint64_t value) {
  const uint64_t clamped = value == 0 ? 1 : value;
  size_t bucket = static_cast<size_t>(std::bit_width(clamped) - 1);
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

double Pow2Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

void Pow2Histogram::Render(const std::string& name, const std::string& help,
                           std::string* out) const {
  char line[256];
  std::snprintf(line, sizeof(line), "# HELP %s %s\n# TYPE %s histogram\n",
                name.c_str(), help.c_str(), name.c_str());
  out->append(line);
  uint64_t cumulative = 0;
  // Trailing all-empty buckets add nothing; stop after the last nonzero
  // one so the exposition stays proportional to the observed range.
  size_t last = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i].load(std::memory_order_relaxed) > 0) last = i;
  }
  for (size_t i = 0; i <= last; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    std::snprintf(line, sizeof(line), "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64
                  "\n",
                  name.c_str(), (uint64_t{1} << (i + 1)) - 1, cumulative);
    out->append(line);
  }
  std::snprintf(line, sizeof(line),
                "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n%s_sum %" PRIu64
                "\n%s_count %" PRIu64 "\n",
                name.c_str(), count(), name.c_str(), sum(), name.c_str(),
                count());
  out->append(line);
}

std::string ServerMetrics::RenderPrometheus() const {
  std::string out;
  out.reserve(4096);
  const auto get = [](const std::atomic<uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  AppendCounter(&out, "lshe_serve_connections_accepted_total",
                "Connections accepted", get(connections_accepted));
  AppendCounter(&out, "lshe_serve_connections_closed_total",
                "Connections closed", get(connections_closed));
  AppendCounter(&out, "lshe_serve_query_requests_total",
                "Threshold query requests received", get(query_requests));
  AppendCounter(&out, "lshe_serve_topk_requests_total",
                "Top-k query requests received", get(topk_requests));
  AppendCounter(&out, "lshe_serve_stats_requests_total",
                "Stats requests received", get(stats_requests));
  AppendCounter(&out, "lshe_serve_reload_requests_total",
                "Reload (hot-swap) requests received", get(reload_requests));
  AppendCounter(&out, "lshe_serve_responses_total", "Responses sent",
                get(responses_sent));
  AppendCounter(&out, "lshe_serve_bytes_read_total",
                "Request bytes read from sockets", get(bytes_read));
  AppendCounter(&out, "lshe_serve_bytes_written_total",
                "Response bytes written to sockets", get(bytes_written));
  AppendCounter(&out, "lshe_serve_sheds_total",
                "Requests shed with a retryable error under overload",
                get(sheds));
  AppendCounter(&out, "lshe_serve_deadline_exceeded_total",
                "Requests failed by their deadline", get(deadline_exceeded));
  AppendCounter(&out, "lshe_serve_partial_responses_total",
                "Responses flagged partial (deadline cut off shards)",
                get(partial_responses));
  AppendCounter(&out, "lshe_serve_request_errors_total",
                "Non-retryable error responses", get(request_errors));
  AppendCounter(&out, "lshe_serve_protocol_errors_total",
                "Connections dropped for framing violations",
                get(protocol_errors));
  AppendCounter(&out, "lshe_serve_output_paused_total",
                "Connection reads paused at the output high-water mark",
                get(output_paused));
  AppendCounter(&out, "lshe_serve_batches_total",
                "Engine dispatch waves issued", get(batches_dispatched));
  AppendCounter(&out, "lshe_serve_batched_requests_total",
                "Requests answered through dispatch waves",
                get(batched_requests));
  AppendCounter(&out, "lshe_serve_filter_admits_total",
                "Partition probes admitted by the probe filters",
                get(filter_admits));
  AppendCounter(&out, "lshe_serve_filter_false_admits_total",
                "Admitted partition probes that found no slot-0 key",
                get(filter_false_admits));
  AppendCounter(&out, "lshe_tuner_misses_total",
                "(b, r) tunings computed because the shared memo missed",
                Tuner::TotalMisses());
  batch_fill.Render("lshe_serve_batch_fill",
                    "Requests coalesced per dispatch wave", &out);
  coalesce_latency_us.Render(
      "lshe_serve_coalesce_latency_us",
      "Per-request wait from enqueue to dispatch, microseconds", &out);
  dispatch_latency_us.Render(
      "lshe_serve_dispatch_latency_us",
      "Engine time per dispatch wave, microseconds", &out);
  return out;
}

}  // namespace serve
}  // namespace lshensemble
