// The wire load generator: one poll-driven thread over a few connections,
// writing pre-encoded request frames, in open loop (Poisson arrivals at a
// fixed rate, each request timed from when it was due) or closed loop (a
// fixed number of requests in flight per connection).

#ifndef LSHENSEMBLE_BENCH_E2E_LOADGEN_H_
#define LSHENSEMBLE_BENCH_E2E_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "util/result.h"

namespace lshensemble {
namespace e2e {

/// One pre-encoded request of the query pool. Its request id is patched
/// in place at send time, so every request on the wire is unique.
struct WireRequest {
  std::string frame;
  bool topk = false;
};

struct LoadOptions {
  /// Open loop: mean arrival rate (1/s). 0 selects closed loop.
  double rate = 0.0;
  /// Closed loop: requests kept in flight per connection.
  size_t window = 64;
  /// Requests due before warmup_s are sent but not measured.
  double warmup_s = 0.0;
  double measure_s = 1.0;
  /// Seeds the arrival times and the walk over the pool.
  uint64_t seed = 1;
  /// Time every DecodeMessage call (the traced run).
  bool time_decode = false;
};

/// What one load phase measured, over the requests due in its window.
struct LoadResult {
  double elapsed_s = 0.0;
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t errors = 0;      ///< non-retryable error frames
  uint64_t sheds = 0;       ///< retryable (shed) error frames
  /// No response within 1 s of the phase's last send (the drain deadline).
  uint64_t unanswered = 0;
  std::vector<double> threshold_ms;
  std::vector<double> topk_ms;
  /// Open loop: how late each request went out, in ms.
  std::vector<double> lateness_ms;
  size_t outstanding_max = 0;
  uint64_t decode_ns = 0;
  uint64_t decodes = 0;
  /// Pool index of every measured request, in send order.
  std::vector<uint32_t> picks;

  uint64_t failures() const { return errors + sheds + unanswered; }
  double qps() const {
    return elapsed_s > 0 ? static_cast<double>(answered) / elapsed_s : 0.0;
  }
};

class LoadGenerator {
 public:
  /// Open `connections` loopback connections to `port`.
  static Result<LoadGenerator> Connect(uint16_t port, size_t connections);

  LoadGenerator(LoadGenerator&& other) noexcept;
  LoadGenerator& operator=(LoadGenerator&&) = delete;
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;
  ~LoadGenerator();

  /// Run one phase over `pool` and wait for its responses (up to 1 s after
  /// the last send). Responses to earlier phases are ignored.
  LoadResult Run(const std::vector<WireRequest>& pool,
                 const LoadOptions& options);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_offset = 0;
    serve::FrameReader reader;
  };

  LoadGenerator() = default;

  std::vector<Conn> conns_;
  /// Request ids are unique across phases, so late answers to an earlier
  /// phase can be told apart.
  uint64_t next_id_ = 1;
};

}  // namespace e2e
}  // namespace lshensemble

#endif  // LSHENSEMBLE_BENCH_E2E_LOADGEN_H_
