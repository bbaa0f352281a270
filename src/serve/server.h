// The lshe network front-end: a micro-batching TCP server over
// ShardedEnsemble.
//
// Everything the engine layers won — BatchQuery's amortized scatter,
// BatchSearch's lockstep descent, admission bounds, deadlines, hot
// snapshot swap — is reachable only by in-process callers. This server
// converts those wins into user-visible throughput. Its core is a
// cross-request micro-batcher: requests arriving on *different*
// connections within a small linger window (tens of microseconds) are
// coalesced into one BatchQuery / BatchSearch wave, and the wave's
// results are scattered back to each connection. Under concurrency the
// engine sees large batches (its efficient regime); an idle connection
// pays at most the linger in added latency.
//
// Threading model (thread-per-core reactor, epoll on Linux, poll(2)
// elsewhere):
//
//   reactor 0        accepts, hands connections out round-robin
//   reactors 0..R-1  own their connections exclusively: read frames,
//                    decode, validate, enqueue into the batcher; all
//                    socket writes happen on the owning reactor
//   dispatchers      plain std::threads (never pool workers — the
//                    engine's scatter paths forbid pool re-entry) that
//                    collect lanes into waves and call the engine
//   admin            one thread for slow control work (snapshot reload),
//                    so a multi-second open never stalls serving
//
// Degradation is explicit, never silent: a full pending queue or an
// engine at max_in_flight_batches sheds with a *retryable* error frame;
// an expired per-request deadline fails that request alone; in
// partial-results mode responses that lost shards to the deadline carry
// kResponseFlagPartial; a connection whose unsent output passes
// kOutputHighWaterBytes is not read until it drains. Every one of these
// shows up in /metrics.
//
// The /metrics endpoint shares the data port: a connection whose first
// four bytes are "GET " is answered as a one-shot HTTP scrape (the
// sniff cannot misfire — 0x20544547 as a frame length far exceeds any
// permitted max_frame_bytes).
//
// The wire protocol is specified in serve/protocol.h and docs/serving.md.

#ifndef LSHENSEMBLE_SERVE_SERVER_H_
#define LSHENSEMBLE_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/sharded_ensemble.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "util/result.h"
#include "util/status.h"

namespace lshensemble {
namespace serve {

/// \brief The per-connection output high-water mark. A reactor stops
/// reading a connection while the bytes queued for it and not yet written
/// exceed this, and resumes once FlushConnection has written them all, so
/// a client that pipelines requests and never reads cannot grow server
/// memory past the mark plus the responses to requests already read.
/// Far above what a reading client leaves queued (a 64-request pipeline
/// window of a few KB per response).
inline constexpr size_t kOutputHighWaterBytes = size_t{1} << 20;

/// \brief Tuning knobs for Server::Start(). The defaults serve a small
/// deployment; docs/serving.md discusses how to tune each.
struct ServerOptions {
  /// IPv4 address to bind ("127.0.0.1" loopback, "0.0.0.0" all).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Reactor (event-loop) threads. Reactor 0 also accepts.
  int num_reactors = 2;
  /// Dispatcher threads draining the batcher into the engine. Two lets
  /// a second wave form while the first is in the engine.
  int num_dispatchers = 2;
  /// Dispatch a wave as soon as a lane holds this many requests.
  size_t batch_max = 64;
  /// Otherwise dispatch when the oldest pending request has waited this
  /// long. The latency cost of batching is bounded by this linger.
  uint64_t batch_linger_us = 50;
  /// Shed (retryable error) when this many requests are already queued
  /// for dispatch. Bounds queue delay under sustained overload.
  size_t max_pending = 1024;
  /// Per-frame payload ceiling; larger prefixes poison the connection.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Deadline applied to requests that carry deadline_us = 0. 0 = none.
  uint64_t default_deadline_us = 0;

  /// OK iff every knob is in its valid range.
  Status Validate() const;
};

/// \brief A running server. Start() binds, spawns the threads and
/// returns; Stop() (or destruction) drains and joins them.
class Server {
 public:
  /// \brief Supplies the engine for each dispatch wave / stats probe.
  /// Called often and concurrently; must be cheap and never return null.
  /// For a fixed engine return the same shared_ptr; for hot-swapped
  /// serving return SnapshotManager::Acquire().
  using EngineSource =
      std::function<std::shared_ptr<const ShardedEnsemble>()>;

  /// \brief Optional control hooks. Absent hooks disable the feature
  /// (e.g. no reload hook -> reload requests fail with NotSupported).
  struct Hooks {
    /// Republish: swap to the latest snapshot, return the new epoch.
    /// Runs on the admin thread — may be slow.
    std::function<Result<uint64_t>()> reload;
    /// Current snapshot generation, for stats responses and /metrics.
    std::function<uint64_t()> epoch;
    /// Extra Prometheus text appended to every /metrics scrape.
    std::function<void(std::string*)> extra_metrics;
  };

  /// \brief Bind, listen and start serving. On success the returned
  /// server is live; on failure nothing is left running.
  static Result<std::unique_ptr<Server>> Start(const ServerOptions& options,
                                               EngineSource source,
                                               Hooks hooks = {});

  /// Stops and joins if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Shut down: stop accepting, drain queued waves, join every
  /// thread, close every connection. Idempotent.
  void Stop();

  /// The bound TCP port (the ephemeral pick when options.port was 0).
  uint16_t port() const;

  /// Live counters (also what /metrics renders). Safe any time.
  const ServerMetrics& metrics() const;

  /// \brief The full /metrics payload: request counters and histograms,
  /// engine gauges (shards, live domains, shard imbalance), snapshot
  /// epoch, plus Hooks::extra_metrics output.
  std::string RenderMetrics() const;

 private:
  Server() = default;

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace serve
}  // namespace lshensemble

#endif  // LSHENSEMBLE_SERVE_SERVER_H_
