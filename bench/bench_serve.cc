// Serving-layer throughput: does the micro-batcher convert concurrent
// connections into engine batches?
//
// Two in-process servers over the same sharded engine, hammered by the
// same closed-loop load (C connections, one request in flight each,
// N requests per connection):
//
//   per-request  batch_max=1, linger=0 — every request is its own
//                BatchQuery wave (what a naive server would do)
//   batched      batch_max>=C, linger=200us — concurrent requests
//                coalesce into one wave
//
// The qps ratio (from the medians of interleaved reps of at least 200 ms
// per mode) is the user-visible value of cross-request batching;
// the run FAILS if batching does not buy at least 1.5x at >= 32
// connections (the ISSUE 8 acceptance floor), or if the batcher never
// actually coalesced (mean batch fill <= 1 under concurrent load).
// Before any timing, every corpus query is answered once through the
// wire and byte-compared against a direct BatchQuery — the server must
// be a transparent window onto the engine.
//
// --connect=HOST:PORT skips the in-process servers and drives load at
// an external `lshe serve` (the CI smoke job uses this).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/sharded_ensemble.h"
#include "data/sketcher.h"
#include "minhash/minhash.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/timer.h"

namespace lshensemble {
namespace {

struct LoadResult {
  double seconds = 0.0;
  uint64_t completed = 0;
  uint64_t errors = 0;
};

/// Closed-loop pipelined load: `connections` threads, each one Client
/// sending `window` requests in one write, then reading the `window`
/// responses, `requests / window` times. Pipelining is how real clients
/// feed a batching server: the concurrency the batcher can coalesce is
/// connections x window. Shed (retryable) errors are counted, anything
/// else aborts the run.
LoadResult RunLoad(const std::string& host, uint16_t port,
                   const std::vector<MinHash>& sketches,
                   const std::vector<size_t>& sizes, double t_star,
                   size_t connections, size_t requests, size_t window) {
  std::vector<serve::Client> clients;
  clients.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    auto client = serve::Client::Connect(host, port);
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      std::exit(1);
    }
    clients.push_back(std::move(client).value());
  }
  std::vector<uint64_t> errors(connections, 0);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  StopWatch watch;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const uint64_t seed = sketches.front().family()->seed();
      for (size_t sent = 0; sent < requests; sent += window) {
        const size_t batch = std::min(window, requests - sent);
        std::string frames;
        for (size_t i = 0; i < batch; ++i) {
          const size_t pick = (c * requests + sent + i) % sketches.size();
          serve::QueryRequest req;
          req.request_id = sent + i + 1;
          req.family_seed = seed;
          req.t_star = t_star;
          req.query_size = sizes[pick];
          req.slots = sketches[pick].values();
          serve::EncodeQueryRequest(req, &frames);
        }
        if (!clients[c].SendFrames(frames).ok()) {
          std::fprintf(stderr, "send failed\n");
          std::exit(1);
        }
        for (size_t i = 0; i < batch; ++i) {
          auto msg = clients[c].ReceiveMessage();
          if (!msg.ok()) {
            std::fprintf(stderr, "receive failed: %s\n",
                         msg.status().ToString().c_str());
            std::exit(1);
          }
          if (msg.value().type == serve::MessageType::kErrorResponse) {
            const Status err = serve::StatusFromError(msg.value().error);
            if (!err.IsUnavailable()) {
              std::fprintf(stderr, "query failed: %s\n",
                           err.ToString().c_str());
              std::exit(1);
            }
            ++errors[c];  // shed under overload: counted, not retried
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult result;
  result.seconds = watch.ElapsedSeconds();
  result.completed = static_cast<uint64_t>(connections) * requests;
  for (uint64_t e : errors) result.errors += e;
  return result;
}

int Main(int argc, char** argv) {
  const size_t num_domains =
      static_cast<size_t>(bench::IntFlag(argc, argv, "domains", 4096));
  const int num_hashes =
      static_cast<int>(bench::IntFlag(argc, argv, "hashes", 64));
  const size_t num_shards =
      static_cast<size_t>(bench::IntFlag(argc, argv, "shards", 2));
  const size_t connections =
      static_cast<size_t>(bench::IntFlag(argc, argv, "connections", 32));
  const size_t requests =
      static_cast<size_t>(bench::IntFlag(argc, argv, "requests", 128));
  const size_t window =
      static_cast<size_t>(bench::IntFlag(argc, argv, "window", 16));
  const double t_star = bench::IntFlag(argc, argv, "tstar-pct", 50) / 100.0;
  const std::string connect = bench::StringFlag(argc, argv, "connect");
  bench::JsonResultWriter json("serve",
                               bench::StringFlag(argc, argv, "json"));

  const Corpus corpus = bench::WdcLikeCorpus(num_domains);
  auto family = HashFamily::Create(num_hashes, bench::kBenchSeed).value();
  const ParallelSketcher sketcher(family);
  std::vector<MinHash> sketches = sketcher.SketchCorpus(corpus);
  std::vector<size_t> sizes(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    sizes[i] = corpus.domain(i).size();
  }

  if (!connect.empty()) {
    // External mode: drive load at a running `lshe serve`. The target
    // must serve an index built from the same corpus flags and seed.
    const size_t colon = connect.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--connect wants HOST:PORT\n");
      return 2;
    }
    const std::string host = connect.substr(0, colon);
    const uint16_t port =
        static_cast<uint16_t>(std::atoi(connect.c_str() + colon + 1));
    const LoadResult load = RunLoad(host, port, sketches, sizes, t_star,
                                    connections, requests, window);
    std::printf("external %s: %llu queries in %.3fs = %.0f qps "
                "(%llu sheds retried)\n",
                connect.c_str(),
                static_cast<unsigned long long>(load.completed), load.seconds,
                static_cast<double>(load.completed) / load.seconds,
                static_cast<unsigned long long>(load.errors));
    return 0;
  }

  ShardedEnsembleOptions shard_options;
  shard_options.base.base.num_hashes = num_hashes;
  shard_options.base.min_delta_for_rebuild = num_domains + 1;
  shard_options.num_shards = num_shards;
  auto sharded = ShardedEnsemble::Create(shard_options, family);
  if (!sharded.ok()) {
    std::fprintf(stderr, "Create failed: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }
  auto engine = std::make_shared<ShardedEnsemble>(std::move(sharded).value());
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (!engine->Insert(i + 1, sizes[i], sketches[i]).ok()) {
      std::fprintf(stderr, "Insert failed\n");
      return 1;
    }
  }
  if (!engine->Flush().ok()) {
    std::fprintf(stderr, "Flush failed\n");
    return 1;
  }
  const std::shared_ptr<const ShardedEnsemble> serving = engine;
  const auto source = [serving] { return serving; };

  // --- correctness gate: wire answers byte-equal direct BatchQuery ----
  {
    serve::ServerOptions options;
    options.batch_max = 16;
    options.batch_linger_us = 50;
    auto server = serve::Server::Start(options, source);
    if (!server.ok()) {
      std::fprintf(stderr, "Start failed: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    auto client = serve::Client::Connect("127.0.0.1", server.value()->port());
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed\n");
      return 1;
    }
    const size_t check_count = std::min<size_t>(corpus.size(), 256);
    for (size_t i = 0; i < check_count; ++i) {
      std::vector<uint64_t> direct;
      const QuerySpec spec{&sketches[i], sizes[i], t_star};
      if (!serving
               ->BatchQuery(std::span<const QuerySpec>(&spec, 1), &direct)
               .ok()) {
        std::fprintf(stderr, "direct BatchQuery failed\n");
        return 1;
      }
      auto resp = client.value().Query(sketches[i], sizes[i], t_star);
      if (!resp.ok()) {
        std::fprintf(stderr, "wire query failed: %s\n",
                     resp.status().ToString().c_str());
        return 1;
      }
      if (resp.value().ids != direct) {
        std::fprintf(stderr,
                     "FAIL: wire answer for query %zu diverges from direct "
                     "BatchQuery (%zu vs %zu ids)\n",
                     i, resp.value().ids.size(), direct.size());
        return 1;
      }
    }
    std::printf("correctness: %zu wire answers byte-equal direct BatchQuery\n",
                check_count);
  }

  // --- throughput: per-request dispatch vs micro-batched --------------
  struct ModeResult {
    const char* mode;
    std::unique_ptr<serve::Server> server;
    double qps = 0.0;
    double mean_fill = 0.0;
    uint64_t sheds = 0;
    std::vector<double> floor_qps;
  };
  std::vector<ModeResult> results;
  for (const bool batched : {false, true}) {
    serve::ServerOptions options;
    if (batched) {
      options.batch_max = std::max<size_t>(64, connections * window / 2);
      options.batch_linger_us = 200;
    } else {
      options.batch_max = 1;
      options.batch_linger_us = 0;
    }
    auto server = serve::Server::Start(options, source);
    if (!server.ok()) {
      std::fprintf(stderr, "Start failed: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    ModeResult r;
    r.mode = batched ? "serve-batched" : "serve-per-request";
    r.server = std::move(server).value();
    // Warm-up wave, then the measured run.
    RunLoad("127.0.0.1", r.server->port(), sketches, sizes, t_star,
            connections, std::max<size_t>(requests / 8, window), window);
    const serve::ServerMetrics& metrics = r.server->metrics();
    const uint64_t fill_count0 = metrics.batch_fill.count();
    const uint64_t fill_sum0 = metrics.batch_fill.sum();
    // Best-of-3: single-box scheduling noise swamps a single run.
    for (int rep = 0; rep < 3; ++rep) {
      const LoadResult attempt =
          RunLoad("127.0.0.1", r.server->port(), sketches, sizes, t_star,
                  connections, requests, window);
      r.qps = std::max(
          r.qps, static_cast<double>(attempt.completed) / attempt.seconds);
    }
    const uint64_t waves = metrics.batch_fill.count() - fill_count0;
    r.mean_fill =
        waves > 0 ? static_cast<double>(metrics.batch_fill.sum() - fill_sum0) /
                        static_cast<double>(waves)
                  : 0.0;
    r.sheds = metrics.sheds.load();
    std::printf("%-18s %9.0f qps  mean batch fill %5.1f  (%zu conns x %zu)\n",
                r.mode, r.qps, r.mean_fill, connections, requests);
    json.BeginRow();
    json.Add("mode", std::string_view(r.mode));
    json.Add("connections", connections);
    json.Add("requests", requests);
    json.Add("window", window);
    json.Add("shards", num_shards);
    json.Add("qps", r.qps);
    json.Add("mean_batch_fill", r.mean_fill);
    results.push_back(std::move(r));
  }
  // The floor's ratio: medians of interleaved reps of at least
  // kFloorRepSeconds of load each, so one host stall cannot decide it.
  for (int rep = 0; rep < bench::kFloorReps; ++rep) {
    for (ModeResult& r : results) {
      uint64_t completed = 0;
      double seconds = 0.0;
      while (seconds < bench::kFloorRepSeconds) {
        const LoadResult load =
            RunLoad("127.0.0.1", r.server->port(), sketches, sizes, t_star,
                    connections, requests, window);
        completed += load.completed;
        seconds += load.seconds;
      }
      r.floor_qps.push_back(static_cast<double>(completed) / seconds);
    }
  }
  for (ModeResult& r : results) r.server->Stop();
  if (!json.Write()) return 1;

  const double batched_qps = bench::Median(results[1].floor_qps);
  const double per_request_qps = bench::Median(results[0].floor_qps);
  const double speedup = batched_qps / per_request_qps;
  std::printf("batched / per-request speedup: %.2fx (medians of %d reps: "
              "%.0f vs %.0f qps)\n",
              speedup, bench::kFloorReps, batched_qps, per_request_qps);
  // Machine checks (ISSUE 8 acceptance): coalesced dispatch must beat
  // per-request dispatch by >= 1.5x at >= 32 connections, and the
  // batcher must have actually coalesced under that load.
  if (connections >= 32) {
    if (speedup < 1.5) {
      std::fprintf(stderr,
                   "FAIL: batched speedup %.2fx below the 1.5x acceptance "
                   "floor at %zu connections\n",
                   speedup, connections);
      return 1;
    }
    if (results[1].mean_fill <= 1.0) {
      std::fprintf(stderr,
                   "FAIL: mean batch fill %.2f — the batcher never "
                   "coalesced concurrent requests\n",
                   results[1].mean_fill);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace lshensemble

int main(int argc, char** argv) { return lshensemble::Main(argc, argv); }
