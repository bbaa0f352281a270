// serve-native and serve-foreign: the network front-end over a snapshot-
// opened 4-shard index of the COD-like corpus, driven over loopback by one
// poll-driven load thread on 4 connections.
//
//   serve-native   90% threshold queries on indexed domains (t* in
//                  {0.5, 0.7, 0.9}), 10% top-k (k = 10): the paper's
//                  join-discovery traffic; forest probe, tuning, gather and
//                  ranking do the work.
//   serve-foreign  threshold queries at t* = 0.5 for ad-hoc tables built
//                  by MakeQueryWithContainment (3 of 4 at containment
//                  0.05, 1 of 4 at 0.8): mostly rejected by the probe
//                  filters, so wire, batcher and scatter overhead dominate.
//
// Phases, as shares of the run's measured time (BENCHMARK.json's
// run_seconds): closed-loop warm-up (0.05), closed-loop saturation (0.25
// in five windows, `qps`), open loop at the pinned reference rate (0.05
// warm-up + 0.35, latency), then the pinned rate ladder (0.015 + 0.045 per
// rung, stopping at the first rung that misses the SLO).

#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "e2e.h"
#include "loadgen.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/hashing.h"
#include "util/random.h"
#include "workload/generator.h"

namespace lshensemble {
namespace e2e {
namespace {

constexpr size_t kPoolSize = 4096;
constexpr size_t kAuditQueries = 2048;
constexpr size_t kCheckedRequests = 256;
constexpr size_t kConnections = 4;
constexpr size_t kWindow = 64;
constexpr uint32_t kTopK = 10;
constexpr int kSetupReps = 5;
constexpr int kSaturationWindows = 5;
constexpr double kThresholds[] = {0.5, 0.7, 0.9};

struct Inputs {
  Corpus corpus;
  std::vector<Domain> foreign;  // serve-foreign query domains
  std::vector<Query> pool;      // the traffic
  std::vector<Query> audit;     // accuracy audit (threshold queries)
};

/// `count` queries drawn from `seed`: sampled indexed domains, 10% of them
/// top-k when `with_topk` (serve-native), or ad-hoc tables kept in
/// `in->foreign` (serve-foreign).
std::vector<Query> MakeQueries(Inputs* in, bool foreign, size_t count,
                               bool with_topk, uint64_t seed,
                               const std::shared_ptr<const HashFamily>& family) {
  const size_t n = in->corpus.size();
  Rng rng(HashCombine(seed, 0x7365727665ULL));
  std::vector<Query> queries(count);
  for (size_t i = 0; i < count; ++i) {
    Query& q = queries[i];
    if (foreign) {
      const Domain& target = in->corpus.domain(rng.NextBounded(n));
      const double containment = i % 4 == 3 ? 0.8 : 0.05;
      Result<Domain> table = MakeQueryWithContainment(
          target, target.size(), containment, in->foreign.size(), rng);
      if (!table.ok()) Die("query generation", table.status());
      in->foreign.push_back(std::move(table).value());
      q.domain = &in->foreign.back();
    } else {
      q.domain = &in->corpus.domain(rng.NextBounded(n));
      q.t_star = kThresholds[rng.NextBounded(3)];
      q.topk = with_topk && rng.NextDouble() < 0.1;
    }
    q.sketch = MinHash::FromValues(family, q.domain->values);
  }
  return queries;
}

/// The traffic comes from --seed; the corpus and the audit are fixed
/// (kCorpusSeed).
Inputs MakeInputs(const Args& args, bool foreign,
                  const std::shared_ptr<const HashFamily>& family) {
  Inputs in;
  in.corpus = CodCorpus();
  // Query pointers into `foreign` must survive every push_back.
  in.foreign.reserve(foreign ? kPoolSize + kAuditQueries : 0);
  in.pool = MakeQueries(&in, foreign, kPoolSize, true, args.seed, family);
  in.audit = MakeQueries(&in, foreign, kAuditQueries, false,
                         HashCombine(kCorpusSeed, 0x6175646974ULL), family);
  return in;
}

bool Fingerprints(const Args& args, const Inputs& in, Report* report) {
  Fingerprint corpus, queries;
  for (const Domain& d : in.corpus.domains()) corpus.AddDomain(d.values);
  for (const auto* list : {&in.pool, &in.audit}) {
    for (const Query& q : *list) {
      queries.AddDomain(q.domain->values);
      queries.Add(std::bit_cast<uint64_t>(q.t_star));
      queries.Add(q.topk);
    }
  }
  return CheckFingerprints(args, corpus, queries, report);
}

/// A serving process: the snapshot-opened engine and the server on it.
struct Rig {
  std::shared_ptr<const ShardedEnsemble> engine;
  std::unique_ptr<serve::Server> server;
  double seconds = 0.0;
};

/// Set-up as a deployment pays it: the snapshot-opened index (BuildIndex),
/// then a server with ServerOptions defaults.
Rig SetUp(const Corpus& corpus, const std::vector<size_t>& all,
          const std::shared_ptr<const HashFamily>& family,
          const std::string& dir) {
  Rig rig;
  rig.engine = BuildIndex(corpus, all, kShards, family, dir, &rig.seconds);
  const double start = NowSeconds();
  {
    trace::Span span("setup.start");
    const std::shared_ptr<const ShardedEnsemble> engine = rig.engine;
    Result<std::unique_ptr<serve::Server>> server = serve::Server::Start(
        serve::ServerOptions{}, [engine] { return engine; });
    if (!server.ok()) Die("Server::Start", server.status());
    rig.server = std::move(server).value();
  }
  rig.seconds += NowSeconds() - start;
  return rig;
}

void TearDown(Rig* rig, const std::string& dir) {
  rig->server->Stop();
  rig->server.reset();
  rig->engine.reset();
  std::filesystem::remove_all(dir);
}

/// The first kCheckedRequests pool requests over the wire must equal the
/// direct engine's BatchQuery / BatchSearch answers byte for byte.
void CheckWire(const Rig& rig, const std::vector<Query>& pool,
               Report* report) {
  auto client = serve::Client::Connect("127.0.0.1", rig.server->port());
  if (!client.ok()) Die("connect", client.status());
  size_t mismatches = 0, failures = 0;
  for (size_t i = 0; i < kCheckedRequests; ++i) {
    const Query& q = pool[i % pool.size()];
    const size_t size = q.domain->size();
    if (q.topk) {
      const TopKQuery spec{&q.sketch, size};
      std::vector<TopKResult> direct;
      auto wire = client.value().TopK(q.sketch, size, kTopK);
      if (!rig.engine->BatchSearch({&spec, 1}, kTopK, &direct).ok() ||
          !wire.ok()) {
        ++failures;
        continue;
      }
      bool equal = wire.value().entries.size() == direct.size();
      for (size_t j = 0; equal && j < direct.size(); ++j) {
        equal = wire.value().entries[j].id == direct[j].id &&
                wire.value().entries[j].estimated_containment ==
                    direct[j].estimated_containment;
      }
      mismatches += equal ? 0 : 1;
    } else {
      const QuerySpec spec{&q.sketch, size, q.t_star};
      std::vector<uint64_t> direct;
      auto wire = client.value().Query(q.sketch, size, q.t_star);
      if (!rig.engine->BatchQuery({&spec, 1}, &direct).ok() || !wire.ok()) {
        ++failures;
        continue;
      }
      mismatches += wire.value().ids == direct ? 0 : 1;
    }
  }
  report->attempted += kCheckedRequests;
  report->failed += failures;
  report->Check("wire_equals_direct", mismatches == 0 && failures == 0,
                std::to_string(kCheckedRequests) + " requests, " +
                    std::to_string(mismatches) + " differ, " +
                    std::to_string(failures) + " failed");
}

std::vector<WireRequest> EncodePool(const std::vector<Query>& pool) {
  std::vector<WireRequest> frames;
  frames.reserve(pool.size());
  for (const Query& q : pool) {
    WireRequest request;
    request.topk = q.topk;
    if (q.topk) {
      serve::TopKRequest msg;
      msg.family_seed = kFamilySeed;
      msg.k = kTopK;
      msg.query_size = q.domain->size();
      msg.slots = q.sketch.values();
      serve::EncodeTopKRequest(msg, &request.frame);
    } else {
      serve::QueryRequest msg;
      msg.family_seed = kFamilySeed;
      msg.t_star = q.t_star;
      msg.query_size = q.domain->size();
      msg.slots = q.sketch.values();
      serve::EncodeQueryRequest(msg, &request.frame);
    }
    frames.push_back(std::move(request));
  }
  return frames;
}

/// p99 over every request of a rung, failed and unanswered ones counting
/// as infinitely late (they miss any latency limit).
double RungP99(const LoadResult& r) {
  std::vector<double> all = r.threshold_ms;
  all.insert(all.end(), r.topk_ms.begin(), r.topk_ms.end());
  all.resize(all.size() + r.failures(), 1e300);
  return Quantile(&all, 0.99);
}

struct PhaseAccount {
  uint64_t sent = 0;
  uint64_t failures = 0;
  void Add(const LoadResult& r) {
    sent += r.sent;
    failures += r.failures();
  }
};

/// Seed of one load phase's arrivals and walk over the pool.
uint64_t PhaseSeed(const Args& args, uint64_t phase) {
  return HashCombine(args.seed, phase);
}

/// Closed-loop saturation, kConnections x kWindow requests in flight: the
/// median of back-to-back windows spanning `seconds`, so one scheduling
/// hiccup moves one window rather than the result.
double Saturation(const Args& args, double seconds,
                  const std::vector<WireRequest>& frames, LoadGenerator* gen,
                  PhaseAccount* account) {
  std::vector<double> qps;
  for (int k = 0; k < kSaturationWindows; ++k) {
    const LoadResult r =
        gen->Run(frames, {0.0, kWindow, 0.0, seconds / kSaturationWindows,
                          PhaseSeed(args, 10 + k), false});
    account->Add(r);
    qps.push_back(r.qps());
  }
  return Median(qps);
}

/// Server counter deltas over one phase, as span args (per-layer `serve.*`).
class ServerDelta {
 public:
  explicit ServerDelta(const serve::ServerMetrics& m)
      : m_(m),
        fill_sum_(m.batch_fill.sum()),
        fill_count_(m.batch_fill.count()),
        coalesce_sum_(m.coalesce_latency_us.sum()),
        coalesce_count_(m.coalesce_latency_us.count()),
        dispatch_sum_(m.dispatch_latency_us.sum()),
        dispatch_count_(m.dispatch_latency_us.count()),
        sheds_(m.sheds.load()),
        bytes_(m.bytes_read.load() + m.bytes_written.load()),
        responses_(m.responses_sent.load()) {}

  double MeanFill() const {
    return Ratio(m_.batch_fill.sum() - fill_sum_,
                 m_.batch_fill.count() - fill_count_);
  }

  void AddArgs(trace::Span* span) const {
    span->Arg("batch_fill_mean", MeanFill());
    span->Arg("coalesce_us_mean",
              Ratio(m_.coalesce_latency_us.sum() - coalesce_sum_,
                    m_.coalesce_latency_us.count() - coalesce_count_));
    span->Arg("dispatch_us_mean",
              Ratio(m_.dispatch_latency_us.sum() - dispatch_sum_,
                    m_.dispatch_latency_us.count() - dispatch_count_));
    span->Arg("sheds", static_cast<double>(m_.sheds.load() - sheds_));
    span->Arg("bytes_per_req",
              Ratio(m_.bytes_read.load() + m_.bytes_written.load() - bytes_,
                    m_.responses_sent.load() - responses_));
  }

 private:
  static double Ratio(uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  }

  const serve::ServerMetrics& m_;
  uint64_t fill_sum_, fill_count_, coalesce_sum_, coalesce_count_,
      dispatch_sum_, dispatch_count_, sheds_, bytes_, responses_;
};

/// The traced run's reference phase plus the layer replay of its stream.
void TracedPhases(const Args& args, const Inputs& in, const Rig& rig,
                  const std::vector<WireRequest>& frames,
                  LoadGenerator* gen, double untraced_qps,
                  PhaseAccount* account) {
  const double s = args.seconds;
  trace::SetEnabled(true);
  trace::CountAllocs(true);
  double traced_qps = 0.0;
  {
    trace::Span span("phase.saturation");
    traced_qps = Saturation(args, 0.25 * s, frames, gen, account);
  }
  LoadResult ref;
  double mean_fill = 1.0;
  {
    trace::Span span("serve.reference");
    const ServerDelta delta(rig.server->metrics());
    ref = gen->Run(frames, {args.reference_rate, kWindow, 0.05 * s, 0.35 * s,
                            PhaseSeed(args, 2), true});
    delta.AddArgs(&span);
    mean_fill = delta.MeanFill();
    std::vector<double> all = ref.threshold_ms;
    all.insert(all.end(), ref.topk_ms.begin(), ref.topk_ms.end());
    span.Arg("latency_us_mean", Mean(all) * 1e3);
    span.Arg("decode_ns_mean", ref.decodes == 0
                                   ? 0.0
                                   : static_cast<double>(ref.decode_ns) /
                                         static_cast<double>(ref.decodes));
    span.Arg("lateness_p99_ms", Quantile(&ref.lateness_ms, 0.99));
    span.Arg("outstanding_max", static_cast<double>(ref.outstanding_max));
  }
  trace::CountAllocs(false);
  {
    trace::Span span("trace.overhead");
    span.Arg("untraced_qps", untraced_qps);
    span.Arg("traced_qps", traced_qps);
  }
  account->Add(ref);

  ReplayStream stream;
  stream.index = rig.engine.get();
  stream.wave = static_cast<size_t>(std::max(1.0, mean_fill + 0.5));
  stream.budget_seconds = 0.3 * s;
  for (uint32_t pick : ref.picks) {
    const Query& q = in.pool[pick];
    if (q.topk) {
      stream.topk.push_back({&q.sketch, q.domain->size()});
    } else {
      stream.threshold.push_back({&q.sketch, q.domain->size(), q.t_star});
    }
  }
  stream.topk_k = kTopK;
  ReplayLayers(stream);
  TracePartitioning(*rig.engine);
}

}  // namespace

int RunServe(const Args& args, Report* report) {
  const bool foreign = args.workload == "serve-foreign";
  const auto family = HashFamily::Create(kNumHashes, kFamilySeed).value();
  const Inputs in = MakeInputs(args, foreign, family);
  if (!Fingerprints(args, in, report)) return 3;
  const std::vector<WireRequest> frames = EncodePool(in.pool);
  const std::vector<size_t> all = AllIndices(in.corpus);
  const std::string dir = args.work_dir + "/snapshot";
  const double s = args.seconds;

  const double rss_before = BeginPeakRss();
  // The traced run records set-up spans; its untraced saturation (the base
  // of trace.overhead_frac) then runs with recording off.
  trace::SetEnabled(args.trace);
  Rig rig = SetUp(in.corpus, all, family, dir);
  trace::SetEnabled(false);
  CheckWire(rig, in.pool, report);
  Result<LoadGenerator> connected =
      LoadGenerator::Connect(rig.server->port(), kConnections);
  if (!connected.ok()) Die("load generator connect", connected.status());
  LoadGenerator gen = std::move(connected).value();

  gen.Run(frames, {0.0, kWindow, 0.0, 0.05 * s, PhaseSeed(args, 1), false});
  PhaseAccount account;
  const double qps = Saturation(args, 0.25 * s, frames, &gen, &account);
  report->Metric("qps", qps, "1/s", kSaturationWindows);
  if (args.calibrate) {
    TearDown(&rig, dir);
    return 0;
  }
  if (args.reference_rate <= 0.0) {
    std::fprintf(stderr, "no pinned reference rate: run --calibrate first\n");
    return 2;
  }
  if (args.trace) {
    TracedPhases(args, in, rig, frames, &gen, qps, &account);
    report->attempted += account.sent;
    report->failed += account.failures;
    TearDown(&rig, dir);
    return 0;
  }

  LoadResult ref = gen.Run(frames, {args.reference_rate, kWindow, 0.05 * s,
                                    0.35 * s, PhaseSeed(args, 2), false});
  account.Add(ref);
  ReportLatency(report, "", ref.threshold_ms);
  if (!foreign) ReportLatency(report, "topk_", ref.topk_ms);
  const double lateness_p99 = Quantile(&ref.lateness_ms, 0.99);
  report->Note("gen_lateness_p99_ms", std::to_string(lateness_p99));
  report->Note("valid", lateness_p99 <= 1.0 ? "true" : "false");
  if (lateness_p99 > 1.0) {
    std::fprintf(stderr, "warning: generator lateness p99 %.3f ms > 1 ms: "
                 "run invalid\n", lateness_p99);
  }

  // The ladder: the highest pinned rung meeting the SLO without a backlog.
  double max_at_slo = 0.0;
  std::string rungs;
  for (size_t k = 0; k < args.rungs.size(); ++k) {
    const LoadResult r = gen.Run(frames, {args.rungs[k], kWindow, 0.015 * s,
                                          0.045 * s, PhaseSeed(args, 3 + k),
                                          false});
    const double p99 = RungP99(r);
    const double sent = static_cast<double>(std::max<uint64_t>(r.sent, 1));
    // No growing backlog: all but error_rate of the rung is answered
    // within 1 s of its last send (LoadGenerator's drain deadline).
    const bool pass =
        p99 <= args.slo_p99_ms &&
        static_cast<double>(r.errors + r.sheds) / sent <=
            args.slo_error_rate &&
        static_cast<double>(r.unanswered) / sent <= args.slo_error_rate;
    char rung[48];
    std::snprintf(rung, sizeof(rung), "%s%.0f:%s", rungs.empty() ? "" : " ",
                  args.rungs[k], pass ? "pass" : "fail");
    rungs += rung;
    if (!pass) break;
    max_at_slo = args.rungs[k];
  }
  report->Note("ladder", rungs);
  report->Metric("max_qps_at_slo", max_at_slo, "1/s", args.rungs.size());
  report->Metric("peak_rss_mb", PeakRssGrowthMb(rss_before), "MB", 1);
  report->attempted += account.sent;
  report->failed += account.failures;
  ReportErrorRate(report);

  std::vector<const Domain*> live;
  for (const Domain& d : in.corpus.domains()) live.push_back(&d);
  Audit(*rig.engine, live, in.audit, report);
  std::vector<double> setup = {rig.seconds};
  TearDown(&rig, dir);
  for (int rep = 1; rep < kSetupReps; ++rep) {
    rig = SetUp(in.corpus, all, family, dir);
    setup.push_back(rig.seconds);
    TearDown(&rig, dir);
  }
  report->Metric("setup_s", Median(setup), "s", setup.size());
  return 0;
}

}  // namespace e2e
}  // namespace lshensemble
