// ingest-mixed: writes beside reads on a 4-shard index. Half the COD-like
// corpus is indexed in set-up; the other half arrives from raw values
// through ShardedEnsemble::Insert(id, values) in open loop at 2,000
// inserts/s plus 500 removes/s (default rebuild policy, so global rebuilds
// fire during the phase), while one reader issues closed-loop 64-query
// BatchQuery waves. The delta scan, the sketch kernel, tombstones and
// rebuilds do the work.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/clusterer.h"
#include "e2e.h"
#include "util/clock.h"
#include "util/hashing.h"
#include "util/random.h"

namespace lshensemble {
namespace e2e {
namespace {

constexpr double kInsertRate = 2000.0;
constexpr double kRemoveRate = 500.0;
constexpr size_t kReaderWave = 64;
constexpr size_t kPoolSize = 4096;
constexpr size_t kAuditQueries = 2048;
constexpr int kSetupReps = 5;
constexpr double kThresholds[] = {0.5, 0.7, 0.9};

struct Op {
  uint64_t id;
  bool insert;
};

struct Inputs {
  Corpus corpus;  // domain ids equal corpus indices (workload/generator.h)
  std::vector<size_t> indexed;  // corpus indices indexed in set-up
  /// The whole write stream: every arriving domain, and a remove after
  /// every fourth insert. A run issues its first num_ops, one per 1/2500 s,
  /// so the stream (and its fingerprint) does not depend on --seconds.
  std::vector<Op> ops;
  size_t num_ops = 0;
  std::vector<uint64_t> live;  // ids live after the run's ops, ascending
  std::vector<Query> pool;     // reader traffic (initially indexed)
  std::vector<Query> audit;    // initially indexed, removed by no op
};

/// The reader's traffic comes from --seed. The corpus, the indexed half,
/// the op stream and the audit are fixed (kCorpusSeed), so the audited live
/// set is the same in every run.
Inputs MakeInputs(const Args& args,
                  const std::shared_ptr<const HashFamily>& family) {
  Inputs in;
  in.corpus = CodCorpus();
  const size_t n = in.corpus.size();
  Rng rng(HashCombine(kCorpusSeed, 0x696e67657374ULL));
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  in.indexed.assign(order.begin(), order.begin() + n / 2);

  std::vector<uint64_t> live(in.indexed.begin(), in.indexed.end());
  std::vector<bool> removed(n, false);
  for (size_t k = 0, next = n / 2; next < n; ++k) {
    if (k % 5 == 4) {
      const size_t victim = rng.NextBounded(live.size());
      in.ops.push_back({live[victim], false});
      removed[live[victim]] = true;
      live[victim] = live.back();
      live.pop_back();
    } else {
      in.ops.push_back({order[next], true});
      live.push_back(order[next++]);
    }
  }
  in.num_ops = std::min(
      in.ops.size(),
      static_cast<size_t>(args.seconds * (kInsertRate + kRemoveRate)));
  std::vector<bool> alive(n, false);
  for (size_t i : in.indexed) alive[i] = true;
  for (size_t k = 0; k < in.num_ops; ++k) alive[in.ops[k].id] = in.ops[k].insert;
  for (size_t i = 0; i < n; ++i) {
    if (alive[i]) in.live.push_back(i);
  }

  std::vector<size_t> kept;
  for (size_t i : in.indexed) {
    if (!removed[i]) kept.push_back(i);
  }
  auto draw = [&](const std::vector<size_t>& from, size_t count, Rng* r,
                  std::vector<Query>* out) {
    for (size_t i = 0; i < count; ++i) {
      Query q;
      q.domain = &in.corpus.domain(from[r->NextBounded(from.size())]);
      q.t_star = kThresholds[r->NextBounded(3)];
      q.sketch = MinHash::FromValues(family, q.domain->values);
      out->push_back(std::move(q));
    }
  };
  draw(kept, kAuditQueries, &rng, &in.audit);
  Rng traffic(HashCombine(args.seed, 0x726561646572ULL));
  draw(in.indexed, kPoolSize, &traffic, &in.pool);
  return in;
}

bool Fingerprints(const Args& args, const Inputs& in, Report* report) {
  Fingerprint corpus, queries;
  for (const Domain& d : in.corpus.domains()) corpus.AddDomain(d.values);
  for (size_t i : in.indexed) queries.Add(i);
  for (const Op& op : in.ops) {
    queries.Add(op.id);
    queries.Add(op.insert);
  }
  for (const auto* list : {&in.pool, &in.audit}) {
    for (const Query& q : *list) {
      queries.AddDomain(q.domain->values);
      queries.Add(std::bit_cast<uint64_t>(q.t_star));
    }
  }
  return CheckFingerprints(args, corpus, queries, report);
}

struct PhaseResult {
  double elapsed_s = 0.0;
  uint64_t queries = 0;
  uint64_t failed_ops = 0;
  uint64_t failed_waves = 0;
  std::vector<double> op_ms;        // from each op's scheduled time
  std::vector<double> lateness_ms;  // op start - scheduled time
  std::vector<double> wave_ms;
  size_t backlog_max = 0;           // ops due but not yet issued
  double slowest_insert_ms = 0.0;
  size_t rebuilds = 0;
  std::vector<double> delta_sizes;
  std::vector<double> tombstones;
};

/// The writer (open loop) and the reader (closed loop) side by side.
PhaseResult RunPhase(ShardedEnsemble* index, const Inputs& in, bool traced) {
  PhaseResult r;
  std::atomic<bool> writer_done{false};
  const uint64_t t0 = SteadyNowNanos();
  const double op_interval_ns = 1e9 / (kInsertRate + kRemoveRate);

  std::thread writer([&] {
    for (size_t k = 0; k < in.num_ops; ++k) {
      const auto due = t0 + static_cast<uint64_t>(k * op_interval_ns);
      if (const uint64_t now = SteadyNowNanos(); now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      const uint64_t start = SteadyNowNanos();
      const auto due_count =
          static_cast<size_t>(static_cast<double>(start - t0) / op_interval_ns);
      r.backlog_max = std::max(r.backlog_max, due_count - std::min(due_count, k));
      const Op& op = in.ops[k];
      const Domain& d = in.corpus.domain(op.id);
      const Status status =
          op.insert ? index->Insert(op.id, d.values) : index->Remove(op.id);
      const uint64_t end = SteadyNowNanos();
      if (!status.ok()) ++r.failed_ops;
      r.lateness_ms.push_back(static_cast<double>(start - due) / 1e6);
      r.op_ms.push_back(static_cast<double>(end - due) / 1e6);
      if (op.insert) {
        r.slowest_insert_ms = std::max(
            r.slowest_insert_ms, static_cast<double>(end - start) / 1e6);
        // A global rebuild empties every shard's delta.
        if (traced && index->delta_size() == 0) ++r.rebuilds;
      }
    }
    writer_done.store(true);
  });

  std::thread reader([&] {
    std::vector<QuerySpec> specs(kReaderWave);
    std::vector<std::vector<uint64_t>> outs(kReaderWave);
    for (size_t w = 0; !writer_done.load(); ++w) {
      for (size_t j = 0; j < kReaderWave; ++j) {
        const Query& q = in.pool[(w * kReaderWave + j) % in.pool.size()];
        specs[j] = {&q.sketch, q.domain->size(), q.t_star};
      }
      const uint64_t start = SteadyNowNanos();
      const Status status = index->BatchQuery(specs, outs.data());
      r.wave_ms.push_back(static_cast<double>(SteadyNowNanos() - start) / 1e6);
      if (status.ok()) {
        r.queries += kReaderWave;
      } else {
        ++r.failed_waves;
      }
      if (traced) {
        r.delta_sizes.push_back(static_cast<double>(index->delta_size()));
        r.tombstones.push_back(static_cast<double>(index->tombstone_count()));
      }
    }
  });
  writer.join();
  reader.join();
  r.elapsed_s = static_cast<double>(SteadyNowNanos() - t0) / 1e9;
  return r;
}

double ReaderQps(const PhaseResult& r) {
  return static_cast<double>(r.queries) / r.elapsed_s;
}

void Account(const PhaseResult& r, const Inputs& in, Report* report) {
  report->attempted += in.num_ops + r.queries + r.failed_waves * kReaderWave;
  report->failed += r.failed_ops + r.failed_waves * kReaderWave;
}

/// After the final Flush: the live set is the one the op stream implies,
/// and the mutated index answers exactly like a fresh index over it.
void CheckAgainstFresh(const ShardedEnsemble& index, const Inputs& in,
                       const std::shared_ptr<const HashFamily>& family,
                       Report* report) {
  const std::vector<ClusterRecord> records = CollectRecords(index);
  bool same_live = records.size() == in.live.size();
  for (size_t i = 0; same_live && i < records.size(); ++i) {
    same_live = records[i].id == in.live[i];
  }
  report->Check("live_set", same_live,
                std::to_string(records.size()) + " live records, " +
                    std::to_string(in.live.size()) + " expected");

  Result<ShardedEnsemble> fresh =
      ShardedEnsemble::Create(EngineOptions(kShards, true), family);
  if (!fresh.ok()) Die("Create", fresh.status());
  for (const ClusterRecord& record : records) {
    Status status =
        fresh.value().Insert(record.id, record.size, record.signature);
    if (!status.ok()) Die("fresh Insert", status);
  }
  if (Status status = fresh.value().Flush(); !status.ok()) {
    Die("fresh Flush", status);
  }
  const std::vector<QuerySpec> specs = Specs(in.audit);
  std::vector<std::vector<uint64_t>> mutated(specs.size()), rebuilt(specs.size());
  const bool ran = index.BatchQuery(specs, mutated.data()).ok() &&
                   fresh.value().BatchQuery(specs, rebuilt.data()).ok();
  size_t differ = 0;
  for (size_t i = 0; ran && i < specs.size(); ++i) {
    differ += mutated[i] == rebuilt[i] ? 0 : 1;
  }
  report->Check("mutated_equals_fresh", ran && differ == 0,
                std::to_string(specs.size()) + " queries, " +
                    std::to_string(differ) + " differ");
}

/// The traced run: the phase again on a fresh set-up with spans on, then
/// the replay of the reader's waves against the index as the phase left
/// it (delta and tombstones still in place).
std::unique_ptr<ShardedEnsemble> TracedRun(
    const Args& args, const Inputs& in,
    const std::shared_ptr<const HashFamily>& family, double untraced_qps,
    Report* report) {
  trace::SetEnabled(true);
  double setup_s = 0.0;
  const std::string dir = args.work_dir + "/snapshot-traced";
  std::unique_ptr<ShardedEnsemble> index =
      BuildIndex(in.corpus, in.indexed, kShards, family, dir, &setup_s);
  PhaseResult r;
  {
    trace::Span span("phase.ingest");
    trace::CountAllocs(true);
    r = RunPhase(index.get(), in, /*traced=*/true);
    trace::CountAllocs(false);
    span.Arg("delta_size_mean", Mean(r.delta_sizes));
    span.Arg("tombstones_mean", Mean(r.tombstones));
    span.Arg("rebuilds", static_cast<double>(r.rebuilds));
    span.Arg("rebuild_stall_ms_max", r.slowest_insert_ms);
    span.Arg("lateness_p99_ms", Quantile(&r.lateness_ms, 0.99));
    span.Arg("outstanding_max", static_cast<double>(r.backlog_max));
  }
  Account(r, in, report);
  {
    trace::Span span("trace.overhead");
    span.Arg("untraced_qps", untraced_qps);
    span.Arg("traced_qps", ReaderQps(r));
  }

  ReplayStream stream;
  stream.index = index.get();
  stream.wave = kReaderWave;
  stream.budget_seconds = 0.3 * args.seconds;
  for (size_t i = 0; i < in.pool.size(); ++i) {
    const Query& q = in.pool[i];
    stream.threshold.push_back({&q.sketch, q.domain->size(), q.t_star});
  }
  ReplayLayers(stream);
  {
    trace::Span span("sketch.replay");
    size_t inserts = 0;
    for (size_t k = 0; k < in.num_ops && inserts < 2000; ++k) {
      if (!in.ops[k].insert) continue;
      const MinHash sketch =
          MinHash::FromValues(family, in.corpus.domain(in.ops[k].id).values);
      inserts += sketch.valid() ? 1 : 0;
    }
    span.Arg("inserts", static_cast<double>(inserts));
  }
  TracePartitioning(*index);
  return index;
}

}  // namespace

int RunIngest(const Args& args, Report* report) {
  const auto family = HashFamily::Create(kNumHashes, kFamilySeed).value();
  const Inputs in = MakeInputs(args, family);
  if (!Fingerprints(args, in, report)) return 3;
  if (args.calibrate) return 0;

  const double rss_before = BeginPeakRss();
  const std::string dir = args.work_dir + "/snapshot";
  std::vector<double> setup(1);
  // Set-up as an operator starts live ingest: the indexed half bulk-loaded,
  // snapshotted and reopened under the default rebuild policy.
  std::unique_ptr<ShardedEnsemble> index =
      BuildIndex(in.corpus, in.indexed, kShards, family, dir, &setup[0]);
  const PhaseResult r = RunPhase(index.get(), in, /*traced=*/false);
  if (args.trace) {
    index = TracedRun(args, in, family, ReaderQps(r), report);
  } else {
    Account(r, in, report);
    report->Metric("peak_rss_mb", PeakRssGrowthMb(rss_before), "MB", 1);
    report->Metric("qps", ReaderQps(r), "1/s", r.queries);
    ReportLatency(report, "", r.wave_ms);
    std::vector<double> op_ms = r.op_ms;
    report->Metric("insert_p99_ms", Quantile(&op_ms, 0.99), "ms",
                   op_ms.size());
    std::vector<double> lateness = r.lateness_ms;
    report->Note("gen_lateness_p99_ms",
                 std::to_string(Quantile(&lateness, 0.99)));
  }

  const double flush_start = NowSeconds();
  if (Status s = index->Flush(); !s.ok()) Die("final Flush", s);
  report->Metric("flush_s", NowSeconds() - flush_start, "s", 1);
  CheckAgainstFresh(*index, in, family, report);
  if (args.trace) return 0;

  ReportErrorRate(report);
  std::vector<const Domain*> live;
  for (uint64_t id : in.live) live.push_back(&in.corpus.domain(id));
  Audit(*index, live, in.audit, report);
  index.reset();
  for (int rep = 1; rep < kSetupReps; ++rep) {
    std::filesystem::remove_all(dir);
    setup.emplace_back();
    index = BuildIndex(in.corpus, in.indexed, kShards, family, dir,
                       &setup.back());
    index.reset();
  }
  std::filesystem::remove_all(dir);
  report->Metric("setup_s", Median(setup), "s", setup.size());
  return 0;
}

}  // namespace e2e
}  // namespace lshensemble
