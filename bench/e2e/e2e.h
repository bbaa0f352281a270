// The end-to-end benchmark driver (lshe_e2e): declarations shared by its
// workloads. run.py builds and invokes this binary once per workload; the
// binary generates its inputs from --seed, measures, checks its outputs
// and writes one JSON result file. README.md describes the workloads and
// every metric.

#ifndef LSHENSEMBLE_BENCH_E2E_E2E_H_
#define LSHENSEMBLE_BENCH_E2E_E2E_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/lsh_ensemble.h"
#include "core/sharded_ensemble.h"
#include "core/topk.h"
#include "data/corpus.h"
#include "minhash/minhash.h"
#include "util/status.h"

namespace lshensemble {
namespace e2e {

/// Settings of one workload run (flags documented in main.cc).
struct Args {
  std::string workload;
  uint64_t seed = 0;
  /// Measured time of the run (BENCHMARK.json's run_seconds); every phase
  /// length is a share of it.
  double seconds = 0.0;
  bool trace = false;
  /// Generate the inputs and report their fingerprints; serve workloads
  /// also measure saturation qps. Nothing else runs.
  bool calibrate = false;
  std::string result_path;
  /// Scratch directory for snapshots and the span dump.
  std::string work_dir;
  /// Pinned input fingerprints; empty = print instead of checking.
  std::string expect_corpus_fp;
  std::string expect_queries_fp;
  /// Serve workloads: the pinned open-loop reference rate, the ladder and
  /// the SLO its rungs must meet (p99 latency, failed share).
  double reference_rate = 0.0;
  std::vector<double> rungs;
  double slo_p99_ms = 0.0;
  double slo_error_rate = 0.0;
};

/// What a run measured and checked; written as the run's JSON result.
class Report {
 public:
  /// Record metric `name` (later calls with the same name replace it).
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples);
  /// Record a correctness check; a failed check fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Free-form context (fingerprints, phase settings) for the result file.
  void Note(const std::string& key, const std::string& value);

  bool ok() const;
  bool Write(const std::string& path) const;

  /// Operations issued by the fixed-load phases and the checks, and how
  /// many of them failed (error frames, sheds, unanswered, failed calls).
  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  struct MetricEntry {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  struct CheckEntry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<MetricEntry> metrics_;
  std::vector<CheckEntry> checks_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// ---------------------------------------------------------------- inputs --

/// The hash-family seed of every workload (fixed: it is part of the index
/// configuration, not of the input).
inline constexpr uint64_t kFamilySeed = 20160905;
inline constexpr int kNumHashes = 256;
inline constexpr size_t kShards = 4;

/// Seed of every corpus, of the ingest op stream and of the accuracy audit
/// picks. It is fixed so that recall and precision are judged on one test
/// set whatever --seed is: they repeat exactly across seeds, and a change
/// that moves them by less than any seed-to-seed spread still shows.
/// --seed drives the traffic.
inline constexpr uint64_t kCorpusSeed = 20160905;

/// The Canadian-Open-Data-like corpus: 65,533 power-law domains.
Corpus CodCorpus();
/// The planted-duplicates corpus: 2,048 groups x 8 plus 32,768 background.
Corpus PlantedCorpus();
/// 0, 1, ..., corpus.size() - 1.
std::vector<size_t> AllIndices(const Corpus& corpus);

/// Order-sensitive 64-bit hash of raw input values.
class Fingerprint {
 public:
  void Add(uint64_t value);
  void AddDomain(std::span<const uint64_t> values);
  std::string Hex() const;

 private:
  uint64_t state_ = 0x6c73686520653265ULL;
};

/// Record both fingerprints and compare each with its pin, when one is
/// given. Returns false on a mismatch, which aborts the run.
bool CheckFingerprints(const Args& args, const Fingerprint& corpus,
                       const Fingerprint& queries, Report* report);

/// One generated query: raw values (for exact ground truth) and the
/// client-side sketch the program is sent.
struct Query {
  const Domain* domain = nullptr;
  MinHash sketch;
  double t_star = 0.5;
  bool topk = false;
};

// ---------------------------------------------------------------- helpers --

/// Report a failed library call and exit.
[[noreturn]] void Die(const char* what, const Status& status);

double NowSeconds();
/// Start a peak-memory window: hand freed heap back to the OS (so heap an
/// earlier step left behind cannot absorb the window's growth), reset the
/// RSS high-water mark (/proc/self/clear_refs) and return the RSS, in MB.
double BeginPeakRss();
/// Growth of the RSS high-water mark since BeginPeakRss() returned
/// `baseline_mb`.
double PeakRssGrowthMb(double baseline_mb);
/// Hand freed heap pages back to the OS, as the exit of a separate build
/// process would: set-ups that build an index and then serve its snapshot
/// call this between the two, so the build's leftover heap is not counted
/// as serving memory.
void ReleaseFreedHeap();

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// Report `<prefix>p50_ms` always and `<prefix>p99_ms` only when at least
/// ten samples lie beyond the 99th percentile.
void ReportLatency(Report* report, const std::string& prefix,
                   std::vector<double> samples_ms);

/// Threshold specs for `queries` (borrowing their sketches).
std::vector<QuerySpec> Specs(const std::vector<Query>& queries);

/// `recall` and `precision`: the per-query means (paper Eq. 27,
/// eval/metrics.h) of `engine`'s answers to `audit` against ExactSearch
/// over the `live` domains, each query at its own t*.
void Audit(const ShardedEnsemble& engine,
           const std::vector<const Domain*>& live,
           const std::vector<Query>& audit, Report* report);

/// `error_rate`: the report's failed operations over attempted ones.
void ReportErrorRate(Report* report);

/// Options of every sharded engine the workloads build: library defaults
/// plus the shard count, so reopened and fresh indexes agree. A bulk load
/// turns off the automatic rebuild (as `lshe snapshot --shards` does) and
/// builds once with Flush().
ShardedEnsembleOptions EngineOptions(size_t num_shards, bool bulk_load);

/// Set-up as a deployment pays it: bulk-load the domains at `indices` into
/// a `num_shards`-shard engine (sketch, insert, Flush). With a non-empty
/// `snapshot_dir` the engine is then saved there and the snapshot reopened
/// under the default rebuild policy (`lshe serve`'s open options), the
/// freed build heap handed back to the OS in between. Sets `*seconds` to
/// the wall time taken. Every step is a span.
std::unique_ptr<ShardedEnsemble> BuildIndex(
    const Corpus& corpus, std::span<const size_t> indices, size_t num_shards,
    const std::shared_ptr<const HashFamily>& family,
    const std::string& snapshot_dir, double* seconds);

/// Total size of the regular files in `dir`, in MB.
double DirMb(const std::string& dir);

/// Time ComputePartitions over `index`'s live sizes with the engine's
/// options (the per-layer build.partition_ms), recorded as a span.
void TracePartitioning(const ShardedEnsemble& index);

// ---------------------------------------------------------------- tracing --

namespace trace {

/// Turn span recording on or off (off at start).
void SetEnabled(bool on);
bool enabled();

/// A timed interval on the calling thread; nests under the thread's open
/// span. A no-op while recording is off or when `name` is null.
class Span {
 public:
  explicit Span(const char* name, int64_t wave = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a named number to the span (written as a trace arg).
  void Arg(const char* key, double value);

 private:
  int id_ = -1;
};

/// While on, every operator new in the process is counted.
void CountAllocs(bool on);
uint64_t Allocs();

/// Write every recorded span as Chrome trace-event JSON.
bool WriteChrome(const std::string& path);

}  // namespace trace

// ----------------------------------------------------------------- replay --

/// The recorded query stream of a run, replayed one layer boundary at a
/// time on the calling thread (replay.cc): the sharded wave, each shard's
/// dynamic engine, each shard's indexed ensemble, then the tuner. Spans
/// and counts go to the trace.
struct ReplayStream {
  const ShardedEnsemble* index = nullptr;
  std::vector<QuerySpec> threshold;
  std::vector<TopKQuery> topk;
  size_t topk_k = 10;
  /// Queries per replayed wave (the observed mean batch fill).
  size_t wave = 64;
  /// Wall-time budget of the whole replay.
  double budget_seconds = 1.0;
};
void ReplayLayers(const ReplayStream& stream);

// -------------------------------------------------------------- workloads --

int RunServe(const Args& args, Report* report);
int RunIngest(const Args& args, Report* report);
int RunCluster(const Args& args, Report* report);

}  // namespace e2e
}  // namespace lshensemble

#endif  // LSHENSEMBLE_BENCH_E2E_E2E_H_
