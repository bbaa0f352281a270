#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

#include "e2e.h"
#include "baselines/exact_search.h"
#include "data/sketcher.h"
#include "eval/metrics.h"
#include "util/clock.h"
#include "workload/generator.h"

namespace lshensemble {
namespace e2e {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// The kB value of `field` in /proc/self/status, in MB (0 when absent).
double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atof(line.c_str() + prefix.size()) / 1024.0;
    }
  }
  return 0.0;
}

/// Sketch, insert and Flush the domains at `indices` (bulk-load options).
std::unique_ptr<ShardedEnsemble> BulkLoad(
    const Corpus& corpus, std::span<const size_t> indices, size_t num_shards,
    const std::shared_ptr<const HashFamily>& family) {
  Result<ShardedEnsemble> created =
      ShardedEnsemble::Create(EngineOptions(num_shards, true), family);
  if (!created.ok()) Die("Create", created.status());
  auto index = std::make_unique<ShardedEnsemble>(std::move(created).value());
  std::vector<MinHash> sketches(corpus.size());
  {
    trace::Span span("setup.sketch");
    double values = 0;
    for (size_t i : indices) {
      values += static_cast<double>(corpus.domain(i).size());
    }
    span.Arg("values", values);
    ParallelSketcher(family).SketchSubset(corpus, indices, &sketches);
  }
  {
    trace::Span span("setup.insert");
    for (size_t i : indices) {
      const Domain& d = corpus.domain(i);
      if (Status s = index->Insert(d.id, d.size(), std::move(sketches[i]));
          !s.ok()) {
        Die("Insert", s);
      }
    }
  }
  trace::Span span("setup.flush");
  if (Status s = index->Flush(); !s.ok()) Die("Flush", s);
  return index;
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  for (MetricEntry& entry : metrics_) {
    if (entry.name == name) {
      entry = {name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back({name, value, unit, samples});
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  std::fprintf(stderr, "check %-28s %s  %s\n", name.c_str(),
               ok ? "ok  " : "FAIL", detail.c_str());
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

bool Report::ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const CheckEntry& c) { return c.ok; });
}

bool Report::Write(const std::string& path) const {
  std::ostringstream out;
  out << "{\"correct\": " << (ok() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ",\n \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const MetricEntry& m = metrics_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << JsonString(m.name)
        << ": {\"value\": " << JsonNumber(m.value)
        << ", \"unit\": " << JsonString(m.unit) << ", \"n\": " << m.samples
        << "}";
  }
  out << "},\n \"checks\": [";
  for (size_t i = 0; i < checks_.size(); ++i) {
    const CheckEntry& c = checks_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"name\": " << JsonString(c.name)
        << ", \"ok\": " << (c.ok ? "true" : "false")
        << ", \"detail\": " << JsonString(c.detail) << "}";
  }
  out << "],\n \"notes\": {";
  for (size_t i = 0; i < notes_.size(); ++i) {
    out << (i == 0 ? "\n  " : ",\n  ") << JsonString(notes_[i].first) << ": "
        << JsonString(notes_[i].second);
  }
  out << "}}\n";
  std::ofstream file(path);
  file << out.str();
  return static_cast<bool>(file);
}

// Options literally copied from bench/bench_common.h CodLikeCorpus, so an
// edit there cannot move this workload.
Corpus CodCorpus() {
  CorpusGenOptions options;
  options.num_domains = 65533;
  options.min_size = 10;
  options.max_size = 100000;
  options.alpha = 2.0;
  options.min_fraction = 0.0;
  options.domains_per_pool = 32;
  options.shared_vocabulary = 20000;
  options.shared_fraction = 0.05;
  options.shared_zipf_s = 1.05;
  options.seed = kCorpusSeed;
  Result<Corpus> corpus = CorpusGenerator(options).Generate();
  if (!corpus.ok()) Die("corpus generation", corpus.status());
  return std::move(corpus).value();
}

// Group shape as in bench/bench_cluster.cc, scaled to ~49k domains.
Corpus PlantedCorpus() {
  PlantedDuplicatesOptions options;
  options.num_groups = 2048;
  options.group_size = 8;
  options.mother_size = 512;
  options.min_fraction = 0.92;
  options.num_background = 32768;
  options.background_min_size = 64;
  options.background_max_size = 2048;
  options.seed = kCorpusSeed;
  Result<Corpus> corpus = PlantedDuplicatesCorpus(options);
  if (!corpus.ok()) Die("corpus generation", corpus.status());
  return std::move(corpus).value();
}

std::vector<size_t> AllIndices(const Corpus& corpus) {
  std::vector<size_t> indices(corpus.size());
  std::iota(indices.begin(), indices.end(), size_t{0});
  return indices;
}

void Fingerprint::Add(uint64_t value) {
  state_ ^= value;
  state_ *= 0x9e3779b97f4a7c15ULL;
  state_ ^= state_ >> 31;
}

void Fingerprint::AddDomain(std::span<const uint64_t> values) {
  Add(values.size());
  for (uint64_t v : values) Add(v);
}

std::string Fingerprint::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

bool CheckFingerprints(const Args& args, const Fingerprint& corpus,
                       const Fingerprint& queries, Report* report) {
  report->Note("corpus_fingerprint", corpus.Hex());
  report->Note("queries_fingerprint", queries.Hex());
  std::fprintf(stderr, "fingerprints (seed %llu): corpus %s queries %s\n",
               static_cast<unsigned long long>(args.seed),
               corpus.Hex().c_str(), queries.Hex().c_str());
  auto matches = [](const char* what, const std::string& got,
                    const std::string& pinned) {
    if (pinned.empty() || got == pinned) return true;
    std::fprintf(stderr, "FAIL: workload inputs moved: %s %s, pinned %s\n",
                 what, got.c_str(), pinned.c_str());
    return false;
  };
  const bool corpus_ok = matches("corpus", corpus.Hex(), args.expect_corpus_fp);
  const bool queries_ok =
      matches("queries", queries.Hex(), args.expect_queries_fp);
  return corpus_ok && queries_ok;
}

double NowSeconds() { return static_cast<double>(SteadyNowNanos()) * 1e-9; }

void ReleaseFreedHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double BeginPeakRss() {
  ReleaseFreedHeap();
  std::ofstream("/proc/self/clear_refs") << "5";
  return StatusFieldMb("VmRSS");
}

double PeakRssGrowthMb(double baseline_mb) {
  return StatusFieldMb("VmHWM") - baseline_mb;
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const auto n = static_cast<double>(values->size());
  const auto rank = static_cast<size_t>(std::ceil(q * n));
  return (*values)[std::clamp<size_t>(rank, 1, values->size()) - 1];
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void ReportLatency(Report* report, const std::string& prefix,
                   std::vector<double> samples_ms) {
  const size_t n = samples_ms.size();
  report->Metric(prefix + "p50_ms", Quantile(&samples_ms, 0.5), "ms", n);
  if (n >= 1000) {
    report->Metric(prefix + "p99_ms", Quantile(&samples_ms, 0.99), "ms", n);
  }
}

void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

std::vector<QuerySpec> Specs(const std::vector<Query>& queries) {
  std::vector<QuerySpec> specs;
  specs.reserve(queries.size());
  for (const Query& q : queries) {
    specs.push_back({&q.sketch, q.domain->size(), q.t_star});
  }
  return specs;
}

void Audit(const ShardedEnsemble& engine,
           const std::vector<const Domain*>& live,
           const std::vector<Query>& audit, Report* report) {
  ExactSearch exact;
  for (const Domain* d : live) {
    if (Status s = exact.Add(d->id, d->values); !s.ok()) Die("ExactSearch", s);
  }
  exact.Build();
  const std::vector<QuerySpec> specs = Specs(audit);
  std::vector<std::vector<uint64_t>> answers(specs.size());
  if (Status s = engine.BatchQuery(specs, answers.data()); !s.ok()) {
    Die("audit BatchQuery", s);
  }
  AccuracyAccumulator accuracy;
  std::vector<uint64_t> truth;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (Status s = exact.Query(audit[i].domain->values, specs[i].t_star,
                               &truth);
        !s.ok()) {
      Die("ExactSearch", s);
    }
    accuracy.AddQuery(answers[i], truth);
  }
  report->Metric("recall", accuracy.MeanRecall(), "ratio", specs.size());
  report->Metric("precision", accuracy.MeanPrecision(), "ratio",
                 specs.size());
}

void ReportErrorRate(Report* report) {
  report->Metric("error_rate",
                 static_cast<double>(report->failed) /
                     static_cast<double>(std::max<uint64_t>(
                         report->attempted, 1)),
                 "ratio", report->attempted);
}

double DirMb(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

ShardedEnsembleOptions EngineOptions(size_t num_shards, bool bulk_load) {
  ShardedEnsembleOptions options;
  options.num_shards = num_shards;
  options.base.base.num_hashes = kNumHashes;
  if (bulk_load) {
    options.base.min_delta_for_rebuild = std::numeric_limits<size_t>::max();
  }
  return options;
}

std::unique_ptr<ShardedEnsemble> BuildIndex(
    const Corpus& corpus, std::span<const size_t> indices, size_t num_shards,
    const std::shared_ptr<const HashFamily>& family,
    const std::string& snapshot_dir, double* seconds) {
  const double start = NowSeconds();
  std::unique_ptr<ShardedEnsemble> index =
      BulkLoad(corpus, indices, num_shards, family);
  if (!snapshot_dir.empty()) {
    {
      trace::Span span("setup.save");
      if (Status s = index->SaveSnapshot(snapshot_dir); !s.ok()) {
        Die("SaveSnapshot", s);
      }
      if (trace::enabled()) span.Arg("mb", DirMb(snapshot_dir));
    }
    index.reset();
    ReleaseFreedHeap();
    trace::Span span("setup.open");
    Result<ShardedEnsemble> opened = ShardedEnsemble::OpenSnapshot(
        snapshot_dir, EngineOptions(num_shards, false));
    if (!opened.ok()) Die("OpenSnapshot", opened.status());
    index = std::make_unique<ShardedEnsemble>(std::move(opened).value());
  }
  *seconds = NowSeconds() - start;
  return index;
}

void TracePartitioning(const ShardedEnsemble& index) {
  std::vector<uint64_t> sizes;
  sizes.reserve(index.size());
  index.ForEachLiveRecord(
      [&](uint64_t, size_t size, SignatureView) { sizes.push_back(size); });
  std::sort(sizes.begin(), sizes.end());
  const LshEnsembleOptions options = EngineOptions(kShards, false).base.base;
  constexpr int kCalls = 5;
  trace::Span span("build.partition");
  span.Arg("calls", kCalls);
  for (int i = 0; i < kCalls; ++i) {
    if (Status s = ComputePartitions(sizes, options).status(); !s.ok()) {
      Die("ComputePartitions", s);
    }
  }
}

}  // namespace e2e
}  // namespace lshensemble
