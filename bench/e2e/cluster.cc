// cluster-dedup: the offline batch path. A ~49k-domain planted-duplicates
// corpus on a 4-shard index, clustered by CollectRecords +
// NearDupClusterer::Cluster at t* = 0.9 with 2,048-query tiles, pass after
// pass for the run's measured time. No wire and no delta: the self-join's
// large BatchQuery waves and the union-find do the work.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/clusterer.h"
#include "cluster/eval.h"
#include "e2e.h"

namespace lshensemble {
namespace e2e {
namespace {

constexpr double kThreshold = 0.9;
constexpr size_t kTile = 2048;
constexpr int kMinPasses = 5;
constexpr int kSetupReps = 5;

/// One clustering pass as a user runs it: enumerate, then self-join.
ClusterResult Pass(const ShardedEnsemble& index, ClusterStats* stats) {
  std::vector<ClusterRecord> records;
  {
    trace::Span span("cluster.collect");
    records = CollectRecords(index);
  }
  trace::Span span("cluster.join");
  const NearDupClusterer clusterer({kThreshold, kTile});
  Result<ClusterResult> result = clusterer.Cluster(index, records, stats);
  if (!result.ok()) Die("Cluster", result.status());
  span.Arg("records", static_cast<double>(stats->num_records));
  span.Arg("candidates", static_cast<double>(stats->candidates));
  span.Arg("unique_pairs", static_cast<double>(stats->unique_pairs));
  return std::move(result).value();
}

/// Passes for `seconds` (at least kMinPasses); returns each pass's time.
std::vector<double> TimedPasses(const ShardedEnsemble& index, double seconds,
                                ClusterResult* last) {
  std::vector<double> passes;
  const double start = NowSeconds();
  while (passes.size() < kMinPasses || NowSeconds() - start < seconds) {
    trace::Span span("cluster.pass");
    ClusterStats stats;
    const double t0 = NowSeconds();
    *last = Pass(index, &stats);
    passes.push_back(NowSeconds() - t0);
  }
  return passes;
}

/// Replay the first self-join tiles layer by layer.
void Replay(const ShardedEnsemble& index, double budget_seconds) {
  const std::vector<ClusterRecord> records = CollectRecords(index);
  ReplayStream stream;
  stream.index = &index;
  stream.wave = kTile;
  stream.budget_seconds = budget_seconds;
  for (const ClusterRecord& record : records) {
    stream.threshold.push_back({&record.signature, record.size, kThreshold});
  }
  ReplayLayers(stream);
}

}  // namespace

int RunCluster(const Args& args, Report* report) {
  // The self-join has no traffic: its input is the fixed corpus, so runs
  // at different seeds repeat one input and its pair accuracy is exact.
  const Corpus corpus = PlantedCorpus();
  Fingerprint corpus_fp, queries_fp;
  for (const Domain& d : corpus.domains()) corpus_fp.AddDomain(d.values);
  if (!CheckFingerprints(args, corpus_fp, queries_fp, report)) return 3;
  if (args.calibrate) return 0;
  const auto family = HashFamily::Create(kNumHashes, kFamilySeed).value();
  const std::vector<size_t> all = AllIndices(corpus);
  const double s = args.seconds;

  // The single-shard clustering every pass must reproduce (untimed).
  ClusterResult reference;
  {
    double unused = 0.0;
    const auto single = BuildIndex(corpus, all, 1, family, "", &unused);
    ClusterStats stats;
    reference = Pass(*single, &stats);
  }

  // Set-up as a batch job pays it: sketch, insert, Flush.
  const double rss_before = BeginPeakRss();
  trace::SetEnabled(args.trace);
  std::vector<double> setup(1);
  std::unique_ptr<ShardedEnsemble> index =
      BuildIndex(corpus, all, kShards, family, "", &setup[0]);
  trace::SetEnabled(false);
  ClusterResult result;
  {
    ClusterStats warmup;
    result = Pass(*index, &warmup);
  }

  std::vector<double> passes;
  if (args.trace) {
    const double untraced_qps =
        static_cast<double>(corpus.size()) /
        Median(TimedPasses(*index, 0.4 * s, &result));
    trace::SetEnabled(true);
    {
      trace::Span span("phase.cluster");
      trace::CountAllocs(true);
      passes = TimedPasses(*index, 0.4 * s, &result);
      trace::CountAllocs(false);
    }
    trace::Span overhead("trace.overhead");
    overhead.Arg("untraced_qps", untraced_qps);
    overhead.Arg("traced_qps",
                 static_cast<double>(corpus.size()) / Median(passes));
  } else {
    passes = TimedPasses(*index, s, &result);
    report->Metric("qps", static_cast<double>(corpus.size()) / Median(passes),
                   "1/s", passes.size());
    std::vector<double> ms;
    for (double p : passes) ms.push_back(p * 1e3);
    ReportLatency(report, "", ms);
  }
  report->attempted += passes.size() * corpus.size();
  report->Check("clusters_equal_single_shard",
                reference.ids == result.ids && reference.roots == result.roots,
                std::to_string(result.num_clusters) + " clusters at S=4, " +
                    std::to_string(reference.num_clusters) + " at S=1");

  if (args.trace) {
    Replay(*index, 0.3 * s);
    TracePartitioning(*index);
    return 0;
  }
  report->Metric("error_rate", 0.0, "ratio", report->attempted);
  Result<PairAccuracy> accuracy =
      EvaluatePairAccuracy(corpus, result, kThreshold);
  if (!accuracy.ok()) Die("EvaluatePairAccuracy", accuracy.status());
  report->Metric("recall", accuracy.value().recall, "ratio",
                 accuracy.value().truth_pairs);
  report->Metric("precision", accuracy.value().precision, "ratio",
                 accuracy.value().predicted_pairs);
  // The set-up and the first pass set the peak (later passes add under
  // 1 MB). The build's share of it moves from run to run with how the
  // pool's threads split the sketching (295-341 MB over 20 runs of this
  // one input). So every set-up, followed by one pass, is a peak sample,
  // and the metric is their median.
  std::vector<double> peaks = {PeakRssGrowthMb(rss_before)};
  index.reset();
  for (int rep = 1; rep < kSetupReps; ++rep) {
    const double before = BeginPeakRss();
    setup.emplace_back();
    index = BuildIndex(corpus, all, kShards, family, "", &setup.back());
    ClusterStats stats;
    Pass(*index, &stats);
    peaks.push_back(PeakRssGrowthMb(before));
    index.reset();
  }
  report->Metric("peak_rss_mb", Median(peaks), "MB", peaks.size());
  report->Metric("setup_s", Median(setup), "s", setup.size());
  return 0;
}

}  // namespace e2e
}  // namespace lshensemble
