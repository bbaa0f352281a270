// Ablation: dynamic per-query (b, r) tuning (Section 5.5) versus a
// traditional static MinHash LSH whose (b, r) is fixed at build time from
// a single Jaccard threshold (Eq. 21). The static index must pick one
// conversion point; the dynamic index re-optimizes per query size,
// partition and threshold.
//
// Expected: at the calibration threshold the two are comparable; away from
// it the static index loses either recall (threshold too low) or precision
// (threshold too high), while the dynamic index tracks both.

#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "core/lsh_ensemble.h"
#include "core/threshold.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "lsh/band_lsh.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace lshensemble;
  using namespace lshensemble::bench;
  const auto num_domains =
      static_cast<size_t>(IntFlag(argc, argv, "domains", 20000));
  const auto num_queries =
      static_cast<size_t>(IntFlag(argc, argv, "queries", 200));
  const double calibration_t = 0.5;  // the static index is tuned for this

  std::cout << "Ablation: dynamic (b,r) tuning vs static banded LSH\n"
            << num_domains << " domains, " << num_queries
            << " queries; static index calibrated at t*=" << calibration_t
            << "\n\n";

  const Corpus corpus = CodLikeCorpus(num_domains);
  auto family = HashFamily::Create(256, kBenchSeed).value();
  const auto index_indices = AllIndices(corpus);
  const auto query_indices = SampleQueryIndices(
      corpus, num_queries, QuerySizeBias::kUniform, kBenchSeed);
  auto truth =
      GroundTruth::Compute(corpus, query_indices, index_indices).value();

  std::vector<MinHash> sketches(corpus.size());
  ThreadPool::Shared().ParallelFor(corpus.size(), [&](size_t i) {
    sketches[i] = MinHash::FromValues(family, corpus.domain(i).values);
  });

  // Static banded LSH: convert the calibration containment threshold to a
  // Jaccard threshold with the global max size and a typical query size,
  // then fix (b, r) forever (the pre-LSH-Forest deployment style).
  uint64_t max_size = 0;
  double mean_size = 0;
  for (const Domain& domain : corpus.domains()) {
    max_size = std::max<uint64_t>(max_size, domain.size());
    mean_size += static_cast<double>(domain.size());
  }
  mean_size /= static_cast<double>(corpus.size());
  const double s_star = PartitionJaccardThreshold(
      calibration_t, static_cast<double>(max_size), mean_size);
  const BandParams static_params = ChooseStaticParams(256, s_star);
  std::cout << "static index: s* = " << FormatDouble(s_star, 4) << " -> (b="
            << static_params.b << ", r=" << static_params.r << ")\n";
  auto static_index =
      BandLsh::Create(static_params.b, static_params.r).value();
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (Status status = static_index.Add(corpus.domain(i).id, sketches[i]);
        !status.ok()) {
      std::cerr << "static add failed: " << status << "\n";
      return 1;
    }
  }

  // Dynamic: the ensemble with 16 partitions.
  LshEnsembleOptions options;
  options.num_partitions = 16;
  LshEnsembleBuilder builder(options, family);
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Domain& domain = corpus.domain(i);
    if (Status status = builder.Add(domain.id, domain.size(), sketches[i]);
        !status.ok()) {
      std::cerr << "dynamic add failed: " << status << "\n";
      return 1;
    }
  }
  auto dynamic_index = std::move(builder).Build();
  if (!dynamic_index.ok()) {
    std::cerr << "build failed: " << dynamic_index.status() << "\n";
    return 1;
  }

  TablePrinter printer({"t*", "static P", "static R", "dynamic P",
                        "dynamic R"});
  for (double t_star : {0.25, 0.5, 0.75, 0.9}) {
    AccuracyAccumulator static_acc, dynamic_acc;
    for (size_t qi = 0; qi < query_indices.size(); ++qi) {
      const size_t index = query_indices[qi];
      const Domain& domain = corpus.domain(index);
      const auto truth_set = truth.TruthSet(qi, t_star);

      std::vector<uint64_t> out;
      if (Status status = static_index.Query(sketches[index], &out);
          !status.ok()) {
        std::cerr << "static query failed: " << status << "\n";
        return 1;
      }
      static_acc.AddQuery(out, truth_set);

      out.clear();
      if (Status status = dynamic_index->Query(sketches[index], domain.size(),
                                               t_star, &out);
          !status.ok()) {
        std::cerr << "dynamic query failed: " << status << "\n";
        return 1;
      }
      std::sort(out.begin(), out.end());
      dynamic_acc.AddQuery(out, truth_set);
    }
    printer.AddRow({FormatDouble(t_star, 2),
                    FormatDouble(static_acc.MeanPrecision(), 3),
                    FormatDouble(static_acc.MeanRecall(), 3),
                    FormatDouble(dynamic_acc.MeanPrecision(), 3),
                    FormatDouble(dynamic_acc.MeanRecall(), 3)});
  }
  printer.Print(std::cout);
  std::cout << "\nExpected: the static index cannot serve thresholds away "
               "from its calibration point; the dynamic index tracks every "
               "threshold.\n";
  return 0;
}
