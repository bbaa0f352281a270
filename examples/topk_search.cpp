// Top-k joinability ranking: "which k tables join best with mine?"
//
// The paper frames domain search by containment threshold (Definition 2)
// and notes the top-k formulation is complementary (Section 2). This
// example ranks the k best join candidates for a query column without the
// caller having to guess a threshold: ShardedEnsemble::BatchSearch
// descends thresholds internally and ranks candidates by sketch-estimated
// containment, scoring them inside the shard tasks that find them.
//
// Build & run:  cmake --build build && ./build/examples/topk_search

#include <cstdio>
#include <iostream>
#include <span>
#include <vector>

#include "baselines/exact_search.h"
#include "core/sharded_ensemble.h"
#include "core/topk.h"
#include "eval/report.h"
#include "minhash/minhash.h"
#include "util/timer.h"
#include "workload/generator.h"

using namespace lshensemble;

int main() {
  // 1. Corpus of 30k synthetic domains with realistic overlap structure.
  CorpusGenOptions gen;
  gen.num_domains = 30000;
  gen.max_size = 50000;
  gen.seed = 7;
  auto corpus = CorpusGenerator(gen).Generate().value();

  // 2. Build a one-shard serving layer. It keeps every domain's size and
  //    sketch beside the index: top-k ranking needs them to estimate
  //    containment per candidate.
  auto family = HashFamily::Create(256, 11).value();
  ShardedEnsembleOptions options;
  options.base.base.num_partitions = 16;
  options.base.min_delta_for_rebuild = corpus.size() + 1;  // one Flush()
  auto index = ShardedEnsemble::Create(options, family).value();
  ExactSearch exact;  // only to show the true scores next to the estimates
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Domain& domain = corpus.domain(i);
    index.Insert(domain.id, domain.size(),
                 MinHash::FromValues(family, domain.values)).ok();
    exact.Add(domain.id, domain.values).ok();
  }
  index.Flush().ok();
  exact.Build();

  // 3. Rank the 10 best containers of a mid-sized query domain.
  const Domain& query = corpus.domain(4242);
  const MinHash query_sketch = MinHash::FromValues(family, query.values);
  const TopKQuery topk_query{&query_sketch, query.size()};

  StopWatch watch;
  std::vector<TopKResult> results;
  const Status status =
      index.BatchSearch(std::span<const TopKQuery>(&topk_query, 1), 10,
                        &results);
  const double elapsed_ms = watch.ElapsedMillis();
  if (!status.ok()) {
    std::cerr << "search failed: " << status << "\n";
    return 1;
  }

  std::printf("top-10 containers of '%s' (|Q| = %zu) in %.1f ms:\n\n",
              query.name.c_str(), query.size(), elapsed_ms);
  std::vector<std::pair<uint64_t, double>> overlaps;
  exact.Overlaps(query.values, &overlaps).ok();
  TablePrinter printer({"rank", "domain", "estimated t", "exact t", "|X|"});
  int rank = 1;
  for (const TopKResult& result : results) {
    double exact_t = 0.0;
    for (const auto& [id, score] : overlaps) {
      if (id == result.id) exact_t = score;
    }
    printer.AddRow({std::to_string(rank++), "domain-" +
                    std::to_string(result.id),
                    FormatDouble(result.estimated_containment, 3),
                    FormatDouble(exact_t, 3),
                    std::to_string(index.SizeOf(result.id))});
  }
  printer.Print(std::cout);

  // 4. Contrast with threshold search: picking t* = 0.5 either floods or
  //    starves depending on the query; top-k self-tunes.
  const QuerySpec at_half_spec{&query_sketch, query.size(), 0.5};
  std::vector<uint64_t> at_half;
  index.BatchQuery(std::span<const QuerySpec>(&at_half_spec, 1), &at_half)
      .ok();
  std::printf(
      "\nthreshold t* = 0.5 would have returned %zu candidates; top-k "
      "returned exactly %zu, ranked.\n",
      at_half.size(), results.size());
  return 0;
}
