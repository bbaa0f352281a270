#include "eval/experiment.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "baselines/asym_minhash.h"
#include "data/sketcher.h"
#include "eval/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace lshensemble {

IndexConfig IndexConfig::Baseline() {
  IndexConfig config;
  config.kind = Kind::kBaseline;
  config.label = "Baseline";
  config.num_partitions = 1;
  return config;
}

IndexConfig IndexConfig::Asym() {
  IndexConfig config;
  config.kind = Kind::kAsym;
  config.label = "Asym";
  return config;
}

IndexConfig IndexConfig::Ensemble(int num_partitions) {
  IndexConfig config;
  config.kind = Kind::kEnsemble;
  config.label = "LSH Ensemble (" + std::to_string(num_partitions) + ")";
  config.num_partitions = num_partitions;
  return config;
}

IndexConfig IndexConfig::AsymPartitioned(int num_partitions) {
  IndexConfig config;
  config.kind = Kind::kAsymPartitioned;
  config.label = "Asym + partitions (" + std::to_string(num_partitions) + ")";
  config.num_partitions = num_partitions;
  return config;
}

std::vector<double> DefaultThresholds() {
  std::vector<double> thresholds;
  for (int i = 1; i <= 20; ++i) thresholds.push_back(0.05 * i);
  return thresholds;
}

AccuracyExperiment::AccuracyExperiment(const Corpus& corpus,
                                       std::vector<size_t> index_indices,
                                       std::vector<size_t> query_indices,
                                       AccuracyExperimentOptions options)
    : corpus_(corpus),
      index_indices_(std::move(index_indices)),
      query_indices_(std::move(query_indices)),
      options_(std::move(options)) {
  if (options_.thresholds.empty()) {
    options_.thresholds = DefaultThresholds();
  }
}

Status AccuracyExperiment::Prepare() {
  if (index_indices_.empty() || query_indices_.empty()) {
    return Status::InvalidArgument("need index and query domains");
  }
  auto family = HashFamily::Create(options_.num_hashes, options_.seed);
  if (!family.ok()) return family.status();
  family_ = std::move(family).value();

  // Sketch every domain referenced by the experiment, in parallel through
  // the batched kernel.
  std::vector<char> needed(corpus_.size(), 0);
  for (size_t i : index_indices_) needed[i] = 1;
  for (size_t i : query_indices_) needed[i] = 1;
  std::vector<size_t> needed_indices;
  needed_indices.reserve(corpus_.size());
  for (size_t i = 0; i < corpus_.size(); ++i) {
    if (needed[i]) needed_indices.push_back(i);
  }
  sketches_.assign(corpus_.size(), MinHash());
  const ParallelSketcher sketcher(family_);
  sketcher.SketchSubset(corpus_, needed_indices, &sketches_);

  LSHE_ASSIGN_OR_RETURN(
      truth_, GroundTruth::Compute(corpus_, query_indices_, index_indices_));
  prepared_ = true;
  return Status::OK();
}

Result<std::vector<AccuracyCell>> AccuracyExperiment::RunConfig(
    const IndexConfig& config) const {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare() first");
  }

  // Build the configured index. Per-query parallelism happens at the
  // experiment level, so the ensemble's own query parallelism is disabled.
  std::optional<LshEnsemble> ensemble;
  std::optional<AsymMinhash> asym;
  std::vector<AsymMinhash> asym_partitions;
  if (config.kind == IndexConfig::Kind::kAsym) {
    AsymMinhashOptions options;
    options.num_hashes = options_.num_hashes;
    options.tree_depth = options_.tree_depth;
    AsymMinhash::Builder builder(options, family_);
    for (size_t i : index_indices_) {
      const Domain& domain = corpus_.domain(i);
      LSHE_RETURN_IF_ERROR(
          builder.Add(domain.id, domain.size(), sketches_[i]));
    }
    auto built = std::move(builder).Build();
    if (!built.ok()) return built.status();
    asym.emplace(std::move(built).value());
  } else if (config.kind == IndexConfig::Kind::kAsymPartitioned) {
    // The paper's unnumbered Section 6.1 experiment: Asymmetric Minwise
    // Hashing inside each equi-depth partition. Padding is per partition
    // (to the partition's largest domain), so the padding mass shrinks —
    // but the tail partition still spans a wide size range, which is why
    // the paper observes no significant recall improvement.
    std::vector<uint64_t> sizes;
    sizes.reserve(index_indices_.size());
    for (size_t i : index_indices_) {
      sizes.push_back(corpus_.domain(i).size());
    }
    std::sort(sizes.begin(), sizes.end());
    std::vector<PartitionSpec> specs;
    LSHE_ASSIGN_OR_RETURN(specs,
                          EquiDepthPartitions(sizes, config.num_partitions));
    AsymMinhashOptions options;
    options.num_hashes = options_.num_hashes;
    options.tree_depth = options_.tree_depth;
    for (const PartitionSpec& spec : specs) {
      if (spec.count == 0) continue;
      AsymMinhash::Builder builder(options, family_);
      for (size_t i : index_indices_) {
        const Domain& domain = corpus_.domain(i);
        if (domain.size() >= spec.lower && domain.size() < spec.upper) {
          LSHE_RETURN_IF_ERROR(
              builder.Add(domain.id, domain.size(), sketches_[i]));
        }
      }
      auto built = std::move(builder).Build();
      if (!built.ok()) return built.status();
      asym_partitions.push_back(std::move(built).value());
    }
  } else {
    LshEnsembleOptions options;
    options.num_partitions =
        config.kind == IndexConfig::Kind::kBaseline ? 1 : config.num_partitions;
    options.num_hashes = options_.num_hashes;
    options.tree_depth = options_.tree_depth;
    options.strategy = config.strategy;
    options.interpolation_lambda = config.interpolation_lambda;
    LshEnsembleBuilder builder(options, family_);
    for (size_t i : index_indices_) {
      const Domain& domain = corpus_.domain(i);
      LSHE_RETURN_IF_ERROR(
          builder.Add(domain.id, domain.size(), sketches_[i]));
    }
    auto built = std::move(builder).Build();
    if (!built.ok()) return built.status();
    ensemble.emplace(std::move(built).value());
  }

  auto query_index = [&](const MinHash& sketch, size_t exact_size, double t,
                         std::vector<uint64_t>* out) -> Status {
    const size_t q = options_.use_exact_query_size ? exact_size : 0;
    if (asym.has_value()) return asym->Query(sketch, q, t, out);
    if (config.kind == IndexConfig::Kind::kAsymPartitioned) {
      out->clear();
      std::vector<uint64_t> partial;
      for (const AsymMinhash& partition : asym_partitions) {
        partial.clear();
        LSHE_RETURN_IF_ERROR(partition.Query(sketch, q, t, &partial));
        out->insert(out->end(), partial.begin(), partial.end());
      }
      return Status::OK();
    }
    return ensemble->Query(sketch, q, t, out);
  };

  const size_t num_queries = query_indices_.size();
  std::vector<AccuracyCell> cells;
  cells.reserve(options_.thresholds.size());
  for (double threshold : options_.thresholds) {
    std::vector<size_t> result_sizes(num_queries), truth_sizes(num_queries),
        hit_counts(num_queries);
    std::vector<double> elapsed_micros(num_queries);
    std::vector<Status> statuses(num_queries);

    ThreadPool::Shared().ParallelFor(num_queries, [&](size_t qi) {
      const size_t corpus_index = query_indices_[qi];
      const Domain& domain = corpus_.domain(corpus_index);
      std::vector<uint64_t> candidates;
      StopWatch watch;
      statuses[qi] = query_index(sketches_[corpus_index], domain.size(),
                                 threshold, &candidates);
      elapsed_micros[qi] = watch.ElapsedMicros();
      if (!statuses[qi].ok()) return;
      std::sort(candidates.begin(), candidates.end());
      const std::vector<uint64_t> truth_set = truth_.TruthSet(qi, threshold);
      result_sizes[qi] = candidates.size();
      truth_sizes[qi] = truth_set.size();
      hit_counts[qi] = SortedIntersectionSize(candidates, truth_set);
    });
    for (const Status& status : statuses) {
      LSHE_RETURN_IF_ERROR(status);
    }

    AccuracyAccumulator accumulator;
    double total_micros = 0.0;
    for (size_t qi = 0; qi < num_queries; ++qi) {
      accumulator.AddCounts(result_sizes[qi], truth_sizes[qi], hit_counts[qi]);
      total_micros += elapsed_micros[qi];
    }
    AccuracyCell cell;
    cell.config = config.label;
    cell.threshold = threshold;
    cell.precision = accumulator.MeanPrecision();
    cell.recall = accumulator.MeanRecall();
    cell.f1 = accumulator.F1();
    cell.f05 = accumulator.F05();
    cell.mean_query_micros = total_micros / static_cast<double>(num_queries);
    cell.num_queries = num_queries;
    cells.push_back(cell);
  }
  return cells;
}

}  // namespace lshensemble
