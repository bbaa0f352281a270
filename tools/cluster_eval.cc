// cluster_eval — planted-duplicates harness for `lshe cluster`.
//
//   cluster_eval emit-csv --out corpus.csv [corpus flags]
//   cluster_eval eval --clusters clusters.tsv [--threshold T]
//                [--min-precision P] [--min-recall R] [--first-id N]
//                [corpus flags]
//
// `emit-csv` writes the deterministic planted-duplicates corpus
// (workload/generator.h) as one CSV whose COLUMNS are the domains (cell
// token "v<value>"), so `lshe index` ingests it through the exact
// production path — CSV parse, null-token drop, string hashing — and
// assigns domain ids consecutively from 1 in column order.
//
// `eval` regenerates the identical corpus, re-derives each domain's
// string-hashed value set (ids first-id + column, matching the index's
// assignment), reads the id→root TSV `lshe cluster` wrote, and scores
// pair-level precision/recall against exact ground truth
// (cluster/eval.h). With --min-precision/--min-recall it exits non-zero
// below either floor — the CI cluster-smoke gate.
//
// Corpus flags (same defaults in both modes; the two invocations must
// pass identical values): --groups, --group-size, --mother-size,
// --min-fraction, --background, --background-min, --background-max,
// --seed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/clusterer.h"
#include "cluster/eval.h"
#include "data/corpus.h"
#include "data/domain.h"
#include "workload/generator.h"

namespace lshensemble {
namespace {

struct Options {
  PlantedDuplicatesOptions corpus;
  std::string out;
  std::string clusters;
  double threshold = 0.9;
  double min_precision = -1.0;  // < 0: no floor
  double min_recall = -1.0;
  uint64_t first_id = 1;
};

void Usage() {
  std::fprintf(stderr, R"(usage:
  cluster_eval emit-csv --out FILE [corpus flags]
  cluster_eval eval --clusters TSV [--threshold T] [--min-precision P]
               [--min-recall R] [--first-id N] [corpus flags]

corpus flags: --groups N --group-size N --mother-size N --min-fraction F
              --background N --background-min N --background-max N --seed S
)");
}

bool ParseFlags(int argc, char** argv, Options* options) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--out" && (value = next())) {
      options->out = value;
    } else if (arg == "--clusters" && (value = next())) {
      options->clusters = value;
    } else if (arg == "--threshold" && (value = next())) {
      options->threshold = std::atof(value);
    } else if (arg == "--min-precision" && (value = next())) {
      options->min_precision = std::atof(value);
    } else if (arg == "--min-recall" && (value = next())) {
      options->min_recall = std::atof(value);
    } else if (arg == "--first-id" && (value = next())) {
      options->first_id = static_cast<uint64_t>(std::atoll(value));
    } else if (arg == "--groups" && (value = next())) {
      options->corpus.num_groups = static_cast<size_t>(std::atoll(value));
    } else if (arg == "--group-size" && (value = next())) {
      options->corpus.group_size = static_cast<size_t>(std::atoll(value));
    } else if (arg == "--mother-size" && (value = next())) {
      options->corpus.mother_size = static_cast<uint64_t>(std::atoll(value));
    } else if (arg == "--min-fraction" && (value = next())) {
      options->corpus.min_fraction = std::atof(value);
    } else if (arg == "--background" && (value = next())) {
      options->corpus.num_background = static_cast<size_t>(std::atoll(value));
    } else if (arg == "--background-min" && (value = next())) {
      options->corpus.background_min_size =
          static_cast<uint64_t>(std::atoll(value));
    } else if (arg == "--background-max" && (value = next())) {
      options->corpus.background_max_size =
          static_cast<uint64_t>(std::atoll(value));
    } else if (arg == "--seed" && (value = next())) {
      options->corpus.seed = static_cast<uint64_t>(std::atoll(value));
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// The string token `lshe index` will hash for a corpus value. Built in
/// place: GCC 12 raises a false -Werror=restrict on `"v" + to_string(..)`.
std::string Token(uint64_t value) {
  std::string token = std::to_string(value);
  token.insert(token.begin(), 'v');
  return token;
}

int RunEmitCsv(const Options& options) {
  if (options.out.empty()) {
    Usage();
    return 2;
  }
  auto corpus = PlantedDuplicatesCorpus(options.corpus);
  if (!corpus.ok()) return Fail(corpus.status());

  std::FILE* out = std::fopen(options.out.c_str(), "w");
  if (out == nullptr) {
    return Fail(Status::IOError("cannot write " + options.out));
  }
  // Columns = domains; short columns pad with empty (null-token) cells,
  // which extraction drops.
  size_t max_rows = 0;
  for (const Domain& domain : corpus->domains()) {
    max_rows = std::max(max_rows, domain.size());
  }
  for (size_t c = 0; c < corpus->size(); ++c) {
    std::fprintf(out, "%s%s", c > 0 ? "," : "",
                 corpus->domain(c).name.c_str());
  }
  std::fputc('\n', out);
  for (size_t r = 0; r < max_rows; ++r) {
    for (size_t c = 0; c < corpus->size(); ++c) {
      const Domain& domain = corpus->domain(c);
      if (c > 0) std::fputc(',', out);
      if (r < domain.size()) {
        std::fputs(Token(domain.values[r]).c_str(), out);
      }
    }
    std::fputc('\n', out);
  }
  if (std::fclose(out) != 0) {
    return Fail(Status::IOError("failed writing " + options.out));
  }
  std::printf("wrote %zu domains (%zu planted groups x %zu + %zu background) "
              "as CSV columns: %s\n",
              corpus->size(), options.corpus.num_groups,
              options.corpus.group_size, options.corpus.num_background,
              options.out.c_str());
  return 0;
}

int RunEval(const Options& options) {
  if (options.clusters.empty()) {
    Usage();
    return 2;
  }
  auto generated = PlantedDuplicatesCorpus(options.corpus);
  if (!generated.ok()) return Fail(generated.status());

  // Re-derive what the index actually clustered: the same domains after
  // the CSV round trip, i.e. string-hashed values under the ids `lshe
  // index` assigned (first-id + column order). Hashing is injective for
  // any realistic corpus, so exact containments are unchanged.
  std::vector<Domain> hashed(generated->size());
  for (size_t i = 0; i < generated->size(); ++i) {
    const Domain& domain = generated->domain(i);
    std::vector<std::string> tokens;
    tokens.reserve(domain.size());
    for (uint64_t value : domain.values) tokens.push_back(Token(value));
    hashed[i] = Domain::FromStrings(options.first_id + i, domain.name, tokens);
  }
  const Corpus corpus(std::move(hashed));

  ClusterResult clusters;
  std::FILE* in = std::fopen(options.clusters.c_str(), "r");
  if (in == nullptr) {
    return Fail(Status::IOError("cannot read " + options.clusters));
  }
  unsigned long long id = 0, root = 0;
  while (std::fscanf(in, "%llu\t%llu", &id, &root) == 2) {
    clusters.ids.push_back(id);
    clusters.roots.push_back(root);
  }
  std::fclose(in);
  if (clusters.ids.empty()) {
    return Fail(Status::InvalidArgument(options.clusters +
                                        " holds no id<TAB>root lines"));
  }

  auto accuracy = EvaluatePairAccuracy(corpus, clusters, options.threshold);
  if (!accuracy.ok()) return Fail(accuracy.status());
  std::printf(
      "{\"domains\": %zu, \"threshold\": %.3f, \"truth_pairs\": %zu, "
      "\"predicted_pairs\": %zu, \"hit_pairs\": %zu, \"precision\": %.4f, "
      "\"recall\": %.4f}\n",
      corpus.size(), options.threshold, accuracy->truth_pairs,
      accuracy->predicted_pairs, accuracy->hit_pairs, accuracy->precision,
      accuracy->recall);
  bool ok = true;
  if (options.min_precision >= 0.0 &&
      accuracy->precision < options.min_precision) {
    std::fprintf(stderr, "FAIL: precision %.4f below floor %.4f\n",
                 accuracy->precision, options.min_precision);
    ok = false;
  }
  if (options.min_recall >= 0.0 && accuracy->recall < options.min_recall) {
    std::fprintf(stderr, "FAIL: recall %.4f below floor %.4f\n",
                 accuracy->recall, options.min_recall);
    ok = false;
  }
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  Options options;
  if (!ParseFlags(argc, argv, &options)) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "emit-csv") return RunEmitCsv(options);
  if (command == "eval") return RunEval(options);
  Usage();
  return 2;
}

}  // namespace
}  // namespace lshensemble

int main(int argc, char** argv) { return lshensemble::Main(argc, argv); }
