// Shared plumbing for the per-figure/table bench binaries: flag parsing,
// the two reference corpora (Canadian-Open-Data-like and WDC-like; see
// DESIGN.md "Data substitution"), and result printing.
//
// Every binary runs with no arguments at a laptop-friendly default scale
// and prints the rows/series of its paper counterpart; flags let you raise
// the scale toward the paper's numbers.

#ifndef LSHENSEMBLE_BENCH_BENCH_COMMON_H_
#define LSHENSEMBLE_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/corpus.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "workload/generator.h"

namespace lshensemble {
namespace bench {

/// Parse "--name=value" style integer flags; returns `fallback` if absent.
inline int64_t IntFlag(int argc, char** argv, std::string_view name,
                       int64_t fallback) {
  const std::string prefix = std::string("--") + std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind(prefix, 0) == 0) {
      return std::atoll(arg.substr(prefix.size()).data());
    }
  }
  return fallback;
}

/// Parse "--name=value" or "--name value" style string flags; returns
/// `fallback` if absent.
inline std::string StringFlag(int argc, char** argv, std::string_view name,
                              std::string_view fallback = "") {
  const std::string bare = std::string("--") + std::string(name);
  const std::string prefix = bare + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind(prefix, 0) == 0) {
      return std::string(arg.substr(prefix.size()));
    }
    if (arg == bare && i + 1 < argc) return argv[i + 1];
  }
  return std::string(fallback);
}

/// \brief Machine-readable bench output: collects flat rows of key/value
/// pairs and writes them as `{"bench": <name>, "rows": [...]}` to the path
/// given by the --json flag (the perf-trajectory `BENCH_*.json` files).
/// With no --json path every call is a no-op, so benches emit
/// unconditionally.
class JsonResultWriter {
 public:
  /// \param bench  short bench identifier, e.g. "minhash".
  /// \param path   output file; empty disables the writer.
  JsonResultWriter(std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  /// Start a new result row.
  void BeginRow() {
    if (enabled()) rows_.emplace_back();
  }
  void Add(std::string_view key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    AddRaw(key, buf);
  }
  void Add(std::string_view key, int64_t value) {
    AddRaw(key, std::to_string(value));
  }
  void Add(std::string_view key, size_t value) {
    AddRaw(key, std::to_string(value));
  }
  void Add(std::string_view key, std::string_view value) {
    AddRaw(key, Quote(value));
  }

  /// Write the collected rows; returns false (with a message on stderr)
  /// when the file cannot be written. Safe to call when disabled.
  bool Write() const {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write JSON results to %s\n",
                   path_.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\": %s, \"rows\": [", Quote(bench_).c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s\n  {", i == 0 ? "" : ",");
      for (size_t j = 0; j < rows_[i].size(); ++j) {
        std::fprintf(f, "%s%s: %s", j == 0 ? "" : ", ",
                     Quote(rows_[i][j].first).c_str(),
                     rows_[i][j].second.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::printf("JSON results written to %s\n", path_.c_str());
    return true;
  }

 private:
  static std::string Quote(std::string_view s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('"');
    return out;
  }
  void AddRaw(std::string_view key, std::string value) {
    if (!enabled()) return;
    rows_.back().emplace_back(std::string(key), std::move(value));
  }

  std::string bench_;
  std::string path_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

inline constexpr uint64_t kBenchSeed = 20160905;  // VLDB'16 week

/// Acceptance floors (a ratio of two modes' speeds) are computed from the
/// medians of kFloorReps reps per mode, each rep at least
/// kFloorRepSeconds long, so that one host stall cannot decide them.
inline constexpr int kFloorReps = 5;
inline constexpr double kFloorRepSeconds = 0.2;

/// Median of `samples` (the upper one of an even count); 0 when empty.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<ptrdiff_t>(samples.size() / 2),
                   samples.end());
  return samples[samples.size() / 2];
}

/// The Canadian Open Data stand-in: 65,533 domains, power-law sizes,
/// min size 10 (Section 6.1). `num_domains` can scale it down/up.
inline Corpus CodLikeCorpus(size_t num_domains = 65533,
                            uint64_t seed = kBenchSeed) {
  CorpusGenOptions options;
  options.num_domains = num_domains;
  options.min_size = 10;
  options.max_size = 100000;
  options.alpha = 2.0;
  // Ubiquitous tokens ("yes"/"1"/province names): real columns share a
  // little vocabulary regardless of topic, which is what pressures the
  // conservatively-thresholded indexes; clean disjoint pools would make
  // every index look unrealistically precise.
  options.shared_vocabulary = 20000;
  options.shared_fraction = 0.05;
  options.shared_zipf_s = 1.05;
  options.seed = seed;
  auto corpus = CorpusGenerator(options).Generate();
  if (!corpus.ok()) {
    std::cerr << "corpus generation failed: " << corpus.status() << "\n";
    std::exit(1);
  }
  return std::move(corpus).value();
}

/// The WDC Web Tables stand-in used by the scaling experiments: smaller
/// mean size (the web-table corpus skews small), same power-law shape.
inline Corpus WdcLikeCorpus(size_t num_domains, uint64_t seed = kBenchSeed) {
  CorpusGenOptions options;
  options.num_domains = num_domains;
  options.min_size = 5;
  options.max_size = 50000;
  options.alpha = 2.2;
  options.shared_vocabulary = 20000;
  options.shared_fraction = 0.05;
  options.shared_zipf_s = 1.05;
  options.seed = seed + 1;
  auto corpus = CorpusGenerator(options).Generate();
  if (!corpus.ok()) {
    std::cerr << "corpus generation failed: " << corpus.status() << "\n";
    std::exit(1);
  }
  return std::move(corpus).value();
}

inline std::vector<size_t> AllIndices(const Corpus& corpus) {
  std::vector<size_t> indices(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) indices[i] = i;
  return indices;
}

/// Print an accuracy sweep as one table per metric, configs as columns —
/// the layout of the paper's Figures 4-7 (one panel per metric).
inline void PrintAccuracyPanels(
    std::ostream& os,
    const std::vector<std::vector<AccuracyCell>>& per_config) {
  struct Metric {
    const char* title;
    double AccuracyCell::* field;
  };
  const Metric metrics[] = {
      {"Precision", &AccuracyCell::precision},
      {"Recall", &AccuracyCell::recall},
      {"F-1 score", &AccuracyCell::f1},
      {"F-0.5 score", &AccuracyCell::f05},
  };
  for (const Metric& metric : metrics) {
    os << "\n== " << metric.title << " vs containment threshold ==\n";
    std::vector<std::string> headers = {"t*"};
    for (const auto& cells : per_config) headers.push_back(cells[0].config);
    TablePrinter printer(headers);
    for (size_t row = 0; row < per_config[0].size(); ++row) {
      std::vector<std::string> cells = {
          FormatDouble(per_config[0][row].threshold, 2)};
      for (const auto& config_cells : per_config) {
        cells.push_back(FormatDouble(config_cells[row].*(metric.field), 3));
      }
      printer.AddRow(std::move(cells));
    }
    printer.Print(os);
  }
}

}  // namespace bench
}  // namespace lshensemble

#endif  // LSHENSEMBLE_BENCH_BENCH_COMMON_H_
