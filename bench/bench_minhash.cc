// Sketching (ingest) throughput: the cost of turning raw domain values
// into MinHash signatures, the indexing-side number behind the paper's
// Table 4. Compares, at m = 128 and m = 256 hash functions:
//
//   scalar-one      the per-value reference: one scalar update_batch call
//                   per value (the seed ingest path's cost shape)
//   scalar-batch    the blocked batch kernel, portable scalar arithmetic
//   avx2-batch      the AVX2 batch kernel (when the CPU has it)
//   avx512-batch    the AVX-512 batch kernel (when the CPU has it)
//
// (the batch kernels keep min-registers resident across the whole batch),
// plus the whole-corpus ParallelSketcher (single-thread and pooled).
// Every mode's resulting signature is cross-checked against the scalar
// kernel's — a mismatch is a hard failure, mirroring the kernel parity
// tests.
//
// --json=PATH writes machine-readable rows (see bench_common.h).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/sketcher.h"
#include "eval/report.h"
#include "minhash/hash_kernel.h"
#include "minhash/minhash.h"
#include "util/hashing.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace lshensemble {
namespace {

struct Row {
  std::string mode;
  int num_hashes;
  size_t values;
  double seconds;  // best of reps
  double speedup;  // vs scalar-one at the same m
};

int Main(int argc, char** argv) {
  const auto num_values =
      static_cast<size_t>(bench::IntFlag(argc, argv, "values", 200000));
  const auto reps = static_cast<int>(bench::IntFlag(argc, argv, "reps", 3));
  const auto num_domains =
      static_cast<size_t>(bench::IntFlag(argc, argv, "domains", 4096));
  // --strict=1 turns a missed speedup bar into a nonzero exit, for
  // perf-trajectory runs on quiet machines; smoke runs on shared CI boxes
  // stay informational (single-rep timings are too noisy to gate on).
  const bool strict = bench::IntFlag(argc, argv, "strict", 0) != 0;
  bench::JsonResultWriter json("minhash",
                               bench::StringFlag(argc, argv, "json"));

  std::vector<uint64_t> values(num_values);
  for (size_t i = 0; i < num_values; ++i) {
    values[i] = Mix64(i * 2654435761ULL + 17);
  }

  struct Mode {
    std::string name;
    const HashKernelOps* ops;
    bool batch;
  };
  std::vector<Mode> modes = {
      {"scalar-one", &ScalarKernelOps(), false},
      {"scalar-batch", &ScalarKernelOps(), true},
  };
  for (const HashKernelOps* ops : {Avx2KernelOps(), Avx512KernelOps()}) {
    if (ops == nullptr) continue;
    modes.push_back({std::string(ops->name) + "-batch", ops, true});
  }
  std::printf("active kernel: %s  (LSHE_KERNEL overrides)\n",
              ActiveKernelOps().name);

  std::vector<Row> rows;
  bool meets_bar = true;
  for (const int m : {128, 256}) {
    auto family = HashFamily::Create(m, bench::kBenchSeed).value();
    const uint64_t* mul = family->multipliers().data();
    const uint64_t* add = family->offsets().data();
    const auto mm = static_cast<size_t>(m);

    std::vector<uint64_t> reference(mm, MinHash::kEmptySlot);
    ScalarKernelOps().update_batch(mul, add, mm, values.data(),
                                   values.size(), reference.data());

    double scalar_one_seconds = 0.0;
    for (const Mode& mode : modes) {
      std::vector<uint64_t> mins;
      double best = 1e100;
      for (int rep = 0; rep < reps; ++rep) {
        mins.assign(mm, MinHash::kEmptySlot);
        StopWatch watch;
        if (mode.batch) {
          mode.ops->update_batch(mul, add, mm, values.data(), values.size(),
                                 mins.data());
        } else {
          for (const uint64_t& v : values) {
            mode.ops->update_batch(mul, add, mm, &v, 1, mins.data());
          }
        }
        best = std::min(best, watch.ElapsedSeconds());
      }
      if (mins != reference) {
        std::fprintf(stderr, "FATAL: %s produced a different signature\n",
                     mode.name.c_str());
        return 1;
      }
      if (mode.name == "scalar-one") scalar_one_seconds = best;
      rows.push_back({mode.name, m, num_values, best,
                      scalar_one_seconds / best});
    }
  }

  TablePrinter printer(
      {"mode", "m", "values", "Mupdates/s", "Mvalues/s", "vs scalar-one"});
  for (const Row& row : rows) {
    const double updates =
        static_cast<double>(row.values) * row.num_hashes / row.seconds / 1e6;
    printer.AddRow({row.mode, std::to_string(row.num_hashes),
                    std::to_string(row.values), FormatDouble(updates, 1),
                    FormatDouble(row.values / row.seconds / 1e6, 2),
                    FormatDouble(row.speedup, 2) + "x"});
    json.BeginRow();
    json.Add("section", std::string_view("kernel"));
    json.Add("mode", std::string_view(row.mode));
    json.Add("num_hashes", static_cast<int64_t>(row.num_hashes));
    json.Add("values", row.values);
    json.Add("seconds", row.seconds);
    json.Add("updates_per_sec", updates * 1e6);
    json.Add("speedup_vs_scalar_one", row.speedup);
  }
  printer.Print(std::cout);
  // The acceptance target: the batch kernel the dispatcher actually picks
  // must beat the seed scalar ingest at every m. The bar is per kernel —
  // 8-lane AVX-512 owes 3x; 4-lane AVX2 owes 2x (three mul_epu32 per four
  // 61-bit mulmods cannot triple a single-mulx scalar loop); plain scalar
  // hosts have nothing to prove.
  const std::string active_name = ActiveKernelOps().name;
  const std::string active_batch = active_name + "-batch";
  const double bar = active_name == "avx512" ? 3.0 : 2.0;
  for (const Row& row : rows) {
    if (row.mode == active_batch && row.speedup < bar) meets_bar = false;
  }

  // ---- whole-corpus sketching through the ParallelSketcher -------------
  const Corpus corpus = bench::WdcLikeCorpus(num_domains);
  const uint64_t total_values = corpus.TotalValues();
  auto family = HashFamily::Create(256, bench::kBenchSeed).value();
  for (const bool parallel : {false, true}) {
    SketcherOptions options;
    options.parallel = parallel;
    const ParallelSketcher sketcher(family, options);
    std::vector<MinHash> sketches;
    double best = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
      StopWatch watch;
      sketches = sketcher.SketchCorpus(corpus);
      best = std::min(best, watch.ElapsedSeconds());
    }
    const size_t threads = parallel ? ThreadPool::Shared().num_threads() : 1;
    std::printf(
        "ParallelSketcher m=256 %-9s (%2zu threads): %zu domains, "
        "%.2f Mvalues/s, %.0f domains/s\n",
        parallel ? "parallel" : "serial", threads, corpus.size(),
        static_cast<double>(total_values) / best / 1e6,
        static_cast<double>(corpus.size()) / best);
    json.BeginRow();
    json.Add("section", std::string_view("sketcher"));
    json.Add("mode", std::string_view(parallel ? "parallel" : "serial"));
    json.Add("threads", threads);
    json.Add("num_hashes", static_cast<int64_t>(256));
    json.Add("domains", corpus.size());
    json.Add("total_values", static_cast<size_t>(total_values));
    json.Add("seconds", best);
    json.Add("values_per_sec", static_cast<double>(total_values) / best);
  }

  std::printf("\n%s batch >= %.0fx over seed scalar ingest: %s\n",
              active_name.c_str(), bar,
              active_name == "scalar"
                  ? "n/a (no SIMD kernel on this CPU)"
                  : (meets_bar ? "PASS" : "FAIL"));
  if (!json.Write()) return 1;
  if (strict && active_name != "scalar" && !meets_bar) return 1;
  return 0;
}

}  // namespace
}  // namespace lshensemble

int main(int argc, char** argv) { return lshensemble::Main(argc, argv); }
