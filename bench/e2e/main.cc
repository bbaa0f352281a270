// lshe_e2e: runs one end-to-end benchmark workload (run.py drives it).
//
//   lshe_e2e --workload W --seed N --seconds S --result FILE --work-dir DIR
//            [--trace] [--calibrate] [--expect-corpus HEX --expect-queries HEX]
//            [--reference-rate R --rungs R1,R2,... --slo-p99-ms MS
//             --slo-error-rate F]
//
// Exit codes: 0 measured (the result file says whether every check
// passed), 2 bad usage, 3 the inputs do not match the pinned fingerprints.
// With --trace the span dump is written to DIR/trace.json.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "e2e.h"

namespace lshensemble {
namespace e2e {
namespace {

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      args->trace = true;
      continue;
    }
    if (flag == "--calibrate") {
      args->calibrate = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--result") {
      args->result_path = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--expect-corpus") {
      args->expect_corpus_fp = value;
    } else if (flag == "--expect-queries") {
      args->expect_queries_fp = value;
    } else if (flag == "--reference-rate") {
      args->reference_rate = std::atof(value.c_str());
    } else if (flag == "--slo-p99-ms") {
      args->slo_p99_ms = std::atof(value.c_str());
    } else if (flag == "--slo-error-rate") {
      args->slo_error_rate = std::atof(value.c_str());
    } else if (flag == "--rungs") {
      std::stringstream list(value);
      for (std::string rung; std::getline(list, rung, ',');) {
        args->rungs.push_back(std::atof(rung.c_str()));
      }
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->result_path.empty() &&
         !args->work_dir.empty() && args->seconds > 0.0 &&
         (args->rungs.empty() || args->slo_p99_ms > 0.0);
}

int Main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lshe_e2e --workload W --seed N --seconds S "
                 "--result FILE --work-dir DIR [--trace] [--calibrate] ...\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  Report report;
  int code = 2;
  if (args.workload == "serve-native" || args.workload == "serve-foreign") {
    code = RunServe(args, &report);
  } else if (args.workload == "ingest-mixed") {
    code = RunIngest(args, &report);
  } else if (args.workload == "cluster-dedup") {
    code = RunCluster(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  }
  if (code != 0) return code;
  if (args.trace && !trace::WriteChrome(args.work_dir + "/trace.json")) {
    std::fprintf(stderr, "cannot write the span dump\n");
    return 1;
  }
  if (!report.Write(args.result_path)) {
    std::fprintf(stderr, "cannot write %s\n", args.result_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace lshensemble

int main(int argc, char** argv) {
  return lshensemble::e2e::Main(argc, argv);
}
