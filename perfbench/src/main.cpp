/// \file main.cpp
/// \brief perfbench — one run of one benchmark workload.
///
///   perfbench --workload table3|batch_fsm|batch_small --seed N
///             --seconds S --trace 0|1 [--out-dir DIR]
///
/// Prints one JSON line: the correctness tally, the metrics (end-to-end
/// with --trace 0, per-layer with --trace 1), the host block, extra
/// facts and any correctness-gate violations.  Exits 0 when the run
/// completed, whether or not it was correct; the runner (run.py) judges.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload table3|batch_fsm|"
               "batch_small --seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      opts.trace = std::strtoul(value.c_str(), &end, 10) != 0;
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) {
      usage(("malformed value for " + arg).c_str());
    }
  }
  if (opts.workload.empty()) usage("--workload is required");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opts = parse(argc, argv);
  perfbench::Result result;
  try {
    if (opts.workload == "table3") {
      result = perfbench::run_table3(opts);
    } else if (opts.workload == "batch_fsm") {
      result = perfbench::run_batch_fsm(opts);
    } else if (opts.workload == "batch_small") {
      result = perfbench::run_batch_small(opts);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", result.json(opts).c_str());
  return 0;
}
