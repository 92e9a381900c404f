// perfbench entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--inject-latency-us US]
//
// Prints human-readable detail on stderr and, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exits
// non-zero on a wrong answer, a failed durability check, or any error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--inject-latency-us US]\n"
               "workloads:");
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      Usage();
      return 0;
    }
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--inject-latency-us") {
      args.inject_latency_us = std::stod(value);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      Usage();
      return 2;
    }
  }
  auto cfg = perfbench::FindWorkload(args.workload);
  if (!cfg.ok()) {
    std::fprintf(stderr, "%s\n", cfg.status().ToString().c_str());
    Usage();
    return 2;
  }
  masksearch::Status st = masksearch::CreateDirs(args.work_dir);
  if (!st.ok()) {
    std::fprintf(stderr, "work dir: %s\n", st.ToString().c_str());
    return 1;
  }
  auto result = cfg->mix == perfbench::QueryMix::kLive
                    ? perfbench::RunLiveWorkload(args, *cfg)
                    : perfbench::RunFixedWorkload(args, *cfg);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench %s failed: %s\n", args.workload.c_str(),
                 result.status().ToString().c_str());
    return 1;
  }
  perfbench::PrintResult(*result);
  return result->correct ? 0 : 1;
}
