// perfbench_run — runs one seeded workload against libtvg's public
// API and prints one JSON report line (see README.md). Normally started
// through run.py, which builds it, checks the report and prints the
// benchmark's result line.
//
//   perfbench_run --workload serve_journeys --seed 1 --seconds 10
//                 --trace 0 --out-dir .bench_build/perfbench/out
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_run: %s\nusage: perfbench_run --workload "
               "<serve_journeys|analytics_sweep|live_schedule> --seed <n> "
               "--seconds <n> --trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = static_cast<unsigned>(std::stoul(value));
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--out-dir") {
        a.out_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds == 0) usage("--seconds must be at least 1");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  try {
    std::filesystem::create_directories(args.out_dir);
    perfbench::Report report;
    if (args.workload == "serve_journeys") {
      report = perfbench::run_serve_journeys(args);
    } else if (args.workload == "analytics_sweep") {
      report = perfbench::run_analytics_sweep(args);
    } else if (args.workload == "live_schedule") {
      report = perfbench::run_live_schedule(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
    report.workload = args.workload;
    std::cout << report.to_json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 3;
  }
}
