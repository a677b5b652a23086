// muppet_bench: runs one workload of the repository benchmark and prints
// its result as one JSON object on stdout. perfbench/run.py builds and
// drives it; see perfbench/README.md for the workloads and metrics.
//
//   muppet_bench --workload=NAME [--seed=N] [--seconds=S] [--work=F]
//                [--trace=0|1] [--probe-seconds=S] --work-dir=DIR
//                [--muppetd=PATH]
//
// With no arguments it prints this usage and exits 0.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

#ifndef MUPPET_BENCH_BUILD_TYPE
#define MUPPET_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef MUPPET_BENCH_COMPILER
#define MUPPET_BENCH_COMPILER "unknown"
#endif

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: muppet_bench --workload=NAME [--seed=N] [--seconds=S] "
               "[--work=F] [--trace=0|1] [--probe-seconds=S] "
               "--work-dir=DIR [--muppetd=PATH]\nworkloads:");
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(out, " %s", w.c_str());
  }
  std::fprintf(out, "\n");
}

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"count-m2", "count-m1", "tweets-eo", "wire-wordcount"};
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Flag;
  if (argc == 1) {
    perfbench::Usage(stdout);
    return 0;
  }
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (Flag(argv[i], "--workload", &v)) {
      config.workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      config.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &v)) {
      config.seconds = std::atof(v.c_str());
    } else if (Flag(argv[i], "--work", &v)) {
      config.work = std::atof(v.c_str());
    } else if (Flag(argv[i], "--trace", &v)) {
      config.trace = v == "1";
    } else if (Flag(argv[i], "--probe-seconds", &v)) {
      config.probe_seconds = std::atof(v.c_str());
    } else if (Flag(argv[i], "--work-dir", &v)) {
      config.work_dir = v;
    } else if (Flag(argv[i], "--muppetd", &v)) {
      config.muppetd = v;
    } else {
      std::fprintf(stderr, "muppet_bench: unknown argument %s\n", argv[i]);
      perfbench::Usage(stderr);
      return 2;
    }
  }
  const bool wire = config.workload == "wire-wordcount";
  if ((!wire && !perfbench::IsInProcWorkload(config.workload)) ||
      config.work_dir.empty() || config.seconds <= 0 ||
      (wire && config.muppetd.empty())) {
    perfbench::Usage(stderr);
    return 2;
  }
  // Start from an empty scratch directory: state left by an earlier run
  // would be replayed into this one.
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir);

  perfbench::Report report;
  const int64_t start = perfbench::NowNs();
  if (wire) {
    perfbench::RunWire(config, &report);
  } else {
    perfbench::RunInProc(config, &report);
  }
  perfbench::Json meta = perfbench::Json::MakeObject();
  meta["build_type"] = MUPPET_BENCH_BUILD_TYPE;
  meta["compiler"] = MUPPET_BENCH_COMPILER;
  meta["nproc"] = static_cast<int64_t>(std::thread::hardware_concurrency());
  meta["seed"] = static_cast<int64_t>(config.seed);
  meta["wall_s"] = static_cast<double>(perfbench::NowNs() - start) / 1e9;
  report.Info("meta", std::move(meta));

  if (report.ok()) std::filesystem::remove_all(config.work_dir, ec);
  std::printf("%s\n", report.ToJson().Dump().c_str());
  return report.ok() ? 0 : 1;
}
