// The benchmark's workloads (perfbench/README.md says why each exists).
#ifndef MUPPET_PERFBENCH_WORKLOADS_H_
#define MUPPET_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "perfbench/bench_core.h"

namespace perfbench {

// count-m2, count-m1 and tweets-eo: the engine runs inside this process.
bool IsInProcWorkload(const std::string& name);
void RunInProc(const RunConfig& config, Report* report);

// The wire workload's per-layer rows that need an engine in this process:
// the single-threaded baseline and the tracing cost, on muppetd's wordcount
// application and the wire workload's lines.
void RunWordcountInProc(const RunConfig& config, Report* report);

// wire-wordcount: three muppetd processes on loopback, driven over HTTP.
void RunWire(const RunConfig& config, Report* report);

std::vector<std::string> WorkloadNames();

}  // namespace perfbench

#endif  // MUPPET_PERFBENCH_WORKLOADS_H_
