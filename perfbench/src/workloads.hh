/**
 * @file
 * The benchmark's four workloads and the rep loop that times them.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "trace.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Injection inject;
};

/** True when `name` is one of the workloads. */
bool knownWorkload(const std::string &name);

/**
 * Run one workload for opt.seconds (at least a few reps) and return
 * the result document: deterministic outputs, per-rep phase times,
 * leg counts, check failures and, when tracing, the per-rep layer
 * metrics and layer tables.  One line of JSON.
 */
std::string runWorkload(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
