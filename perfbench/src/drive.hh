/**
 * @file
 * One buffer instance run to completion (a "leg"), two ways:
 *
 *  - runLeg(): the production path.  The buffer is driven by
 *    sim::SimRunner exactly as sim::runScenarioWith does (run, drain,
 *    golden totals); only phase boundaries are timestamped.
 *  - traceLeg(): the traced path.  The same loop, written out here so
 *    spans can sit around every Workload::step, HybridBuffer::step
 *    and GoldenChecker::onGrant call.  Its outcome must equal
 *    runLeg()'s field for field; the workloads check that every rep.
 *
 * Both also compute the leg summary fields that the paper bounds
 * need (model:: formulas of the leg's own parameters).
 */

#ifndef PERFBENCH_DRIVE_HH
#define PERFBENCH_DRIVE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "buffer/packet_buffer.hh"
#include "sim/scenario.hh"
#include "sim/workload.hh"
#include "sweep/record.hh"
#include "trace.hh"

namespace perfbench
{

/** What a leg runs: its dimensioning step, its traffic and length. */
struct LegSpec
{
    std::function<pktbuf::buffer::BufferConfig()> dimension;
    std::function<std::unique_ptr<pktbuf::sim::Workload>()> workload;
    std::uint64_t slots = 0;
};

/** Host seconds of one run's phases. */
struct Phases
{
    double setup = 0.0;     //!< entry to the first simulated slot
    double simulate = 0.0;  //!< main-phase slots
    double drain = 0.0;     //!< drain and golden totals
};

/** Outcome of one leg. */
struct LegResult
{
    pktbuf::sim::ScenarioOutcome out;
    pktbuf::model::BufferParams params;
    Phases phases;
    /** Traced only: main-phase slots with no arrival, request or
     *  grant. */
    std::uint64_t idleSlots = 0;
};

/** Production path (see file comment).  Never throws. */
LegResult runLeg(const LegSpec &spec);

/** Traced path (see file comment).  Never throws. */
LegResult traceLeg(const LegSpec &spec, Trace &t,
                   const Injection &inject);

/**
 * Deterministic outputs of a set of legs: sums of the counters,
 * cell-weighted delay, high-water marks and their ratios to the
 * paper bounds (maximum over legs).  Identical runs give identical
 * records; the expected-value check and every traced-vs-untraced
 * comparison work on these.
 */
pktbuf::sweep::Record summarize(
    const std::vector<pktbuf::sim::ScenarioOutcome> &outs,
    const std::vector<pktbuf::model::BufferParams> &params);

/** Every field of a BufferReport and RunResult, for exact
 *  comparison of two runs of one leg. */
std::string fingerprint(const pktbuf::sim::ScenarioOutcome &o);

/** One-line JSON of a record (shortest round-trip reals). */
std::string toJson(const pktbuf::sweep::Record &r);

} // namespace perfbench

#endif // PERFBENCH_DRIVE_HH
