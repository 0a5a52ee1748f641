/**
 * @file
 * sim::Leg: one scenario leg -- a HybridBuffer driven by a Workload
 * through a SimRunner with the golden checker on -- as a resumable
 * object.  It is the single driver behind every layer: the scenario
 * matrix (runScenario), each port of the switch (sw::runPort) and
 * each input of the crossbar (xbar::CrossbarRun).
 *
 * The main phase can stop at any slot, snapshot, and continue -- in
 * this process or another:
 *
 *   Leg a(s);
 *   a.runTo(k);
 *   auto bytes = a.checkpoint();
 *   ...
 *   Leg b(s);                 // fresh objects, same config
 *   b.restore(bytes);
 *   auto out = b.finish();    // == runScenario(s) bit for bit
 *
 * Checkpoint payload (inside the ser::sealCheckpoint envelope, keyed
 * by the FNV-1a of Scenario::describe()):
 *
 *   "SOAK"   tag
 *   cursor   u64 -- main-phase slots executed
 *   "HBUF"   the buffer's save()
 *            the workload's save()
 *   "SRUN"   the runner's save(), whose slot count must equal cursor
 *
 * The invariant (tests/test_soak.cc enforces it leg by leg):
 * run-to-k + checkpoint + restore-into-a-fresh-Leg + finish is
 * bit-identical to an unbroken run -- same statistics, same
 * golden-checker totals, same emitted record bytes.
 */

#ifndef PKTBUF_SIM_LEG_HH
#define PKTBUF_SIM_LEG_HH

#include <cstdint>
#include <exception>
#include <memory>
#include <string>

#include "buffer/hybrid_buffer.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/workload.hh"

namespace pktbuf::sim
{

class Leg
{
  public:
    /**
     * Build the leg's workload, buffer and runner.
     * @param s  the leg; also the source of the checkpoint fingerprint
     * @param wl the workload to drive (it must address s.queues
     *           queues); null means makeWorkload(s)
     */
    explicit Leg(const Scenario &s, std::unique_ptr<Workload> wl = {});

    // The runner holds references to the buffer and workload.
    Leg(const Leg &) = delete;
    Leg &operator=(const Leg &) = delete;

    /**
     * Advance the main phase to absolute slot `slot` (<= s.slots).
     * @return the runner's totals so far
     */
    RunResult
    runTo(std::uint64_t slot)
    {
        const std::uint64_t at = executed();
        if (slot < at || slot > s_.slots)
            outOfRange(slot);
        return runner_.run(slot - at);
    }

    /** Slots executed so far: the runner's own count. */
    std::uint64_t executed() const { return runner_.slots(); }

    /** Snapshot the full state into a sealed envelope. */
    std::string checkpoint() const;

    /**
     * Replace this leg's state with a checkpoint's.  FatalError if
     * the envelope carries another leg's fingerprint, if any section
     * is malformed, or if the header cursor and the runner's slot
     * count disagree.
     */
    void restore(const std::string &bytes);

    /**
     * Run the remaining main-phase slots, drain every credited cell
     * and check the golden totals.  Never throws: an exception
     * becomes a failed outcome (see exceptionFailure()).
     */
    ScenarioOutcome finish();

  private:
    [[noreturn]] void outOfRange(std::uint64_t slot) const;

    Scenario s_;
    std::uint64_t fingerprint_;
    std::unique_ptr<Workload> wl_;
    buffer::HybridBuffer buf_;
    SimRunner runner_;
};

/**
 * The failure text of a leg that threw `e`:
 * "exception: <what>; [<s.describe()>]", so the leg can be replayed
 * from the log alone.
 */
std::string exceptionFailure(const Scenario &s, const std::exception &e);

/**
 * Run `body` -- which builds a leg and returns its outcome -- without
 * letting an exception escape: one thrown while building (a bad
 * buffer configuration, say) becomes a failed outcome carrying
 * exceptionFailure(s, e).
 */
template <typename Body>
ScenarioOutcome
guardLeg(const Scenario &s, Body &&body)
{
    try {
        return body();
    } catch (const std::exception &e) {
        ScenarioOutcome out;
        out.failure = exceptionFailure(s, e);
        return out;
    }
}

} // namespace pktbuf::sim

#endif // PKTBUF_SIM_LEG_HH
