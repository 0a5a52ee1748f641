#include "leg.hh"

#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace pktbuf::sim
{

Leg::Leg(const Scenario &s, std::unique_ptr<Workload> wl)
    : s_(s), fingerprint_(ser::fnv1a(s.describe())),
      wl_(wl ? std::move(wl) : makeWorkload(s)), buf_(s.bufferConfig()),
      runner_(buf_, *wl_, /*check=*/true)
{}

void
Leg::outOfRange(std::uint64_t slot) const
{
    fatal_if(slot < executed(), "leg cannot run backwards to slot ",
             slot, " (already at ", executed(), ")");
    fatal("slot ", slot, " beyond the leg's main phase (", s_.slots,
          " slots)");
}

std::string
Leg::checkpoint() const
{
    ser::Writer w;
    w.tag("SOAK");
    w.u64(executed());
    buf_.save(w);
    wl_->save(w);
    runner_.save(w);
    return ser::sealCheckpoint(w.bytes(), fingerprint_);
}

void
Leg::restore(const std::string &bytes)
{
    const std::string payload = ser::openCheckpoint(bytes, fingerprint_);
    ser::Reader r(payload);
    r.tag("SOAK");
    const std::uint64_t cursor = r.u64();
    fatal_if(cursor > s_.slots, "checkpoint: executed slot count ",
             cursor, " beyond the leg's ", s_.slots, " slots");
    buf_.load(r);
    wl_->load(r);
    runner_.load(r);
    r.done();
    fatal_if(executed() != cursor, "checkpoint: SOAK cursor ", cursor,
             " disagrees with the SRUN slot count ", executed());
}

ScenarioOutcome
Leg::finish()
{
    ScenarioOutcome out;
    try {
        out.run = runTo(s_.slots);

        std::uint64_t credits = 0;
        for (QueueId q = 0; q < wl_->queues(); ++q)
            credits += wl_->credit(q);
        // Steady-state drain delivers ~1 cell/slot; the budget leaves
        // generous slack for pipeline refill and bank conflicts.
        const std::uint64_t budget = 8 * credits +
                                     16 * buf_.pipelineDepth() +
                                     64ull * s_.granRads + 4096;
        out.drained = runner_.drain(budget);

        out.verified = runner_.checker().granted();
        out.report = buf_.report();
        for (QueueId q = 0; q < wl_->queues(); ++q)
            out.undelivered += wl_->credit(q);
    } catch (const std::exception &e) {
        out.failure = exceptionFailure(s_, e);
        return out;
    }

    std::ostringstream why;
    if (out.verified != out.run.grants + out.drained) {
        why << "golden checker saw " << out.verified
            << " grants, runner counted "
            << out.run.grants + out.drained << "; ";
    }
    if (out.undelivered != 0) {
        why << out.undelivered
            << " cells arrived but were never granted; ";
    }
    if (out.verified != out.run.arrivals) {
        why << "delivered " << out.verified << " of "
            << out.run.arrivals << " admitted arrivals; ";
    }
    if (out.verified == 0)
        why << "leg delivered no cells at all; ";

    out.failure = why.str();
    out.passed = out.failure.empty();
    if (!out.passed) {
        // Always name the scenario and seed so the leg can be
        // replayed from the log alone.
        out.failure += "[" + s_.describe() + "]";
    }
    return out;
}

std::string
exceptionFailure(const Scenario &s, const std::exception &e)
{
    return std::string("exception: ") + e.what() + "; [" +
           s.describe() + "]";
}

} // namespace pktbuf::sim
