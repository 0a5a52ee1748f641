/**
 * @file
 * The DRAM Scheduler Algorithm (DSA) over the Requests Register and
 * the Ongoing Requests Register: every granularity interval it
 * launches the oldest request whose bank is free (Section 5.3).
 * Reads and writes share one combined Requests Register (Figure 5)
 * and one ORR, because a bank is locked no matter which direction
 * locked it.
 *
 * With a timed DRAM policy (dram/timing.hh) a launch can be refused
 * for three distinct reasons -- bank busy, refresh blackout, or
 * read<->write turnaround -- and the scheduler accounts every failed
 * scheduling opportunity by the cause blocking its oldest pending
 * request (stallsFor).
 */

#ifndef PKTBUF_DSS_DRAM_SCHEDULER_HH
#define PKTBUF_DSS_DRAM_SCHEDULER_HH

#include <array>
#include <optional>

#include "common/stats.hh"
#include "dss/ongoing_requests.hh"
#include "dss/request_register.hh"

namespace pktbuf::dss
{

class DramScheduler
{
  public:
    /**
     * @param rr_capacity  Requests Register capacity (0 = off)
     * @param orr          the shared bank-lock table
     */
    DramScheduler(std::size_t rr_capacity, OngoingRequests &orr)
        : rr_(rr_capacity), orr_(orr)
    {}

    /** MMA issues a new request. */
    void
    push(const DramRequest &req)
    {
        rr_.push(req);
    }

    /**
     * One scheduling opportunity: pick the oldest non-blocked
     * request and launch it (locking its bank).  Returns the
     * launched request, or nullopt if the register is empty or the
     * timing policy blocks every pending request -- in which case
     * the stall is accounted to the cause blocking the oldest one.
     */
    std::optional<DramRequest>
    tryLaunch(Slot now)
    {
        if (rr_.empty())
            return std::nullopt;
        std::optional<dram::StallCause> oldest_blocked;
        auto req = rr_.selectOldestReady(
            [&](const DramRequest &r) {
                return orr_.blockedCause(r.bank, accessKind(r), now);
            },
            &oldest_blocked);
        if (!req) {
            stalls_.inc();
            if (oldest_blocked)
                stall_cause_[static_cast<std::size_t>(*oldest_blocked)]
                    .inc();
            return std::nullopt;
        }
        orr_.add(req->bank, now, accessKind(*req));
        launches_.inc();
        queue_delay_.sample(static_cast<double>(now - req->issued));
        return req;
    }

    RequestRegister &rr() { return rr_; }
    const RequestRegister &rr() const { return rr_; }

    std::uint64_t launches() const { return launches_.value(); }
    std::uint64_t stalls() const { return stalls_.value(); }
    /** Stalled opportunities attributed to `cause` (the cause that
     *  blocked the oldest pending request at stall time). */
    std::uint64_t
    stallsFor(dram::StallCause cause) const
    {
        return stall_cause_[static_cast<std::size_t>(cause)].value();
    }
    /** Delay from MMA issue to DSA launch, in slots. */
    const Sampler &queueDelay() const { return queue_delay_; }

    /** Checkpoint.  The ORR reference is wiring, rebuilt by the
     *  constructor. */
    void
    save(ser::Writer &w) const
    {
        w.tag("DSAS");
        rr_.save(w);
        launches_.save(w);
        stalls_.save(w);
        for (const auto &c : stall_cause_)
            c.save(w);
        queue_delay_.save(w);
    }

    void
    load(ser::Reader &r)
    {
        r.tag("DSAS");
        rr_.load(r);
        launches_.load(r);
        stalls_.load(r);
        for (auto &c : stall_cause_)
            c.load(r);
        queue_delay_.load(r);
    }

  private:
    static dram::AccessKind
    accessKind(const DramRequest &r)
    {
        return r.kind == DramRequest::Kind::Read
                   ? dram::AccessKind::Read
                   : dram::AccessKind::Write;
    }

    RequestRegister rr_;
    OngoingRequests &orr_;  // ser: config
    Counter launches_;
    Counter stalls_;
    /** Indexed by StallCause. */
    std::array<Counter, 3> stall_cause_;
    Sampler queue_delay_;
};

} // namespace pktbuf::dss

#endif // PKTBUF_DSS_DRAM_SCHEDULER_HH
