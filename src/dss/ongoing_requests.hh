/**
 * @file
 * The Ongoing Requests Register (ORR, Section 5.3): the identifiers
 * of the banks whose accesses are still within the DRAM random
 * access time.  A bank listed here is *locked*; the DSA never
 * launches a request to a locked bank.
 *
 * In hardware this is a short shift register of bank ids; here it is
 * the shared lock table for the read and write schedulers, pruned by
 * completion time, plus occupancy statistics so tests can check the
 * paper's ORR sizing (B/b - 1 per request stream).
 *
 * Timing is delegated to a `dram::DramTiming` policy object rather
 * than a scalar access time: besides the per-bank t_RC lock window,
 * the policy can impose refresh blackouts and a read<->write
 * turnaround penalty, each reported as a distinct `StallCause` so
 * the scheduler can account stalls by cause.  The default (uniform)
 * policy reproduces the legacy scalar behavior bit for bit.
 */

#ifndef PKTBUF_DSS_ONGOING_REQUESTS_HH
#define PKTBUF_DSS_ONGOING_REQUESTS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/timing.hh"

namespace pktbuf::dss
{

class OngoingRequests
{
  public:
    /** Legacy uniform model: every bank locks for `access_slots`. */
    explicit OngoingRequests(Slot access_slots)
        : OngoingRequests(std::make_shared<const dram::DramTiming>(
              dram::TimingConfig{}, /*banks=*/0,
              /*banks_per_group=*/0, access_slots))
    {}

    /** Full DDR model: lock windows, refresh and turnaround come
     *  from the shared timing policy. */
    explicit OngoingRequests(
        std::shared_ptr<const dram::DramTiming> timing)
        : timing_(std::move(timing))
    {
        panic_if(!timing_, "null timing policy");
        // A bank holds at most one entry, so M entries never regrow.
        entries_.reserve(timing_->banks());
    }

    /**
     * Record a launched access: bank locked until now + t_RC(bank),
     * and -- with a turnaround penalty configured -- the opposite
     * direction blocked until now + turnaround.
     */
    void
    add(unsigned bank, Slot now,
        dram::AccessKind kind = dram::AccessKind::Read)
    {
        prune(now);
        panic_if(lockedNoPrune(bank),
                 "ORR already holds bank ", bank,
                 ": the DSA launched a conflicting access");
        panic_if(timing_->inRefresh(bank, now),
                 "DSA launched into refreshing bank ", bank,
                 " at slot ", now);
        panic_if(now < directionOk(kind),
                 "DSA launched a ",
                 kind == dram::AccessKind::Read ? "read" : "write",
                 " at slot ", now, " inside the turnaround window");
        entries_.push_back({bank, now + timing_->accessSlots(bank)});
        if (timing_->turnaround() > 0) {
            Slot &other = kind == dram::AccessKind::Read ? write_ok_
                                                         : read_ok_;
            const Slot until = now + timing_->turnaround();
            other = until > other ? until : other;
        }
        high_water_.observe(static_cast<std::int64_t>(entries_.size()));
    }

    /** Is the bank inside its t_RC lock window at `now`?  (Bank-busy
     *  only; refresh and turnaround are visible via blockedCause.) */
    bool
    locked(unsigned bank, Slot now)
    {
        prune(now);
        return lockedNoPrune(bank);
    }

    /**
     * Would a launch of `kind` to `bank` be refused at `now`, and
     * why?  Causes are checked in priority order: bank-busy (the
     * legacy constraint), then refresh, then turnaround.
     * @return the blocking cause, or nullopt if the launch is legal
     */
    std::optional<dram::StallCause>
    blockedCause(unsigned bank, dram::AccessKind kind, Slot now)
    {
        prune(now);
        if (lockedNoPrune(bank))
            return dram::StallCause::BankBusy;
        if (timing_->inRefresh(bank, now))
            return dram::StallCause::Refresh;
        if (now < directionOk(kind))
            return dram::StallCause::Turnaround;
        return std::nullopt;
    }

    /** Entries currently held (after pruning at `now`). */
    std::size_t
    size(Slot now)
    {
        prune(now);
        return entries_.size();
    }

    std::int64_t highWater() const { return high_water_.max(); }

    /** Checkpoint: lock entries and the turnaround horizons.  The
     *  timing policy is configuration (rebuilt, not serialized). */
    void
    save(ser::Writer &w) const
    {
        w.tag("ORRG");
        w.u64(entries_.size());
        for (const auto &e : entries_) {
            w.u32(e.bank);
            w.u64(e.until);
        }
        w.u64(read_ok_);
        w.u64(write_ok_);
        high_water_.save(w);
    }

    void
    load(ser::Reader &r)
    {
        r.tag("ORRG");
        entries_.clear();
        const auto n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            Entry e;
            e.bank = r.u32();
            e.until = r.u64();
            entries_.push_back(e);
        }
        read_ok_ = r.u64();
        write_ok_ = r.u64();
        high_water_.load(r);
    }

  private:
    struct Entry
    {
        unsigned bank;
        Slot until;
    };

    /** Earliest slot a launch of `kind` may go out (turnaround). */
    Slot
    directionOk(dram::AccessKind kind) const
    {
        return kind == dram::AccessKind::Read ? read_ok_ : write_ok_;
    }

    bool
    lockedNoPrune(unsigned bank) const
    {
        for (const auto &e : entries_)
            if (e.bank == bank)
                return true;
        return false;
    }

    void
    prune(Slot now)
    {
        // Under uniform t_RC expirations are FIFO, but heterogeneous
        // bank groups can expire a fast bank behind a slow one, so
        // the whole table is scanned (it holds at most a handful of
        // in-flight accesses).
        std::erase_if(entries_,
                      [now](const Entry &e) { return e.until <= now; });
    }

    std::shared_ptr<const dram::DramTiming> timing_;  // ser: config
    /** In launch order (the ORRG checkpoint order). */
    std::vector<Entry> entries_;
    Slot read_ok_ = 0;   //!< earliest legal read launch (turnaround)
    Slot write_ok_ = 0;  //!< earliest legal write launch
    HighWater high_water_;
};

} // namespace pktbuf::dss

#endif // PKTBUF_DSS_ONGOING_REQUESTS_HH
