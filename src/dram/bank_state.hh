/**
 * @file
 * Bank timing state: which banks are currently within their random
 * access time.  This is the ground truth the Ongoing Requests
 * Register (ORR) summarizes in hardware; the simulator checks the
 * DSA's decisions against it and *panics on any bank conflict*,
 * turning the paper's worst-case guarantee into a testable invariant.
 */

#ifndef PKTBUF_DRAM_BANK_STATE_HH
#define PKTBUF_DRAM_BANK_STATE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/timing.hh"

namespace pktbuf::dram
{

class BankState
{
  public:
    /** Uniform model: every bank is busy `access_slots` per access. */
    BankState(unsigned banks, Slot access_slots)
        : BankState(banks, std::make_shared<const DramTiming>(
                               TimingConfig{}, /*banks=*/0,
                               /*banks_per_group=*/0, access_slots))
    {}

    /** Bank `i` is busy for the shared policy's t_RC of `i`. */
    BankState(unsigned banks, std::shared_ptr<const DramTiming> timing)
        : busy_until_(banks, 0), timing_(std::move(timing))
    {
        panic_if(banks == 0, "no banks");
        panic_if(!timing_, "BankState given a null timing policy");
    }

    unsigned banks() const { return static_cast<unsigned>(busy_until_.size()); }

    /** Is the bank inside its random access time at `now`? */
    bool
    busy(unsigned bank, Slot now) const
    {
        panic_if(bank >= busy_until_.size(), "bank ", bank,
                 " out of range in busy()");
        return busy_until_[bank] > now;
    }

    /**
     * Begin an access at `now`; the bank is then busy for the random
     * access time.  Panics on a bank conflict -- the DSA must never
     * allow one.  Returns the completion slot.
     */
    Slot
    startAccess(unsigned bank, Slot now)
    {
        panic_if(busy(bank, now), "bank conflict: bank ", bank,
                 " accessed at slot ", now, " while busy until ",
                 busy_until_[bank]);
        busy_until_[bank] = now + timing_->accessSlots(bank);
        accesses_.inc();
        return busy_until_[bank];
    }

    /** Number of banks busy at `now` (accesses in flight). */
    unsigned
    inFlight(Slot now) const
    {
        unsigned n = 0;
        for (const auto bu : busy_until_)
            if (bu > now)
                ++n;
        return n;
    }

    std::uint64_t accesses() const { return accesses_.value(); }

    /** Checkpoint: busy horizons + access counter (the timing
     *  policy is configuration, rebuilt, not serialized). */
    void
    save(ser::Writer &w) const
    {
        w.tag("BANK");
        w.u64(busy_until_.size());
        for (const auto bu : busy_until_)
            w.u64(bu);
        accesses_.save(w);
    }

    void
    load(ser::Reader &r)
    {
        r.tag("BANK");
        const auto n = r.u64();
        fatal_if(n != busy_until_.size(), "checkpoint: ", n,
                 " banks, configured ", busy_until_.size());
        for (auto &bu : busy_until_)
            bu = r.u64();
        accesses_.load(r);
    }

  private:
    std::vector<Slot> busy_until_;
    std::shared_ptr<const DramTiming> timing_;  // ser: config
    Counter accesses_;
};

} // namespace pktbuf::dram

#endif // PKTBUF_DRAM_BANK_STATE_HH
