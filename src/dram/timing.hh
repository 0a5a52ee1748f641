/**
 * @file
 * Configurable DDR timing model for the banked DRAM.
 *
 * The paper's analysis (Sections 5/8) reduces DRAM timing to one
 * number: the random access time B, which the DSS honors by locking
 * a bank for B slots per access.  Real DDR parts add constraints the
 * uniform model cannot express -- periodic refresh (t_REFI / t_RFC)
 * that blacks out banks on a schedule, a read<->write data-bus
 * turnaround penalty, and heterogeneous bank groups whose row cycle
 * time t_RC differs.  `DramTiming` is the policy object that carries
 * all of them; the Ongoing Requests Register consults it instead of
 * a scalar access time, so the default (uniform) configuration
 * reproduces the legacy behavior bit for bit while non-uniform
 * configurations open a family of adversarial scenarios (refresh
 * storms, turnaround thrash, asymmetric groups).
 *
 * Modeling notes:
 *  - Refresh is a *scheduling* constraint: during each blackout the
 *    DSA refuses to launch into the refreshed bank window.  The
 *    window rotates deterministically (pure function of the slot),
 *    so simulations stay reproducible and shardable.
 *  - Turnaround is channel-level: after a launch, the earliest
 *    launch of the *opposite* direction is `turnaround` slots later.
 *  - Per-group t_RC extends both the bank lock and the read's data
 *    delivery time; groups with larger t_RC are "slow" groups.
 */

#ifndef PKTBUF_DRAM_TIMING_HH
#define PKTBUF_DRAM_TIMING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace pktbuf::dram
{

/** Why the DSA could not launch a request at a given slot. */
enum class StallCause
{
    BankBusy,    //!< target bank is inside its t_RC window
    Refresh,     //!< target bank is inside a refresh blackout
    Turnaround,  //!< read<->write switch penalty not yet elapsed
};

/** @return the lower-case stat-name token ("bank_busy", ...). */
const char *toString(StallCause c);

/** Direction of a DRAM access, for the turnaround rule. */
enum class AccessKind
{
    Read,
    Write,
};

/**
 * Static DDR timing parameters.  The default-constructed config is
 * the *uniform* model: every access locks its bank for the buffer's
 * random access time B, no refresh, no turnaround -- exactly the
 * legacy scalar behavior.
 */
struct TimingConfig
{
    /** Uniform row cycle time t_RC in slots; 0 = the buffer's B. */
    Slot tRc = 0;

    /** Per-bank-group t_RC override (index = group); empty = uniform.
     *  Entries of 0 fall back to `tRc` (or B). */
    std::vector<Slot> groupTRc;

    /** Read<->write bus turnaround penalty in slots; 0 = none. */
    Slot turnaround = 0;

    /** Refresh interval t_REFI in slots; 0 disables refresh. */
    Slot tRefi = 0;

    /** Refresh cycle time t_RFC: blackout length per interval. */
    Slot tRfc = 0;

    /** Banks locked together per blackout (the rotating window). */
    unsigned refreshBanks = 1;

    /**
     * Does this config reproduce the legacy uniform model?  Only
     * the default does: an explicit tRc counts as non-uniform even
     * if it happens to equal the buffer's B, so every override goes
     * through the CFDS-only gate and the latency/RR slack extension
     * (a tRc-only change still alters bank lock times and read
     * completion).
     */
    bool
    isUniform() const
    {
        return tRc == 0 && groupTRc.empty() && turnaround == 0 &&
               tRefi == 0;
    }

    /** Largest t_RC any bank can see under this config. */
    Slot
    maxTRc(Slot base) const
    {
        Slot m = tRc ? tRc : base;
        for (const Slot g : groupTRc)
            m = g > m ? g : m;
        return m;
    }

    /** Compact "tRC=8 turn=2 REFI=256/16x2" form for logs. */
    std::string describe(Slot base) const;
};

/**
 * The resolved, immutable timing policy: per-bank t_RC plus the
 * refresh and turnaround rules.  Shared (read-only) between the ORR,
 * the bank-state oracle and the buffer's completion scheduling.
 */
class DramTiming
{
  public:
    /**
     * @param cfg              the static parameters (validated here)
     * @param banks            total banks M (0 = unknown; only legal
     *                         for uniform configs, e.g. unit tests)
     * @param banks_per_group  B/b (used to resolve groupTRc)
     * @param base_trc         the buffer's B, the t_RC fallback
     */
    DramTiming(const TimingConfig &cfg, unsigned banks,
               unsigned banks_per_group, Slot base_trc);

    /** Row cycle time of `bank`: how long one access locks it. */
    Slot
    accessSlots(unsigned bank) const
    {
        if (bank_trc_.empty())
            return base_trc_;
        panic_if(bank >= bank_trc_.size(), "bank ", bank,
                 " out of range for ", bank_trc_.size(), " banks");
        return bank_trc_[bank];
    }

    /** Largest per-bank t_RC (for latency budgeting). */
    Slot maxAccessSlots() const { return max_trc_; }

    /** Is `bank` inside a refresh blackout at `now`? */
    bool
    inRefresh(unsigned bank, Slot now) const
    {
        if (cfg_.tRefi == 0)
            return false;
        const Slot cycle = now / cfg_.tRefi;
        if (now - cycle * cfg_.tRefi >= cfg_.tRfc)
            return false;
        // Window [cycle*W, cycle*W + W) of banks, cyclic: every bank
        // is refreshed every (M / W) intervals, deterministically.
        const unsigned start = static_cast<unsigned>(
            (cycle * cfg_.refreshBanks) % banks_);
        const unsigned off = (bank + banks_ - start) % banks_;
        return off < cfg_.refreshBanks;
    }

    Slot turnaround() const { return cfg_.turnaround; }
    bool refreshEnabled() const { return cfg_.tRefi != 0; }
    unsigned banks() const { return banks_; }
    const TimingConfig &config() const { return cfg_; }

  private:
    TimingConfig cfg_;
    unsigned banks_;
    Slot base_trc_;
    Slot max_trc_;
    /** Resolved t_RC per bank; empty = uniform base_trc_. */
    std::vector<Slot> bank_trc_;
};

} // namespace pktbuf::dram

#endif // PKTBUF_DRAM_TIMING_HH
