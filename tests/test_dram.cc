/**
 * @file
 * Unit tests for the DRAM substrate: bank timing (conflict panics),
 * ordinal-keyed block storage, and group occupancy accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "dram/bank_state.hh"
#include "dram/dram_store.hh"
#include "dram/timing.hh"

using namespace pktbuf;
using namespace pktbuf::dram;

namespace
{

std::vector<Cell>
block(QueueId q, SeqNum first, unsigned n)
{
    std::vector<Cell> cells;
    for (unsigned i = 0; i < n; ++i)
        cells.push_back(Cell{q, first + i, 0});
    return cells;
}

/** Write `cells` as block `ordinal`, copied into place. */
void
write(DramStore &d, QueueId p, std::uint64_t ordinal,
      const std::vector<Cell> &cells, unsigned group)
{
    const auto dst = d.writeBlock(p, ordinal, cells.size(), group);
    std::ranges::copy(cells, dst.begin());
}

std::vector<Cell>
read(DramStore &d, QueueId p, std::uint64_t ordinal, unsigned group)
{
    std::vector<Cell> out(d.gran());
    d.readBlock(p, ordinal, group, out);
    return out;
}

} // namespace

TEST(BankState, BusyWindowIsExactlyAccessTime)
{
    BankState b(4, 10);
    EXPECT_FALSE(b.busy(0, 0));
    EXPECT_EQ(b.startAccess(0, 5), 15u);
    EXPECT_TRUE(b.busy(0, 5));
    EXPECT_TRUE(b.busy(0, 14));
    EXPECT_FALSE(b.busy(0, 15));
    EXPECT_FALSE(b.busy(1, 5));
}

TEST(BankState, ConflictPanics)
{
    BankState b(2, 8);
    b.startAccess(1, 0);
    EXPECT_THROW(b.startAccess(1, 3), PanicError);
    EXPECT_NO_THROW(b.startAccess(0, 3));
    EXPECT_NO_THROW(b.startAccess(1, 8));
}

TEST(BankState, InFlightCount)
{
    BankState b(8, 16);
    b.startAccess(0, 0);
    b.startAccess(3, 4);
    EXPECT_EQ(b.inFlight(5), 2u);
    EXPECT_EQ(b.inFlight(16), 1u); // bank 0 done
    EXPECT_EQ(b.inFlight(20), 0u);
    EXPECT_EQ(b.accesses(), 2u);
}

TEST(BankState, RejectsBadArguments)
{
    EXPECT_THROW(BankState(0, 4), PanicError);
    // A zero access time is a configuration error of the timing
    // policy the uniform constructor builds.
    EXPECT_THROW(BankState(4, 0), FatalError);
    BankState b(2, 4);
    EXPECT_THROW(b.busy(5, 0), PanicError);
}

TEST(DramStore, WriteReadRoundTrip)
{
    DramStore d(4, 4, 2, 0);
    write(d, 0, 0, block(0, 0, 4), 0);
    write(d, 0, 1, block(0, 4, 4), 0);
    EXPECT_TRUE(d.hasBlock(0, 0));
    EXPECT_TRUE(d.hasBlock(0, 1));
    EXPECT_FALSE(d.hasBlock(0, 2));
    EXPECT_EQ(d.residentBlocks(0), 2u);

    const auto cells = read(d, 0, 0, 0);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].seq, 0u);
    EXPECT_EQ(cells[3].seq, 3u);
    EXPECT_FALSE(d.hasBlock(0, 0));
    EXPECT_EQ(d.residentBlocks(0), 1u);
}

TEST(DramStore, OutOfOrderOrdinalsSupported)
{
    // The DSA may launch block k+1's write before block k's.
    DramStore d(2, 2, 1, 0);
    write(d, 1, 5, block(1, 10, 2), 0);
    write(d, 1, 4, block(1, 8, 2), 0);
    EXPECT_EQ(read(d, 1, 4, 0)[0].seq, 8u);
    EXPECT_EQ(read(d, 1, 5, 0)[0].seq, 10u);
}

TEST(DramStore, WrongSizeBlockPanics)
{
    DramStore d(2, 4, 1, 0);
    EXPECT_THROW(write(d, 0, 0, block(0, 0, 3), 0), PanicError);
}

TEST(DramStore, DuplicateOrdinalPanics)
{
    DramStore d(2, 2, 1, 0);
    write(d, 0, 7, block(0, 0, 2), 0);
    EXPECT_THROW(write(d, 0, 7, block(0, 2, 2), 0), PanicError);
}

TEST(DramStore, AbsentBlockReadPanics)
{
    DramStore d(2, 2, 1, 0);
    EXPECT_THROW(read(d, 0, 0, 0), PanicError);
}

TEST(DramStore, GroupAccounting)
{
    DramStore d(4, 2, 2, 8);
    write(d, 0, 0, block(0, 0, 2), 0); // group 0
    write(d, 1, 0, block(1, 0, 2), 1); // group 1
    write(d, 2, 0, block(2, 0, 2), 0);
    EXPECT_EQ(d.groupCells(0), 4u);
    EXPECT_EQ(d.groupCells(1), 2u);
    EXPECT_EQ(d.totalCells(), 6u);
    read(d, 0, 0, 0);
    EXPECT_EQ(d.groupCells(0), 2u);
}

TEST(DramStore, GroupOverflowPanics)
{
    DramStore d(4, 2, 1, 4);
    write(d, 0, 0, block(0, 0, 2), 0);
    write(d, 0, 1, block(0, 2, 2), 0);
    EXPECT_THROW(write(d, 0, 2, block(0, 4, 2), 0), PanicError);
}

TEST(DramStore, RecycleRequiresEmpty)
{
    DramStore d(2, 2, 1, 0);
    write(d, 0, 0, block(0, 0, 2), 0);
    EXPECT_THROW(d.recycle(0), PanicError);
    read(d, 0, 0, 0);
    EXPECT_NO_THROW(d.recycle(0));
}

// ----------------------------------------------------- DramTiming

TEST(DramTiming, UniformDefaultMatchesLegacyScalar)
{
    const TimingConfig cfg;
    EXPECT_TRUE(cfg.isUniform());
    DramTiming t(cfg, 8, 4, 8);
    for (unsigned bank = 0; bank < 8; ++bank)
        EXPECT_EQ(t.accessSlots(bank), 8u);
    EXPECT_EQ(t.maxAccessSlots(), 8u);
    EXPECT_FALSE(t.refreshEnabled());
    EXPECT_EQ(t.turnaround(), 0u);
    for (Slot now = 0; now < 100; ++now)
        EXPECT_FALSE(t.inRefresh(now % 8, now));
}

TEST(DramTiming, PerGroupTrcResolvesGroupMajor)
{
    TimingConfig cfg;
    cfg.groupTRc = {8, 16};
    EXPECT_FALSE(cfg.isUniform());
    DramTiming t(cfg, 4, 2, 8);
    // AddressMap lays banks out group-major: banks 0-1 = group 0.
    EXPECT_EQ(t.accessSlots(0), 8u);
    EXPECT_EQ(t.accessSlots(1), 8u);
    EXPECT_EQ(t.accessSlots(2), 16u);
    EXPECT_EQ(t.accessSlots(3), 16u);
    EXPECT_EQ(t.maxAccessSlots(), 16u);
    EXPECT_EQ(cfg.maxTRc(8), 16u);
}

TEST(DramTiming, RefreshWindowRotatesDeterministically)
{
    TimingConfig cfg;
    cfg.tRefi = 32;
    cfg.tRfc = 8;
    cfg.refreshBanks = 2;
    DramTiming t(cfg, 4, 2, 8);
    // Interval 0: banks 0-1 blacked out during [0, 8).
    EXPECT_TRUE(t.inRefresh(0, 0));
    EXPECT_TRUE(t.inRefresh(1, 7));
    EXPECT_FALSE(t.inRefresh(2, 0));
    EXPECT_FALSE(t.inRefresh(0, 8));  // blackout over
    // Interval 1 (slots 32..): the window rotates to banks 2-3.
    EXPECT_TRUE(t.inRefresh(2, 32));
    EXPECT_TRUE(t.inRefresh(3, 39));
    EXPECT_FALSE(t.inRefresh(0, 32));
    EXPECT_FALSE(t.inRefresh(2, 40));
    // Interval 2 wraps back to banks 0-1.
    EXPECT_TRUE(t.inRefresh(0, 64));
    EXPECT_FALSE(t.inRefresh(2, 64));
}

TEST(DramTiming, InvalidConfigsAreFatal)
{
    TimingConfig bad_rfc;
    bad_rfc.tRefi = 32;  // refresh on, but t_RFC unset
    EXPECT_THROW(DramTiming(bad_rfc, 4, 2, 8), FatalError);

    TimingConfig rfc_too_long;
    rfc_too_long.tRefi = 32;
    rfc_too_long.tRfc = 32;  // blackout covers the whole interval
    EXPECT_THROW(DramTiming(rfc_too_long, 4, 2, 8), FatalError);

    TimingConfig wrong_groups;
    wrong_groups.groupTRc = {8, 16, 24};  // 3 entries, 2 groups
    EXPECT_THROW(DramTiming(wrong_groups, 4, 2, 8), FatalError);

    TimingConfig window_too_wide;
    window_too_wide.tRefi = 32;
    window_too_wide.tRfc = 8;
    window_too_wide.refreshBanks = 8;  // only 4 banks exist
    EXPECT_THROW(DramTiming(window_too_wide, 4, 2, 8), FatalError);

    TimingConfig no_banks;
    no_banks.turnaround = 2;  // non-uniform needs a bank count
    EXPECT_THROW(DramTiming(no_banks, 0, 0, 8), FatalError);
}

TEST(DramTiming, DescribeNamesEveryKnob)
{
    TimingConfig cfg;
    cfg.groupTRc = {8, 16};
    cfg.turnaround = 2;
    cfg.tRefi = 128;
    cfg.tRfc = 16;
    cfg.refreshBanks = 2;
    const auto d = cfg.describe(8);
    EXPECT_NE(d.find("tRC=8/16"), std::string::npos) << d;
    EXPECT_NE(d.find("turn=2"), std::string::npos) << d;
    EXPECT_NE(d.find("REFI=128/16x2"), std::string::npos) << d;
    EXPECT_EQ(TimingConfig{}.describe(8), "uniform tRC=8");
}

TEST(BankState, PerBankAccessTimesComeFromTheTimingPolicy)
{
    // One bank per group: bank 0 runs at t_RC 8, bank 1 at 16.
    TimingConfig cfg;
    cfg.groupTRc = {8, 16};
    BankState s(2, std::make_shared<const DramTiming>(cfg, 2, 1, 8));
    EXPECT_EQ(s.startAccess(0, 0), 8u);
    EXPECT_EQ(s.startAccess(1, 0), 16u);
    EXPECT_FALSE(s.busy(0, 8));
    EXPECT_TRUE(s.busy(1, 8));   // slow bank still inside t_RC
    EXPECT_FALSE(s.busy(1, 16));
    // Re-access inside the longer window is still a conflict.
    EXPECT_THROW(s.startAccess(1, 12), PanicError);
    EXPECT_THROW(BankState(2, nullptr), PanicError);
}

TEST(DramTiming, ExplicitTrcIsNotUniform)
{
    // An explicit tRc -- even one equal to B -- must count as
    // non-uniform so it passes through the CFDS-only gate and the
    // latency/RR slack extension (it changes bank lock times and
    // read completion regardless).
    TimingConfig cfg;
    cfg.tRc = 16;
    EXPECT_FALSE(cfg.isUniform());
    DramTiming t(cfg, 4, 2, 8);
    EXPECT_EQ(t.accessSlots(3), 16u);
    EXPECT_EQ(t.maxAccessSlots(), 16u);
    TimingConfig same_as_base;
    same_as_base.tRc = 8;
    EXPECT_FALSE(same_as_base.isUniform());
}

TEST(DramTiming, OutOfRangeBankPanics)
{
    TimingConfig cfg;
    cfg.groupTRc = {8, 16};
    DramTiming t(cfg, 4, 2, 8);
    EXPECT_THROW(t.accessSlots(4), PanicError);
}
