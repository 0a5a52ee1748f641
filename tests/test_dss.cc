/**
 * @file
 * Unit tests of the DRAM Scheduler Subsystem: RR age order, skip
 * accounting (Eq. 2's measured counterpart), per-queue write order,
 * cancellation, ORR locking, and the full DSA conflict-freedom loop
 * against a bank-state oracle.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "common/random.hh"
#include "dram/address_map.hh"
#include "dram/bank_state.hh"
#include "dram/timing.hh"
#include "dss/dram_scheduler.hh"

using namespace pktbuf;
using namespace pktbuf::dss;

namespace
{

DramRequest
makeRead(QueueId q, std::uint64_t ord, unsigned bank, Slot issued = 0)
{
    DramRequest r;
    r.kind = DramRequest::Kind::Read;
    r.physQueue = q;
    r.blockOrdinal = ord;
    r.bank = bank;
    r.issued = issued;
    return r;
}

DramRequest
makeWrite(QueueId q, std::uint64_t ord, unsigned bank, Slot issued = 0)
{
    auto r = makeRead(q, ord, bank, issued);
    r.kind = DramRequest::Kind::Write;
    return r;
}

/** DSA blocking probe: an entry whose bank `locked` accepts stalls
 *  as BankBusy; every other entry is ready. */
template <typename LockedFn>
auto
bankBusyIf(LockedFn locked)
{
    return [locked](const DramRequest &r)
               -> std::optional<dram::StallCause> {
        if (locked(r.bank))
            return dram::StallCause::BankBusy;
        return std::nullopt;
    };
}

} // namespace

TEST(RequestRegister, OldestReadyFirst)
{
    RequestRegister rr(8);
    rr.push(makeRead(0, 0, 5));
    rr.push(makeRead(1, 0, 6));
    rr.push(makeRead(2, 0, 7));
    auto sel = rr.selectOldestReady(
        bankBusyIf([](unsigned) { return false; }));
    ASSERT_TRUE(sel);
    EXPECT_EQ(sel->physQueue, 0u);
    EXPECT_EQ(rr.size(), 2u);
}

TEST(RequestRegister, SkipsLockedBanksAndCountsSkips)
{
    RequestRegister rr(8);
    rr.push(makeRead(0, 0, 5));
    rr.push(makeRead(1, 0, 6));
    auto sel = rr.selectOldestReady(
        bankBusyIf([](unsigned bank) { return bank == 5; }));
    ASSERT_TRUE(sel);
    EXPECT_EQ(sel->physQueue, 1u);
    EXPECT_EQ(rr.maxSkips(), 1);
    // The skipped entry keeps its age: next call picks it.
    sel = rr.selectOldestReady(
        bankBusyIf([](unsigned) { return false; }));
    ASSERT_TRUE(sel);
    EXPECT_EQ(sel->physQueue, 0u);
}

TEST(RequestRegister, AllLockedReturnsNothing)
{
    RequestRegister rr(4);
    rr.push(makeRead(0, 0, 1));
    rr.push(makeRead(1, 0, 2));
    EXPECT_FALSE(rr.selectOldestReady(
        bankBusyIf([](unsigned) { return true; })));
    EXPECT_EQ(rr.size(), 2u);
}

TEST(RequestRegister, CapacityOverflowPanics)
{
    RequestRegister rr(2);
    rr.push(makeRead(0, 0, 0));
    rr.push(makeRead(1, 0, 1));
    EXPECT_THROW(rr.push(makeRead(2, 0, 2)), PanicError);
}

TEST(RequestRegister, UnboundedWhenCapacityZero)
{
    RequestRegister rr(0);
    for (unsigned i = 0; i < 100; ++i)
        rr.push(makeRead(i, 0, i % 7));
    EXPECT_EQ(rr.size(), 100u);
    EXPECT_EQ(rr.highWater(), 100);
}

TEST(RequestRegister, PerQueueOrderEnforcedForWrites)
{
    RequestRegister rr(8);
    rr.push(makeWrite(3, 0, 1)); // bank 1 locked
    rr.push(makeWrite(3, 1, 2)); // same queue, free bank
    rr.push(makeWrite(4, 0, 3)); // other queue, free bank
    auto sel = rr.selectOldestReady(
        bankBusyIf([](unsigned bank) { return bank == 1; }));
    // Queue 3's younger write must NOT overtake its older one, but
    // queue 4 may proceed.
    ASSERT_TRUE(sel);
    EXPECT_EQ(sel->physQueue, 4u);
}

TEST(RequestRegister, CancelRemovesOldestMatch)
{
    RequestRegister rr(8);
    rr.push(makeWrite(5, 0, 1));
    rr.push(makeWrite(6, 0, 2));
    rr.push(makeWrite(5, 1, 3));
    auto c = rr.cancel([](const DramRequest &r) {
        return r.physQueue == 5;
    });
    ASSERT_TRUE(c);
    EXPECT_EQ(c->blockOrdinal, 0u);
    EXPECT_EQ(rr.size(), 2u);
    c = rr.cancel([](const DramRequest &r) {
        return r.physQueue == 5;
    });
    ASSERT_TRUE(c);
    EXPECT_EQ(c->blockOrdinal, 1u);
    EXPECT_FALSE(rr.cancel([](const DramRequest &r) {
        return r.physQueue == 5;
    }));
}

TEST(OngoingRequests, LockWindowMatchesAccessTime)
{
    OngoingRequests orr(8);
    orr.add(3, 10);
    EXPECT_TRUE(orr.locked(3, 10));
    EXPECT_TRUE(orr.locked(3, 17));
    EXPECT_FALSE(orr.locked(3, 18));
    EXPECT_FALSE(orr.locked(4, 12));
}

TEST(OngoingRequests, DoubleLockPanics)
{
    OngoingRequests orr(8);
    orr.add(1, 0);
    EXPECT_THROW(orr.add(1, 4), PanicError);
    EXPECT_NO_THROW(orr.add(1, 8));
}

TEST(OngoingRequests, SizeTracksInFlight)
{
    OngoingRequests orr(4);
    orr.add(0, 0);
    orr.add(1, 1);
    orr.add(2, 2);
    EXPECT_EQ(orr.size(2), 3u);
    EXPECT_EQ(orr.size(4), 2u); // bank 0 done at slot 4
    EXPECT_EQ(orr.highWater(), 3);
}

TEST(DramScheduler, LaunchLocksBank)
{
    OngoingRequests orr(8);
    DramScheduler sched(16, orr);
    sched.push(makeRead(0, 0, 3, 0));
    sched.push(makeRead(1, 0, 3, 0)); // same bank
    auto first = sched.tryLaunch(0);
    ASSERT_TRUE(first);
    EXPECT_EQ(first->physQueue, 0u);
    // Second request to the same bank must wait out the access.
    EXPECT_FALSE(sched.tryLaunch(2));
    EXPECT_EQ(sched.stalls(), 1u);
    auto second = sched.tryLaunch(8);
    ASSERT_TRUE(second);
    EXPECT_EQ(second->physQueue, 1u);
    EXPECT_EQ(sched.launches(), 2u);
}

TEST(DramScheduler, QueueDelayStatistics)
{
    OngoingRequests orr(4);
    DramScheduler sched(16, orr);
    sched.push(makeRead(0, 0, 0, 0));
    sched.tryLaunch(6);
    EXPECT_DOUBLE_EQ(sched.queueDelay().mean(), 6.0);
}

TEST(OngoingRequests, LockExpiryBoundaryIsExclusive)
{
    // The lock window is [now, now + t_RC): an entry with
    // until <= now is pruned, so the bank frees on exactly the slot
    // the access completes, never one early or late.
    OngoingRequests orr(8);
    orr.add(5, 100);
    EXPECT_EQ(orr.size(100), 1u);
    EXPECT_TRUE(orr.locked(5, 107));   // until = 108 > 107
    EXPECT_EQ(orr.size(107), 1u);
    EXPECT_FALSE(orr.locked(5, 108));  // until = 108 <= 108
    EXPECT_EQ(orr.size(108), 0u);
}

TEST(OngoingRequests, SharedBetweenReadAndWriteSchedulers)
{
    // Two schedulers sharing one ORR, one fed reads and one writes:
    // a bank is locked no matter which direction locked it.
    OngoingRequests orr(8);
    DramScheduler reads(16, orr);
    DramScheduler writes(16, orr);

    writes.push(makeWrite(0, 0, 3, 0));
    reads.push(makeRead(1, 0, 3, 0));  // same bank as the write
    ASSERT_TRUE(writes.tryLaunch(0));
    // The write's lock must stall the *read* scheduler too.
    EXPECT_FALSE(reads.tryLaunch(2));
    EXPECT_EQ(reads.stalls(), 1u);
    EXPECT_EQ(reads.stallsFor(dram::StallCause::BankBusy), 1u);
    // ...until the write's access time elapses.
    auto r = reads.tryLaunch(8);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->physQueue, 1u);
    // And the read's fresh lock now stalls the write scheduler.
    writes.push(makeWrite(2, 0, 3, 8));
    EXPECT_FALSE(writes.tryLaunch(10));
    EXPECT_EQ(writes.stallsFor(dram::StallCause::BankBusy), 1u);
    EXPECT_EQ(orr.highWater(), 1);
}

namespace
{

std::shared_ptr<const pktbuf::dram::DramTiming>
makeTiming(const pktbuf::dram::TimingConfig &cfg, unsigned banks,
           unsigned banks_per_group, pktbuf::Slot base)
{
    return std::make_shared<const pktbuf::dram::DramTiming>(
        cfg, banks, banks_per_group, base);
}

} // namespace

TEST(DramScheduler, RefreshStallsAreAccountedByCause)
{
    // Banks 0-1 are blacked out during [0, 8) of every 64-slot
    // refresh interval (window 2, rotating).
    dram::TimingConfig cfg;
    cfg.tRefi = 64;
    cfg.tRfc = 8;
    cfg.refreshBanks = 2;
    OngoingRequests orr(makeTiming(cfg, 4, 2, 8));
    DramScheduler sched(16, orr);

    sched.push(makeRead(0, 0, /*bank=*/0, 0));
    EXPECT_FALSE(sched.tryLaunch(0));  // bank 0 refreshing
    EXPECT_EQ(sched.stallsFor(dram::StallCause::Refresh), 1u);
    EXPECT_EQ(sched.stallsFor(dram::StallCause::BankBusy), 0u);
    // A request to a bank outside the window launches immediately.
    sched.push(makeRead(1, 0, /*bank=*/2, 0));
    auto r = sched.tryLaunch(0);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->bank, 2u);
    // Once the blackout ends, the deferred request goes out.
    r = sched.tryLaunch(8);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->bank, 0u);
}

TEST(DramScheduler, TurnaroundStallsAreAccountedByCause)
{
    dram::TimingConfig cfg;
    cfg.turnaround = 4;
    OngoingRequests orr(makeTiming(cfg, 4, 2, 8));
    DramScheduler sched(16, orr);

    sched.push(makeRead(0, 0, 0, 0));
    sched.push(makeWrite(1, 0, 1, 0));
    ASSERT_TRUE(sched.tryLaunch(0));  // read launches
    // The write must wait out the bus turnaround, not a bank lock.
    EXPECT_FALSE(sched.tryLaunch(2));
    EXPECT_EQ(sched.stallsFor(dram::StallCause::Turnaround), 1u);
    EXPECT_EQ(sched.stallsFor(dram::StallCause::BankBusy), 0u);
    auto w = sched.tryLaunch(4);
    ASSERT_TRUE(w);
    EXPECT_EQ(w->kind, DramRequest::Kind::Write);
}

TEST(DramScheduler, PerGroupTrcExtendsTheLockWindow)
{
    // Group 0 (banks 0-1) runs at t_RC 8, group 1 (banks 2-3) at 16.
    dram::TimingConfig cfg;
    cfg.groupTRc = {8, 16};
    OngoingRequests orr(makeTiming(cfg, 4, 2, 8));
    DramScheduler sched(16, orr);

    ASSERT_TRUE((sched.push(makeRead(0, 0, 0, 0)),
                 sched.tryLaunch(0)));
    ASSERT_TRUE((sched.push(makeRead(1, 0, 2, 0)),
                 sched.tryLaunch(0)));
    // Fast bank frees at 8; slow bank stays locked until 16 -- and
    // the ORR prunes the fast entry even though the slow one is
    // older in the table.
    sched.push(makeRead(0, 1, 0, 8));
    sched.push(makeRead(1, 1, 2, 8));
    auto r = sched.tryLaunch(8);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->bank, 0u);
    EXPECT_FALSE(sched.tryLaunch(10));  // bank 2 still busy
    EXPECT_EQ(sched.stallsFor(dram::StallCause::BankBusy), 1u);
    ASSERT_TRUE(sched.tryLaunch(16));
}

TEST(DramScheduler, RandomizedConflictFreedomAgainstOracle)
{
    // Property: whatever request stream arrives, every launch the
    // DSA makes is conflict-free per the BankState oracle, and
    // block-cyclic requests of one queue never stall the scheduler
    // for more than B/b consecutive opportunities.
    const unsigned banks = 16, bpg = 4, B = 8, b = 2;
    dram::AddressMap map(banks, bpg);
    dram::BankState oracle(banks, B);
    OngoingRequests orr(B);
    DramScheduler sched(0, orr);
    Rng rng(77);
    std::vector<std::uint64_t> ord(8, 0);

    Slot now = 0;
    for (int step = 0; step < 4000; ++step) {
        now += b;
        if (rng.chance(0.8)) {
            const QueueId q = static_cast<QueueId>(rng.below(8));
            sched.push(makeRead(q, ord[q], map.bankOf(q, ord[q]), now));
            ++ord[q];
        }
        if (auto r = sched.tryLaunch(now)) {
            // Panics on conflict; the test fails via the exception.
            oracle.startAccess(r->bank, now);
        }
    }
    EXPECT_GT(sched.launches(), 1000u);
}
