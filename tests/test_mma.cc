/**
 * @file
 * Unit tests of the MMA subsystem, including the paper's Figure-3
 * worked example for ECQF, criticality invariants, MDQF selection,
 * and the threshold tail MMA.
 */

#include <gtest/gtest.h>

#include "common/shift_register.hh"
#include "mma/ecqf.hh"
#include "mma/mdqf.hh"
#include "mma/tail_mma.hh"

using namespace pktbuf;
using namespace pktbuf::mma;

namespace
{

ShiftRegister<QueueId>
lookaheadOf(std::size_t depth, const std::vector<QueueId> &content)
{
    ShiftRegister<QueueId> sr(depth, kInvalidQueue);
    for (const auto q : content)
        sr.shift(q);
    for (std::size_t i = content.size(); i < depth; ++i)
        sr.shift(kInvalidQueue);
    return sr;
}

QueueId
ident(QueueId q)
{
    return q;
}

} // namespace

TEST(Ecqf, PaperFigure3Example)
{
    // Section 3 example: Q = 4, b = 3, lookahead holds (head first)
    // requests [3, 3, 1, 1, 1]; queues 1 and 3 have 2 cells each.
    // The MMA must select queue 1 (critical at the 5th slot); if it
    // selected queue 3, queue 1 would miss after 5 slots.
    EcqfMma mma(5);
    mma.onReplenishIssued(1, 2);
    mma.onReplenishIssued(3, 2);
    auto look = lookaheadOf(6, {3, 3, 1, 1, 1});
    EXPECT_EQ(mma.select(look, ident), 1u);
}

TEST(Ecqf, NoCriticalQueueReturnsInvalid)
{
    EcqfMma mma(4);
    mma.onReplenishIssued(0, 3);
    mma.onReplenishIssued(1, 3);
    auto look = lookaheadOf(6, {0, 1, 0, 1});
    EXPECT_EQ(mma.select(look, ident), kInvalidQueue);
}

TEST(Ecqf, EarliestCriticalWinsOverDeeperDeficit)
{
    // Queue 2 is critical at position 1; queue 0 is critical later
    // even though its deficit is larger.
    EcqfMma mma(3);
    mma.onReplenishIssued(0, 1);
    auto look = lookaheadOf(8, {2, 2, 0, 0, 0, 0});
    EXPECT_EQ(mma.select(look, ident), 2u);
}

TEST(Ecqf, CountersFollowIssueAndLeave)
{
    EcqfMma mma(2);
    mma.onReplenishIssued(0, 4);
    EXPECT_EQ(mma.occupancy(0), 4);
    mma.onRequestLeaving(0);
    mma.onRequestLeaving(0);
    EXPECT_EQ(mma.occupancy(0), 2);
    EXPECT_EQ(mma.occupancy(1), 0);
}

TEST(Ecqf, ScanDoesNotMutateCounters)
{
    EcqfMma mma(2);
    mma.onReplenishIssued(0, 1);
    auto look = lookaheadOf(4, {0, 0});
    EXPECT_EQ(mma.select(look, ident), 0u);
    // Selection must not have consumed the real counter.
    EXPECT_EQ(mma.occupancy(0), 1);
    // Re-running the identical scan yields the identical answer.
    EXPECT_EQ(mma.select(look, ident), 0u);
}

TEST(Ecqf, IdleSlotsAreSkipped)
{
    EcqfMma mma(2);
    ShiftRegister<QueueId> look(6, kInvalidQueue);
    look.shift(kInvalidQueue);
    look.shift(1);
    look.shift(kInvalidQueue);
    look.shift(1);
    for (int i = 0; i < 2; ++i)
        look.shift(kInvalidQueue);
    // Queue 1 has no credit: second request makes it critical; the
    // first already does.
    EXPECT_EQ(mma.select(look, ident), 1u);
}

namespace
{

bool
anyQueue(QueueId)
{
    return true;
}

} // namespace

TEST(Mdqf, PicksDeepestDeficit)
{
    EcqfMma counters(3);
    counters.onRequestLeaving(0); // occ -1
    counters.onRequestLeaving(2);
    counters.onRequestLeaving(2); // occ -2
    EXPECT_EQ(MdqfMma::select(counters, 4, anyQueue), 2u);
}

TEST(Mdqf, SkipsUnreplenishableAndComfortable)
{
    EcqfMma counters(3);
    counters.onRequestLeaving(0);
    counters.onRequestLeaving(0);
    counters.onReplenishIssued(1, 8); // comfortable
    counters.onRequestLeaving(2);
    // Queue 0 has the deepest deficit but nothing to transfer.
    const auto pick = MdqfMma::select(
        counters, 4, [](QueueId q) { return q != 0; });
    EXPECT_EQ(pick, 2u);
}

TEST(Mdqf, NoCandidatesReturnsInvalid)
{
    EcqfMma counters(2);
    counters.onReplenishIssued(0, 4);
    counters.onReplenishIssued(1, 4);
    EXPECT_EQ(MdqfMma::select(counters, 4, anyQueue), kInvalidQueue);
}

// ---------------------------------------------------------------
// ECQF vs MDQF: the value (and the blind spot) of lookahead.  Both
// rules read the same occupancy counters.
// ---------------------------------------------------------------

TEST(EcqfVsMdqf, LookaheadOverridesDeficitDepth)
{
    // Queue 0 carries the deeper deficit, but the lookahead shows
    // queue 1 running dry first.  Over the same counters ECQF
    // replenishes queue 1 while the lookahead-blind MDQF goes for
    // queue 0.
    EcqfMma ecqf(3);
    for (int i = 0; i < 3; ++i)
        ecqf.onRequestLeaving(0);
    ecqf.onReplenishIssued(1, 1);

    auto look = lookaheadOf(8, {1, 1, 0, 0, 0, 0});
    const auto ecqf_pick = ecqf.select(look, ident);
    const auto mdqf_pick = MdqfMma::select(ecqf, 4, anyQueue);
    EXPECT_EQ(ecqf_pick, 1u);
    EXPECT_EQ(mdqf_pick, 0u);
    EXPECT_NE(ecqf_pick, mdqf_pick);
}

TEST(EcqfVsMdqf, AgreeWhenLookaheadConfirmsTheDeficit)
{
    // When the imminent requests target the most-deficited queue,
    // lookahead adds nothing: both algorithms choose the same queue.
    EcqfMma ecqf(3);
    for (int i = 0; i < 2; ++i)
        ecqf.onRequestLeaving(2);
    auto look = lookaheadOf(6, {2, 2, 1, 1});
    EXPECT_EQ(ecqf.select(look, ident), 2u);
    EXPECT_EQ(MdqfMma::select(ecqf, 4, anyQueue), 2u);
}

TEST(EcqfVsMdqf, RequestOrderMattersOnlyToEcqf)
{
    // Same multiset of future requests, two different orders: ECQF's
    // pick follows whichever queue empties first, MDQF's cannot (its
    // counters are order-independent).
    EcqfMma ecqf(2);
    ecqf.onReplenishIssued(0, 1);
    ecqf.onReplenishIssued(1, 1);

    auto zero_first = lookaheadOf(8, {0, 0, 1, 1});
    auto one_first = lookaheadOf(8, {1, 1, 0, 0});
    EXPECT_EQ(ecqf.select(zero_first, ident), 0u);
    EXPECT_EQ(ecqf.select(one_first, ident), 1u);
    // MDQF has no future-order input at all: with the occupancy tie
    // at +1 its pick is pinned to the first queue, whichever order
    // the upcoming requests would arrive in.
    EXPECT_EQ(MdqfMma::select(ecqf, 4, anyQueue), 0u);
}

TEST(EcqfVsMdqf, EmptyLookaheadGivesEcqfNothingToActOn)
{
    // With no requests visible, ECQF has no critical queue; MDQF
    // still replenishes the deficited one.  This is exactly why MDQF
    // needs the larger Q(b-1)(2 + ln Q) SRAM and ECQF does not.
    EcqfMma ecqf(2);
    ecqf.onRequestLeaving(1);
    ShiftRegister<QueueId> empty(6, kInvalidQueue);
    EXPECT_EQ(ecqf.select(empty, ident), kInvalidQueue);
    EXPECT_EQ(MdqfMma::select(ecqf, 4, anyQueue), 1u);
}

TEST(TailMma, ThresholdAndRoundRobinFairness)
{
    TailMma mma(4);
    std::vector<std::uint64_t> occ{5, 5, 2, 5};
    auto unclaimed = [&](QueueId q) { return occ[q]; };
    auto yes = [](QueueId) { return true; };
    // gran 4: queue 2 (occ 2) is below threshold.
    EXPECT_EQ(mma.select(4, unclaimed, yes), 0u);
    EXPECT_EQ(mma.select(4, unclaimed, yes), 1u);
    EXPECT_EQ(mma.select(4, unclaimed, yes), 3u);
    EXPECT_EQ(mma.select(4, unclaimed, yes), 0u); // wraps
}

TEST(TailMma, AdmissibilityFilter)
{
    TailMma mma(2);
    std::vector<std::uint64_t> occ{8, 8};
    const auto pick = mma.select(
        4, [&](QueueId q) { return occ[q]; },
        [](QueueId q) { return q == 1; });
    EXPECT_EQ(pick, 1u);
}

TEST(TailMma, NothingAboveThreshold)
{
    TailMma mma(3);
    const auto pick = mma.select(
        4, [](QueueId) { return 3u; },
        [](QueueId) { return true; });
    EXPECT_EQ(pick, kInvalidQueue);
}
