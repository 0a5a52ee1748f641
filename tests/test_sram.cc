/**
 * @file
 * Unit tests of the functional SRAM caches: in-order consumption of
 * out-of-order refills in the head SRAM, miss/overflow panics, and
 * the claim/bypass protocol of the tail SRAM.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "sram/head_sram.hh"
#include "sram/tail_sram.hh"

using namespace pktbuf;
using namespace pktbuf::sram;

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

/** Insert `cells` as replenish block `seq`, copied into place. */
void
insert(HeadSram &h, QueueId p, std::uint64_t seq,
       const std::vector<Cell> &cells)
{
    std::ranges::copy(cells, h.insertBlock(p, seq, cells.size()).begin());
}

std::vector<Cell>
extractClaimed(TailSram &t, QueueId p, unsigned n)
{
    std::vector<Cell> out(n);
    t.extractClaimed(p, out);
    return out;
}

std::vector<Cell>
extractBypass(TailSram &t, QueueId p, unsigned max_cells)
{
    std::vector<Cell> out(max_cells);
    out.resize(t.extractBypass(p, out));
    return out;
}

} // namespace

TEST(HeadSram, InOrderRoundTrip)
{
    HeadSram h(2, 0, /*gran=*/4);
    insert(h, 0, 0, block(0, 0, 2));
    insert(h, 0, 1, block(0, 2, 2));
    for (SeqNum s = 0; s < 4; ++s)
        EXPECT_EQ(h.pop(0).seq, s);
    EXPECT_EQ(h.occupancy(), 0u);
}

TEST(HeadSram, OutOfOrderRefillConsumedInOrder)
{
    HeadSram h(2, 0, /*gran=*/4);
    // Replenish seq 1 completes before seq 0 (DSA reordering).
    insert(h, 0, 1, block(0, 2, 2));
    EXPECT_TRUE(h.wouldMiss(0));
    insert(h, 0, 0, block(0, 0, 2));
    EXPECT_FALSE(h.wouldMiss(0));
    for (SeqNum s = 0; s < 4; ++s)
        EXPECT_EQ(h.pop(0).seq, s);
}

TEST(HeadSram, MissPanics)
{
    HeadSram h(2, 0, /*gran=*/4);
    EXPECT_THROW(h.pop(0), PanicError);
    insert(h, 0, 1, block(0, 2, 2)); // gap at seq 0
    EXPECT_THROW(h.pop(0), PanicError);
}

TEST(HeadSram, OverflowPanics)
{
    HeadSram h(1, 3, /*gran=*/4);
    insert(h, 0, 0, block(0, 0, 2));
    EXPECT_THROW(insert(h, 0, 1, block(0, 2, 2)), PanicError);
}

TEST(HeadSram, DuplicateAndStaleSeqPanic)
{
    HeadSram h(1, 0, /*gran=*/4);
    insert(h, 0, 0, block(0, 0, 2));
    EXPECT_THROW(insert(h, 0, 0, block(0, 2, 2)), PanicError);
    h.pop(0);
    h.pop(0); // block 0 fully consumed
    EXPECT_THROW(insert(h, 0, 0, block(0, 4, 2)), PanicError);
}

TEST(HeadSram, PerQueueIsolationAndHighWater)
{
    HeadSram h(3, 0, /*gran=*/4);
    insert(h, 0, 0, block(0, 0, 2));
    insert(h, 2, 0, block(2, 0, 4));
    EXPECT_EQ(h.cellsOf(0), 2u);
    EXPECT_EQ(h.cellsOf(1), 0u);
    EXPECT_EQ(h.cellsOf(2), 4u);
    EXPECT_EQ(h.occupancy(), 6u);
    EXPECT_EQ(h.highWater(), 6);
    h.pop(2);
    EXPECT_EQ(h.occupancy(), 5u);
    EXPECT_EQ(h.highWater(), 6);
}

TEST(HeadSram, RecycleResetsSequenceSpace)
{
    HeadSram h(1, 0, /*gran=*/4);
    insert(h, 0, 0, block(0, 0, 1));
    h.pop(0);
    h.recycle(0);
    // After recycling, seq numbering restarts at 0.
    EXPECT_NO_THROW(insert(h, 0, 0, block(0, 0, 1)));
    EXPECT_EQ(h.pop(0).seq, 0u);
}

TEST(HeadSram, RecycleNonEmptyPanics)
{
    HeadSram h(1, 0, /*gran=*/4);
    insert(h, 0, 0, block(0, 0, 1));
    EXPECT_THROW(h.recycle(0), PanicError);
}

TEST(TailSram, PushClaimExtractOrder)
{
    TailSram t(2, 0, /*gran=*/4);
    for (SeqNum s = 0; s < 6; ++s)
        t.push(0, Cell{0, s, 0});
    EXPECT_EQ(t.unclaimed(0), 6u);
    t.claim(0, 4);
    EXPECT_EQ(t.unclaimed(0), 2u);
    EXPECT_EQ(t.cellsOf(0), 6u);
    const auto cells = extractClaimed(t, 0, 4);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].seq, 0u);
    EXPECT_EQ(cells[3].seq, 3u);
    EXPECT_EQ(t.cellsOf(0), 2u);
}

TEST(TailSram, ClaimMoreThanUnclaimedPanics)
{
    TailSram t(1, 0, /*gran=*/4);
    t.push(0, Cell{0, 0, 0});
    EXPECT_THROW(t.claim(0, 2), PanicError);
}

TEST(TailSram, BypassTakesOldestUnclaimed)
{
    TailSram t(1, 0, /*gran=*/4);
    for (SeqNum s = 0; s < 3; ++s)
        t.push(0, Cell{0, s, 0});
    const auto cells = extractBypass(t, 0, 2);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].seq, 0u);
    EXPECT_EQ(cells[1].seq, 1u);
    EXPECT_EQ(t.cellsOf(0), 1u);
}

TEST(TailSram, BypassBehindClaimPanics)
{
    TailSram t(1, 0, /*gran=*/4);
    for (SeqNum s = 0; s < 4; ++s)
        t.push(0, Cell{0, s, 0});
    t.claim(0, 2);
    // Claimed cells are older; bypassing around them would reorder.
    EXPECT_THROW(extractBypass(t, 0, 2), PanicError);
    t.unclaim(0, 2);
    EXPECT_NO_THROW(extractBypass(t, 0, 2));
}

TEST(TailSram, BypassShorterThanRequested)
{
    TailSram t(1, 0, /*gran=*/4);
    t.push(0, Cell{0, 0, 0});
    const auto cells = extractBypass(t, 0, 4);
    EXPECT_EQ(cells.size(), 1u);
}

TEST(TailSram, OverflowPanics)
{
    TailSram t(1, 2, /*gran=*/4);
    t.push(0, Cell{0, 0, 0});
    t.push(0, Cell{0, 1, 0});
    EXPECT_THROW(t.push(0, Cell{0, 2, 0}), PanicError);
}

TEST(TailSram, HighWaterTracksPeak)
{
    TailSram t(1, 0, /*gran=*/4);
    t.push(0, Cell{0, 0, 0});
    t.push(0, Cell{0, 1, 0});
    extractBypass(t, 0, 2);
    EXPECT_EQ(t.occupancy(), 0u);
    EXPECT_EQ(t.highWater(), 2);
}

TEST(TailSram, RecycleRequiresDrained)
{
    TailSram t(1, 0, /*gran=*/4);
    t.push(0, Cell{0, 0, 0});
    EXPECT_THROW(t.recycle(0), PanicError);
    extractBypass(t, 0, 1);
    EXPECT_NO_THROW(t.recycle(0));
}
