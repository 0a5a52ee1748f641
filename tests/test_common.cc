/**
 * @file
 * Unit tests for the common substrate: types, logging, RNG,
 * statistics, shift register.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/shift_register.hh"
#include "common/stats.hh"
#include "common/types.hh"

using namespace pktbuf;

TEST(Types, SlotTimes)
{
    EXPECT_DOUBLE_EQ(slotTimeNs(LineRate::OC3072), 3.2);
    EXPECT_DOUBLE_EQ(slotTimeNs(LineRate::OC768), 12.8);
    EXPECT_DOUBLE_EQ(slotTimeNs(LineRate::OC192), 51.2);
}

TEST(Types, LineRateNames)
{
    EXPECT_EQ(toString(LineRate::OC3072), "OC-3072");
    EXPECT_EQ(toString(LineRate::OC768), "OC-768");
}

TEST(Types, CellStampDetectsIdentity)
{
    Cell a{1, 5, 0};
    Cell b{1, 5, 99}; // arrival slot does not affect identity
    Cell c{2, 5, 0};
    Cell d{1, 6, 0};
    EXPECT_EQ(a.stamp(), b.stamp());
    EXPECT_NE(a.stamp(), c.stamp());
    EXPECT_NE(a.stamp(), d.stamp());
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
    EXPECT_THROW(fatal("bad config"), FatalError);
    try {
        panic("value=", 7);
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("value=7"),
                  std::string::npos);
    }
}

TEST(Logging, PanicIfConditions)
{
    EXPECT_NO_THROW(panic_if(false, "never"));
    EXPECT_THROW(panic_if(true, "always"), PanicError);
    EXPECT_NO_THROW(fatal_if(false, "never"));
    EXPECT_THROW(fatal_if(true, "always"), FatalError);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform)
{
    Rng r(7);
    std::vector<int> hist(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const auto v = r.below(10);
        ASSERT_LT(v, 10u);
        ++hist[static_cast<int>(v)];
    }
    for (const int h : hist) {
        EXPECT_GT(h, n / 10 - n / 50);
        EXPECT_LT(h, n / 10 + n / 50);
    }
}

TEST(Rng, BetweenInclusive)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.between(3, 5));
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_TRUE(seen.count(3) && seen.count(4) && seen.count(5));
}

TEST(Rng, ChanceExtremes)
{
    Rng r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Stats, CounterAndSampler)
{
    Counter c;
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);

    Sampler s;
    EXPECT_EQ(s.mean(), 0.0);
    s.sample(1.0);
    s.sample(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_EQ(s.count(), 2u);
}

TEST(Stats, HighWaterTracksMaximum)
{
    HighWater h;
    h.observe(3);
    h.observe(1);
    h.observe(7);
    h.observe(2);
    EXPECT_EQ(h.max(), 7);
}

TEST(ShiftRegister, FifoWithExactDepth)
{
    ShiftRegister<int> sr(3, -1);
    EXPECT_EQ(sr.shift(1), -1);
    EXPECT_EQ(sr.shift(2), -1);
    EXPECT_EQ(sr.shift(3), -1);
    EXPECT_EQ(sr.shift(4), 1);
    EXPECT_EQ(sr.shift(5), 2);
}

TEST(ShiftRegister, PeekSeesInOrder)
{
    ShiftRegister<int> sr(4, 0);
    sr.shift(10);
    sr.shift(20);
    // peek(0) is the value emerging next.
    EXPECT_EQ(sr.peek(0), 0);
    EXPECT_EQ(sr.peek(2), 10);
    EXPECT_EQ(sr.peek(3), 20);
}

TEST(ShiftRegister, OccupancyAndClear)
{
    ShiftRegister<int> sr(4, 0);
    sr.shift(1);
    sr.shift(2);
    EXPECT_EQ(sr.occupancy(), 2u);
    sr.clear();
    EXPECT_EQ(sr.occupancy(), 0u);
}

TEST(ShiftRegister, DepthOneIsOneSlotDelay)
{
    ShiftRegister<int> sr(1, -1);
    EXPECT_EQ(sr.shift(5), -1);
    EXPECT_EQ(sr.shift(6), 5);
}

TEST(ShiftRegister, PeekBeyondDepthPanics)
{
    ShiftRegister<int> sr(2, 0);
    EXPECT_THROW(sr.peek(2), PanicError);
}
