/**
 * @file
 * End-to-end tests of the CFDS buffer (Section 5): zero miss under
 * the adversarial pattern with the granularity reduced below the
 * DRAM random access time, conflict-freedom (bank-state oracle
 * panics), Eq. (1)/(2) bounds on the Requests Register, and the
 * latency-register grant timing.
 */

#include <gtest/gtest.h>

#include <string>

#include "buffer/hybrid_buffer.hh"
#include "sim/runner.hh"
#include "sim/workload.hh"

using namespace pktbuf;
using namespace pktbuf::buffer;
using namespace pktbuf::sim;

namespace
{

BufferConfig
cfdsConfig(unsigned queues, unsigned B, unsigned b, unsigned banks)
{
    BufferConfig cfg;
    cfg.params = model::BufferParams{queues, B, b, banks};
    return cfg;
}

} // namespace

TEST(CfdsBuffer, ConstructionResolvesLatencyAndRr)
{
    const auto cfg = cfdsConfig(8, 8, 2, 16);
    HybridBuffer buf(cfg);
    EXPECT_EQ(buf.lookaheadDepth(),
              model::ecqfLookaheadSlots(8, 2));
    EXPECT_EQ(buf.latencyDepth(), model::latencySlots(cfg.params));
    // +4: implementation slack over Eq. (1) for the combined
    // register (see DESIGN.md).
    EXPECT_EQ(buf.scheduler().rr().capacity(),
              model::rrSize(cfg.params) + 4);
}

TEST(CfdsBuffer, WorstCaseRoundRobinZeroMiss)
{
    HybridBuffer buf(cfdsConfig(8, 8, 2, 16));
    RoundRobinWorstCase wl(8, 1, 1.0, 128);
    SimRunner runner(buf, wl);
    const auto r = runner.run(60000);
    EXPECT_GT(r.grants, 50000u);
}

TEST(CfdsBuffer, UniformRandomZeroMiss)
{
    HybridBuffer buf(cfdsConfig(8, 8, 4, 8));
    UniformRandom wl(8, 5, 0.95);
    SimRunner runner(buf, wl);
    const auto r = runner.run(60000);
    EXPECT_GT(r.grants, 30000u);
}

TEST(CfdsBuffer, BurstyZeroMiss)
{
    HybridBuffer buf(cfdsConfig(8, 8, 2, 32));
    BurstyOnOff wl(8, 7, 64, 1.0);
    SimRunner runner(buf, wl);
    const auto r = runner.run(60000);
    EXPECT_GT(r.grants, 20000u);
}

TEST(CfdsBuffer, GranularityOneWorks)
{
    // b = 1: per-cell transfers, the most aggressive banking.
    HybridBuffer buf(cfdsConfig(4, 8, 1, 16));
    RoundRobinWorstCase wl(4, 9, 1.0, 64);
    SimRunner runner(buf, wl);
    const auto r = runner.run(30000);
    EXPECT_GT(r.grants, 25000u);
}

TEST(CfdsBuffer, RequestsRegisterStaysWithinEq1)
{
    const auto cfg = cfdsConfig(8, 8, 2, 16);
    HybridBuffer buf(cfg);
    RoundRobinWorstCase wl(8, 3, 1.0, 64);
    SimRunner runner(buf, wl);
    runner.run(60000);
    const auto rep = buf.report();
    const auto r_bound =
        static_cast<std::int64_t>(model::rrSize(cfg.params)) + 4;
    EXPECT_LE(rep.rrHighWater, r_bound);
    // Eq. (2) analogue for the combined register: skips bounded by
    // 2 * d_max + 2 (two launch opportunities per interval).
    const auto d_bound =
        2 * static_cast<std::int64_t>(
                model::dsaMaxSkips(cfg.params)) + 2;
    EXPECT_LE(rep.rrMaxSkips, d_bound);
}

TEST(CfdsBuffer, OrrNeverExceedsInFlightWindow)
{
    const auto cfg = cfdsConfig(8, 8, 2, 16);
    HybridBuffer buf(cfg);
    UniformRandom wl(8, 11, 1.0);
    SimRunner runner(buf, wl);
    runner.run(40000);
    // Reads and writes share the ORR: at most 2 launches per b
    // slots, each locking a bank for B slots -> 2 * B/b entries.
    const std::int64_t bound =
        2 * static_cast<std::int64_t>(cfg.params.banksPerGroup());
    EXPECT_LE(buf.report().orrHighWater, bound);
}

TEST(CfdsBuffer, GrantTimingIsLookaheadPlusLatency)
{
    const auto cfg = cfdsConfig(4, 4, 2, 8);
    HybridBuffer buf(cfg);
    const auto depth = buf.pipelineDepth();
    EXPECT_EQ(depth, buf.lookaheadDepth() + buf.latencyDepth());
    for (int i = 0; i < 64; ++i) {
        Cell c;
        c.queue = 1;
        c.seq = static_cast<SeqNum>(i);
        buf.step(c, kInvalidQueue);
    }
    const Slot issued = buf.now();
    auto g = buf.step(std::nullopt, 1);
    std::uint64_t waited = 0;
    while (!g && waited < depth + 4) {
        g = buf.step(std::nullopt, kInvalidQueue);
        ++waited;
    }
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(buf.now() - issued, depth + 1);
    EXPECT_EQ(g->cell.seq, 0u);
}

TEST(CfdsBuffer, SmallerSramThanRads)
{
    // The headline claim: CFDS shrinks the SRAM.  Compare the
    // enforced capacities of equivalent configurations.
    HybridBuffer rads(cfdsConfig(512, 32, 32, 1));
    HybridBuffer cfds(cfdsConfig(512, 32, 4, 256));
    EXPECT_LT(cfds.headSram().capacity(), rads.headSram().capacity());
    EXPECT_LT(cfds.tailSram().capacity(), rads.tailSram().capacity());
}

TEST(CfdsBuffer, DramReadsAndWritesAreBlockSized)
{
    HybridBuffer buf(cfdsConfig(4, 8, 2, 8));
    UniformRandom wl(4, 13, 1.0);
    SimRunner runner(buf, wl);
    const auto res = runner.run(30000);
    const auto rep = buf.report();
    // Conservation: granted cells = bypassed + read-from-DRAM cells
    // still excludes cells parked in h-SRAM; check weak bounds.
    EXPECT_LE(rep.dramReads, rep.dramWrites);
    EXPECT_GE(rep.bypasses + rep.dramReads * 2, res.grants -
              buf.headSram().occupancy());
}

TEST(CfdsBuffer, SurvivesLongMixedSoak)
{
    // Longer soak mixing bursts and randomness across phases.
    HybridBuffer buf(cfdsConfig(8, 8, 4, 16));
    BurstyOnOff bursty(8, 17, 128, 1.0);
    UniformRandom uniform(8, 18, 0.9);
    SimRunner r1(buf, bursty);
    r1.run(40000);
    // NOTE: a second runner would reuse queue seq numbers; keep one
    // workload per buffer.  Drain instead.
    r1.drain(200000);
    std::uint64_t left = 0;
    for (QueueId q = 0; q < 8; ++q)
        left += bursty.credit(q);
    EXPECT_EQ(left, 0u);
    (void)uniform;
}

TEST(CfdsBuffer, ZeroGranularityIsFatalBeforeTheAddressMap)
{
    // b = 0 must end in the parameter check, not in B / b.
    BufferConfig cfg;
    cfg.params = model::BufferParams{8, 8, 0, 16};
    try {
        HybridBuffer buf(cfg);
        ADD_FAILURE() << "b = 0 was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "granularities must be positive"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CfdsBuffer, RenamingRequiresCfdsAndDram)
{
    BufferConfig cfg = cfdsConfig(8, 8, 8, 1);
    cfg.renaming = true;
    cfg.dramCells = 4096;
    EXPECT_THROW(HybridBuffer{cfg}, FatalError);

    BufferConfig cfg2 = cfdsConfig(8, 8, 2, 16);
    cfg2.renaming = true;
    EXPECT_THROW(HybridBuffer{cfg2}, FatalError); // no dramCells
}
