/**
 * @file
 * The steady-state cell path and crossbar fabric slot never touch
 * the heap.
 *
 * This binary replaces the global operator new/delete with counting
 * versions.  Each buffer case warms one buffer up through SimRunner,
 * then asserts that the next run() makes zero allocations.  Each
 * fabric case does the same for CrossbarRun::runTo(): occupancy
 * snapshot, scheduler, matching validation and every input's buffer
 * slot.
 *
 * Storage grows lazily and never shrinks (block slabs, per-queue
 * rings, the ECQF calendar, the request register), and the random
 * workloads' backlogs keep reaching new peaks, so a fresh window can
 * legitimately grow a structure once.  The counted window is
 * therefore a replay: after warm-up the state is checkpointed, the
 * window runs once to size every structure, the checkpoint is
 * restored (restore keeps capacity), and the identical window runs
 * again under the counter.  Any allocation left is per-cell,
 * per-block or per-slot work, which is what this test forbids.
 *
 * Out of scope: queue renaming (the RenamingTable keeps per-queue
 * deques) and measure-only mode (capacity 0, uncapped growth).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "buffer/hybrid_buffer.hh"
#include "common/serialize.hh"
#include "core/system_config.hh"
#include "crossbar/crossbar_sim.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/workload.hh"

namespace
{

bool g_counting = false;
std::uint64_t g_allocations = 0;

void *
countedAlloc(std::size_t n)
{
    if (g_counting)
        ++g_allocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    if (g_counting)
        ++g_allocations;
    const auto a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace pktbuf;

namespace
{

constexpr std::uint64_t kWarmupSlots = 50000;
constexpr std::uint64_t kMeasuredSlots = 50000;

/** Warm up, count the allocations of a replayed window, then drain. */
void
expectAllocationFree(const buffer::BufferConfig &cfg,
                     std::unique_ptr<sim::Workload> wl)
{
    buffer::HybridBuffer buf(cfg);
    sim::SimRunner runner(buf, *wl, /*check=*/true);
    const auto warm = runner.run(kWarmupSlots);

    ser::Writer w;
    buf.save(w);
    wl->save(w);
    runner.save(w);
    const auto sizing = runner.run(kMeasuredSlots);
    ser::Reader r(w.bytes());
    buf.load(r);
    wl->load(r);
    runner.load(r);

    g_allocations = 0;
    g_counting = true;
    const auto res = runner.run(kMeasuredSlots);
    g_counting = false;

    EXPECT_EQ(g_allocations, 0u)
        << "heap allocations in " << kMeasuredSlots
        << " steady-state slots";
    EXPECT_EQ(res.grants, sizing.grants) << "the replay diverged";
    EXPECT_GT(res.grants, warm.grants + kMeasuredSlots / 10)
        << "the buffer sat idle";
    // The measured slots still delivered every cell in order.
    runner.drain(1000000);
    EXPECT_EQ(runner.checker().granted(), res.arrivals);
}

/** The crossbar counterpart: a replayed window of fabric slots. */
void
expectFabricAllocationFree(const xbar::CrossbarConfig &cfg,
                           std::uint64_t warmup, std::uint64_t window)
{
    xbar::CrossbarRun run(cfg);
    std::uint64_t edges = 0;
    run.onMatch = [&edges](Slot, const xbar::Occupancy &,
                           const xbar::Matching &m, unsigned) {
        edges += xbar::matchingSize(m);
    };
    run.runTo(warmup);
    const auto warm = run.checkpoint();
    run.runTo(warmup + window);
    const auto sized = run.checkpoint();
    run.restore(warm);

    edges = 0;
    g_allocations = 0;
    g_counting = true;
    run.runTo(warmup + window);
    g_counting = false;

    EXPECT_EQ(g_allocations, 0u)
        << "heap allocations in " << window << " fabric slots";
    EXPECT_EQ(run.checkpoint(), sized) << "the replay diverged";
    EXPECT_GT(edges, window * cfg.ports / 4) << "the fabric sat idle";
    const auto out = run.finish();
    EXPECT_TRUE(out.passed) << out.failure;
}

/** The first leg of `matrix` matching `pred`. */
template <typename Pred>
sim::Scenario
pickLeg(const std::vector<sim::Scenario> &matrix, Pred pred)
{
    for (const auto &s : matrix) {
        if (pred(s))
            return s;
    }
    ADD_FAILURE() << "no matching scenario leg";
    return {};
}

} // namespace

TEST(AllocFree, PaperPointCfds)
{
    const core::SystemConfig sys;
    expectAllocationFree(
        core::makeBufferConfig(sys, core::BufferKind::Cfds),
        std::make_unique<sim::UniformRandom>(sys.queues, /*seed=*/1,
                                             /*load=*/0.95));
}

TEST(AllocFree, Rads)
{
    const auto s = pickLeg(sim::defaultMatrix(), [](const auto &leg) {
        return leg.variant == sim::BufferVariant::Rads &&
               leg.workload == sim::WorkloadKind::Bernoulli;
    });
    expectAllocationFree(s.bufferConfig(), sim::makeWorkload(s));
}

TEST(AllocFree, TimedDramCfds)
{
    const auto s = pickLeg(sim::timingMatrix(), [](const auto &leg) {
        return leg.timingTag == "ddr" &&
               leg.workload == sim::WorkloadKind::Bernoulli;
    });
    expectAllocationFree(s.bufferConfig(), sim::makeWorkload(s));
}

TEST(AllocFree, CrossbarIslip16)
{
    xbar::CrossbarConfig cfg;
    cfg.ports = 16;
    cfg.scheduler = xbar::SchedulerKind::Islip;
    cfg.islipIterations = 4;
    cfg.load = 0.8;
    cfg.slots = 12000;
    cfg.masterSeed = 5;
    expectFabricAllocationFree(cfg, 4000, 4000);
}

TEST(AllocFree, CrossbarQpsAndRandomMaximal)
{
    for (const auto kind : {xbar::SchedulerKind::Qps,
                            xbar::SchedulerKind::RandomMaximal}) {
        SCOPED_TRACE(xbar::toString(kind));
        xbar::CrossbarConfig cfg;
        cfg.ports = 6;
        cfg.scheduler = kind;
        cfg.load = 0.8;
        cfg.slots = 12000;
        cfg.masterSeed = 7;
        expectFabricAllocationFree(cfg, 4000, 4000);
    }
}
