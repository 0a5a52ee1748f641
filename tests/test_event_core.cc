/**
 * @file
 * Oracle for the event-calendar execution core:
 *
 *  - Pinned reference outputs: the serialized record bytes of every
 *    scenario-matrix and timing leg, and the checkpoint bytes of five
 *    representative legs at 25/50/75% of their run, must match the
 *    digests the per-slot reference engine produced
 *    (tests/data/reference_digests.txt).
 *  - Seeded fuzz of the two decisions the core computes differently
 *    from the paper's definitions: EcqfMma::calendarDecide must visit
 *    exactly the queues EcqfMma::scan visits, in the same order, and
 *    TailMma::selectVia over the t-SRAM eligibility bitmap must pick
 *    what TailMma::select picks.
 *
 * Also hosts the stats-correctness regression tests that rode along
 * with the engine (zero-grant delay statistics, sweep wall-clock).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "buffer/hybrid_buffer.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "common/shift_register.hh"
#include "fuzz_env.hh"
#include "mma/ecqf.hh"
#include "mma/tail_mma.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/workload.hh"
#include "soak/checkpoint.hh"
#include "sram/tail_sram.hh"
#include "sweep/emit.hh"
#include "sweep/scenario_sweep.hh"
#include "sweep/sweep.hh"

using namespace pktbuf;

namespace
{

// ------------------------------------------ pinned reference digests

/** Serialized record bytes of a leg's outcome -- the exact fields
 *  the sweep artifacts are built from. */
std::string
recordBytes(const sim::Scenario &s, const sim::ScenarioOutcome &o)
{
    std::string out;
    const auto rec = sweep::scenarioRecord(s, o);
    for (const auto &[k, v] : rec.fields())
        out += k + "=" + v.json() + ";";
    return out;
}

std::string
hexDigest(const std::string &bytes)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, ser::fnv1a(bytes));
    return buf;
}

/** "<kind> <leg>" -> digest, parsed from the pinned data file. */
const std::map<std::string, std::string> &
pinnedDigests()
{
    static const auto digests = [] {
        std::map<std::string, std::string> m;
        std::ifstream in(PKTBUF_TEST_DATA_DIR "/reference_digests.txt");
        EXPECT_TRUE(in) << "missing reference_digests.txt";
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string kind, leg, digest;
            fields >> kind >> leg >> digest;
            m[kind + " " + leg] = digest;
        }
        return m;
    }();
    return digests;
}

/** Assert `bytes` hashes to the pinned digest of `key`; the failure
 *  message carries the line to pin after a deliberate model change. */
void
expectPinned(const std::string &key, const std::string &bytes)
{
    const auto &pinned = pinnedDigests();
    const auto it = pinned.find(key);
    const std::string got = hexDigest(bytes);
    ASSERT_NE(it, pinned.end()) << "no pinned digest: " << key << " "
                                << got;
    EXPECT_EQ(it->second, got) << "pinned line: " << key << " " << got;
}

std::size_t
pinnedCount(const std::string &kind)
{
    std::size_t n = 0;
    for (const auto &[key, digest] : pinnedDigests())
        n += key.compare(0, kind.size() + 1, kind + " ") == 0;
    return n;
}

void
expectMatrixPinned(const std::string &kind,
                   const std::vector<sim::Scenario> &legs)
{
    EXPECT_EQ(legs.size(), pinnedCount(kind));
    for (const auto &s : legs) {
        SCOPED_TRACE(s.describe());
        const auto out = sim::runScenario(s);
        EXPECT_TRUE(out.passed) << out.failure;
        expectPinned(kind + " " + s.name(), recordBytes(s, out));
    }
}

TEST(PinnedReference, DefaultMatrixRecordBytes)
{
    expectMatrixPinned("record", sim::defaultMatrix());
}

TEST(PinnedReference, TimingMatrixRecordBytes)
{
    expectMatrixPinned("timing", sim::timingMatrix());
}

/** Representative legs across the architecture space. */
std::vector<sim::Scenario>
checkpointLegs()
{
    std::vector<sim::Scenario> picked;
    for (const auto &s : sim::defaultMatrix()) {
        const auto n = s.name();
        if (n == "rads_adversarial_q8_B8_b8" ||
            n == "cfds_bursty_q8_B8_b2" ||
            n == "cfds_bernoulli_q16_B8_b2" ||
            n == "renaming_drainperm_q8_B8_b2_p16") {
            picked.push_back(s);
        }
    }
    for (const auto &s : sim::timingMatrix()) {
        if (s.name() == "cfds_bernoulli_q8_B8_b2_refresh")
            picked.push_back(s);
    }
    EXPECT_EQ(picked.size(), 5u);
    return picked;
}

TEST(PinnedReference, CheckpointBytes)
{
    // The idle-slot skip freezes the shift registers' cursors and the
    // calendar is derived state, so only the registers' rotation-
    // normalized save keeps these bytes equal to the reference's.
    EXPECT_EQ(pinnedCount("checkpoint"), 15u);
    for (const auto &s : checkpointLegs()) {
        SCOPED_TRACE(s.describe());
        soak::ScenarioRun run(s);
        for (const unsigned pct : {25u, 50u, 75u}) {
            run.runTo(s.slots * pct / 100);
            expectPinned("checkpoint " + s.name() + "@" +
                             std::to_string(pct),
                         run.checkpoint());
        }
    }
}

// --------------------------------------------------------- fuzz smoke

/**
 * Seeded fuzz of the head-MMA decision: two EcqfMma instances see
 * the same random stream of lookahead entries/exits and out-of-band
 * replenishes; at random decision points one decides by the
 * reference scan() over the register, the other by calendarDecide().
 * Each visit returns a pre-drawn credit (a full DRAM block, a short
 * bypass, or 0 = abort the decision), so both must visit the same
 * queues in the same order and end with equal occupancies.  Every so
 * often the calendar side is checkpointed and rebuilt from the
 * register the way HybridBuffer::load does.  PKTBUF_FUZZ_ITERS
 * scales the case count; failures print the case seed.
 */
TEST(EventCoreFuzzSmoke, CalendarVisitsScanOrder)
{
    const std::uint64_t master =
        testutil::envU64("PKTBUF_FUZZ_SEED", 1);
    const std::uint64_t iters =
        testutil::envU64("PKTBUF_FUZZ_ITERS", 3);
    Rng cases(master);
    for (std::uint64_t it = 0; it < 20 * iters; ++it) {
        const std::uint64_t seed = cases.next();
        Rng rng(seed);
        const unsigned queues = 1 + static_cast<unsigned>(rng.below(24));
        const unsigned gran = 1 + static_cast<unsigned>(rng.below(8));
        const std::size_t depth = 1 + rng.below(4 * queues * gran);
        SCOPED_TRACE("case seed " + std::to_string(seed) + " Q=" +
                     std::to_string(queues) + " b=" +
                     std::to_string(gran) + " depth=" +
                     std::to_string(depth) + " (PKTBUF_FUZZ_SEED=" +
                     std::to_string(master) + ")");
        mma::EcqfMma ref(queues);
        mma::EcqfMma cal(queues);
        ShiftRegister<QueueId> look(depth, kInvalidQueue);
        for (unsigned step = 0; step < 400; ++step) {
            const QueueId in = rng.below(4) == 0
                                   ? kInvalidQueue
                                   : static_cast<QueueId>(
                                         rng.below(queues));
            const QueueId out = look.shift(in);
            if (in != kInvalidQueue)
                cal.onRequestEntering(in);
            if (out != kInvalidQueue) {
                ref.onRequestLeaving(out);
                cal.onRequestLeaving(out);
            }
            if (rng.below(8) == 0) {
                const auto p = static_cast<QueueId>(rng.below(queues));
                const auto n = 1 + static_cast<unsigned>(rng.below(gran));
                ref.onReplenishIssued(p, n);
                cal.onReplenishIssued(p, n);
            }
            if (rng.below(3) != 0)
                continue;
            std::vector<unsigned> credits(depth + 1);
            for (auto &c : credits) {
                const auto roll = rng.below(16);
                c = roll == 0 ? 0
                    : roll < 8 ? gran
                               : 1 + static_cast<unsigned>(
                                         rng.below(gran));
            }
            const auto visitor = [&credits](mma::EcqfMma &mma,
                                            std::vector<QueueId> &seen) {
                return [&credits, &mma, &seen](QueueId p) -> unsigned {
                    const unsigned c = credits[seen.size() %
                                               credits.size()];
                    seen.push_back(p);
                    if (c)
                        mma.onReplenishIssued(p, c);
                    return c;
                };
            };
            std::vector<QueueId> by_scan, by_calendar;
            ref.scan(look, [](QueueId q) { return q; },
                     visitor(ref, by_scan));
            cal.calendarDecide(visitor(cal, by_calendar));
            ASSERT_EQ(by_scan, by_calendar) << "step " << step;
            for (QueueId p = 0; p < queues; ++p)
                ASSERT_EQ(ref.occupancy(p), cal.occupancy(p));
            if (rng.below(16) == 0) {
                ser::Writer w;
                cal.save(w);
                ser::Reader r(w.bytes());
                cal.load(r);
                look.forEachFromHead([&cal](QueueId q) {
                    if (q != kInvalidQueue)
                        cal.onRequestEntering(q);
                });
            }
        }
    }
}

/**
 * Seeded fuzz of the tail-MMA pick: two TailMma cursors, one picking
 * by the reference select() over unclaimed counts, the other by
 * selectVia() over the t-SRAM eligibility bitmap, while random
 * arrivals, claims, write launches, squashes and bypasses move the
 * queues across the threshold.  Queue counts straddle the bitmap's
 * 64-bit words.
 */
TEST(EventCoreFuzzSmoke, TailSelectViaMatchesSelect)
{
    const std::uint64_t master =
        testutil::envU64("PKTBUF_FUZZ_SEED", 1);
    const std::uint64_t iters =
        testutil::envU64("PKTBUF_FUZZ_ITERS", 3);
    Rng cases(master);
    for (std::uint64_t it = 0; it < 20 * iters; ++it) {
        const std::uint64_t seed = cases.next();
        Rng rng(seed);
        const unsigned queues = 1 + static_cast<unsigned>(rng.below(200));
        const unsigned gran = 1 + static_cast<unsigned>(rng.below(8));
        SCOPED_TRACE("case seed " + std::to_string(seed) + " Q=" +
                     std::to_string(queues) + " b=" +
                     std::to_string(gran) + " (PKTBUF_FUZZ_SEED=" +
                     std::to_string(master) + ")");
        sram::TailSram tail(queues, /*capacity_cells=*/0);
        tail.setThreshold(gran);
        mma::TailMma ref(queues);
        mma::TailMma via(queues);
        for (unsigned step = 0; step < 2000; ++step) {
            const auto p = static_cast<QueueId>(rng.below(queues));
            switch (rng.below(6)) {
              case 0:
              case 1:
              case 2: {
                Cell c;
                c.queue = p;
                tail.push(p, c);
                break;
              }
              case 3:
                if (tail.cellsOf(p) - tail.unclaimed(p) >= gran)
                    tail.extractClaimed(p, gran);
                break;
              case 4:
                if (tail.cellsOf(p) - tail.unclaimed(p) >= gran)
                    tail.unclaim(p, gran);
                break;
              default:
                if (tail.cellsOf(p) == tail.unclaimed(p))
                    tail.extractBypass(
                        p, 1 + static_cast<unsigned>(rng.below(gran)));
                break;
            }
            // Pick less often than cells arrive, so several queues
            // can be eligible at once and the cursor order matters.
            if (rng.below(4) != 0)
                continue;
            const QueueId want = ref.select(
                gran, [&tail](QueueId q) { return tail.unclaimed(q); },
                [](QueueId) { return true; });
            const QueueId got = via.selectVia([&tail](QueueId from) {
                return tail.nextEligible(from);
            });
            ASSERT_EQ(want, got) << "step " << step;
            if (got != kInvalidQueue)
                tail.claim(got, gran);
        }
    }
}

// ----------------------------------- bugfix: zero-grant delay stats

/**
 * Regression (stats-correctness sweep): a run that grants nothing
 * must report meanDelaySlots / maxDelaySlots of exactly 0.0 -- never
 * NaN or -inf from an empty sampler -- through both SimRunner::run
 * and the drain path.
 */
TEST(RunnerStats, ZeroGrantRunReportsZeroDelays)
{
    sim::Scenario s;
    s.variant = sim::BufferVariant::Cfds;
    s.queues = 8;
    s.granRads = 8;
    s.gran = 2;
    s.groups = 4;
    buffer::HybridBuffer buf(s.bufferConfig());
    // Zero load: no arrivals, no requests, hence no grants ever.
    sim::UniformRandom wl(s.queues, /*seed=*/42, /*load=*/0.0);
    sim::SimRunner runner(buf, wl, /*check=*/true);

    const auto after_run = runner.run(500);
    EXPECT_EQ(after_run.grants, 0u);
    EXPECT_EQ(after_run.meanDelaySlots, 0.0);
    EXPECT_EQ(after_run.maxDelaySlots, 0.0);
    EXPECT_TRUE(std::isfinite(after_run.meanDelaySlots));
    EXPECT_TRUE(std::isfinite(after_run.maxDelaySlots));

    EXPECT_EQ(runner.drain(1000), 0u);
    const auto after_drain = runner.run(0);
    EXPECT_EQ(after_drain.grants, 0u);
    EXPECT_EQ(after_drain.meanDelaySlots, 0.0);
    EXPECT_EQ(after_drain.maxDelaySlots, 0.0);
}

// ------------------------------------- bugfix: sweep wall-clock

/**
 * Regression (stats-correctness sweep): SweepReport::wallSeconds is
 * one wall interval for the whole sweep and is excluded from the
 * emitted artifacts -- so two runs of the same sweep at different
 * thread counts agree on *everything else*, byte for byte.
 */
TEST(SweepStats, OnlyWallSecondsMayDifferAcrossJobCounts)
{
    auto legs = sim::smokeMatrix();
    legs.resize(8);  // enough tasks to occupy 8 workers
    const auto tasks =
        sweep::makeScenarioTasks(legs, /*deriveSeeds=*/false);
    sweep::SweepOptions opt1;
    opt1.jobs = 1;
    sweep::SweepOptions opt8;
    opt8.jobs = 8;
    const auto rep1 = sweep::runSweep(tasks, opt1);
    const auto rep8 = sweep::runSweep(tasks, opt8);

    EXPECT_EQ(rep1.failed, rep8.failed);
    ASSERT_EQ(rep1.results.size(), rep8.results.size());
    for (std::size_t i = 0; i < rep1.results.size(); ++i) {
        SCOPED_TRACE("task " + std::to_string(i));
        EXPECT_EQ(rep1.results[i].ok, rep8.results[i].ok);
        EXPECT_EQ(rep1.results[i].text, rep8.results[i].text);
        EXPECT_EQ(rep1.results[i].error, rep8.results[i].error);
    }
    EXPECT_GE(rep1.wallSeconds, 0.0);
    EXPECT_GE(rep8.wallSeconds, 0.0);
    // The artifacts are purely a function of the results: byte
    // identity across job counts, wallSeconds notwithstanding.
    sweep::EmitMeta meta;
    meta.tool = "wall_seconds_regression";
    EXPECT_EQ(sweep::toJson(rep1, tasks, meta),
              sweep::toJson(rep8, tasks, meta));
    EXPECT_EQ(sweep::toCsv(rep1, tasks),
              sweep::toCsv(rep8, tasks));
}

} // namespace
