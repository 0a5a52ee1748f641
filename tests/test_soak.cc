/**
 * @file
 * Soak tests: the serialization codec, the joint P^2 streaming
 * quantile estimator, the STRG stat-registry decoder, the checkpoint
 * envelope (including corruption rejection), sim::Leg's restore
 * checks and failure text, and the core invariant --
 * save-at-slot-k + restore-into-fresh-objects + run-to-N is
 * bit-identical to an unbroken N-slot run, on every scenario-matrix
 * leg, every timing leg, and a multi-port switch smoke.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "fuzz_env.hh"
#include "sim/leg.hh"
#include "sweep/emit.hh"
#include "sweep/scenario_sweep.hh"
#include "switch/switch_sim.hh"

using namespace pktbuf;

namespace
{

// ------------------------------------------------------------- codec

TEST(SerializeCodec, RoundTripsEveryFieldType)
{
    ser::Writer w;
    w.tag("TEST");
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.b(true);
    w.real(3.141592653589793);
    w.real(-0.0);
    w.str("hello \0 world");  // embedded NUL survives via length
    const std::string bytes = w.take();

    ser::Reader r(bytes);
    r.tag("TEST");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.real(), 3.141592653589793);
    EXPECT_TRUE(std::signbit(r.real()));  // -0.0 bit-exact
    EXPECT_EQ(r.str(), std::string("hello "));
    r.done();
}

TEST(SerializeCodec, RejectsMalformedInput)
{
    ser::Writer w;
    w.tag("GOOD");
    w.u64(7);
    const std::string bytes = w.take();

    {
        ser::Reader r(bytes);
        EXPECT_THROW(r.tag("EVIL"), FatalError);
    }
    {
        // Short read: ask for more than remains.  The Reader holds a
        // view, so the buffer must outlive it -- keep a named local.
        const std::string head = bytes.substr(0, 6);
        ser::Reader r(head);
        r.tag("GOOD");
        EXPECT_THROW(r.u64(), FatalError);
    }
    {
        // Trailing bytes must be an error, not silence.
        const std::string padded = bytes + "x";
        ser::Reader r(padded);
        r.tag("GOOD");
        EXPECT_EQ(r.u64(), 7u);
        EXPECT_THROW(r.done(), FatalError);
    }
    {
        // A bool octet above 1 is corruption, not "truthy".
        const std::string bad("\x02", 1);
        ser::Reader r(bad);
        EXPECT_THROW(r.b(), FatalError);
    }
}

TEST(SerializeCodec, RngStreamContinuesAcrossRoundTrip)
{
    Rng a(12345);
    for (int i = 0; i < 100; ++i)
        a.next();
    ser::Writer w;
    a.save(w);
    Rng b(999);  // different seed; load must fully overwrite
    ser::Reader r(w.bytes());
    b.load(r);
    r.done();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

// ------------------------------------------------- P^2 quantile

/** Exact percentile: linear interpolation at rank p*(n-1). */
double
exactQuantile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    if (lo + 1 >= v.size())
        return v.back();
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + frac * (v[lo + 1] - v[lo]);
}

// ------------------------------------------- joint P^2 estimator

/**
 * Regression (stats-correctness sweep): *independent* single-quantile
 * P^2 estimators cross each other on the pinned alternating stream
 * {0, 0.5, 0, 0.5, ...} (the standalone p50 exceeds the standalone
 * p99 at n == 7), which is the defect the old SwitchReport flooring
 * hack papered over.  The joint P2QuantileSet shares one sorted
 * marker vector, so its quantiles stay ordered on that stream.
 */
TEST(P2QuantileSet, PinnedCrossingStreamStaysOrdered)
{
    P2QuantileSet joint({0.5, 0.99});
    for (int n = 1; n <= 50; ++n) {
        joint.sample(((n - 1) % 2) * 0.5);
        EXPECT_GE(joint.quantile(0.99), joint.quantile(0.5))
            << "n=" << n;
    }
}

TEST(P2QuantileSet, ExactForSevenOrFewerSamples)
{
    // 2k+3 = 7 markers for two targets: the estimator holds every
    // sample until the marker count is exceeded, so small-n results
    // are the exact order statistics.
    const std::vector<double> data = {4.0, 1.0, 3.0, 2.0,
                                      7.0, 5.0, 6.0};
    for (std::size_t n = 1; n <= data.size(); ++n) {
        const std::vector<double> prefix(data.begin(),
                                         data.begin() + n);
        P2QuantileSet q({0.5, 0.99});
        for (const double v : prefix)
            q.sample(v);
        EXPECT_DOUBLE_EQ(q.quantile(0.5),
                         exactQuantile(prefix, 0.5))
            << "n=" << n;
        EXPECT_DOUBLE_EQ(q.quantile(0.99),
                         exactQuantile(prefix, 0.99))
            << "n=" << n;
    }
}

TEST(P2QuantileSet, OrderedAndCloseOnAdversarialStreams)
{
    // Duplicate-heavy and monotone streams are the classic P^2
    // stress cases (marker positions saturate); the joint estimator
    // must stay ordered everywhere and track the exact percentile.
    const auto run = [](const std::vector<double> &stream,
                        double tol50, double tol99) {
        P2QuantileSet q({0.5, 0.99});
        std::vector<double> seen;
        for (const double v : stream) {
            q.sample(v);
            seen.push_back(v);
            ASSERT_GE(q.quantile(0.99), q.quantile(0.5))
                << "after " << seen.size() << " samples";
        }
        EXPECT_NEAR(q.quantile(0.5), exactQuantile(seen, 0.5),
                    tol50);
        EXPECT_NEAR(q.quantile(0.99), exactQuantile(seen, 0.99),
                    tol99);
    };

    // 90% duplicates of one value, 10% outliers.
    std::vector<double> dup;
    Rng rng(13);
    for (int i = 0; i < 5000; ++i)
        dup.push_back(rng.below(10) == 0
                          ? 100.0 + double(rng.below(100))
                          : 7.0);
    run(dup, 1.0, 60.0);

    // Monotone ascending and descending.
    std::vector<double> asc, desc;
    for (int i = 0; i < 5000; ++i) {
        asc.push_back(double(i));
        desc.push_back(double(5000 - i));
    }
    run(asc, 100.0, 100.0);
    run(desc, 100.0, 100.0);
}

TEST(AggregateStat, MatchesExactPercentiles)
{
    // <= 5 ports: the aggregation is exact by construction.
    const std::vector<double> four = {4.0, 1.0, 3.0, 2.0};
    const auto a = sw::aggregateStat(four);
    EXPECT_DOUBLE_EQ(a.p50, exactQuantile(four, 0.50));
    EXPECT_DOUBLE_EQ(a.p99, exactQuantile(four, 0.99));
    EXPECT_DOUBLE_EQ(a.max, 4.0);

    // Larger port counts: close to exact, inside [min, max], and
    // monotone (p99 >= p50) -- the properties a fixed-width
    // histogram cannot guarantee.
    std::vector<double> many;
    Rng rng(11);
    for (int i = 0; i < 64; ++i)
        many.push_back(static_cast<double>(rng.below(1000)));
    const auto m = sw::aggregateStat(many);
    EXPECT_NEAR(m.p50, exactQuantile(many, 0.50), 60.0);
    EXPECT_GE(m.p99, m.p50);
    EXPECT_GE(m.p50, m.min);
    EXPECT_LE(m.p99, m.max);
}

// -------------------------------------------------- stat registry

TEST(StatRegistry, LoadPreservesComponentPointers)
{
    StatRegistry reg;
    Counter &c = reg.counter("layer.events");
    Sampler &s = reg.sampler("layer.delay");
    c.inc(5);
    s.sample(2.0);

    ser::Writer w;
    reg.save(w);
    c.inc(100);  // diverge after the snapshot
    s.sample(9.0);

    ser::Reader r(w.bytes());
    reg.load(r);
    r.done();
    // The references obtained before load() must still be live and
    // must see the restored values: components cache Counter* and
    // Sampler* across checkpoint cycles.
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.max(), 2.0);
}

/** STRG bytes: tag, then the counter, high-water, sampler and
 *  quantile section counts (every section empty except `nq`). */
std::string
strgBytes(std::uint64_t nq)
{
    ser::Writer w;
    w.tag("STRG");
    w.u64(0);
    w.u64(0);
    w.u64(0);
    w.u64(nq);
    return w.bytes();
}

TEST(StatRegistry, LoadRejectsANonzeroQuantileCount)
{
    // An empty registry saves exactly the hand-built layout, so the
    // stream below differs from a real checkpoint in the count only.
    StatRegistry reg;
    ser::Writer w;
    reg.save(w);
    ASSERT_EQ(w.bytes(), strgBytes(0));

    // A stream from a layout that still carried quantile estimators
    // (or a corrupted count) must end in a clean fatal error, not be
    // misparsed as the next section.
    const std::string bytes = strgBytes(1);
    ser::Reader r(bytes);
    try {
        reg.load(r);
        FAIL() << "load() accepted a STRG quantile count of 1";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("STRG quantile count"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------- checkpoint envelope

TEST(CheckpointEnvelope, SealOpenRoundTrip)
{
    const std::string payload = "arbitrary \x00\x01\x02 bytes";
    const auto sealed = ser::sealCheckpoint(payload, 0x1234);
    EXPECT_EQ(ser::openCheckpoint(sealed, 0x1234), payload);
}

TEST(CheckpointEnvelope, RejectsCorruptionAndMismatch)
{
    const std::string payload(256, 'z');
    const auto sealed = ser::sealCheckpoint(payload, 77);

    // Wrong configuration fingerprint.
    EXPECT_THROW(ser::openCheckpoint(sealed, 78), FatalError);
    // Truncation (short read).
    EXPECT_THROW(
        ser::openCheckpoint(sealed.substr(0, sealed.size() / 2), 77),
        FatalError);
    // Bit rot in the payload flips the checksum.
    {
        std::string bad = sealed;
        bad[bad.size() / 2] ^= 0x40;
        EXPECT_THROW(ser::openCheckpoint(bad, 77), FatalError);
    }
    // Unknown version.
    {
        std::string bad = sealed;
        bad[4] = 0x7f;  // version lives right after the 4-byte magic
        EXPECT_THROW(ser::openCheckpoint(bad, 77), FatalError);
    }
    // Trailing garbage.
    EXPECT_THROW(ser::openCheckpoint(sealed + "!", 77), FatalError);
    // Wrong magic.
    {
        std::string bad = sealed;
        bad[0] = 'X';
        EXPECT_THROW(ser::openCheckpoint(bad, 77), FatalError);
    }
}

TEST(CheckpointEnvelope, RestoreRejectsForeignLeg)
{
    // A checkpoint from one leg must not restore into another: the
    // describe() fingerprint differs (different seed).
    auto legs = sim::smokeMatrix();
    ASSERT_GE(legs.size(), 2u);
    sim::Leg a(legs[0]);
    a.runTo(100);
    const auto bytes = a.checkpoint();
    sim::Leg b(legs[1]);
    EXPECT_THROW(b.restore(bytes), FatalError);
}

/**
 * Checkpoint `s` at slot `at`, let `edit` change the SOAK payload,
 * reseal it and restore it into a fresh leg.
 * @return the FatalError text, or "" if the restore was accepted
 */
std::string
restoreError(const sim::Scenario &s, std::uint64_t at,
             const std::function<void(std::string &)> &edit)
{
    const std::uint64_t fp = ser::fnv1a(s.describe());
    sim::Leg a(s);
    a.runTo(at);
    std::string payload = ser::openCheckpoint(a.checkpoint(), fp);
    edit(payload);
    sim::Leg b(s);
    try {
        b.restore(ser::sealCheckpoint(payload, fp));
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** Little-endian u64 at byte `at` of `bytes`, plus `delta`. */
void
addU64(std::string &bytes, std::size_t at, std::uint64_t delta)
{
    ASSERT_LE(at + 8, bytes.size());
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
    v += delta;
    for (int i = 0; i < 8; ++i)
        bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

TEST(CheckpointEnvelope, RestoreRejectsACursorThatDisagreesWithTheRunner)
{
    // The SOAK header's cursor and the SRUN section's slot count
    // (the payload's last u64) record the same fact; a payload whose
    // two copies disagree must not restore.
    const auto s = sim::smokeMatrix().front();
    EXPECT_EQ(restoreError(s, 100, [](std::string &) {}), "");
    const auto cursor = restoreError(s, 100, [](std::string &p) {
        addU64(p, 4, 1);  // right after the "SOAK" tag
    });
    EXPECT_NE(cursor.find("SRUN slot count"), std::string::npos)
        << cursor;
    const auto srun = restoreError(s, 100, [](std::string &p) {
        addU64(p, p.size() - 8, 1);
    });
    EXPECT_NE(srun.find("SRUN slot count"), std::string::npos) << srun;
}

// ------------------------------------------------- failure text

TEST(LegFailure, EveryEntryReportsAConstructionFailureTheSameWay)
{
    // A leg whose buffer cannot be built (b must divide B) fails the
    // same way through every never-throwing entry.
    sim::Scenario s;
    s.variant = sim::BufferVariant::Cfds;
    s.granRads = 8;
    s.gran = 3;
    s.slots = 1000;
    sw::PortPlan plan;
    plan.scenario = s;
    const std::string tail = "[" + s.describe() + "]";
    const std::vector<std::pair<std::string, sim::ScenarioOutcome>>
        outs = {{"runScenario", sim::runScenario(s)},
                {"runScenario every", sim::runScenario(s, 100)},
                {"runPort", sw::runPort(plan)}};
    for (const auto &[entry, out] : outs) {
        SCOPED_TRACE(entry);
        EXPECT_FALSE(out.passed);
        EXPECT_EQ(out.failure.rfind("exception: ", 0), 0u)
            << out.failure;
        EXPECT_NE(out.failure.find("b=3 must divide B=8"),
                  std::string::npos)
            << out.failure;
        ASSERT_GE(out.failure.size(), tail.size());
        EXPECT_EQ(out.failure.substr(out.failure.size() - tail.size()),
                  tail);
    }
}

// ------------------------------------------------- bit identity

/** The leg's emitted record, flattened to comparable bytes. */
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
portRecordBytes(const sw::PortPlan &plan,
                const sim::ScenarioOutcome &o)
{
    std::string out;
    const auto rec = sw::portRecord(plan, o);
    for (const auto &[k, v] : rec.fields())
        out += k + "=" + v.json() + ";";
    return out;
}

/**
 * Core invariant on one leg: for saves at 25/50/75% of the main
 * phase, restore into completely fresh objects and finish; the
 * emitted record must equal the unbroken run's byte for byte.
 */
void
expectBitIdentical(const sim::Scenario &s)
{
    SCOPED_TRACE(s.describe());
    const auto plain = sim::runScenario(s);
    const auto expect = recordBytes(s, plain);
    for (const unsigned pct : {25u, 50u, 75u}) {
        SCOPED_TRACE("save at " + std::to_string(pct) + "%");
        sim::Leg a(s);
        a.runTo(s.slots * pct / 100);
        const auto bytes = a.checkpoint();
        sim::Leg b(s);
        b.restore(bytes);
        const auto seg = b.finish();
        EXPECT_EQ(seg.passed, plain.passed);
        EXPECT_EQ(recordBytes(s, seg), expect);
    }
}

TEST(SoakBitIdentity, EveryScenarioMatrixLeg)
{
    for (const auto &s : sim::defaultMatrix())
        expectBitIdentical(s);
}

TEST(SoakBitIdentity, EveryTimingLeg)
{
    for (const auto &s : sim::timingMatrix())
        expectBitIdentical(s);
}

TEST(SoakBitIdentity, CheckpointEveryMSelfTest)
{
    // The nightly driver's mode: checkpoint every M slots, restoring
    // each snapshot into a fresh run before continuing.
    for (const auto &s : sim::smokeMatrix()) {
        SCOPED_TRACE(s.describe());
        const auto plain = sim::runScenario(s);
        const auto seg = sim::runScenario(s, s.slots / 7 + 1);
        EXPECT_EQ(recordBytes(s, seg), recordBytes(s, plain));
    }
}

TEST(SoakBitIdentity, FourPortSwitchSmoke)
{
    // A 4-port mixed-variant switch: every port (CFDS, RADS,
    // renaming) checkpoints and restores through the same driver,
    // with the port's workload handed to the leg.
    sw::SwitchConfig cfg;
    cfg.ports = 4;
    cfg.mixedVariants = true;
    cfg.slots = 4000;
    cfg.masterSeed = 20260808;
    const auto plans = sw::planPorts(cfg);
    for (const auto &plan : plans) {
        SCOPED_TRACE("port " + std::to_string(plan.port) + ": " +
                     plan.scenario.describe());
        const auto plain = sw::runPort(plan);
        const auto expect = portRecordBytes(plan, plain);
        for (const unsigned pct : {25u, 50u, 75u}) {
            SCOPED_TRACE("save at " + std::to_string(pct) + "%");
            sim::Leg a(plan.scenario, sw::makePortWorkload(plan));
            a.runTo(plan.scenario.slots * pct / 100);
            const auto bytes = a.checkpoint();
            sim::Leg b(plan.scenario, sw::makePortWorkload(plan));
            b.restore(bytes);
            const auto seg = b.finish();
            EXPECT_EQ(seg.passed, plain.passed);
            EXPECT_EQ(portRecordBytes(plan, seg), expect);
        }
    }
}

// --------------------------------------------------- fuzz smoke

/**
 * Seeded soak fuzz: random matrix legs run through the
 * checkpoint-every-M driver and compared to their unbroken twin.
 * PKTBUF_FUZZ_ITERS scales the iteration count, PKTBUF_SOAK_EVERY
 * overrides the checkpoint cadence; the nightly workflow runs this
 * at 100x iterations.  Failures print the leg description and seed;
 * when PKTBUF_SOAK_ARTIFACT_DIR is set, each failing iteration also
 * drops a mid-run checkpoint plus a replay line there, which the
 * nightly workflow uploads for offline diagnosis.
 */
TEST(SoakFuzzSmoke, RandomLegsSurviveCheckpointCycles)
{
    const std::uint64_t master =
        testutil::envU64("PKTBUF_FUZZ_SEED", 1);
    const std::uint64_t iters =
        testutil::envU64("PKTBUF_FUZZ_ITERS", 3);
    const char *artifact_dir =
        std::getenv("PKTBUF_SOAK_ARTIFACT_DIR");
    const auto matrix = sim::defaultMatrix();
    Rng rng(master);
    for (std::uint64_t it = 0; it < iters; ++it) {
        sim::Scenario s = matrix[rng.below(matrix.size())];
        s.seed = rng.next();  // fresh seed: a genuinely new leg
        s.slots = 2000 + rng.below(4000);
        const std::uint64_t every = testutil::envU64(
            "PKTBUF_SOAK_EVERY", 1 + s.slots / (2 + rng.below(6)));
        std::ostringstream desc;
        desc << "fuzz iter " << it << ": " << s.describe()
             << " every=" << every << " (PKTBUF_FUZZ_SEED=" << master
             << ")";
        SCOPED_TRACE(desc.str());
        const bool failed_before = ::testing::Test::HasFailure();
        const auto plain = sim::runScenario(s);
        const auto seg = sim::runScenario(s, every);
        EXPECT_EQ(seg.passed, plain.passed)
            << "plain: " << plain.failure
            << " seg: " << seg.failure;
        EXPECT_EQ(recordBytes(s, seg), recordBytes(s, plain));
        if (artifact_dir && !failed_before &&
            ::testing::Test::HasFailure()) {
            // Replayable failure artifact: a mid-run checkpoint plus
            // the exact leg parameters.  Best effort -- an
            // unwritable directory must not mask the real failure.
            try {
                sim::Leg run(s);
                run.runTo(s.slots / 2);
                const std::string stem = std::string(artifact_dir) +
                    "/soak_fail_iter" + std::to_string(it);
                sweep::writeFileOrDie(stem + ".ck", run.checkpoint());
                std::ofstream log(std::string(artifact_dir) +
                                      "/soak_failures.txt",
                                  std::ios::app);
                log << desc.str() << "\n";
            } catch (const std::exception &e) {
                std::fprintf(stderr,
                             "artifact dump failed: %s\n", e.what());
            }
        }
    }
}

} // namespace
