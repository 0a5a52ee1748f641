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
 *  - Seeded differential fuzz of the slab-backed block stores
 *    (HeadSram, DramStore, TailSram) against std::map / std::deque
 *    reference models: same cells, same panics, same save() bytes.
 *
 * Also hosts the stats-correctness regression tests that rode along
 * with the engine (zero-grant delay statistics, sweep wall-clock).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "buffer/hybrid_buffer.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "common/shift_register.hh"
#include "common/stats.hh"
#include "dram/dram_store.hh"
#include "fuzz_env.hh"
#include "mma/ecqf.hh"
#include "mma/tail_mma.hh"
#include "sim/leg.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/workload.hh"
#include "sram/head_sram.hh"
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
        sim::Leg run(s);
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
        sram::TailSram tail(queues, /*capacity_cells=*/0, gran);
        std::vector<Cell> out(gran);
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
                    tail.extractClaimed(p, out);
                break;
              case 4:
                if (tail.cellsOf(p) - tail.unclaimed(p) >= gran)
                    tail.unclaim(p, gran);
                break;
              default:
                if (tail.cellsOf(p) == tail.unclaimed(p))
                    tail.extractBypass(
                        p, std::span<Cell>(out).first(
                               1 + rng.below(gran)));
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

// ------------------------------------------- block-store fuzz smoke

namespace
{

/**
 * Reference models of the three block stores: the node-based
 * containers (std::map / std::deque) the slab-backed stores replaced,
 * with the same panics and the same checkpoint layout.  The fuzz
 * tests below drive a real store and its model through one random
 * operation stream and require identical cells, identical panic
 * messages and identical save() bytes.
 */
class RefHeadSram
{
  public:
    RefHeadSram(unsigned queues, std::uint64_t capacity)
        : blocks_(queues), next_(queues, 0), capacity_(capacity)
    {}

    void
    insert(QueueId p, std::uint64_t seq, std::vector<Cell> cells)
    {
        panic_if(seq < next_[p], "replenish seq ", seq, " for queue ", p,
                 " already consumed");
        panic_if(blocks_[p].count(seq), "duplicate replenish seq ", seq,
                 " on queue ", p);
        panic_if(cells.empty(), "empty replenish block");
        occupancy_ += cells.size();
        blocks_[p].emplace(seq, Block{std::move(cells), 0});
        high_water_.observe(static_cast<std::int64_t>(occupancy_));
        panic_if(capacity_ && occupancy_ > capacity_,
                 "h-SRAM overflow: ", occupancy_, " cells > capacity ",
                 capacity_, " -- dimensioning violated");
    }

    Cell
    pop(QueueId p)
    {
        auto it = blocks_[p].find(next_[p]);
        panic_if(it == blocks_[p].end(), "MISS: queue ", p,
                 " has no cells for replenish seq ", next_[p],
                 " in h-SRAM at grant time");
        Block &blk = it->second;
        const Cell c = blk.cells[blk.consumed++];
        if (blk.consumed == blk.cells.size()) {
            blocks_[p].erase(it);
            ++next_[p];
        }
        --occupancy_;
        return c;
    }

    std::uint64_t
    cellsOf(QueueId p) const
    {
        std::uint64_t n = 0;
        for (const auto &[s, blk] : blocks_[p])
            n += blk.cells.size() - blk.consumed;
        return n;
    }

    void
    recycle(QueueId p)
    {
        panic_if(!blocks_[p].empty(), "recycling queue ", p,
                 " with cells still cached");
        next_[p] = 0;
    }

    void
    save(ser::Writer &w) const
    {
        w.tag("HSRM");
        w.u64(blocks_.size());
        for (std::size_t p = 0; p < blocks_.size(); ++p) {
            w.u64(next_[p]);
            w.u64(blocks_[p].size());
            for (const auto &[seq, blk] : blocks_[p]) {
                w.u64(seq);
                w.u64(blk.consumed);
                w.u64(blk.cells.size());
                for (const auto &c : blk.cells)
                    c.save(w);
            }
        }
        w.u64(occupancy_);
        high_water_.save(w);
    }

    std::uint64_t occupancy() const { return occupancy_; }

  private:
    struct Block
    {
        std::vector<Cell> cells;
        std::size_t consumed = 0;
    };

    std::vector<std::map<std::uint64_t, Block>> blocks_;
    std::vector<std::uint64_t> next_;
    std::uint64_t capacity_;
    std::uint64_t occupancy_ = 0;
    HighWater high_water_;
};

class RefDramStore
{
  public:
    RefDramStore(unsigned queues, unsigned gran, unsigned groups,
                 std::uint64_t group_capacity)
        : gran_(gran), group_cells_(groups, 0),
          group_capacity_(group_capacity), blocks_(queues)
    {}

    void
    write(QueueId p, std::uint64_t ordinal, std::vector<Cell> cells,
          unsigned group)
    {
        panic_if(cells.size() != gran_, "write of ", cells.size(),
                 " cells, granularity is ", gran_);
        panic_if(blocks_[p].count(ordinal), "duplicate block ordinal ",
                 ordinal, " on queue ", p);
        blocks_[p].emplace(ordinal, std::move(cells));
        group_cells_[group] += gran_;
        panic_if(group_capacity_ && group_cells_[group] > group_capacity_,
                 "DRAM group ", group, " overflow (", group_cells_[group],
                 " > ", group_capacity_,
                 " cells): admission control must prevent this");
    }

    std::vector<Cell>
    read(QueueId p, std::uint64_t ordinal, unsigned group)
    {
        auto it = blocks_[p].find(ordinal);
        panic_if(it == blocks_[p].end(), "read of absent block ", ordinal,
                 " on queue ", p);
        std::vector<Cell> out = std::move(it->second);
        blocks_[p].erase(it);
        group_cells_[group] -= gran_;
        return out;
    }

    bool
    has(QueueId p, std::uint64_t ordinal) const
    {
        return blocks_[p].count(ordinal) != 0;
    }

    /** Resident ordinals of p, ascending. */
    std::vector<std::uint64_t>
    ordinals(QueueId p) const
    {
        std::vector<std::uint64_t> v;
        for (const auto &[o, cells] : blocks_[p])
            v.push_back(o);
        return v;
    }

    void
    recycle(QueueId p)
    {
        panic_if(!blocks_[p].empty(), "recycling non-empty queue ", p);
    }

    void
    save(ser::Writer &w) const
    {
        w.tag("DRAM");
        w.u64(group_cells_.size());
        for (const auto g : group_cells_)
            w.u64(g);
        w.u64(blocks_.size());
        for (const auto &qb : blocks_) {
            w.u64(qb.size());
            for (const auto &[ordinal, cells] : qb) {
                w.u64(ordinal);
                w.u64(cells.size());
                for (const auto &c : cells)
                    c.save(w);
            }
        }
    }

    std::uint64_t groupCells(unsigned g) const { return group_cells_[g]; }

  private:
    unsigned gran_;
    std::vector<std::uint64_t> group_cells_;
    std::uint64_t group_capacity_;
    std::vector<std::map<std::uint64_t, std::vector<Cell>>> blocks_;
};

class RefTailSram
{
  public:
    RefTailSram(unsigned queues, std::uint64_t capacity)
        : cells_(queues), claimed_(queues, 0), capacity_(capacity)
    {}

    void
    push(QueueId p, const Cell &c)
    {
        cells_[p].push_back(c);
        ++occupancy_;
        high_water_.observe(static_cast<std::int64_t>(occupancy_));
        panic_if(capacity_ && occupancy_ > capacity_,
                 "t-SRAM overflow: ", occupancy_, " cells > capacity ",
                 capacity_, " -- dimensioning violated");
    }

    std::uint64_t
    unclaimed(QueueId p) const
    {
        return cells_[p].size() - claimed_[p];
    }

    void
    claim(QueueId p, unsigned n)
    {
        panic_if(unclaimed(p) < n, "claiming ", n, " cells of queue ", p,
                 " with only ", unclaimed(p), " unclaimed");
        claimed_[p] += n;
    }

    void
    unclaim(QueueId p, unsigned n)
    {
        panic_if(claimed_[p] < n, "unclaim underflow on queue ", p);
        claimed_[p] -= n;
    }

    std::vector<Cell>
    extractClaimed(QueueId p, unsigned n)
    {
        panic_if(claimed_[p] < n, "extracting unclaimed cells");
        auto out = take(p, n);
        claimed_[p] -= n;
        return out;
    }

    std::vector<Cell>
    extractBypass(QueueId p, unsigned max_cells)
    {
        panic_if(claimed_[p] != 0, "bypass with ", claimed_[p],
                 " claimed cells ahead on queue ", p);
        return take(p, static_cast<unsigned>(std::min<std::uint64_t>(
                           max_cells, cells_[p].size())));
    }

    void
    recycle(QueueId p)
    {
        panic_if(!cells_[p].empty() || claimed_[p] != 0,
                 "recycling non-empty tail queue ", p);
    }

    void
    save(ser::Writer &w) const
    {
        w.tag("TSRM");
        w.u64(cells_.size());
        for (std::size_t p = 0; p < cells_.size(); ++p) {
            w.u64(claimed_[p]);
            w.u64(cells_[p].size());
            for (const auto &c : cells_[p])
                c.save(w);
        }
        w.u64(occupancy_);
        high_water_.save(w);
    }

  private:
    std::vector<Cell>
    take(QueueId p, unsigned n)
    {
        std::vector<Cell> out(cells_[p].begin(), cells_[p].begin() + n);
        cells_[p].erase(cells_[p].begin(), cells_[p].begin() + n);
        occupancy_ -= n;
        return out;
    }

    std::vector<std::deque<Cell>> cells_;
    std::vector<std::uint64_t> claimed_;
    std::uint64_t capacity_;
    std::uint64_t occupancy_ = 0;
    HighWater high_water_;
};

/** A panic's message without its "(file:line)" suffix; "" if `fn`
 *  returned normally. */
template <typename Fn>
std::string
panicText(Fn &&fn)
{
    try {
        fn();
    } catch (const PanicError &e) {
        const std::string what = e.what();
        return what.substr(0, what.rfind(" ("));
    }
    return "";
}

template <typename Store>
std::string
savedBytes(const Store &s)
{
    ser::Writer w;
    s.save(w);
    return w.bytes();
}

/** Checkpoint `real` into a fresh store built by `make` and swap it
 *  in: every later operation runs on restored state. */
template <typename Store, typename Make>
void
restoreFresh(std::unique_ptr<Store> &real, Make make)
{
    const std::string bytes = savedBytes(*real);
    auto fresh = make();
    ser::Reader r(bytes);
    fresh->load(r);
    real = std::move(fresh);
    ASSERT_EQ(savedBytes(*real), bytes) << "restore is not a round trip";
}

struct FuzzCase
{
    std::uint64_t master;
    std::uint64_t iters;
};

FuzzCase
fuzzCase()
{
    return {testutil::envU64("PKTBUF_FUZZ_SEED", 1),
            testutil::envU64("PKTBUF_FUZZ_ITERS", 3)};
}

} // namespace

TEST(EventCoreFuzzSmoke, HeadSramMatchesMapModel)
{
    const auto fc = fuzzCase();
    Rng cases(fc.master);
    for (std::uint64_t it = 0; it < 10 * fc.iters; ++it) {
        const std::uint64_t seed = cases.next();
        Rng rng(seed);
        const unsigned queues = 1 + static_cast<unsigned>(rng.below(6));
        const unsigned gran = 1 + static_cast<unsigned>(rng.below(6));
        const std::uint64_t cap =
            rng.chance(0.5) ? 0 : gran + rng.below(4 * queues * gran);
        SCOPED_TRACE("case seed " + std::to_string(seed) + " Q=" +
                     std::to_string(queues) + " b=" +
                     std::to_string(gran) + " cap=" +
                     std::to_string(cap) + " (PKTBUF_FUZZ_SEED=" +
                     std::to_string(fc.master) + ")");
        const auto make = [&] {
            return std::make_unique<sram::HeadSram>(queues, cap, gran);
        };
        auto real = make();
        RefHeadSram ref(queues, cap);
        // Per queue: the next replenish seq to issue, and the issued
        // seqs not yet inserted (refills complete out of order).
        std::vector<std::uint64_t> issued(queues, 0);
        std::vector<std::vector<std::uint64_t>> pending(queues);
        SeqNum stamp = 0;
        for (unsigned step = 0; step < 1000; ++step) {
            const auto p = static_cast<QueueId>(rng.below(queues));
            std::string want, got;
            bool overflowed = false;
            switch (rng.below(8)) {
              case 0:
              case 1:
              case 2: {
                // Insert: mostly a pending seq (out of order), else a
                // fresh one, sometimes a stale or duplicate one.
                if (pending[p].empty() || rng.chance(0.3))
                    pending[p].push_back(issued[p]++);
                std::uint64_t seq;
                const auto pick = rng.below(pending[p].size());
                if (rng.chance(0.05) && issued[p] > 0) {
                    seq = rng.below(issued[p]);  // maybe stale/dup
                } else {
                    seq = pending[p][pick];
                    pending[p].erase(pending[p].begin() +
                                     static_cast<std::ptrdiff_t>(pick));
                }
                std::vector<Cell> cells(
                    rng.chance(0.02) ? 0 : 1 + rng.below(gran));
                for (auto &c : cells)
                    c = Cell{p, stamp++, step};
                want = panicText([&] { ref.insert(p, seq, cells); });
                got = panicText([&] {
                    std::ranges::copy(
                        cells,
                        real->insertBlock(p, seq, cells.size()).begin());
                });
                overflowed = want.find("overflow") != std::string::npos;
                break;
              }
              case 3:
              case 4:
              case 5: {
                // Pop up to a block's worth, stopping at a MISS.
                for (auto k = 1 + rng.below(gran); k > 0; --k) {
                    Cell a{}, b{};
                    want = panicText([&] { a = ref.pop(p); });
                    got = panicText([&] { b = real->pop(p); });
                    if (!want.empty() || !got.empty())
                        break;
                    ASSERT_EQ(a.queue, b.queue) << "step " << step;
                    ASSERT_EQ(a.seq, b.seq) << "step " << step;
                    ASSERT_EQ(a.arrival, b.arrival) << "step " << step;
                }
                break;
              }
              case 6:
                want = panicText([&] { ref.recycle(p); });
                got = panicText([&] { real->recycle(p); });
                if (want.empty()) {
                    issued[p] = 0;
                    pending[p].clear();
                }
                break;
              default:
                restoreFresh(real, make);
                break;
            }
            ASSERT_EQ(want, got) << "step " << step;
            if (overflowed)
                break;  // the old store inserted before panicking
            ASSERT_EQ(ref.cellsOf(p), real->cellsOf(p)) << "step " << step;
            ASSERT_EQ(ref.occupancy(), real->occupancy());
            if (step % 64 == 0) {
                ASSERT_EQ(savedBytes(ref), savedBytes(*real))
                    << "step " << step;
            }
        }
    }
}

TEST(EventCoreFuzzSmoke, DramStoreMatchesMapModel)
{
    const auto fc = fuzzCase();
    Rng cases(fc.master + 1);
    for (std::uint64_t it = 0; it < 10 * fc.iters; ++it) {
        const std::uint64_t seed = cases.next();
        Rng rng(seed);
        const unsigned queues = 1 + static_cast<unsigned>(rng.below(5));
        const unsigned gran = 1 + static_cast<unsigned>(rng.below(4));
        const unsigned groups = 1 + static_cast<unsigned>(rng.below(3));
        const std::uint64_t cap =
            rng.chance(0.5) ? 0 : gran * (1 + rng.below(8 * queues));
        SCOPED_TRACE("case seed " + std::to_string(seed) + " Q=" +
                     std::to_string(queues) + " b=" +
                     std::to_string(gran) + " G=" +
                     std::to_string(groups) + " cap=" +
                     std::to_string(cap) + " (PKTBUF_FUZZ_SEED=" +
                     std::to_string(fc.master) + ")");
        const auto make = [&] {
            return std::make_unique<dram::DramStore>(queues, gran, groups,
                                                     cap);
        };
        auto real = make();
        RefDramStore ref(queues, gran, groups, cap);
        std::vector<std::uint64_t> next_ord(queues, 0);
        std::vector<Cell> out(gran);
        SeqNum stamp = 0;
        for (unsigned step = 0; step < 1000; ++step) {
            const auto p = static_cast<QueueId>(rng.below(queues));
            const unsigned g = p % groups;
            std::string want, got;
            bool overflowed = false;
            switch (rng.below(7)) {
              case 0:
              case 1:
              case 2: {
                // Writes land in order per queue; now and then one
                // skips ahead, goes back, repeats or has a bad size.
                std::uint64_t ord = next_ord[p]++;
                if (rng.chance(0.05))
                    ord += rng.below(4);
                else if (rng.chance(0.05) && ord > 0)
                    ord -= 1 + rng.below(ord);
                std::vector<Cell> cells(
                    rng.chance(0.02) ? gran + 1 : gran);
                for (auto &c : cells)
                    c = Cell{p, stamp++, step};
                want = panicText([&] { ref.write(p, ord, cells, g); });
                got = panicText([&] {
                    std::ranges::copy(
                        cells,
                        real->writeBlock(p, ord, cells.size(), g).begin());
                });
                overflowed = want.find("overflow") != std::string::npos;
                break;
              }
              case 3:
              case 4: {
                // Reads pick any resident block (out of order), or
                // now and then an absent one.
                const auto ords = ref.ordinals(p);
                const std::uint64_t ord =
                    ords.empty() || rng.chance(0.05)
                        ? next_ord[p] + rng.below(3)
                        : ords[rng.below(ords.size())];
                std::vector<Cell> a;
                want = panicText([&] { a = ref.read(p, ord, g); });
                got = panicText([&] { real->readBlock(p, ord, g, out); });
                if (want.empty() && got.empty()) {
                    for (unsigned i = 0; i < gran; ++i)
                        ASSERT_EQ(a[i].seq, out[i].seq) << "step " << step;
                }
                break;
              }
              case 5:
                want = panicText([&] { ref.recycle(p); });
                got = panicText([&] { real->recycle(p); });
                break;
              default:
                restoreFresh(real, make);
                break;
            }
            ASSERT_EQ(want, got) << "step " << step;
            if (overflowed)
                break;  // the old store inserted before panicking
            for (const std::uint64_t o :
                 {next_ord[p], next_ord[p] ? next_ord[p] - 1 : 0})
                ASSERT_EQ(ref.has(p, o), real->hasBlock(p, o));
            ASSERT_EQ(ref.ordinals(p).size(), real->residentBlocks(p));
            ASSERT_EQ(ref.groupCells(g), real->groupCells(g));
            if (step % 64 == 0) {
                ASSERT_EQ(savedBytes(ref), savedBytes(*real))
                    << "step " << step;
            }
        }
    }
}

TEST(EventCoreFuzzSmoke, TailSramMatchesDequeModel)
{
    const auto fc = fuzzCase();
    Rng cases(fc.master + 2);
    for (std::uint64_t it = 0; it < 10 * fc.iters; ++it) {
        const std::uint64_t seed = cases.next();
        Rng rng(seed);
        const unsigned queues = 1 + static_cast<unsigned>(rng.below(6));
        const unsigned gran = 1 + static_cast<unsigned>(rng.below(6));
        const std::uint64_t cap =
            rng.chance(0.5) ? 0 : 1 + rng.below(6 * queues * gran);
        SCOPED_TRACE("case seed " + std::to_string(seed) + " Q=" +
                     std::to_string(queues) + " b=" +
                     std::to_string(gran) + " cap=" +
                     std::to_string(cap) + " (PKTBUF_FUZZ_SEED=" +
                     std::to_string(fc.master) + ")");
        const auto make = [&] {
            auto t = std::make_unique<sram::TailSram>(queues, cap, gran);
            t->setThreshold(gran);
            return t;
        };
        auto real = make();
        RefTailSram ref(queues, cap);
        std::vector<Cell> out(gran + 1);
        SeqNum stamp = 0;
        for (unsigned step = 0; step < 1000; ++step) {
            const auto p = static_cast<QueueId>(rng.below(queues));
            std::string want, got;
            bool overflowed = false;
            std::vector<Cell> a;
            std::size_t moved = 0;
            switch (rng.below(9)) {
              case 0:
              case 1:
              case 2: {
                const Cell c{p, stamp++, step};
                want = panicText([&] { ref.push(p, c); });
                got = panicText([&] { real->push(p, c); });
                overflowed = want.find("overflow") != std::string::npos;
                break;
              }
              case 3:
                want = panicText([&] { ref.claim(p, gran); });
                got = panicText([&] { real->claim(p, gran); });
                break;
              case 4:
                want = panicText([&] { ref.unclaim(p, gran); });
                got = panicText([&] { real->unclaim(p, gran); });
                break;
              case 5:
                want = panicText([&] { a = ref.extractClaimed(p, gran); });
                got = panicText([&] {
                    real->extractClaimed(p, std::span(out).first(gran));
                });
                break;
              case 6: {
                const auto n = 1 + rng.below(gran + 1);
                want = panicText([&] {
                    a = ref.extractBypass(p, static_cast<unsigned>(n));
                });
                got = panicText([&] {
                    moved = real->extractBypass(p, std::span(out).first(n));
                });
                if (want.empty() && got.empty()) {
                    ASSERT_EQ(a.size(), moved) << "step " << step;
                }
                break;
              }
              case 7:
                want = panicText([&] { ref.recycle(p); });
                got = panicText([&] { real->recycle(p); });
                break;
              default:
                restoreFresh(real, make);
                break;
            }
            ASSERT_EQ(want, got) << "step " << step;
            if (overflowed)
                break;  // the old store appended before panicking
            if (want.empty()) {
                for (std::size_t i = 0; i < a.size(); ++i)
                    ASSERT_EQ(a[i].seq, out[i].seq) << "step " << step;
            }
            ASSERT_EQ(ref.unclaimed(p), real->unclaimed(p));
            // The eligibility bitmap tracks unclaimed >= b.
            std::size_t eligible = 0;
            for (QueueId q = 0; q < queues; ++q)
                eligible += ref.unclaimed(q) >= gran ? 1 : 0;
            ASSERT_EQ(eligible, real->eligibleCount());
            if (step % 64 == 0) {
                ASSERT_EQ(savedBytes(ref), savedBytes(*real))
                    << "step " << step;
            }
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
