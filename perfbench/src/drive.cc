#include "drive.hh"

#include <algorithm>
#include <exception>
#include <sstream>

#include "buffer/hybrid_buffer.hh"
#include "common/stats.hh"
#include "model/dimensioning.hh"
#include "sim/golden.hh"
#include "sim/runner.hh"

namespace perfbench
{

using namespace pktbuf;

namespace
{

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** The drain slot budget sim::completeScenario grants a leg. */
std::uint64_t
drainBudget(const buffer::HybridBuffer &buf, const sim::Workload &wl)
{
    std::uint64_t credits = 0;
    for (QueueId q = 0; q < wl.queues(); ++q)
        credits += wl.credit(q);
    return 8 * credits + 16 * buf.pipelineDepth() +
           64ull * buf.config().params.granRads + 4096;
}

/** sim::completeScenario's post-drain checks; "" when they pass. */
std::string
checkTotals(const sim::ScenarioOutcome &out)
{
    std::ostringstream os;
    if (out.verified != out.run.grants + out.drained)
        os << "golden checker saw " << out.verified
           << " grants, runner counted "
           << out.run.grants + out.drained << "; ";
    if (out.undelivered != 0)
        os << out.undelivered
           << " cells arrived but were never granted; ";
    if (out.verified != out.run.arrivals)
        os << "delivered " << out.verified << " of "
           << out.run.arrivals << " admitted arrivals; ";
    if (out.verified == 0)
        os << "leg delivered no cells at all; ";
    return os.str();
}

std::uint64_t
undelivered(const sim::Workload &wl)
{
    std::uint64_t n = 0;
    for (QueueId q = 0; q < wl.queues(); ++q)
        n += wl.credit(q);
    return n;
}

} // namespace

LegResult
runLeg(const LegSpec &spec)
{
    LegResult r;
    auto &out = r.out;
    std::string why;
    const auto t0 = nowNs();
    try {
        const auto cfg = spec.dimension();
        r.params = cfg.params;
        buffer::HybridBuffer buf(cfg);
        const auto wl = spec.workload();
        sim::SimRunner runner(buf, *wl, /*check=*/true);
        const auto t1 = nowNs();
        out.run = runner.run(spec.slots);
        const auto t2 = nowNs();
        out.drained = runner.drain(drainBudget(buf, *wl));
        out.verified = runner.checker().granted();
        out.report = buf.report();
        out.undelivered = undelivered(*wl);
        why = checkTotals(out);
        r.phases = {seconds(t1 - t0), seconds(t2 - t1),
                    seconds(nowNs() - t2)};
    } catch (const std::exception &e) {
        why += std::string("exception: ") + e.what() + "; ";
    }
    out.passed = why.empty();
    out.failure = why;
    return r;
}

LegResult
traceLeg(const LegSpec &spec, Trace &t, const Injection &inject)
{
    LegResult r;
    auto &out = r.out;
    std::string why;
    const auto t0 = nowNs();
    try {
        t.open(Row::CoreDimension);
        const auto cfg = spec.dimension();
        t.close();
        r.params = cfg.params;

        t.open(Row::BufferConstruct);
        buffer::HybridBuffer buf(cfg);
        t.close();

        t.open(Row::SimConstruct);
        const auto wl = spec.workload();
        sim::GoldenChecker checker(wl->queues());
        Sampler delay;
        t.close();
        const auto t1 = nowNs();

        // sim::SimRunner::run, spanned.  The run loop's own
        // bookkeeping is the SimRunner row's self time.
        t.open(Row::SimRunner);
        const auto admit = [&buf](QueueId q) {
            return buf.wouldAdmit(q);
        };
        std::int64_t wl_ns = 0, buf_ns = 0, gold_ns = 0;
        std::uint64_t grants = 0;
        for (std::uint64_t i = 0; i < spec.slots; ++i) {
            const auto a = nowNs();
            const sim::Stimulus s = wl->step(buf.now(), admit);
            const auto b = inject.stretch(Row::SimWorkload, a, nowNs());
            const auto grant = buf.step(s.arrival, s.request);
            const auto c = inject.stretch(Row::BufferStep, b, nowNs());
            wl_ns += b - a;
            buf_ns += c - b;
            if (s.arrival)
                ++out.run.arrivals;
            if (grant) {
                checker.onGrant(grant->logicalQueue, grant->cell);
                gold_ns += inject.stretch(Row::SimGolden, c, nowNs()) - c;
                ++grants;
                delay.sample(static_cast<double>(buf.now() - 1 -
                                                 grant->cell.arrival));
            } else if (!s.arrival && s.request == kInvalidQueue) {
                ++r.idleSlots;
            }
        }
        t.addLeaf(Row::SimWorkload, spec.slots, wl_ns);
        t.addLeaf(Row::BufferStep, spec.slots, buf_ns);
        t.addLeaf(Row::SimGolden, grants, gold_ns);
        t.close();
        out.run.slots = spec.slots;
        out.run.grants = grants;
        out.run.drops = wl->drops();
        out.run.meanDelaySlots = delay.mean();
        out.run.maxDelaySlots = delay.max();
        const auto t2 = nowNs();

        // sim::SimRunner::drain, spanned.
        t.open(Row::SimDrain);
        const std::uint64_t budget = drainBudget(buf, *wl);
        const std::uint64_t idle_limit = buf.pipelineDepth() +
            4 * static_cast<std::uint64_t>(cfg.params.granRads) + 8;
        std::uint64_t idle = 0, steps = 0, drain_grants = 0;
        buf_ns = gold_ns = 0;
        QueueId next = 0;
        for (std::uint64_t i = 0; i < budget; ++i) {
            QueueId req = kInvalidQueue;
            for (unsigned k = 0; k < wl->queues(); ++k) {
                const QueueId q = (next + k) % wl->queues();
                if (wl->credit(q) > 0) {
                    req = q;
                    next = (q + 1) % wl->queues();
                    break;
                }
            }
            if (req != kInvalidQueue)
                wl->consumeCredit(req);
            const auto b = nowNs();
            const auto grant = buf.step(std::nullopt, req);
            const auto c = inject.stretch(Row::BufferStep, b, nowNs());
            buf_ns += c - b;
            ++steps;
            if (grant) {
                checker.onGrant(grant->logicalQueue, grant->cell);
                gold_ns += inject.stretch(Row::SimGolden, c, nowNs()) - c;
                ++drain_grants;
                idle = 0;
            } else if (req == kInvalidQueue) {
                if (++idle > idle_limit)
                    break;
            }
        }
        t.addLeaf(Row::BufferStep, steps, buf_ns);
        t.addLeaf(Row::SimGolden, drain_grants, gold_ns);
        t.close();
        out.drained = drain_grants;
        out.verified = checker.granted();
        const auto t3 = nowNs();

        t.open(Row::Report);
        out.report = buf.report();
        out.undelivered = undelivered(*wl);
        why = checkTotals(out);
        t.close();
        r.phases = {seconds(t1 - t0), seconds(t2 - t1),
                    seconds(t3 - t2)};
    } catch (const std::exception &e) {
        why += std::string("exception: ") + e.what() + "; ";
    }
    out.passed = why.empty();
    out.failure = why;
    return r;
}

namespace
{

/** Paper bound of the head SRAM at the ECQF lookahead (Eq. 4 for
 *  CFDS, Q(b-1) for RADS); 0 where the formula gives none. */
std::uint64_t
headBound(const model::BufferParams &p)
{
    const auto look = model::ecqfLookaheadSlots(p.queues, p.gran);
    return p.isRads() ? model::radsSramCells(look, p.queues, p.gran)
                      : model::cfdsSramCells(look, p);
}

double
ratio(std::int64_t hw, std::uint64_t bound)
{
    return bound ? static_cast<double>(hw) / static_cast<double>(bound)
                 : 0.0;
}

} // namespace

sweep::Record
summarize(const std::vector<sim::ScenarioOutcome> &outs,
          const std::vector<model::BufferParams> &params)
{
    std::uint64_t arrivals = 0, granted = 0, drained = 0, drops = 0,
                  undeliv = 0, slots = 0, reads = 0, writes = 0,
                  bypasses = 0, stalls = 0, renames = 0, recycles = 0,
                  main_grants = 0;
    std::int64_t head = 0, tail = 0, rr = 0, orr = 0;
    double delay_sum = 0.0, delay_max = 0.0, head_r = 0.0,
           tail_r = 0.0, rr_r = 0.0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const auto &o = outs[i];
        const auto &p = params[i];
        arrivals += o.run.arrivals;
        granted += o.verified;
        drained += o.drained;
        drops += o.run.drops;
        undeliv += o.undelivered;
        slots += o.report.slots;
        reads += o.report.dramReads;
        writes += o.report.dramWrites;
        bypasses += o.report.bypasses;
        stalls += o.report.dsaStalls;
        renames += o.report.renames;
        recycles += o.report.renameRecycles;
        main_grants += o.run.grants;
        delay_sum += o.run.meanDelaySlots *
                     static_cast<double>(o.run.grants);
        delay_max = std::max(delay_max, o.run.maxDelaySlots);
        head = std::max(head, o.report.headSramHighWater);
        tail = std::max(tail, o.report.tailSramHighWater);
        rr = std::max(rr, o.report.rrHighWater);
        orr = std::max(orr, o.report.orrHighWater);
        head_r = std::max(head_r,
                          ratio(o.report.headSramHighWater, headBound(p)));
        tail_r = std::max(
            tail_r, ratio(o.report.tailSramHighWater,
                          model::tailSramCells(p.queues, p.gran)));
        if (!p.isRads())
            rr_r = std::max(rr_r,
                            ratio(o.report.rrHighWater, model::rrSize(p)));
    }
    sweep::Record r;
    r.set("legs", outs.size())
        .set("arrivals", arrivals)
        .set("granted", granted)
        .set("drained", drained)
        .set("drops", drops)
        .set("undelivered", undeliv)
        .set("buffer_slots", slots)
        .set("delay_slots_mean",
             main_grants ? delay_sum / static_cast<double>(main_grants)
                         : 0.0)
        .set("delay_slots_max", delay_max)
        .set("dram_reads", reads)
        .set("dram_writes", writes)
        .set("bypass_cells", bypasses)
        .set("dsa_stalls", stalls)
        .set("renames", renames)
        .set("rename_recycles", recycles)
        .set("head_sram_hw", head)
        .set("tail_sram_hw", tail)
        .set("rr_hw", rr)
        .set("orr_hw", orr)
        .set("head_sram_hw_ratio", head_r)
        .set("tail_sram_hw_ratio", tail_r)
        .set("rr_hw_ratio", rr_r);
    return r;
}

std::string
fingerprint(const sim::ScenarioOutcome &o)
{
    const auto &rr = o.run;
    const auto &b = o.report;
    sweep::Record r;
    r.set("passed", o.passed)
        .set("slots", rr.slots)
        .set("arrivals", rr.arrivals)
        .set("grants", rr.grants)
        .set("drops", rr.drops)
        .set("mean_delay", rr.meanDelaySlots)
        .set("max_delay", rr.maxDelaySlots)
        .set("drained", o.drained)
        .set("verified", o.verified)
        .set("undelivered", o.undelivered)
        .set("r_slots", b.slots)
        .set("r_arrivals", b.arrivals)
        .set("r_grants", b.grants)
        .set("bypasses", b.bypasses)
        .set("dram_reads", b.dramReads)
        .set("dram_writes", b.dramWrites)
        .set("head_hw", b.headSramHighWater)
        .set("tail_hw", b.tailSramHighWater)
        .set("rr_hw", b.rrHighWater)
        .set("rr_max_skips", b.rrMaxSkips)
        .set("orr_hw", b.orrHighWater)
        .set("dsa_stalls", b.dsaStalls)
        .set("stalls_bank", b.dsaStallsBankBusy)
        .set("stalls_refresh", b.dsaStallsRefresh)
        .set("stalls_turnaround", b.dsaStallsTurnaround)
        .set("renames", b.renames)
        .set("recycles", b.renameRecycles)
        .set("dram_resident", b.dramResidentCells);
    return toJson(r);
}

std::string
toJson(const sweep::Record &r)
{
    std::string s = "{";
    for (const auto &[k, v] : r.fields()) {
        if (s.size() > 1)
            s += ", ";
        s += sweep::Value(k).json() + ": " + v.json();
    }
    return s + "}";
}

} // namespace perfbench
