#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/serialize.hh"
#include "core/system_config.hh"
#include "crossbar/crossbar_sim.hh"
#include "crossbar/scheduler.hh"
#include "drive.hh"
#include "sim/scenario.hh"
#include "sweep/scenario_sweep.hh"
#include "sweep/sweep.hh"

namespace perfbench
{

using namespace pktbuf;

namespace
{

/**
 * Execution-engine selection, the one place the benchmark names an
 * engine.  Every workload runs the event-calendar engine, the only
 * one ROADMAP item 3 keeps; once that item deletes the engine fields
 * this template compiles to nothing and can be removed.
 */
template <typename Config>
void
selectEngine(Config &c)
{
    if constexpr (requires { c.eventCore; })
        c.eventCore = true;
    if constexpr (requires { c.eventEngine; })
        c.eventEngine = true;
}

// Run lengths in simulated slots.  Each rep is a closed loop: this
// fixed amount of simulated work, run as fast as the host allows.
constexpr std::uint64_t kPaperSaturatedSlots = 400000;
constexpr std::uint64_t kPaperSparseSlots = 3000000;
constexpr std::uint64_t kXbarSlots = 100000;
constexpr unsigned kXbarCheckpoints = 3;
constexpr std::uint64_t kMatrixLegSlots = 100000;
constexpr unsigned kMatrixWorkers = 2;

/** Untraced and traced reps each run at least this often. */
constexpr std::size_t kMinReps = 3;

using Metrics = std::vector<std::pair<std::string, double>>;

/** One timed run of a workload. */
struct Rep
{
    Phases phases;
    double wall = 0.0;
    /** Main-phase buffer-slots and the thread-seconds that ran them. */
    std::uint64_t bufferSlots = 0;
    double simulateThreadSeconds = 0.0;
    std::uint64_t legs = 0;
    std::uint64_t failedLegs = 0;
    std::string failure;
    /** Deterministic outputs, compared against the expected values. */
    sweep::Record outputs;
    /** The emitted result rows (comparable with the library's own
     *  entry point) and every leg's full counter state. */
    std::string records;
    std::string state;
    /** Traced reps only. */
    Metrics metrics;
    Metrics layers;  //!< self seconds per row, plus "unattributed"
    double threadSeconds = 0.0;
    /** Untraced only: calibrate() just before the rep. */
    double calibration = 0.0;
};

class Bench
{
  public:
    virtual ~Bench() = default;
    /** Records of one run through the library's own top-level entry
     *  point, or "" when the untraced rep already is that path. */
    virtual std::string reference() { return ""; }
    virtual Rep run() = 0;
    virtual Rep traced(const Injection &inject) = 0;
    virtual unsigned workers() const { return 1; }
};

double
secs(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
div0(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** Fill the legs/failure fields of a rep from its leg outcomes. */
void
countLegs(Rep &r, const std::vector<sim::ScenarioOutcome> &outs)
{
    for (const auto &o : outs) {
        ++r.legs;
        if (!o.passed) {
            ++r.failedLegs;
            r.failure += o.failure;
        }
    }
}

std::string
allFingerprints(const std::vector<sim::ScenarioOutcome> &outs)
{
    std::string s;
    for (const auto &o : outs)
        s += fingerprint(o) + "\n";
    return s;
}

void
finishOutputs(Rep &r, const std::vector<sim::ScenarioOutcome> &outs,
              const std::vector<model::BufferParams> &params)
{
    r.outputs = summarize(outs, params);
    r.state = allFingerprints(outs);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      ser::fnv1a(r.records + r.state)));
    r.outputs.set("outputs_fnv", std::string(hex));
}

/** Every per-layer metric, zero where the workload does not reach
 *  that layer. */
Metrics
zeroMetrics()
{
    Metrics m;
    for (const char *n :
         {"buffer.step_ns_per_slot", "buffer.step_share",
          "buffer.idle_slot_share", "buffer.construct_ms",
          "sim.workload_ns_per_slot", "sim.workload_share",
          "sim.golden_ns_per_grant", "sim.golden_share",
          "sim.runner_share", "sim.drain_s",
          "crossbar.schedule_ns_per_slot", "crossbar.inputs_ns_per_slot",
          "crossbar.schedule_share",
          "crossbar.inputs_share", "crossbar.mean_match_size",
          "crossbar.mean_iterations", "soak.checkpoint_ms",
          "soak.restore_ms", "soak.checkpoint_kb", "sweep.leg_s_p50",
          "sweep.leg_s_max", "sweep.pool_efficiency",
          "trace.unattributed_share", "trace.replay_share"})
        m.emplace_back(n, 0.0);
    return m;
}

void
setMetric(Metrics &m, const std::string &name, double v)
{
    for (auto &[k, val] : m)
        if (k == name) {
            val = v;
            return;
        }
    m.emplace_back(name, v);
}

/** The model counters, normalized per 1k buffer-slots. */
void
counterMetrics(Metrics &m, const sweep::Record &o)
{
    const auto u = [&o](const char *k) {
        return static_cast<double>(o.find(k)->asUInt());
    };
    const auto d = [&o](const char *k) { return o.find(k)->asReal(); };
    const double kslots = u("buffer_slots") / 1000.0;
    const double launches = u("dram_reads") + u("dram_writes");
    setMetric(m, "mma.bypass_cells", div0(u("bypass_cells"), kslots));
    setMetric(m, "dram.reads", div0(u("dram_reads"), kslots));
    setMetric(m, "dram.writes", div0(u("dram_writes"), kslots));
    setMetric(m, "dss.stalls", div0(u("dsa_stalls"), kslots));
    setMetric(m, "dss.launch_efficiency",
              div0(launches, launches + u("dsa_stalls")));
    setMetric(m, "dss.rr_hw", d("rr_hw"));
    setMetric(m, "dss.rr_hw_ratio", d("rr_hw_ratio"));
    setMetric(m, "dss.orr_hw", d("orr_hw"));
    setMetric(m, "sram.head_hw", d("head_sram_hw"));
    setMetric(m, "sram.head_hw_ratio", d("head_sram_hw_ratio"));
    setMetric(m, "sram.tail_hw", d("tail_sram_hw"));
    setMetric(m, "sram.tail_hw_ratio", d("tail_sram_hw_ratio"));
    setMetric(m, "rename.renames", u("renames"));
    setMetric(m, "rename.recycles", u("rename_recycles"));
}

/**
 * Metrics and layer rows of the buffer-driving spans (single-buffer
 * and matrix legs).  `total` is the thread-seconds the rows share.
 */
void
legMetrics(Rep &r, const Trace &t, std::uint64_t main_slots,
           std::uint64_t idle_slots, double total)
{
    const auto ns_per = [&t](Row row) {
        const auto &s = t.stat(row);
        return div0(static_cast<double>(s.totalNs),
                    static_cast<double>(s.count));
    };
    const auto share = [&t, total](Row row) {
        return div0(secs(t.stat(row).selfNs), total);
    };
    setMetric(r.metrics, "buffer.step_ns_per_slot", ns_per(Row::BufferStep));
    setMetric(r.metrics, "buffer.step_share", share(Row::BufferStep));
    setMetric(r.metrics, "buffer.idle_slot_share",
              div0(static_cast<double>(idle_slots),
                   static_cast<double>(main_slots)));
    setMetric(r.metrics, "buffer.construct_ms",
              ns_per(Row::BufferConstruct) * 1e-6);
    setMetric(r.metrics, "sim.workload_ns_per_slot",
              ns_per(Row::SimWorkload));
    setMetric(r.metrics, "sim.workload_share", share(Row::SimWorkload));
    setMetric(r.metrics, "sim.golden_ns_per_grant", ns_per(Row::SimGolden));
    setMetric(r.metrics, "sim.golden_share", share(Row::SimGolden));
    setMetric(r.metrics, "sim.runner_share", share(Row::SimRunner));
    setMetric(r.metrics, "sim.drain_s", secs(t.stat(Row::SimDrain).totalNs));
}

/** Layer rows from span self times; `extra` rows are appended and
 *  the remainder of `total` becomes the "unattributed" row. */
void
layerRows(Rep &r, const Trace &t, std::initializer_list<Row> rows,
          const Metrics &extra, double total)
{
    double sum = 0.0;
    for (const Row row : rows) {
        const double s = secs(t.stat(row).selfNs);
        r.layers.emplace_back(rowName(row), s);
        sum += s;
    }
    for (const auto &[k, v] : extra) {
        r.layers.emplace_back(k, v);
        sum += v;
    }
    r.layers.emplace_back("unattributed", total - sum);
    r.threadSeconds = total;
    setMetric(r.metrics, "trace.unattributed_share",
              div0(total - sum, total));
}

// ------------------------------------------------------------ paper

/** One CFDS buffer at the paper's OC-3072 point (Q=512, B=32, b=4,
 *  M=256), fed uniform random traffic at a fixed load. */
class PaperBench : public Bench
{
  public:
    PaperBench(std::uint64_t seed, double load, std::uint64_t slots)
    {
        spec_.dimension = [] {
            auto cfg = core::makeBufferConfig(core::SystemConfig{},
                                              core::BufferKind::Cfds);
            selectEngine(cfg);
            return cfg;
        };
        const unsigned queues = core::SystemConfig{}.queues;
        spec_.workload = [queues, seed, load] {
            return std::make_unique<sim::UniformRandom>(queues, seed,
                                                        load);
        };
        spec_.slots = slots;
    }

    Rep
    run() override
    {
        const auto t0 = nowNs();
        LegResult leg = runLeg(spec_);
        Rep r = fromLeg(leg);
        r.wall = secs(nowNs() - t0);
        return r;
    }

    Rep
    traced(const Injection &inject) override
    {
        Trace t;
        const auto t0 = nowNs();
        t.open(Row::Workload);
        LegResult leg = traceLeg(spec_, t, inject);
        t.open(Row::Report);
        Rep r = fromLeg(leg);
        t.close();
        t.close();
        r.wall = secs(nowNs() - t0);
        const double total = secs(t.stat(Row::Workload).totalNs);
        r.metrics = zeroMetrics();
        legMetrics(r, t, spec_.slots, leg.idleSlots, total);
        counterMetrics(r.metrics, r.outputs);
        layerRows(r, t,
                  {Row::CoreDimension, Row::BufferConstruct,
                   Row::SimConstruct, Row::SimWorkload, Row::BufferStep,
                   Row::SimGolden, Row::SimRunner, Row::SimDrain,
                   Row::Report},
                  {}, total);
        return r;
    }

  private:
    Rep
    fromLeg(const LegResult &leg)
    {
        Rep r;
        r.phases = leg.phases;
        r.bufferSlots = spec_.slots;
        r.simulateThreadSeconds = leg.phases.simulate;
        countLegs(r, {leg.out});
        r.records = toJson(summarize({leg.out}, {leg.params}));
        finishOutputs(r, {leg.out}, {leg.params});
        return r;
    }

    LegSpec spec_;
};

// ----------------------------------------------------------- crossbar

/** A 16x16 iSLIP crossbar of CFDS inputs, checkpointed and restored
 *  a few times per run, golden-checked and drained. */
class XbarBench : public Bench
{
  public:
    explicit XbarBench(std::uint64_t seed)
    {
        cfg_.ports = 16;
        cfg_.pattern = sw::TrafficPattern::Uniform;
        cfg_.scheduler = xbar::SchedulerKind::Islip;
        cfg_.islipIterations = 4;
        cfg_.variant = sim::BufferVariant::Cfds;
        cfg_.granRads = 8;
        cfg_.gran = 2;
        cfg_.groups = 4;
        cfg_.load = 0.8;
        cfg_.slots = kXbarSlots;
        cfg_.masterSeed = seed;
        selectEngine(cfg_);
        every_ = kXbarSlots / (kXbarCheckpoints + 1);
    }

    std::string
    reference() override
    {
        return records(xbar::runCrossbarCheckpointed(cfg_, every_));
    }

    Rep
    run() override
    {
        Rep r;
        const auto t0 = nowNs();
        auto run = std::make_unique<xbar::CrossbarRun>(cfg_);
        const auto t1 = nowNs();
        for (std::uint64_t at = every_; at < cfg_.slots; at += every_) {
            run->runTo(at);
            const std::string bytes = run->checkpoint();
            run = std::make_unique<xbar::CrossbarRun>(cfg_);
            run->restore(bytes);
        }
        run->runTo(cfg_.slots);
        const auto t2 = nowNs();
        const auto out = run->finish();
        const auto t3 = nowNs();
        finish(r, out);
        r.phases = {secs(t1 - t0), secs(t2 - t1), secs(t3 - t2)};
        r.simulateThreadSeconds = r.phases.simulate;
        r.wall = secs(nowNs() - t0);
        return r;
    }

    Rep
    traced(const Injection &inject) override
    {
        Rep r;
        Trace t;
        const auto t0 = nowNs();
        t.open(Row::Workload);

        t.open(Row::XbarReplay);
        const auto replay = xbar::makeScheduler(
            cfg_.scheduler, cfg_.ports, cfg_.islipIterations,
            cfg_.qpsWindow, cfg_.masterSeed);
        t.close();
        std::uint64_t mismatches = 0;
        // Replays every active slot's occupancy through a fresh
        // scheduler: its matchings must equal the run's, and its
        // time stands in for the scheduler's share of runTo().
        const auto observe = [&](Slot, const xbar::Occupancy &occ,
                                 const xbar::Matching &m,
                                 unsigned iters) {
            const auto a = nowNs();
            const auto again = replay->schedule(occ);
            const auto b =
                inject.stretch(Row::XbarReplay, a, nowNs());
            t.addLeaf(Row::XbarReplay, 1, b - a);
            if (again != m || replay->lastIterations() != iters)
                ++mismatches;
        };

        t.open(Row::BufferConstruct);
        auto run = std::make_unique<xbar::CrossbarRun>(cfg_);
        t.close();
        run->onMatch = observe;
        std::uint64_t ckpt_bytes = 0;
        for (std::uint64_t at = every_; at < cfg_.slots; at += every_) {
            t.open(Row::XbarRun);
            run->runTo(at);
            t.close();
            t.open(Row::SoakCheckpoint);
            const std::string bytes = run->checkpoint();
            t.close();
            ckpt_bytes += bytes.size();
            t.open(Row::SoakRestore);
            run = std::make_unique<xbar::CrossbarRun>(cfg_);
            run->restore(bytes);
            t.close();
            run->onMatch = observe;
        }
        t.open(Row::XbarRun);
        run->runTo(cfg_.slots);
        t.close();
        t.open(Row::SimDrain);
        const auto out = run->finish();
        t.close();
        t.open(Row::Report);
        finish(r, out);
        t.close();
        t.close();
        r.wall = secs(nowNs() - t0);
        if (mismatches) {
            ++r.failedLegs;
            r.failure += "iSLIP replay diverged on " +
                         std::to_string(mismatches) + " slots; ";
        }

        const double total = secs(t.stat(Row::Workload).totalNs);
        const double replay_s = secs(t.stat(Row::XbarReplay).totalNs);
        const double inputs_s =
            secs(t.stat(Row::XbarRun).selfNs) - replay_s;
        const auto slots = static_cast<double>(cfg_.slots);
        const auto &ck = t.stat(Row::SoakCheckpoint);
        const auto &rs = t.stat(Row::SoakRestore);
        r.metrics = zeroMetrics();
        setMetric(r.metrics, "buffer.construct_ms",
                  secs(t.stat(Row::BufferConstruct).totalNs) * 1e3);
        setMetric(r.metrics, "sim.drain_s",
                  secs(t.stat(Row::SimDrain).totalNs));
        setMetric(r.metrics, "crossbar.schedule_ns_per_slot",
                  replay_s * 1e9 / slots);
        setMetric(r.metrics, "crossbar.inputs_ns_per_slot",
                  inputs_s * 1e9 / slots);
        setMetric(r.metrics, "crossbar.schedule_share",
                  replay_s / total);
        setMetric(r.metrics, "crossbar.inputs_share", inputs_s / total);
        setMetric(r.metrics, "trace.replay_share", replay_s / total);
        setMetric(r.metrics, "crossbar.mean_match_size",
                  out.report.meanMatchSize);
        setMetric(r.metrics, "crossbar.mean_iterations",
                  out.report.meanIterations);
        setMetric(r.metrics, "soak.checkpoint_ms",
                  div0(secs(ck.totalNs) * 1e3,
                       static_cast<double>(ck.count)));
        setMetric(r.metrics, "soak.restore_ms",
                  div0(secs(rs.totalNs) * 1e3,
                       static_cast<double>(rs.count)));
        setMetric(r.metrics, "soak.checkpoint_kb",
                  div0(static_cast<double>(ckpt_bytes) / 1024.0,
                       static_cast<double>(ck.count)));
        counterMetrics(r.metrics, r.outputs);
        // The runTo self time holds the scheduler and the inputs; the
        // replay estimates the first, and is itself traced-only work.
        layerRows(r, t,
                  {Row::BufferConstruct, Row::SoakCheckpoint,
                   Row::SoakRestore, Row::SimDrain, Row::Report},
                  {{"crossbar.schedule", replay_s},
                   {"crossbar.inputs", inputs_s},
                   {"trace.replay", replay_s}},
                  total);
        return r;
    }

  private:
    /** The artifact rows runCrossbarCheckpointed's callers emit. */
    std::string
    records(const xbar::CrossbarOutcome &out) const
    {
        std::string s;
        for (std::size_t i = 0; i < out.plans.size(); ++i)
            s += toJson(xbar::inputRecord(out.plans[i], out.inputs[i])) +
                 "\n";
        return s + toJson(xbar::crossbarRecord(cfg_, out)) + "\n";
    }

    void
    finish(Rep &r, const xbar::CrossbarOutcome &out) const
    {
        std::vector<model::BufferParams> params;
        for (const auto &p : out.plans)
            params.push_back(p.scenario.bufferConfig().params);
        countLegs(r, out.inputs);
        if (!out.passed && r.failedLegs == 0) {
            ++r.failedLegs;
            r.failure += out.failure;
        }
        r.bufferSlots = cfg_.slots * cfg_.ports;
        r.records = records(out);
        finishOutputs(r, out.inputs, params);
        r.outputs.set("match_edges", out.report.matchEdges)
            .set("active_slots", out.report.activeSlots)
            .set("iter_sum", out.report.iterSum);
    }

    xbar::CrossbarConfig cfg_;
    std::uint64_t every_ = 0;
};

// ------------------------------------------------------------- matrix

/** The 40-leg scenario matrix with lengthened legs on a 2-worker
 *  sweep pool. */
class MatrixBench : public Bench
{
  public:
    explicit MatrixBench(std::uint64_t seed) : seed_(seed) {}

    unsigned workers() const override { return kMatrixWorkers; }

    std::string
    reference() override
    {
        const auto legs = plan();
        const auto tasks = sweep::makeScenarioTasks(legs, true);
        const auto rep = sweep::runSweep(tasks, options());
        std::string s;
        for (const auto &res : rep.results)
            for (const auto &rec : res.records)
                s += toJson(rec) + "\n";
        return s;
    }

    Rep
    run() override
    {
        return sweepRep(nullptr, Injection{});
    }

    Rep
    traced(const Injection &inject) override
    {
        Trace t;
        return sweepRep(&t, inject);
    }

  private:
    sweep::SweepOptions
    options() const
    {
        sweep::SweepOptions o;
        o.jobs = kMatrixWorkers;
        o.masterSeed = seed_;
        return o;
    }

    std::vector<sim::Scenario>
    plan() const
    {
        auto legs = sim::defaultMatrix();
        for (auto &s : legs) {
            s.slots = kMatrixLegSlots;
            selectEngine(s);
        }
        return legs;
    }

    /** One sweep of the matrix; traced when `main` is non-null. */
    Rep
    sweepRep(Trace *main, const Injection &inject)
    {
        Rep r;
        const auto t0 = nowNs();
        if (main) {
            main->open(Row::Workload);
            main->open(Row::SweepPlan);
        }
        const auto legs = plan();
        const std::size_t n = legs.size();
        std::vector<LegResult> results(n);
        std::vector<Trace> traces(main ? n : 0);
        std::vector<std::int64_t> leg_ns(n, 0);
        std::vector<sweep::Task> tasks;
        tasks.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            tasks.push_back(sweep::Task{
                legs[i].name(),
                [&, i](const sweep::SweepContext &ctx) {
                    // The seed rule of makeScenarioTasks(legs, true).
                    sim::Scenario s = legs[i];
                    s.seed = ctx.seed;
                    LegSpec spec;
                    spec.dimension = [s] { return s.bufferConfig(); };
                    spec.workload = [s] { return sim::makeWorkload(s); };
                    spec.slots = s.slots;
                    const auto a = nowNs();
                    if (main) {
                        traces[i].open(Row::SweepLeg);
                        results[i] = traceLeg(spec, traces[i], inject);
                        traces[i].open(Row::Report);
                    } else {
                        results[i] = runLeg(spec);
                    }
                    // The row makeScenarioTasks emits.
                    sweep::TaskResult tr;
                    tr.records.push_back(
                        sweep::scenarioRecord(s, results[i].out));
                    if (main) {
                        traces[i].close();
                        traces[i].close();
                    }
                    leg_ns[i] = nowNs() - a;
                    return tr;
                }});
        }
        if (main)
            main->close();
        const auto t1 = nowNs();
        if (main)
            main->open(Row::SweepPool);
        const auto rep = sweep::runSweep(tasks, options());
        if (main)
            main->close();
        const auto t2 = nowNs();
        if (main)
            main->open(Row::Report);

        std::vector<sim::ScenarioOutcome> outs;
        std::vector<model::BufferParams> params;
        for (const auto &lr : results) {
            outs.push_back(lr.out);
            params.push_back(lr.params);
            r.phases.setup += lr.phases.setup;
            r.phases.drain += lr.phases.drain;
            r.simulateThreadSeconds += lr.phases.simulate;
            r.bufferSlots += lr.out.run.slots;
        }
        r.phases.setup += secs(t1 - t0);
        r.phases.simulate = secs(t2 - t1);
        countLegs(r, outs);
        for (const auto &res : rep.results)
            for (const auto &rec : res.records)
                r.records += toJson(rec) + "\n";
        finishOutputs(r, outs, params);
        if (!main) {
            r.wall = secs(nowNs() - t0);
            return r;
        }
        main->close();
        main->close();
        r.wall = secs(nowNs() - t0);

        // Thread-seconds: the main thread outside the pool plus every
        // worker for the pool's whole wall time.
        const double pool = secs(main->stat(Row::SweepPool).totalNs);
        const double total =
            secs(main->stat(Row::Workload).totalNs) - pool +
            kMatrixWorkers * pool;
        Trace worker;
        std::uint64_t idle = 0;
        for (std::size_t i = 0; i < n; ++i) {
            worker.merge(traces[i]);
            idle += results[i].idleSlots;
        }
        std::vector<double> leg_s;
        double leg_sum = 0.0;
        for (const auto ns : leg_ns) {
            leg_s.push_back(secs(ns));
            leg_sum += secs(ns);
        }
        std::sort(leg_s.begin(), leg_s.end());
        r.metrics = zeroMetrics();
        legMetrics(r, worker, r.bufferSlots, idle, total);
        counterMetrics(r.metrics, r.outputs);
        setMetric(r.metrics, "sweep.leg_s_p50", leg_s[leg_s.size() / 2]);
        setMetric(r.metrics, "sweep.leg_s_max", leg_s.back());
        setMetric(r.metrics, "sweep.pool_efficiency",
                  leg_sum / (kMatrixWorkers * pool));
        // Worker rows first, then the main thread's own rows; the
        // pool's idle worker time (load imbalance, start-up and
        // joins) is its own row.
        Trace rows = worker;
        rows.merge(*main);
        layerRows(r, rows,
                  {Row::SweepPlan, Row::CoreDimension,
                   Row::BufferConstruct, Row::SimConstruct,
                   Row::SimWorkload, Row::BufferStep, Row::SimGolden,
                   Row::SimRunner, Row::SimDrain, Row::SweepLeg,
                   Row::Report},
                  {{"sweep.idle", kMatrixWorkers * pool - leg_sum}},
                  total);
        return r;
    }

    std::uint64_t seed_;
};

std::unique_ptr<Bench>
makeBench(const std::string &name, std::uint64_t seed)
{
    if (name == "paper_saturated")
        return std::make_unique<PaperBench>(seed, 0.95,
                                            kPaperSaturatedSlots);
    if (name == "paper_sparse")
        return std::make_unique<PaperBench>(seed, 0.05,
                                            kPaperSparseSlots);
    if (name == "xbar16_islip")
        return std::make_unique<XbarBench>(seed);
    if (name == "matrix_sweep")
        return std::make_unique<MatrixBench>(seed);
    return nullptr;
}

// --------------------------------------------------------------- JSON

std::string
num(double v)
{
    return sweep::Value(v).json();
}

std::string
metricsJson(const Metrics &m)
{
    std::string s = "{";
    for (const auto &[k, v] : m) {
        if (s.size() > 1)
            s += ", ";
        s += sweep::Value(k).json() + ": " + num(v);
    }
    return s + "}";
}

std::string
repJson(const Rep &r)
{
    std::string s = "{\"setup_s\": " + num(r.phases.setup) +
                    ", \"simulate_s\": " + num(r.phases.simulate) +
                    ", \"drain_s\": " + num(r.phases.drain) +
                    ", \"wall_s\": " + num(r.wall) +
                    ", \"buffer_slots\": " +
                    std::to_string(r.bufferSlots) +
                    ", \"simulate_thread_s\": " +
                    num(r.simulateThreadSeconds) + ", \"calibration_s\": " +
                    num(r.calibration);
    if (!r.layers.empty()) {
        s += ", \"thread_s\": " + num(r.threadSeconds) +
             ", \"metrics\": " + metricsJson(r.metrics) +
             ", \"layers\": " + metricsJson(r.layers);
    }
    return s + "}";
}

/** Peak resident set of this process image, MiB.  VmHWM rather than
 *  getrusage: ru_maxrss survives exec, so it would report the
 *  launching interpreter's footprint. */
/**
 * Host-speed calibration: fixed work that touches nothing in src/,
 * timed before every untraced rep.  Shared hosts drift in speed by
 * up to 40% over seconds (measured on a 4-vCPU KVM guest), and the
 * drift moves this kernel and the simulator together; run.py divides
 * it out.  The
 * mix -- random reads and writes over a 1 MiB table with
 * data-dependent branches, then std::map insert/erase churn of small
 * vectors -- is the simulator's own kind of work (branchy integer
 * code, node-based containers, small allocations).
 */
double
calibrate()
{
    std::vector<std::uint32_t> table(1u << 18, 1);
    std::map<std::uint64_t, std::vector<std::uint32_t>> nodes;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint32_t acc = 0;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    const auto t0 = nowNs();
    for (int i = 0; i < 1000000; ++i) {
        auto &e = table[next() & (table.size() - 1)];
        if (e & 1)
            acc += e;
        else
            e += static_cast<std::uint32_t>(x);
        e ^= acc;
    }
    for (int i = 0; i < 100000; ++i) {
        const auto it = nodes.find(next() % 4096);
        if (it == nodes.end()) {
            nodes.emplace(x % 4096, std::vector<std::uint32_t>(
                                        4, static_cast<std::uint32_t>(x)));
        } else {
            acc += it->second[0];
            nodes.erase(it);
        }
    }
    const auto t1 = nowNs();
    static std::atomic<std::uint32_t> sink;
    sink += acc;  // keeps the loops observable
    return secs(t1 - t0);
}

/** calibrate() on `threads` threads at once (the workload's own
 *  parallelism, so the kernel runs where the workers will); the mean
 *  of their times. */
double
calibrateOn(unsigned threads)
{
    if (threads <= 1)
        return calibrate();
    std::vector<double> t(threads, 0.0);
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i)
        pool.emplace_back([&t, i] { t[i] = calibrate(); });
    for (auto &th : pool)
        th.join();
    double sum = 0.0;
    for (const double v : t)
        sum += v;
    return sum / threads;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    return 0.0;
}

} // namespace

bool
knownWorkload(const std::string &name)
{
    return makeBench(name, 1) != nullptr;
}

std::string
runWorkload(const Options &opt)
{
    auto bench = makeBench(opt.workload, opt.seed);
    std::vector<std::string> errors;
    std::vector<Rep> reps, traced;
    std::uint64_t legs = 0, failed = 0;
    const auto account = [&](const Rep &r, const char *what) {
        legs += r.legs;
        failed += r.failedLegs;
        if (r.failedLegs)
            errors.push_back(std::string(what) + " rep: " + r.failure);
    };

    const std::string reference = bench->reference();
    const auto deadline =
        nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
    while (true) {
        const double cal = calibrateOn(bench->workers());
        Rep r = bench->run();
        r.calibration = cal;
        account(r, "untraced");
        if (!reference.empty() && r.records != reference)
            errors.push_back("untraced rep differs from the library "
                             "entry point's records");
        if (!reps.empty() && (r.records != reps.front().records ||
                              r.state != reps.front().state))
            errors.push_back("untraced reps of one seed differ");
        reps.push_back(std::move(r));
        if (opt.trace) {
            Rep t = bench->traced(opt.inject);
            account(t, "traced");
            if (t.records != reps.front().records ||
                t.state != reps.front().state)
                errors.push_back("traced rep differs from the untraced "
                                 "run");
            traced.push_back(std::move(t));
        }
        if (nowNs() >= deadline && reps.size() >= kMinReps)
            break;
    }

    std::string s = "{\"workload\": " + sweep::Value(opt.workload).json() +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"" +
                    ", \"compiler\": \"" PERFBENCH_COMPILER "\"" +
                    ", \"workers\": " + std::to_string(bench->workers()) +
                    ", \"legs_attempted\": " + std::to_string(legs) +
                    ", \"legs_failed\": " + std::to_string(failed) +
                    ", \"peak_rss_mb\": " + num(peakRssMb()) +
                    ", \"outputs\": " + toJson(reps.front().outputs) +
                    ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i)
        s += (i ? ", " : "") + sweep::Value(errors[i]).json();
    s += "], \"reps\": [";
    for (std::size_t i = 0; i < reps.size(); ++i)
        s += (i ? ", " : "") + repJson(reps[i]);
    s += "], \"traced\": [";
    for (std::size_t i = 0; i < traced.size(); ++i)
        s += (i ? ", " : "") + repJson(traced[i]);
    return s + "]}";
}

} // namespace perfbench
