#include "switch_sim.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/logging.hh"
#include "common/random.hh"
#include "sim/leg.hh"
#include "sim/workload.hh"
#include "sweep/emit.hh"
#include "sweep/scenario_sweep.hh"
#include "sweep/sweep.hh"

namespace pktbuf::sw
{

namespace
{

/** Salt index for the permutation pattern's port -> queue map: far
 *  outside any realistic port index, so the map's RNG stream never
 *  collides with a port's deriveSeed(master, port) stream. */
constexpr std::uint64_t kPermSalt = 0x7065726dull;  // "perm"

sim::BufferVariant
portVariant(const SwitchConfig &cfg, unsigned p)
{
    if (!cfg.mixedVariants)
        return cfg.variant;
    switch (p % 3) {
      case 0:
        return sim::BufferVariant::Cfds;
      case 1:
        return sim::BufferVariant::Rads;
      default:
        return sim::BufferVariant::CfdsRenaming;
    }
}

} // namespace

void
validatePortSet(const PortSetConfig &cfg, const char *layer,
                const char *victim, const char *fraction)
{
    fatal_if(cfg.ports == 0, layer, " needs at least one port");
    fatal_if(cfg.load <= 0.0, layer, " load must be positive");
    // The CLIs reject such a load outright; a library caller gets the
    // same clean error instead of a silent clamp that the aggregate
    // row would then misreport.
    fatal_if(cfg.load > PortSetConfig::kMaxLoad, layer, " load ",
             cfg.load, " exceeds the per-port cap ",
             PortSetConfig::kMaxLoad);
    fatal_if(cfg.pattern == TrafficPattern::Incast &&
                 cfg.incastVictim >= cfg.ports,
             victim, cfg.incastVictim, " out of range (",
             cfg.ports, " ports)");
    // A fraction at (or beyond) either extreme starves one side of
    // the split outright -- the starved ports would then fail the
    // "delivered no cells" invariant with a misleading diagnosis, so
    // reject the impossible knob up front.
    fatal_if((cfg.pattern == TrafficPattern::Hotspot ||
              cfg.pattern == TrafficPattern::Incast) &&
                 (cfg.hotFraction <= 0.0 || cfg.hotFraction >= 1.0),
             fraction, cfg.hotFraction,
             " outside (0, 1) starves one side of the ",
             sw::toString(cfg.pattern), " split");
}

unsigned
resolvedHotCount(const PortSetConfig &cfg)
{
    const unsigned hot =
        cfg.hotCount ? cfg.hotCount : std::max(1u, cfg.ports / 4);
    return std::min(hot, cfg.ports);
}

sim::Scenario
shapeLeg(const PortSetConfig &cfg, sim::BufferVariant variant,
         unsigned index, unsigned queues, unsigned phys)
{
    sim::Scenario s;
    s.variant = variant;
    s.workload = sim::WorkloadKind::Bernoulli;
    s.queues = queues;
    s.granRads = cfg.granRads;
    if (variant == sim::BufferVariant::Rads) {
        s.gran = cfg.granRads;
        s.groups = 1;
    } else {
        s.gran = cfg.gran;
        s.groups = cfg.groups;
    }
    if (variant == sim::BufferVariant::CfdsRenaming) {
        s.physQueues = phys;
        s.dramCells = 1ull * phys * cfg.granRads;
    }
    s.slots = cfg.slots;
    s.seed = sweep::deriveSeed(cfg.masterSeed, index);
    return s;
}

std::string
SwitchConfig::name() const
{
    std::ostringstream os;
    os << "switch_" << sw::toString(pattern) << "_p" << ports << "_"
       << (mixedVariants ? std::string("mixed")
                         : sim::toString(variant))
       << "_q" << queues << "_B" << granRads << "_b" << gran;
    return os.str();
}

std::string
SwitchConfig::describe() const
{
    std::ostringstream os;
    os << name() << " groups=" << groups << " load=" << load
       << " slots=" << slots << " master_seed=" << masterSeed;
    if (pattern == TrafficPattern::Hotspot) {
        os << " hot_ports=" << resolvedHotCount(*this)
           << " hot_fraction=" << hotFraction;
    }
    if (pattern == TrafficPattern::Incast) {
        os << " victim=" << incastVictim << " burst=" << incastBurst
           << " hot_fraction=" << hotFraction;
    }
    if (!timing.isUniform())
        os << " timing=[" << timing.describe(granRads) << "]";
    return os.str();
}

std::vector<PortPlan>
planPorts(const SwitchConfig &cfg)
{
    validatePortSet(cfg, "switch", "incast victim ",
                    "switch hot fraction ");
    fatal_if(cfg.queues == 0, "switch needs at least one queue");

    const double total = cfg.ports * cfg.load;
    const unsigned hot = resolvedHotCount(cfg);

    // The permutation pattern's fixed port -> queue map: a seeded
    // Fisher-Yates permutation of the queue ids, drawn once for the
    // whole switch so the map -- like everything else -- is a pure
    // function of the master seed.
    std::vector<unsigned> perm(cfg.queues);
    std::iota(perm.begin(), perm.end(), 0u);
    if (cfg.pattern == TrafficPattern::Permutation) {
        Rng rng(sweep::deriveSeed(cfg.masterSeed, kPermSalt));
        for (unsigned i = cfg.queues - 1; i > 0; --i) {
            const auto j = static_cast<unsigned>(rng.below(i + 1));
            std::swap(perm[i], perm[j]);
        }
    }

    std::vector<PortPlan> plans;
    plans.reserve(cfg.ports);
    for (unsigned p = 0; p < cfg.ports; ++p) {
        PortPlan plan;
        plan.port = p;
        plan.pattern = cfg.pattern;

        const auto variant = portVariant(cfg, p);
        sim::Scenario s = shapeLeg(
            cfg, variant, p,
            variant == sim::BufferVariant::CfdsRenaming
                ? std::max(1u, cfg.queues / 2)
                : cfg.queues,
            cfg.queues);
        // Non-uniform DDR timing requires the banked CFDS
        // organization; RADS and renaming ports keep the uniform
        // model.
        if (s.variant == sim::BufferVariant::Cfds)
            s.timing = cfg.timing;

        double L = cfg.load;
        switch (cfg.pattern) {
          case TrafficPattern::Uniform:
          case TrafficPattern::Permutation:
            break;
          case TrafficPattern::Hotspot:
            // k hot ports absorb hotFraction of the switch's total
            // arrivals; with every port hot the split degenerates to
            // uniform.
            if (hot < cfg.ports) {
                L = p < hot
                        ? total * cfg.hotFraction / hot
                        : total * (1.0 - cfg.hotFraction) /
                              (cfg.ports - hot);
            }
            break;
          case TrafficPattern::Incast: {
            // The victim absorbs the convergent bursts, capped at
            // the bursty concentration bound; the remaining ports
            // stay at no more than half the victim's load, so the
            // victim is unambiguously the hot port.
            const double victim = std::min(
                std::max(cfg.load, total * cfg.hotFraction),
                SwitchConfig::kMaxConcentratedLoad);
            if (p == cfg.incastVictim) {
                L = victim;
                plan.victim = true;
                plan.burstLen = cfg.incastBurst;
                s.workload = sim::WorkloadKind::Bursty;
            } else {
                L = std::min((total - victim) / (cfg.ports - 1),
                             victim / 2.0);
            }
            break;
          }
        }
        s.load = std::min(L, SwitchConfig::kMaxLoad);

        if (cfg.pattern == TrafficPattern::Permutation) {
            // Affinity stripe: half the port's (logical) VOQs,
            // starting at the seeded offset.  Consecutive queue ids
            // span the bank groups (block-cyclic interleaving), so a
            // stripe never concentrates on one group.
            const unsigned lq = s.queues;
            const unsigned stripe = std::max(1u, lq / 2);
            const unsigned offset = perm[p % perm.size()] % lq;
            for (unsigned j = 0; j < stripe; ++j)
                plan.affinity.push_back((offset + j) % lq);
            // Name the workload that actually runs: the stripe is
            // fully determined by (offset, width), so a failure log
            // or --list line reconstructs it exactly.
            s.workloadTag = "subsetrr_o" + std::to_string(offset) +
                            "_w" + std::to_string(stripe);
        }

        plan.scenario = s;
        plans.push_back(std::move(plan));
    }
    return plans;
}

std::unique_ptr<sim::Workload>
makePortWorkload(const PortPlan &plan)
{
    const auto &s = plan.scenario;
    switch (plan.pattern) {
      case TrafficPattern::Uniform:
      case TrafficPattern::Hotspot:
        // Exactly the matrix legs' factory: a 1-port uniform switch
        // replays the matching single-buffer leg bit-for-bit.
        return sim::makeWorkload(s);
      case TrafficPattern::Incast:
        if (plan.victim) {
            return std::make_unique<sim::BurstyOnOff>(
                s.queues, s.seed, plan.burstLen, s.load,
                s.unbiasedRequests);
        }
        return sim::makeWorkload(s);
      case TrafficPattern::Permutation:
        return std::make_unique<sim::SubsetRoundRobin>(
            s.queues, s.seed, plan.affinity,
            /*request_load=*/s.load, /*arrival_load=*/s.load);
    }
    panic("unknown traffic pattern");
}

sim::ScenarioOutcome
runPort(const PortPlan &plan)
{
    return sim::guardLeg(plan.scenario, [&] {
        return sim::Leg(plan.scenario, makePortWorkload(plan)).finish();
    });
}

PortStatAgg
aggregateStat(const std::vector<double> &per_port)
{
    PortStatAgg a;
    if (per_port.empty())
        return a;
    Sampler s;
    for (const double v : per_port) {
        a.sum += v;
        s.sample(v);
    }
    a.min = s.min();
    a.max = s.max();
    a.mean = s.mean();
    // Percentiles via the joint streaming P^2 estimator: exact
    // (linear interpolation at rank p*(n-1)) for up to seven ports,
    // marker approximation beyond -- no bucket width to misjudge and
    // no bucket-upper-bound bias, unlike a fixed-width histogram.
    // One shared sorted marker array serves both
    // targets, so p99 >= p50 holds by construction (two independent
    // P2Quantile instances crossed on adversarial inputs and needed
    // a flooring band-aid here).
    P2QuantileSet pq({0.50, 0.99});
    for (const double v : per_port)
        pq.sample(v);
    a.p50 = pq.quantile(0.50);
    a.p99 = pq.quantile(0.99);
    return a;
}

const PortStatAgg *
PortTotals::agg(const std::string &name) const
{
    for (const auto &[k, v] : aggregates)
        if (k == name)
            return &v;
    return nullptr;
}

namespace
{

/** One aggregated stat: its record name and per-port extractor. */
struct StatDef
{
    const char *name;
    double (*get)(const sim::ScenarioOutcome &);
};

constexpr StatDef kStatDefs[] = {
    {"arrivals",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.run.arrivals);
     }},
    {"granted",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.verified);
     }},
    {"drained",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.drained);
     }},
    {"drops",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.run.drops);
     }},
    {"undelivered",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.undelivered);
     }},
    {"mean_delay_slots",
     [](const sim::ScenarioOutcome &o) { return o.run.meanDelaySlots; }},
    {"max_delay_slots",
     [](const sim::ScenarioOutcome &o) { return o.run.maxDelaySlots; }},
    {"dram_reads",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.dramReads);
     }},
    {"dram_writes",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.dramWrites);
     }},
    {"renames",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.renames);
     }},
    {"head_sram_hw",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.headSramHighWater);
     }},
    {"tail_sram_hw",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.tailSramHighWater);
     }},
    {"rr_hw",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.rrHighWater);
     }},
    {"dsa_stalls",
     [](const sim::ScenarioOutcome &o) {
         return static_cast<double>(o.report.dsaStalls);
     }},
};

SwitchReport
aggregateReport(const std::vector<PortPlan> &plans,
                const std::vector<sim::ScenarioOutcome> &ports)
{
    SwitchReport r;
    static_cast<PortTotals &>(r) = totalPorts(ports);
    for (std::size_t i = 0; i < ports.size(); ++i) {
        const auto &o = ports[i];
        // Namespaced per-port stats: "port<i>.<stat>".
        const std::string pre =
            "port" + std::to_string(plans[i].port) + ".";
        r.stats.counter(pre + "arrivals").inc(o.run.arrivals);
        r.stats.counter(pre + "granted").inc(o.verified);
        r.stats.counter(pre + "drained").inc(o.drained);
        r.stats.counter(pre + "drops").inc(o.run.drops);
        r.stats.counter(pre + "dram_reads").inc(o.report.dramReads);
        r.stats.counter(pre + "dram_writes").inc(o.report.dramWrites);
        r.stats.counter(pre + "renames").inc(o.report.renames);
        r.stats.counter(pre + "dsa_stalls").inc(o.report.dsaStalls);
        r.stats.highWater(pre + "head_sram")
            .observe(o.report.headSramHighWater);
        r.stats.highWater(pre + "tail_sram")
            .observe(o.report.tailSramHighWater);
        r.stats.highWater(pre + "rr").observe(o.report.rrHighWater);
    }
    for (const auto &def : kStatDefs) {
        auto &sampler =
            r.stats.sampler(std::string("across_ports.") + def.name);
        for (const auto &o : ports)
            sampler.sample(def.get(o));
    }
    return r;
}

} // namespace

PortTotals
totalPorts(const std::vector<sim::ScenarioOutcome> &outcomes)
{
    PortTotals t;
    t.ports = static_cast<unsigned>(outcomes.size());
    for (const auto &o : outcomes) {
        if (!o.passed)
            ++t.failed;
        t.arrivals += o.run.arrivals;
        t.granted += o.verified;
        t.drained += o.drained;
        t.drops += o.run.drops;
        t.undelivered += o.undelivered;
        t.dramReads += o.report.dramReads;
        t.dramWrites += o.report.dramWrites;
        t.renames += o.report.renames;
        t.dsaStalls += o.report.dsaStalls;
    }
    for (const auto &def : kStatDefs) {
        std::vector<double> values;
        values.reserve(outcomes.size());
        for (const auto &o : outcomes)
            values.push_back(def.get(o));
        t.aggregates.emplace_back(def.name, aggregateStat(values));
    }
    return t;
}

std::string
joinFailures(const std::vector<sim::ScenarioOutcome> &outcomes,
             const std::vector<unsigned> &ids, const char *noun,
             const std::string &lead)
{
    std::string joined = lead;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].passed)
            continue;
        if (!joined.empty())
            joined += " | ";
        joined += noun + std::to_string(ids[i]) + ": " +
                  outcomes[i].failure;
    }
    return joined;
}

SwitchOutcome
runPlans(const std::vector<PortPlan> &plans, unsigned jobs)
{
    SwitchOutcome out;
    out.plans = plans;
    out.ports.resize(plans.size());

    // One sweep task per port.  Each task writes only its own slot
    // of out.ports, and runSweep joins its workers before
    // returning, so the writes are race-free and ordered-by-port by
    // construction.
    std::vector<sweep::Task> tasks;
    tasks.reserve(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
        tasks.push_back(sweep::Task{
            "port" + std::to_string(plans[i].port) + "/" +
                plans[i].scenario.name(),
            [&out, &plans, i](const sweep::SweepContext &) {
                out.ports[i] = runPort(plans[i]);
                sweep::TaskResult r;
                r.ok = out.ports[i].passed;
                if (!r.ok)
                    r.error = out.ports[i].failure;
                return r;
            },
        });
    }
    sweep::SweepOptions so;
    so.jobs = jobs;
    sweep::runSweep(tasks, so);

    out.report = aggregateReport(plans, out.ports);
    out.passed = out.report.failed == 0;
    out.failure =
        joinFailures(out.ports, planIds(plans, &PortPlan::port), "port");
    return out;
}

SwitchOutcome
runSwitch(const SwitchConfig &cfg, unsigned jobs)
{
    return runPlans(planPorts(cfg), jobs);
}

sweep::Record
portRecord(const PortPlan &plan, const sim::ScenarioOutcome &out)
{
    auto rec = sweep::scenarioRecord(plan.scenario, out);
    rec.set("port", plan.port)
        .set("pattern", sw::toString(plan.pattern));
    if (plan.pattern == TrafficPattern::Permutation) {
        std::string aff;
        for (const auto q : plan.affinity)
            aff += (aff.empty() ? "q" : "+q") + std::to_string(q);
        // Overwrite in place: Record::set keeps the field position,
        // so the emission order stays that of scenarioRecord.
        rec.set("workload", "subset-rr").set("affinity", aff);
    }
    if (plan.victim)
        rec.set("victim", true).set("burst_len", plan.burstLen);
    return rec;
}

void
setRunTotals(sweep::Record &rec, const PortSetConfig &cfg, bool passed,
             const char *failed_key, const PortTotals &t)
{
    rec.set("B", cfg.granRads)
        .set("b", cfg.gran)
        .set("groups", cfg.groups)
        .set("load", cfg.load)
        .set("slots", cfg.slots)
        .set("master_seed", cfg.masterSeed)
        .set("passed", passed)
        .set(failed_key, t.failed)
        .set("arrivals", t.arrivals)
        .set("granted", t.granted)
        .set("drained", t.drained)
        .set("drops", t.drops)
        .set("undelivered", t.undelivered)
        .set("dram_reads", t.dramReads)
        .set("dram_writes", t.dramWrites)
        .set("renames", t.renames);
}

void
setSpread(sweep::Record &rec, const PortTotals &totals,
          std::initializer_list<const char *> names)
{
    for (const char *name : names) {
        const PortStatAgg *a = totals.agg(name);
        panic_if(!a, "port totals: missing aggregate for ", name);
        const std::string n = name;
        rec.set(n + "_min", a->min)
            .set(n + "_max", a->max)
            .set(n + "_mean", a->mean)
            .set(n + "_p50", a->p50)
            .set(n + "_p99", a->p99);
    }
}

sweep::Record
switchRecord(const SwitchConfig &cfg, const SwitchOutcome &out)
{
    const auto &r = out.report;
    sweep::Record rec;
    rec.set("name", cfg.name())
        .set("pattern", sw::toString(cfg.pattern))
        .set("ports", cfg.ports)
        .set("variant", cfg.mixedVariants
                            ? std::string("mixed")
                            : sim::toString(cfg.variant))
        .set("queues", cfg.queues);
    setRunTotals(rec, cfg, out.passed, "failed_ports", r);
    rec.set("dsa_stalls", r.dsaStalls);
    // Full across-port spread for the headline stats.
    setSpread(rec, r,
              {"granted", "drops", "mean_delay_slots", "max_delay_slots",
               "head_sram_hw", "rr_hw", "dsa_stalls"});
    return rec;
}

void
emitPortArtifacts(const std::vector<sim::ScenarioOutcome> &outcomes,
                  const std::vector<unsigned> &ids, const char *noun,
                  const std::vector<sweep::Record> &rows,
                  const sweep::Record &aggregate, bool passed,
                  const std::string &failure,
                  const sweep::EmitMeta &meta,
                  const std::string &json_path,
                  const std::string &csv_path)
{
    if (json_path.empty() && csv_path.empty())
        return;
    // Reconstruct the (tasks, report) pair the sweep emitters
    // expect; the task callables are never run -- only the names
    // label the rows.
    std::vector<sweep::Task> tasks;
    sweep::SweepReport rep;
    const auto add = [&](std::string label, const sweep::Record &row,
                         bool ok, const std::string &error) {
        tasks.push_back(sweep::Task{std::move(label), {}});
        sweep::TaskResult tr;
        tr.records.push_back(row);
        tr.ok = ok;
        // Keep the schema invariant: "failed" counts exactly the
        // rows that carry ok=false, the aggregate row included.
        if (!ok) {
            tr.error = error;
            ++rep.failed;
        }
        rep.results.push_back(std::move(tr));
    };
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        add(noun + std::to_string(ids[i]), rows[i], outcomes[i].passed,
            outcomes[i].failure);
    }
    add("aggregate", aggregate, passed, failure);
    sweep::emitArtifacts(rep, tasks, meta, json_path, csv_path);
}

void
emitSwitchArtifacts(const SwitchConfig &cfg, const SwitchOutcome &out,
                    const std::string &tool, sweep::Record extra_meta,
                    const std::string &json_path,
                    const std::string &csv_path)
{
    std::vector<sweep::Record> rows;
    for (std::size_t i = 0; i < out.plans.size(); ++i)
        rows.push_back(portRecord(out.plans[i], out.ports[i]));
    extra_meta.set("switch", cfg.name())
        .set("pattern", sw::toString(cfg.pattern))
        .set("ports", cfg.ports)
        .set("master_seed", cfg.masterSeed);
    emitPortArtifacts(out.ports, planIds(out.plans, &PortPlan::port),
                      "port", rows, switchRecord(cfg, out), out.passed,
                      out.failure,
                      sweep::EmitMeta{tool, std::move(extra_meta)},
                      json_path, csv_path);
}

} // namespace pktbuf::sw
