/**
 * @file
 * Switch-scale simulation: N independent hybrid SRAM/DRAM packet
 * buffers ("ports", one per line card) driven by a cross-port
 * traffic pattern and aggregated into one switch-level report.
 *
 * Each port is a full scenario leg: its own HybridBuffer (mixed
 * RADS / CFDS / CFDS+renaming and per-port DDR timing allowed), its
 * own workload, its own RNG seeded with deriveSeed(masterSeed, port)
 * -- so no port's stream depends on any other port, on the port
 * count, or on the execution schedule.  Ports are driven
 * slot-lockstep: every port advances the same logical slot clock
 * over the same `slots` budget, and because ports share no mutable
 * state, executing them concurrently on the sweep engine's thread
 * pool (runSweep, PR-2) is *exactly* equivalent to interleaving them
 * slot by slot.  Results aggregate in port order, so stdout and the
 * JSON/CSV artifacts are byte-identical for any --jobs value.
 *
 * The load-bearing invariant: a 1-port switch under the uniform
 * pattern builds the very Scenario a single-buffer matrix leg would
 * build and runs it through the same sim::Leg driver, so
 * its per-port outcome reproduces that leg bit-for-bit.  The switch
 * layer adds traffic *shape*, never a second simulation code path.
 */

#ifndef PKTBUF_SWITCH_SWITCH_SIM_HH
#define PKTBUF_SWITCH_SWITCH_SIM_HH

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "sim/scenario.hh"
#include "sweep/emit.hh"
#include "sweep/record.hh"
#include "switch/traffic.hh"

namespace pktbuf::sw
{

/**
 * The knobs every multi-port layer shares: `ports` hybrid buffers,
 * each a scenario leg seeded with deriveSeed(masterSeed, port), under
 * one cross-port traffic pattern.  The switch (independent ports) and
 * the crossbar (ports coupled by a matching, crossbar/) derive their
 * configurations from it and differ only in how ports are coupled.
 */
struct PortSetConfig
{
    /** Number of ports (buffer instances). */
    unsigned ports = 4;

    TrafficPattern pattern = TrafficPattern::Uniform;

    /** Buffer architecture of every port. */
    sim::BufferVariant variant = sim::BufferVariant::Cfds;
    unsigned granRads = 8;  //!< B
    unsigned gran = 2;      //!< b (forced to B on RADS ports)
    unsigned groups = 4;    //!< G (forced to 1 on RADS ports)

    /** Mean offered load per port, in (0, kMaxLoad]. */
    double load = 0.45;

    std::uint64_t slots = 20000;

    /** Every port's seed is deriveSeed(masterSeed, port). */
    std::uint64_t masterSeed = 1;

    /** Hotspot: hot port (switch) or hot output (crossbar) count;
     *  0 = max(1, ports/4). */
    unsigned hotCount = 0;
    /** Hotspot/incast: fraction of total arrivals on the hot side. */
    double hotFraction = 0.5;

    /** Incast: the victim index (must be < ports). */
    unsigned incastVictim = 0;
    /** Incast: mean burst length toward the victim. */
    std::uint64_t incastBurst = 64;

    /** Hard cap on any port's offered load. */
    static constexpr double kMaxLoad = 0.9;

    /**
     * Hard cap on a load concentrated on one VOQ (a bursty incast
     * victim, a permutation input).  Its bank group sustains only 1
     * access per b slots shared between reads and writes --
     * concentrated loads above ~0.5 violate the Eq. (1) RR sizing
     * assumptions (DESIGN.md's concentration argument; the renaming
     * property tests run their bursts at the same 0.45 for the same
     * reason).
     */
    static constexpr double kMaxConcentratedLoad = 0.45;
};

/**
 * fatal() on knobs no port set can run: zero ports, a load outside
 * (0, kMaxLoad], an incast victim out of range, or a hotspot/incast
 * fraction outside (0, 1) (it would starve one side of the split).
 * `layer`, `victim` and `fraction` open the respective messages.
 */
void validatePortSet(const PortSetConfig &cfg, const char *layer,
                     const char *victim, const char *fraction);

/** The hotspot's hot count: hotCount, or max(1, ports/4) when 0,
 *  never more than ports. */
unsigned resolvedHotCount(const PortSetConfig &cfg);

/**
 * The scenario leg of port `index`: `variant` over `queues` logical
 * queues with the set's B, b and G (RADS forces b = B and G = 1),
 * Bernoulli workload, slot budget and seed deriveSeed(masterSeed,
 * index).  A renaming leg gets `phys` physical queues and a DRAM of
 * phys * B cells, tight enough that renaming chains actually form.
 * Load, workload tag and timing are the caller's.
 */
sim::Scenario shapeLeg(const PortSetConfig &cfg,
                       sim::BufferVariant variant, unsigned index,
                       unsigned queues, unsigned phys);

/** Static configuration of a whole switch run. */
struct SwitchConfig : PortSetConfig
{
    /** Port p cycles CFDS / RADS / CFDS+renaming instead of
     *  `variant`. */
    bool mixedVariants = false;

    /** VOQs per port (a renaming port keeps these as physical
     *  queues and runs half as many logical ones). */
    unsigned queues = 8;

    /**
     * DDR timing applied to CFDS ports (non-uniform timing requires
     * the banked organization; RADS and renaming ports keep the
     * uniform model).  Remember timed-DRAM configs steal launch
     * opportunities: pick `load` the line can still sustain.
     */
    dram::TimingConfig timing;

    /** Unique, file/test-name-safe identifier of the run. */
    std::string name() const;
    /** name() plus loads, slots and the master seed (replayable). */
    std::string describe() const;
};

/**
 * Fully resolved plan of one port: the scenario leg it runs (buffer
 * config, resolved load, derived seed, slot budget) plus the
 * cross-port traffic role the pattern assigned to it.  A plan is
 * self-contained -- runPort(plan) rebuilds the port bit-for-bit with
 * no access to the SwitchConfig or to any other port.
 */
struct PortPlan
{
    unsigned port = 0;
    TrafficPattern pattern = TrafficPattern::Uniform;

    /** The leg: variant, queues, granularity, load, seed, slots. */
    sim::Scenario scenario;

    /** Incast: this port is the burst-convergence victim. */
    bool victim = false;
    /** Incast victim's mean burst length. */
    std::uint64_t burstLen = 64;

    /** Permutation: the VOQ affinity stripe arrivals cycle over
     *  (empty for every other pattern). */
    std::vector<QueueId> affinity;
};

/**
 * Resolve a switch configuration into one plan per port: derive the
 * per-port seed, redistribute the aggregate load (ports * load)
 * according to the pattern -- hot ports above `load`, cold ports
 * below, each clamped to kMaxLoad -- assign variants (fixed or
 * cycled) and, for the permutation pattern, build the seeded port ->
 * queue-stripe map.
 *
 * @param cfg the switch configuration; fatal() on impossible knobs
 *            (validatePortSet(), zero queues)
 * @return plans in port order
 */
std::vector<PortPlan> planPorts(const SwitchConfig &cfg);

/**
 * Instantiate the workload a plan calls for.  Uniform/hotspot ports
 * and incast non-victims delegate to sim::makeWorkload (identical
 * streams to the matrix legs); incast victims run BurstyOnOff with
 * the plan's burst length; permutation ports run SubsetRoundRobin
 * over their affinity stripe.
 */
std::unique_ptr<sim::Workload> makePortWorkload(const PortPlan &plan);

/**
 * Run one port end to end (golden checker on, full drain) through
 * the same sim::Leg driver the matrix legs use.  Never
 * throws; failures carry the scenario description and seed.
 */
sim::ScenarioOutcome runPort(const PortPlan &plan);

/** sum / min / max / mean / p50 / p99 of one stat across ports. */
struct PortStatAgg
{
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;  //!< via P2QuantileSet({0.5, 0.99})
    double p99 = 0.0;  //!< same estimator; >= p50 by construction
};

/**
 * Aggregate one per-port stat vector.  Percentiles come from one
 * joint streaming P^2 estimator (P2QuantileSet, common/stats.hh):
 * exact linear interpolation at rank p*(n-1) for up to seven ports,
 * the shared 7-marker approximation beyond, always within
 * [min, max] and with p99 >= p50 guaranteed by the shared sorted
 * marker array.  Deterministic for a given input order, O(1) memory
 * in the port count.
 */
PortStatAgg aggregateStat(const std::vector<double> &per_port);

/**
 * Sums, failure count and per-stat spread of a port set's outcomes:
 * what the switch and crossbar reports have in common.
 */
struct PortTotals
{
    unsigned ports = 0;
    /** Ports whose outcome did not pass. */
    std::size_t failed = 0;

    /** Straight sums over ports. */
    std::uint64_t arrivals = 0;
    std::uint64_t granted = 0;  //!< golden-verified grants
    std::uint64_t drained = 0;
    std::uint64_t drops = 0;
    std::uint64_t undelivered = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t renames = 0;
    std::uint64_t dsaStalls = 0;

    /**
     * Per-stat aggregates across ports, in a fixed canonical order
     * (the JSON emission order).  Keys are the scenarioRecord field
     * names ("granted", "drops", "mean_delay_slots", ...).
     */
    std::vector<std::pair<std::string, PortStatAgg>> aggregates;

    /** The named aggregate, or nullptr when absent. */
    const PortStatAgg *agg(const std::string &name) const;
};

/** Total a port set's outcomes (in the given, port, order). */
PortTotals totalPorts(const std::vector<sim::ScenarioOutcome> &outcomes);

/** Each plan's port index, read through `id` (PortPlan::port,
 *  xbar::InputPlan::input), in plan order. */
template <class Plan>
std::vector<unsigned>
planIds(const std::vector<Plan> &plans, unsigned Plan::*id)
{
    std::vector<unsigned> ids;
    ids.reserve(plans.size());
    for (const auto &plan : plans)
        ids.push_back(plan.*id);
    return ids;
}

/** Switch-level aggregation of the per-port reports. */
struct SwitchReport : PortTotals
{
    /**
     * Every port's counters and high-water marks, namespaced
     * "port<i>.<stat>" ("port3.granted", "port0.head_sram.max"),
     * plus "across_ports.<stat>" samplers -- dump()able like any
     * component registry.
     */
    StatRegistry stats;
};

/** Outcome of a whole switch run. */
struct SwitchOutcome
{
    /** The plans that ran, in port order. */
    std::vector<PortPlan> plans;
    /** Per-port outcomes, in port order. */
    std::vector<sim::ScenarioOutcome> ports;
    SwitchReport report;
    bool passed = false;
    /** Every failed port's diagnosis (each names its seed). */
    std::string failure;
};

/**
 * Run a list of port plans: shard the ports onto the sweep engine's
 * thread pool (`jobs` workers; 1 = inline, 0 = hardware concurrency)
 * and aggregate the outcomes in port order.  Because every plan is
 * self-contained, the result -- including every byte of the derived
 * artifacts -- is independent of `jobs` and of the plans' positions
 * in the list.
 */
SwitchOutcome runPlans(const std::vector<PortPlan> &plans,
                       unsigned jobs);

/** Plan and run a whole switch (golden-checked, drained): the
 *  counterpart of xbar::runCrossbar.  fatal() on impossible knobs,
 *  like planPorts(). */
SwitchOutcome runSwitch(const SwitchConfig &cfg, unsigned jobs = 1);

/**
 * One result row per port: the scenario record of the port's leg
 * plus the port index, pattern and (for permutation) the affinity
 * stripe.  Field order is stable; the 1-port equivalence tests
 * byte-compare the scenario-record prefix against the matching
 * single-buffer leg.
 */
sweep::Record portRecord(const PortPlan &plan,
                         const sim::ScenarioOutcome &out);

/** The aggregate row: switch configuration echo, sums, and
 *  min/max/mean/p50/p99 for the headline stats. */
sweep::Record switchRecord(const SwitchConfig &cfg,
                           const SwitchOutcome &out);

/**
 * The aggregate-row fields both layers share, in emission order: the
 * leg knobs (B, b, groups, load, slots, master_seed), "passed", the
 * failed-port count under `failed_key`, and the sums "arrivals"
 * through "renames".
 */
void setRunTotals(sweep::Record &rec, const PortSetConfig &cfg,
                  bool passed, const char *failed_key,
                  const PortTotals &totals);

/**
 * Set "<stat>_min/_max/_mean/_p50/_p99" on `rec` for each named
 * aggregate of `totals`, in the order given.
 */
void setSpread(sweep::Record &rec, const PortTotals &totals,
               std::initializer_list<const char *> names);

/**
 * "<noun><id>: <failure>" for every failed outcome, joined by " | "
 * after `lead` (a non-empty lead is separated by " | " too).
 */
std::string joinFailures(const std::vector<sim::ScenarioOutcome> &outcomes,
                         const std::vector<unsigned> &ids,
                         const char *noun, const std::string &lead = "");

/**
 * Emit the sweep-schema JSON/CSV artifacts of a finished port-set
 * run: rows[i] as task "<noun><ids[i]>" with outcomes[i]'s status,
 * then one final "aggregate" row with the run's.  "failed" counts
 * exactly the rows that carry ok=false, the aggregate row included.
 * Paths: empty = skip, "-" = stdout.
 */
void emitPortArtifacts(const std::vector<sim::ScenarioOutcome> &outcomes,
                       const std::vector<unsigned> &ids,
                       const char *noun,
                       const std::vector<sweep::Record> &rows,
                       const sweep::Record &aggregate, bool passed,
                       const std::string &failure,
                       const sweep::EmitMeta &meta,
                       const std::string &json_path,
                       const std::string &csv_path);

/**
 * The switch's artifacts: one row per port (in port order) plus the
 * aggregate row.  Purely a function of the outcome, hence
 * byte-identical for any --jobs value.
 */
void emitSwitchArtifacts(const SwitchConfig &cfg,
                         const SwitchOutcome &out,
                         const std::string &tool,
                         sweep::Record extra_meta,
                         const std::string &json_path,
                         const std::string &csv_path);

} // namespace pktbuf::sw

#endif // PKTBUF_SWITCH_SWITCH_SIM_HH
