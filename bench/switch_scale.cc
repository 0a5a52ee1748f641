/**
 * @file
 * Switch scaling sweep: every cross-port traffic pattern at 1, 4, 16
 * and 64 ports, all ports golden-checked and drained.  One task per
 * (pattern, ports) configuration; within a task the ports run
 * sequentially, and --jobs shards the configurations -- so the
 * committed baseline is byte-identical for any --jobs value.
 *
 * What the scaling should show (docs/REPRODUCTION.md): aggregate
 * grants grow linearly with the port count (ports are independent
 * line cards -- the architecture scales out), while the *per-port*
 * spread (granted_min/max, delay p99) widens only for the skewed
 * patterns: hotspot pins its hot ports at the clamped maximum load,
 * incast pins the victim, uniform and permutation stay tight.
 *
 * The committed baseline bench/baselines/BENCH_switch.json is the
 * full sweep's --json output (master seed 1).
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "switch/switch_sim.hh"

using namespace pktbuf;
using namespace pktbuf::sw;

namespace
{

sweep::TaskResult
runConfig(const SwitchConfig &cfg)
{
    // Ports run inside this task (jobs=1): the bench's own --jobs
    // already shards the configurations across the pool, and nested
    // pools would oversubscribe without changing any output byte.
    const auto out = runSwitch(cfg, /*jobs=*/1);
    sweep::TaskResult res;
    const auto *granted = out.report.agg("granted");
    const auto *delay = out.report.agg("mean_delay_slots");
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "%-36s %9llu %9llu %8llu %10.1f %10.1f %8.1f  %s\n",
        cfg.name().c_str(),
        static_cast<unsigned long long>(out.report.arrivals),
        static_cast<unsigned long long>(out.report.granted),
        static_cast<unsigned long long>(out.report.drops),
        granted->min, granted->max, delay->p99,
        out.passed ? "ok" : "FAIL");
    res.text = line;
    if (!out.passed)
        res.text += "  " + out.failure + "\n";
    res.records.push_back(switchRecord(cfg, out));
    res.ok = out.passed;
    if (!out.passed)
        res.error = out.failure;
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = pktbuf::bench::parseArgs(argc, argv);

    const unsigned port_counts[] = {1, 4, 16, 64};
    const TrafficPattern patterns[] = {
        TrafficPattern::Uniform,
        TrafficPattern::Hotspot,
        TrafficPattern::Incast,
        TrafficPattern::Permutation,
    };

    std::vector<SwitchConfig> cfgs;
    for (const auto pattern : patterns) {
        for (const auto ports : port_counts) {
            SwitchConfig cfg;
            cfg.ports = ports;
            cfg.pattern = pattern;
            cfg.slots = pktbuf::bench::scaledSlots(20000, opt.smoke);
            cfg.masterSeed = 1;
            cfgs.push_back(cfg);
        }
    }

    std::printf("Switch scaling sweep: ports x {uniform, hotspot,"
                " incast, permutation},\nall ports golden-checked"
                " and drained.\n\n");
    std::printf("%-36s %9s %9s %8s %10s %10s %8s  %s\n", "switch",
                "arrivals", "granted", "drops", "gmin", "gmax",
                "d_p99", "status");

    std::vector<sweep::Task> tasks;
    tasks.reserve(cfgs.size());
    for (const auto &cfg : cfgs) {
        tasks.push_back(sweep::Task{
            cfg.name(),
            [cfg](const sweep::SweepContext &) {
                return runConfig(cfg);
            },
        });
    }
    const auto rep = pktbuf::bench::runAndPrint(tasks, opt);
    std::printf("\nReading: aggregate grants scale linearly with the"
                " port count (independent\nline cards); the per-port"
                " spread (gmin..gmax) widens only for hotspot and\n"
                "incast, whose hot ports run at the clamped maximum"
                " load while the rest idle\nalong at the cold"
                " share.\n");
    sweep::Record meta;
    meta.set("configs", cfgs.size());
    return pktbuf::bench::finish("switch_scale", rep, tasks, opt,
                                 std::move(meta));
}
