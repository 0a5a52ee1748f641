/**
 * @file
 * CLI front end of the input-queued crossbar simulator: N input
 * ports, each one VOQ per output backed by a full hybrid SRAM/DRAM
 * buffer, coupled per slot by a matching scheduler (iSLIP, QPS or
 * random-maximal), every input golden-checked and drained.
 *
 *   crossbar_sim [--ports N] [--pattern NAME] [--scheduler NAME]
 *                [--iters N] [--window N] [--variant NAME]
 *                [--load F] [--slots N] [--seed N]
 *                [--hot-outputs K] [--hot-fraction F] [--burst N]
 *                [--victim P] [--smoke]
 *                [--list] [--json PATH] [--csv PATH]
 *
 * The fabric is lockstep by construction (the matching couples all
 * inputs each slot), so there is no --jobs knob: one run, one
 * deterministic byte stream.  A --ports 1 run reproduces the
 * matching single-buffer scenario leg bit-for-bit regardless of the
 * scheduler (any maximal matching is work-conserving at N == 1).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "crossbar/crossbar_sim.hh"
#include "sweep/record.hh"

using namespace pktbuf;
using namespace pktbuf::xbar;

namespace
{

/** Largest accepted radix: N^2 VOQ buffers is the memory limit. */
constexpr unsigned kMaxPorts = 256;

void
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [--ports N] [--pattern NAME] [--scheduler NAME]\n"
        "          [--iters N] [--window N] [--variant NAME]\n"
        "          [--load F] [--slots N] [--seed N]\n"
        "          [--hot-outputs K] [--hot-fraction F] [--burst N]\n"
        "          [--victim P] [--smoke]\n"
        "          [--list] [--json PATH] [--csv PATH]\n"
        "  --ports      crossbar radix, 1..256 (default 4)\n"
        "  --pattern    uniform | hotspot | incast | permutation\n"
        "  --scheduler  islip | qps | random\n"
        "  --iters      iSLIP rounds per slot (default 4)\n"
        "  --window     QPS hold window in slots (default 8)\n"
        "  --variant    rads | cfds | renaming\n"
        "  --load       mean offered load per input, at most 0.9\n"
        "               (default 0.45)\n"
        "  --slots      driven slots (default 20000)\n"
        "  --seed       master seed; input i uses splitmix(seed, i)\n"
        "  --hot-outputs / --hot-fraction   hotspot shape\n"
        "  --victim / --burst               incast shape\n"
        "  --smoke      reduced slots for CI\n"
        "  --list       print the resolved input plans, don't run\n"
        "  --json/--csv  write result records ('-' = stdout)\n",
        prog);
}

bool
parseVariant(const std::string &tok, CrossbarConfig &cfg)
{
    if (tok == "rads") {
        cfg.variant = sim::BufferVariant::Rads;
    } else if (tok == "cfds") {
        cfg.variant = sim::BufferVariant::Cfds;
    } else if (tok == "renaming") {
        cfg.variant = sim::BufferVariant::CfdsRenaming;
    } else {
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    CrossbarConfig cfg;
    bool smoke = false;
    bool list = false;
    std::string json_path;
    std::string csv_path;
    bool have_slots = false;

    for (int i = 1; i < argc; ++i) {
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--ports")) {
            cfg.ports = cli::parseUint("--ports", next(), 1, kMaxPorts);
        } else if (!std::strcmp(argv[i], "--pattern")) {
            if (!sw::parseTrafficPattern(next(), cfg.pattern)) {
                usage(argv[0]);
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--scheduler")) {
            if (!parseSchedulerKind(next(), cfg.scheduler)) {
                usage(argv[0]);
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--iters")) {
            cfg.islipIterations =
                cli::parseUint("--iters", next(), 1, kMaxPorts);
        } else if (!std::strcmp(argv[i], "--window")) {
            cfg.qpsWindow = cli::parseUint("--window", next(), 1);
        } else if (!std::strcmp(argv[i], "--variant")) {
            if (!parseVariant(next(), cfg)) {
                usage(argv[0]);
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--load")) {
            cfg.load = cli::parseDouble("--load", next(), 0.0,
                                        CrossbarConfig::kMaxLoad);
        } else if (!std::strcmp(argv[i], "--slots")) {
            cfg.slots = cli::parseUnsigned("--slots", next(), 1,
                                           UINT64_MAX);
            have_slots = true;
        } else if (!std::strcmp(argv[i], "--seed")) {
            cfg.masterSeed = cli::parseUnsigned("--seed", next(), 0,
                                                UINT64_MAX);
        } else if (!std::strcmp(argv[i], "--hot-outputs")) {
            cfg.hotCount =
                cli::parseUint("--hot-outputs", next(), 0, kMaxPorts);
        } else if (!std::strcmp(argv[i], "--hot-fraction")) {
            cfg.hotFraction =
                cli::parseDouble("--hot-fraction", next(), 0.0, 1.0);
        } else if (!std::strcmp(argv[i], "--victim")) {
            cfg.incastVictim =
                cli::parseUint("--victim", next(), 0, kMaxPorts - 1);
        } else if (!std::strcmp(argv[i], "--burst")) {
            cfg.incastBurst = cli::parseUnsigned("--burst", next(), 1,
                                                 UINT64_MAX);
        } else if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--list")) {
            list = true;
        } else if (!std::strcmp(argv[i], "--json")) {
            json_path = next();
        } else if (!std::strcmp(argv[i], "--csv")) {
            csv_path = next();
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (smoke && !have_slots)
        cfg.slots = 4000;

    // An impossible knob combination (zero ports, starving hot
    // fraction, victim out of range) is a user error, not a crash.
    std::vector<InputPlan> plans;
    try {
        plans = planCrossbar(cfg);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }

    if (list) {
        std::printf("%s\n", cfg.describe().c_str());
        for (const auto &p : plans) {
            std::printf("  input%-3u %s\n", p.input,
                        p.scenario.describe().c_str());
        }
        return 0;
    }

    std::printf("Input-queued crossbar: %u x %u, %s pattern, %s"
                " scheduler, all inputs\ngolden-checked.\n%s\n\n",
                cfg.ports, cfg.ports,
                sw::toString(cfg.pattern).c_str(),
                toString(cfg.scheduler).c_str(),
                cfg.describe().c_str());
    std::printf("%-6s %-36s %10s %10s %10s %8s  %s\n", "input",
                "leg", "arrivals", "granted", "drained", "drops",
                "status");

    const auto out = runCrossbar(cfg);
    for (std::size_t i = 0; i < out.inputs.size(); ++i) {
        const auto &plan = out.plans[i];
        const auto &in = out.inputs[i];
        std::printf("%-6u %-36s %10llu %10llu %10llu %8llu  %s\n",
                    plan.input, plan.scenario.name().c_str(),
                    static_cast<unsigned long long>(in.run.arrivals),
                    static_cast<unsigned long long>(in.verified),
                    static_cast<unsigned long long>(in.drained),
                    static_cast<unsigned long long>(in.run.drops),
                    in.passed ? "ok" : "FAIL");
        if (!in.passed)
            std::printf("      %s\n", in.failure.c_str());
    }

    const auto &rep = out.report;
    std::printf("\naggregate: arrivals=%llu matched=%llu"
                " drained=%llu drops=%llu undelivered=%llu\n"
                "fabric: throughput=%.4f mean_match_size=%.3f"
                " mean_iterations=%.3f active_slots=%llu\n",
                static_cast<unsigned long long>(rep.arrivals),
                static_cast<unsigned long long>(rep.matchEdges),
                static_cast<unsigned long long>(rep.drained),
                static_cast<unsigned long long>(rep.drops),
                static_cast<unsigned long long>(rep.undelivered),
                rep.throughput, rep.meanMatchSize,
                rep.meanIterations,
                static_cast<unsigned long long>(rep.activeSlots));
    for (const char *name : {"granted", "mean_delay_slots"}) {
        const auto *a = rep.agg(name);
        std::printf("%-18s across inputs: min=%.2f p50=%.2f"
                    " p99=%.2f max=%.2f\n",
                    name, a->min, a->p50, a->p99, a->max);
    }
    std::printf("%u inputs, %zu failed%s\n", rep.ports,
                rep.failed, smoke ? " (smoke run)" : "");

    sweep::Record extra;
    extra.set("smoke", smoke);
    emitCrossbarArtifacts(cfg, out, "crossbar_sim", extra, json_path,
                          csv_path);
    return out.passed ? 0 : 1;
}
