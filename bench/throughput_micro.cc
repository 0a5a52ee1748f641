/**
 * @file
 * Whole-buffer simulation throughput (slots per second) for
 * representative RADS and CFDS configurations, with and without the
 * golden checker, plus idle-heavy configurations where the
 * quiescent-slot skip dominates -- the repo's perf baseline harness.
 *
 * Formerly a Google-Benchmark binary; now a plain harness on the
 * sweep engine so it always builds, shares the uniform
 * --smoke/--jobs/--json flags, and emits the BENCH_throughput.json
 * baseline that hot-path optimizations are judged against.
 *
 * Timing note: wall-clock numbers only make sense with --jobs 1 (the
 * default here); sharding timing runs across threads measures
 * contention, not the simulator.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "buffer/hybrid_buffer.hh"
#include "sim/runner.hh"
#include "sim/workload.hh"

using namespace pktbuf;
using namespace pktbuf::buffer;
using namespace pktbuf::sim;

namespace
{

enum class Wl
{
    Uniform,
    WorstCase,
    Idle,  //!< sparse traffic: mostly-quiescent slots
};

struct Config
{
    const char *name;
    unsigned queues;
    unsigned granRads;  // B
    unsigned gran;      // b
    unsigned banks;     // M
    Wl wl;
    bool check;
};

constexpr Config kConfigs[] = {
    {"rads_uniform_q8", 8, 8, 8, 1, Wl::Uniform, false},
    {"rads_uniform_q64", 64, 8, 8, 1, Wl::Uniform, false},
    {"cfds_uniform_q8", 8, 8, 2, 32, Wl::Uniform, false},
    {"cfds_uniform_q64", 64, 8, 2, 32, Wl::Uniform, false},
    {"cfds_worstcase_checked_q8", 8, 8, 2, 32, Wl::WorstCase, true},
    {"cfds_worstcase_checked_q64", 64, 8, 2, 32, Wl::WorstCase, true},
    {"rads_worstcase_checked_q64", 64, 8, 8, 1, Wl::WorstCase, true},
    {"rads_idle_q64", 64, 8, 8, 1, Wl::Idle, false},
    {"cfds_idle_q64", 64, 8, 2, 32, Wl::Idle, false},
};

const char *
wlName(Wl w)
{
    switch (w) {
      case Wl::Uniform:
        return "uniform";
      case Wl::WorstCase:
        return "worstcase";
      case Wl::Idle:
        return "idle";
    }
    return "?";
}

sweep::TaskResult
measure(const Config &c, std::uint64_t min_slots)
{
    BufferConfig cfg;
    cfg.params = model::BufferParams{c.queues, c.granRads, c.gran,
                                     c.banks};
    HybridBuffer buf(cfg);
    std::unique_ptr<Workload> wl;
    if (c.wl == Wl::WorstCase) {
        wl = std::make_unique<RoundRobinWorstCase>(c.queues, 3, 1.0,
                                                   64);
    } else {
        // Idle: 5% load, the line is idle most slots -- the regime
        // the quiescent skip is built for (lightly loaded ports).
        wl = std::make_unique<UniformRandom>(
            c.queues, 11, c.wl == Wl::Idle ? 0.05 : 0.95);
    }
    SimRunner runner(buf, *wl, c.check);

    // Warm the pipeline and caches out of the measured window.
    runner.run(4096);

    constexpr std::uint64_t kChunk = 16384;
    std::uint64_t slots = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (slots < min_slots) {
        runner.run(kChunk);
        slots += kChunk;
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    const auto rep = buf.report();
    const double slots_per_sec = slots / secs;

    sweep::TaskResult r;
    char buf2[192];
    std::snprintf(buf2, sizeof(buf2),
                  "%-28s Q=%-3u B=%-2u b=%-2u M=%-3u %-9s chk=%d"
                  " %10.2f Mslots/s\n",
                  c.name, c.queues, c.granRads, c.gran, c.banks,
                  wlName(c.wl), c.check ? 1 : 0, slots_per_sec / 1e6);
    r.text = buf2;
    sweep::Record rec;
    rec.set("name", c.name)
        .set("queues", c.queues)
        .set("B", c.granRads)
        .set("b", c.gran)
        .set("banks", c.banks)
        .set("workload", wlName(c.wl))
        .set("checker", c.check)
        .set("slots", slots)
        .set("seconds", secs)
        .set("slots_per_sec", slots_per_sec)
        .set("grants", rep.grants);
    r.records.push_back(std::move(rec));
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = pktbuf::bench::parseArgs(argc, argv);
    const std::uint64_t min_slots = opt.smoke ? 1u << 15 : 1u << 21;

    std::vector<sweep::Task> tasks;
    for (const auto &c : kConfigs) {
        tasks.push_back(sweep::Task{
            c.name,
            [&c, min_slots](const sweep::SweepContext &) {
                return measure(c, min_slots);
            },
        });
    }

    std::printf("Simulation throughput (steady state, %s budget;"
                " timing is wall-clock,\nrun with --jobs 1 for"
                " comparable numbers).\n\n",
                opt.smoke ? "smoke" : "full");
    const auto rep = pktbuf::bench::runAndPrint(tasks, opt);
    sweep::Record meta;
    meta.set("min_slots", min_slots);
    return pktbuf::bench::finish("throughput_micro", rep, tasks, opt,
                                 std::move(meta));
}
