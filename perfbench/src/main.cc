/**
 * @file
 * Benchmark driver binary: runs one workload and prints its result
 * document (see workloads.hh) as one line of JSON on stdout.
 * perfbench/run.py builds this binary, runs it and turns the
 * document into the benchmark's metrics.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--inject ROW:FRACTION]
 *
 * --inject stretches every span of one layer row by FRACTION of its
 * own duration (the gate self-test's emulated slowdown).
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hh"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--inject ROW:FRACTION]\n",
                 why);
    return 2;
}

/** Whole-string unsigned parse; false on junk, sign or overflow. */
bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s[0] == '-' || s[0] == '+')
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s.c_str(), &end, 10);
    return errno == 0 && end && *end == '\0';
}

bool
parseReal(const std::string &s, double &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtod(s.c_str(), &end);
    return !s.empty() && errno == 0 && end && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        std::uint64_t u = 0;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            if (!parseU64(v, opt.seed))
                return usage("--seed must be a non-negative integer");
        } else if (a == "--seconds") {
            if (!parseReal(v, opt.seconds) || !(opt.seconds > 0.0) ||
                opt.seconds > 600.0)
                return usage("--seconds must be in (0, 600]");
        } else if (a == "--trace") {
            if (!parseU64(v, u) || u > 1)
                return usage("--trace must be 0 or 1");
            opt.trace = u == 1;
        } else if (a == "--inject") {
            const auto colon = v.find(':');
            if (colon == std::string::npos ||
                !perfbench::parseRow(v.substr(0, colon),
                                     opt.inject.row) ||
                !parseReal(v.substr(colon + 1), opt.inject.frac) ||
                !(opt.inject.frac > 0.0) || opt.inject.frac > 10.0)
                return usage("--inject needs ROW:FRACTION, e.g. "
                             "buffer.step:0.2");
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!perfbench::knownWorkload(opt.workload))
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    try {
        std::puts(perfbench::runWorkload(opt).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
