#include "trace.hh"

namespace perfbench
{

namespace
{

constexpr const char *kRowNames[kRows] = {
    "workload",         "core.dimension", "buffer.construct",
    "sim.construct",    "sim.workload",   "buffer.step",
    "sim.golden",       "sim.runner",     "sim.drain",
    "crossbar.run",     "trace.replay",   "soak.checkpoint",
    "soak.restore",     "sweep.plan",     "sweep.leg",
    "sweep.pool",       "report",
};

} // namespace

const char *
rowName(Row r)
{
    return kRowNames[static_cast<std::size_t>(r)];
}

bool
parseRow(const std::string &name, Row &out)
{
    for (std::size_t i = 0; i < kRows; ++i) {
        if (name == kRowNames[i]) {
            out = static_cast<Row>(i);
            return true;
        }
    }
    return false;
}

void
Trace::merge(const Trace &o)
{
    for (std::size_t i = 0; i < kRows; ++i) {
        stats_[i].count += o.stats_[i].count;
        stats_[i].totalNs += o.stats_[i].totalNs;
        stats_[i].selfNs += o.stats_[i].selfNs;
    }
}

} // namespace perfbench
