/**
 * @file
 * Span accounting for the traced benchmark run.
 *
 * Spans are recorded by the benchmark's own code around calls into
 * the layers' public functions; nothing inside src/ is instrumented.
 * Every row of the layer table is a span *self* time: a span's
 * duration minus the part covered by its child spans, so the rows of
 * one run never overlap and add up to the traced wall time, with the
 * uncovered remainder reported as its own row.
 *
 * Hot per-slot spans are kept as local sums by the caller and added
 * in bulk (addLeaf), so tracing costs one clock read per span
 * boundary and no per-slot bookkeeping here.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The rows of the layer table: one per layer boundary spanned. */
enum class Row
{
    Workload,        //!< the whole traced workload (root span)
    CoreDimension,   //!< core::makeBufferConfig / Scenario::bufferConfig
    BufferConstruct, //!< HybridBuffer / CrossbarRun construction
    SimConstruct,    //!< workload generator and golden checker set-up
    SimWorkload,     //!< Workload::step
    BufferStep,      //!< HybridBuffer::step
    SimGolden,       //!< GoldenChecker::onGrant
    SimRunner,       //!< the run loop's own bookkeeping between spans
    SimDrain,        //!< drain loop (self) or CrossbarRun::finish
    XbarRun,         //!< CrossbarRun::runTo (self: inputs + schedule)
    XbarReplay,      //!< traced-only iSLIP replay of every matching
    SoakCheckpoint,  //!< CrossbarRun::checkpoint
    SoakRestore,     //!< fresh CrossbarRun + restore
    SweepPlan,       //!< matrix planning and task construction
    SweepLeg,        //!< one leg's task function (self: glue)
    SweepPool,       //!< runSweep (sets the workers' thread budget)
    Report,          //!< report(), outcome checks, record emission
    kCount,
};

inline constexpr std::size_t kRows = static_cast<std::size_t>(Row::kCount);

/** Stable row name, as printed in the layer table. */
const char *rowName(Row r);

/** Parse a row name; false when the name matches no row. */
bool parseRow(const std::string &name, Row &out);

/** Aggregated spans of one row. */
struct SpanStat
{
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;  //!< inclusive duration
    std::int64_t selfNs = 0;   //!< duration minus child spans
};

/**
 * Spans of one thread of a traced run.  Not thread-safe: every sweep
 * task owns its own Trace and the driver merges them afterwards.
 */
class Trace
{
  public:
    /** Open a span; spans nest strictly (close() ends the newest). */
    void
    open(Row r)
    {
        open_.push_back(Open{r, nowNs(), 0});
    }

    /** Close the newest span. */
    void
    close()
    {
        const Open o = open_.back();
        open_.pop_back();
        const std::int64_t dur = nowNs() - o.start;
        auto &s = stats_[static_cast<std::size_t>(o.row)];
        ++s.count;
        s.totalNs += dur;
        s.selfNs += dur - o.childNs;
        if (!open_.empty())
            open_.back().childNs += dur;
    }

    /** Add `count` leaf spans of total duration `ns` under the
     *  innermost open span. */
    void
    addLeaf(Row r, std::uint64_t count, std::int64_t ns)
    {
        auto &s = stats_[static_cast<std::size_t>(r)];
        s.count += count;
        s.totalNs += ns;
        s.selfNs += ns;
        if (!open_.empty())
            open_.back().childNs += ns;
    }

    /** Fold another thread's spans in as leaves of nothing (the
     *  caller accounts for where they ran). */
    void merge(const Trace &o);

    const SpanStat &stat(Row r) const
    {
        return stats_[static_cast<std::size_t>(r)];
    }

  private:
    struct Open
    {
        Row row;
        std::int64_t start;
        std::int64_t childNs;
    };

    std::array<SpanStat, kRows> stats_{};
    std::vector<Open> open_;
};

/**
 * Self-test hook: stretch every span of one row by a fixed fraction
 * of its own duration by spinning inside it, emulating a slower
 * layer.  Inactive unless the benchmark is run with --inject.
 */
struct Injection
{
    Row row = Row::kCount;  //!< kCount: no injection
    double frac = 0.0;

    /** Spin so the span [start, end) lasts (1 + frac) as long when
     *  `r` is the injected row; @return the span's new end. */
    std::int64_t
    stretch(Row r, std::int64_t start, std::int64_t end) const
    {
        if (r != row)
            return end;
        const auto until =
            end + static_cast<std::int64_t>(frac * (end - start));
        std::int64_t t = end;
        while (t < until)
            t = nowNs();
        return t;
    }
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
