#include "scheduler.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/logging.hh"

namespace pktbuf::xbar
{

namespace
{

/** No set bit: firstSetFrom's miss value. */
constexpr unsigned kNoBit = ~0u;

constexpr std::uint64_t
bitOf(unsigned k)
{
    return 1ull << (k % 64);
}

/** Bitmap of words with bits [0, n) set and every other bit clear. */
void
setFirst(std::vector<std::uint64_t> &bits, unsigned n)
{
    std::fill(bits.begin(), bits.end(), 0);
    for (unsigned w = 0; w < n / 64; ++w)
        bits[w] = ~0ull;
    if (n % 64)
        bits[n / 64] = bitOf(n) - 1;
}

/**
 * First set bit at or after `start` in cyclic order over a bitmap of
 * `words` words, or kNoBit when every word is zero.  `word(w)` yields
 * word w.  The start mask splits the start word at `start`: its bits
 * below `start` stay out of the first probe and are reached last,
 * after the scan wraps round to the start word again.
 */
template <typename WordFn>
unsigned
firstSetFrom(unsigned words, unsigned start, const WordFn &word)
{
    const unsigned w0 = start / 64;
    if (const auto at_or_after = word(w0) & (~0ull << (start % 64)))
        return w0 * 64 + std::countr_zero(at_or_after);
    for (unsigned k = 1; k <= words; ++k) {
        const unsigned w = w0 + k < words ? w0 + k : w0 + k - words;
        if (const auto x = word(w))
            return w * 64 + std::countr_zero(x);
    }
    return kNoBit;
}

} // namespace

std::size_t
matchingSize(const Matching &m)
{
    std::size_t n = 0;
    for (const auto out : m)
        n += out != kInvalidQueue ? 1 : 0;
    return n;
}

bool
matchingConflictFree(const Matching &m, unsigned ports)
{
    if (m.size() != ports)
        return false;
    std::vector<bool> taken(ports, false);
    for (const auto out : m) {
        if (out == kInvalidQueue)
            continue;
        if (out >= ports || taken[out])
            return false;
        taken[out] = true;
    }
    return true;
}

bool
matchingBacked(const Matching &m, const Occupancy &occ)
{
    for (unsigned i = 0; i < occ.ports(); ++i) {
        if (m[i] != kInvalidQueue && occ.at(i, m[i]) == 0)
            return false;
    }
    return true;
}

bool
matchingMaximal(const Matching &m, const Occupancy &occ)
{
    const unsigned n = occ.ports();
    std::vector<bool> taken(n, false);
    for (const auto out : m)
        if (out != kInvalidQueue)
            taken[out] = true;
    for (unsigned i = 0; i < n; ++i) {
        if (m[i] != kInvalidQueue)
            continue;
        for (unsigned j = 0; j < n; ++j) {
            if (!taken[j] && occ.at(i, j) > 0)
                return false;  // augmenting edge (i, j) exists
        }
    }
    return true;
}

namespace
{

/** One Kuhn augmenting-path step from input `i`. */
bool
augment(const Occupancy &occ, unsigned i, std::vector<bool> &visited,
        std::vector<unsigned> &owner)
{
    const unsigned n = occ.ports();
    for (unsigned j = 0; j < n; ++j) {
        if (occ.at(i, j) == 0 || visited[j])
            continue;
        visited[j] = true;
        if (owner[j] == n || augment(occ, owner[j], visited, owner)) {
            owner[j] = i;
            return true;
        }
    }
    return false;
}

} // namespace

unsigned
maximumMatchingSize(const Occupancy &occ)
{
    const unsigned n = occ.ports();
    std::vector<unsigned> owner(n, n);  // output -> matched input
    unsigned size = 0;
    for (unsigned i = 0; i < n; ++i) {
        std::vector<bool> visited(n, false);
        if (augment(occ, i, visited, owner))
            ++size;
    }
    return size;
}

std::string
toString(SchedulerKind k)
{
    switch (k) {
      case SchedulerKind::Islip:
        return "islip";
      case SchedulerKind::Qps:
        return "qps";
      case SchedulerKind::RandomMaximal:
        return "random";
    }
    return "?";
}

bool
parseSchedulerKind(const std::string &token, SchedulerKind &out)
{
    if (token == "islip")
        out = SchedulerKind::Islip;
    else if (token == "qps")
        out = SchedulerKind::Qps;
    else if (token == "random")
        out = SchedulerKind::RandomMaximal;
    else
        return false;
    return true;
}

IslipScheduler::IslipScheduler(unsigned ports, unsigned iterations)
    : ports_(ports), iterations_(iterations),
      words_((ports + 63) / 64), g_(ports, 0), a_(ports, 0),
      match_(ports, kInvalidQueue),
      cols_(static_cast<std::size_t>(ports) * words_, 0),
      grants_(static_cast<std::size_t>(ports) * words_, 0),
      free_in_(words_, 0), free_out_(words_, 0), granted_(words_, 0)
{
    fatal_if(ports == 0, "islip: zero ports");
    fatal_if(iterations == 0, "islip: zero iterations");
}

std::string
IslipScheduler::name() const
{
    std::ostringstream os;
    os << "islip" << iterations_;
    return os.str();
}

const Matching &
IslipScheduler::schedule(const Occupancy &occ)
{
    const unsigned n = ports_;
    const unsigned nw = words_;
    // Transpose the request rows into per-output column masks.
    std::fill(cols_.begin(), cols_.end(), 0);
    for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t *row = occ.requests(i);
        for (unsigned w = 0; w < nw; ++w) {
            for (auto r = row[w]; r; r &= r - 1) {
                const unsigned j = w * 64 + std::countr_zero(r);
                cols_[static_cast<std::size_t>(j) * nw + i / 64] |=
                    bitOf(i);
            }
        }
    }
    std::fill(match_.begin(), match_.end(), kInvalidQueue);
    setFirst(free_in_, n);
    setFirst(free_out_, n);
    last_iters_ = 0;
    for (unsigned it = 0; it < iterations_; ++it) {
        // Grant: each unmatched output picks the first unmatched
        // input with a backed VOQ at or after its grant pointer.
        bool granted_any = false;
        for (unsigned w = 0; w < nw; ++w) {
            for (auto f = free_out_[w]; f; f &= f - 1) {
                const unsigned j = w * 64 + std::countr_zero(f);
                const std::uint64_t *col =
                    &cols_[static_cast<std::size_t>(j) * nw];
                const unsigned i =
                    firstSetFrom(nw, g_[j], [&](unsigned k) {
                        return col[k] & free_in_[k];
                    });
                if (i == kNoBit)
                    continue;
                grants_[static_cast<std::size_t>(i) * nw + j / 64] |=
                    bitOf(j);
                granted_[i / 64] |= bitOf(i);
                granted_any = true;
            }
        }
        // Without a grant the iteration adds no edge: stop early.
        if (!granted_any)
            break;
        // Accept: each granted input picks the first granting output
        // at or after its accept pointer.  Pointers move one past the
        // partner only on first-iteration accepts.
        for (unsigned w = 0; w < nw; ++w) {
            for (auto gi = granted_[w]; gi; gi &= gi - 1) {
                const unsigned i = w * 64 + std::countr_zero(gi);
                std::uint64_t *grant =
                    &grants_[static_cast<std::size_t>(i) * nw];
                const unsigned j = firstSetFrom(
                    nw, a_[i], [&](unsigned k) { return grant[k]; });
                std::fill_n(grant, nw, 0);
                match_[i] = j;
                free_in_[i / 64] &= ~bitOf(i);
                free_out_[j / 64] &= ~bitOf(j);
                if (it == 0) {
                    g_[j] = i + 1 == n ? 0 : i + 1;
                    a_[i] = j + 1 == n ? 0 : j + 1;
                }
            }
            granted_[w] = 0;
        }
        ++last_iters_;
    }
    return match_;
}

void
IslipScheduler::save(ser::Writer &w) const
{
    w.tag("ISLP");
    for (const auto p : g_)
        w.u32(p);
    for (const auto p : a_)
        w.u32(p);
}

void
IslipScheduler::load(ser::Reader &r)
{
    r.tag("ISLP");
    for (auto &p : g_)
        p = r.u32();
    for (auto &p : a_)
        p = r.u32();
    for (const auto p : g_)
        fatal_if(p >= ports_, "checkpoint: islip grant pointer ", p,
                 " out of range");
    for (const auto p : a_)
        fatal_if(p >= ports_, "checkpoint: islip accept pointer ", p,
                 " out of range");
}

QpsScheduler::QpsScheduler(unsigned ports, unsigned window,
                           std::uint64_t seed)
    : ports_(ports), window_(window), rng_(seed), held_(ports),
      match_(ports, kInvalidQueue), out_taken_(ports, false),
      proposal_(ports, kInvalidQueue)
{
    fatal_if(ports == 0, "qps: zero ports");
    fatal_if(window == 0, "qps: zero window");
}

std::string
QpsScheduler::name() const
{
    std::ostringstream os;
    os << "qps_w" << window_;
    return os.str();
}

const Matching &
QpsScheduler::schedule(const Occupancy &occ)
{
    const unsigned n = ports_;
    std::fill(match_.begin(), match_.end(), kInvalidQueue);
    std::fill(out_taken_.begin(), out_taken_.end(), false);
    last_iters_ = 0;

    // Phase 1 -- sliding-window hold: keep last slot's edge while it
    // is younger than the window and its VOQ is still backed.
    bool held_any = false;
    for (unsigned i = 0; i < n; ++i) {
        auto &h = held_[i];
        if (h.out != kInvalidQueue && h.age < window_ &&
            occ.at(i, h.out) > 0 && !out_taken_[h.out]) {
            match_[i] = h.out;
            out_taken_[h.out] = true;
            ++h.age;
            held_any = true;
        } else {
            h = Hold{};
        }
    }
    if (held_any)
        ++last_iters_;

    // Phase 2 -- queue-proportional sampling: one proposal per
    // unmatched input, drawn with probability proportional to VOQ
    // depth; each free output accepts the deepest proposal.
    std::fill(proposal_.begin(), proposal_.end(), kInvalidQueue);
    for (unsigned i = 0; i < n; ++i) {
        if (match_[i] != kInvalidQueue)
            continue;
        const auto total = occ.rowTotal(i);
        if (total == 0)
            continue;
        auto pick = rng_.below(total);
        for (unsigned j = 0; j < n; ++j) {
            const auto c = occ.at(i, j);
            if (pick < c) {
                proposal_[i] = j;
                break;
            }
            pick -= c;
        }
    }
    bool sampled_any = false;
    for (unsigned j = 0; j < n; ++j) {
        if (out_taken_[j])
            continue;
        unsigned best = n;
        std::uint64_t best_depth = 0;
        for (unsigned i = 0; i < n; ++i) {
            if (proposal_[i] == j && occ.at(i, j) > best_depth) {
                best = i;
                best_depth = occ.at(i, j);
            }
        }
        if (best < n) {
            match_[best] = j;
            out_taken_[j] = true;
            held_[best] = Hold{static_cast<QueueId>(j), 0};
            sampled_any = true;
        }
    }
    if (sampled_any)
        ++last_iters_;

    // Phase 3 -- greedy completion to a maximal matching.
    bool filled_any = false;
    for (unsigned i = 0; i < n; ++i) {
        if (match_[i] != kInvalidQueue)
            continue;
        for (unsigned j = 0; j < n; ++j) {
            if (out_taken_[j] || occ.at(i, j) == 0)
                continue;
            match_[i] = j;
            out_taken_[j] = true;
            held_[i] = Hold{static_cast<QueueId>(j), 0};
            filled_any = true;
            break;
        }
    }
    if (filled_any)
        ++last_iters_;
    return match_;
}

void
QpsScheduler::save(ser::Writer &w) const
{
    w.tag("QPSS");
    rng_.save(w);
    for (const auto &h : held_) {
        w.u32(h.out);
        w.u64(h.age);
    }
}

void
QpsScheduler::load(ser::Reader &r)
{
    r.tag("QPSS");
    rng_.load(r);
    for (auto &h : held_) {
        h.out = r.u32();
        h.age = r.u64();
        fatal_if(h.out != kInvalidQueue && h.out >= ports_,
                 "checkpoint: qps held output out of range");
        fatal_if(h.out != kInvalidQueue && h.age > window_,
                 "checkpoint: qps hold age beyond window");
    }
}

RandomMaximalScheduler::RandomMaximalScheduler(unsigned ports,
                                               std::uint64_t seed)
    : ports_(ports), rng_(seed), match_(ports, kInvalidQueue),
      out_taken_(ports, false), order_(ports)
{
    fatal_if(ports == 0, "random scheduler: zero ports");
}

const Matching &
RandomMaximalScheduler::schedule(const Occupancy &occ)
{
    const unsigned n = ports_;
    std::fill(match_.begin(), match_.end(), kInvalidQueue);
    std::fill(out_taken_.begin(), out_taken_.end(), false);

    // Fresh random service order over the inputs (Fisher-Yates).
    for (unsigned i = 0; i < n; ++i)
        order_[i] = i;
    for (unsigned i = n - 1; i > 0; --i) {
        const auto j = static_cast<unsigned>(rng_.below(i + 1));
        std::swap(order_[i], order_[j]);
    }

    for (const unsigned i : order_) {
        unsigned candidates = 0;
        for (unsigned j = 0; j < n; ++j)
            candidates += (!out_taken_[j] && occ.at(i, j) > 0) ? 1 : 0;
        if (candidates == 0)
            continue;
        auto pick = rng_.below(candidates);
        for (unsigned j = 0; j < n; ++j) {
            if (out_taken_[j] || occ.at(i, j) == 0)
                continue;
            if (pick-- == 0) {
                match_[i] = j;
                out_taken_[j] = true;
                break;
            }
        }
    }
    last_iters_ = 1;
    return match_;
}

void
RandomMaximalScheduler::save(ser::Writer &w) const
{
    w.tag("RMAX");
    rng_.save(w);
}

void
RandomMaximalScheduler::load(ser::Reader &r)
{
    r.tag("RMAX");
    rng_.load(r);
}

std::unique_ptr<Scheduler>
makeScheduler(SchedulerKind k, unsigned ports,
              unsigned islip_iterations, unsigned qps_window,
              std::uint64_t seed)
{
    switch (k) {
      case SchedulerKind::Islip:
        return std::make_unique<IslipScheduler>(ports,
                                                islip_iterations);
      case SchedulerKind::Qps:
        return std::make_unique<QpsScheduler>(ports, qps_window,
                                              seed);
      case SchedulerKind::RandomMaximal:
        return std::make_unique<RandomMaximalScheduler>(ports, seed);
    }
    fatal("unknown scheduler kind");
}

} // namespace pktbuf::xbar
