/**
 * @file
 * Crossbar matching schedulers: per-slot bipartite matchings between
 * N input ports and N output ports of an input-queued switch.
 *
 * The contract every implementation must honor (and that
 * tests/test_crossbar.cc enforces slot by slot):
 *
 *  - conflict-free: at most one input matched to any output and at
 *    most one output matched to any input;
 *  - backed: an (input, output) edge may be granted only when the
 *    input's VOQ for that output is non-empty in the occupancy
 *    snapshot the scheduler was given;
 *  - deterministic: a scheduler is a pure function of its own state
 *    (pointers, RNG, held edges) and the occupancy matrix, so a
 *    checkpointed run replays bit-for-bit;
 *  - serializable: save()/load() capture the full decision state;
 *  - allocation-free: schedule() returns a reference into storage the
 *    scheduler sized at construction, valid until its next call.
 *
 * Maximality is a quality property, not part of the base contract:
 * iSLIP converges to a maximal matching given enough iterations, the
 * QPS and random schedulers finish with an explicit greedy completion
 * pass.  The differential oracle test compares all of them against a
 * brute-force maximum matching (Kuhn's algorithm, maximumMatchingSize).
 */

#ifndef PKTBUF_CROSSBAR_SCHEDULER_HH
#define PKTBUF_CROSSBAR_SCHEDULER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace pktbuf::xbar
{

/**
 * Start-of-slot VOQ occupancy snapshot: at(i, j) is the number of
 * cells waiting at input i for output j (the workload's credit).
 * Beside the depths it keeps one request bitmap per input -- bit j of
 * requests(i) is set exactly when at(i, j) > 0 -- so the schedulers
 * can work on 64-bit words.  Square (ports x ports); the matching
 * engine owns one and refills it every active slot.
 */
class Occupancy
{
  public:
    explicit Occupancy(unsigned ports)
        : ports_(ports), words_((ports + 63) / 64),
          occ_(static_cast<std::size_t>(ports) * ports, 0),
          req_(static_cast<std::size_t>(ports) * words_, 0)
    {}

    unsigned ports() const { return ports_; }

    std::uint64_t
    at(unsigned in, unsigned out) const
    {
        return occ_[static_cast<std::size_t>(in) * ports_ + out];
    }

    /** Set one VOQ depth, keeping its request bit in step. */
    void
    set(unsigned in, unsigned out, std::uint64_t cells)
    {
        occ_[static_cast<std::size_t>(in) * ports_ + out] = cells;
        auto &word = req_[static_cast<std::size_t>(in) * words_ + out / 64];
        const auto bit = 1ull << (out % 64);
        word = cells ? word | bit : word & ~bit;
    }

    /**
     * Overwrite input `in`'s row in one copy.
     * @param depths ports() VOQ depths (sim::Workload::credits())
     * @param requests ceil(ports() / 64) bitmap words with bit j set
     *        exactly when depths[j] > 0 (sim::Workload::creditedBits())
     */
    void
    setRow(unsigned in, std::span<const std::uint64_t> depths,
           std::span<const std::uint64_t> requests)
    {
        panic_if(depths.size() != ports_ || requests.size() != words_,
                 "occupancy row of ", depths.size(), " depths and ",
                 requests.size(), " words for ", ports_, " ports");
        std::copy(depths.begin(), depths.end(),
                  occ_.begin() + static_cast<std::ptrdiff_t>(in) * ports_);
        std::copy(requests.begin(), requests.end(),
                  req_.begin() + static_cast<std::ptrdiff_t>(in) * words_);
    }

    /** Input `in`'s request bitmap: ceil(ports() / 64) words, bit j
     *  set exactly when at(in, j) > 0. */
    const std::uint64_t *
    requests(unsigned in) const
    {
        return &req_[static_cast<std::size_t>(in) * words_];
    }

    /** Total cells waiting at one input, across all its VOQs. */
    std::uint64_t
    rowTotal(unsigned in) const
    {
        std::uint64_t t = 0;
        for (unsigned j = 0; j < ports_; ++j)
            t += at(in, j);
        return t;
    }

  private:
    unsigned ports_;
    unsigned words_;  //!< per request bitmap
    std::vector<std::uint64_t> occ_;
    /** Request bitmaps, words_ per input. */
    std::vector<std::uint64_t> req_;
};

/**
 * One slot's matching: match[input] = matched output, or
 * kInvalidQueue when the input is unmatched this slot.
 */
using Matching = std::vector<QueueId>;

/** Matched edges in a matching. */
std::size_t matchingSize(const Matching &m);

/** At most one grant per input and per output, targets in range. */
bool matchingConflictFree(const Matching &m, unsigned ports);

/** Every granted edge's VOQ is non-empty in `occ`. */
bool matchingBacked(const Matching &m, const Occupancy &occ);

/**
 * No unmatched input could still be matched to a free output with a
 * non-empty VOQ -- i.e. the matching is maximal (no augmenting edge
 * exists; weaker than maximum).
 */
bool matchingMaximal(const Matching &m, const Occupancy &occ);

/**
 * Brute-force maximum bipartite matching size over the non-empty
 * VOQ edges (Kuhn's augmenting-path algorithm, O(V * E)).  The
 * differential oracle for the scheduler tests; intended for small
 * port counts, not the per-slot hot path.
 */
unsigned maximumMatchingSize(const Occupancy &occ);

/** The scheduler families the crossbar can run. */
enum class SchedulerKind
{
    Islip,          //!< iterative request/grant/accept, rotating ptrs
    Qps,            //!< sliding-window queue-proportional sampling
    RandomMaximal,  //!< seeded random maximal baseline
};

/** @return the lower-case token ("islip", "qps", "random"). */
std::string toString(SchedulerKind k);

/**
 * Parse a scheduler token.
 * @param token one of "islip", "qps", "random"
 * @param out   receives the kind on success
 * @return false when the token names no scheduler
 */
bool parseSchedulerKind(const std::string &token, SchedulerKind &out);

/** Per-slot matching engine interface (see file comment). */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Token naming the instance ("islip4", "qps_w8", "random"). */
    virtual std::string name() const = 0;

    /**
     * Compute this slot's matching from the occupancy snapshot.
     * @param occ start-of-slot VOQ depths (ports x ports)
     * @return a conflict-free matching over non-empty VOQs, owned by
     *         the scheduler and overwritten by the next call
     */
    virtual const Matching &schedule(const Occupancy &occ) = 0;

    /** Matching passes the last schedule() call used. */
    virtual unsigned lastIterations() const = 0;

    /** Checkpoint the full decision state (pointers, RNG, holds). */
    virtual void save(ser::Writer &w) const = 0;
    virtual void load(ser::Reader &r) = 0;
};

/**
 * iSLIP (McKeown): up to `iterations` request/grant/accept rounds.
 * Each unmatched output grants the first requesting input at or
 * after its grant pointer; each unmatched input accepts the first
 * granting output at or after its accept pointer.  Pointers advance
 * one past the matched partner *only* for matches made in the first
 * iteration -- the rule that desynchronizes the pointers and gives
 * iSLIP its 100% uniform-throughput behavior.  Stops early once an
 * iteration adds no edge (the matching is then maximal).
 *
 * Bit-parallel: each slot first transposes the occupancy's request
 * rows into per-output column masks; a grant is then the first set
 * bit of (column & unmatched inputs) cyclically from the grant
 * pointer, an accept the first set bit of the input's grant mask
 * cyclically from its accept pointer.  Any radix works; the masks
 * take ceil(N / 64) words each.
 */
class IslipScheduler : public Scheduler
{
  public:
    /**
     * @param ports crossbar radix N
     * @param iterations matching rounds per slot (>= 1); N rounds
     *        guarantee convergence to a maximal matching
     */
    IslipScheduler(unsigned ports, unsigned iterations);

    std::string name() const override;
    const Matching &schedule(const Occupancy &occ) override;
    unsigned lastIterations() const override { return last_iters_; }
    void save(ser::Writer &w) const override;
    void load(ser::Reader &r) override;

    /** Per-output grant pointers (exposed for the pointer tests). */
    const std::vector<unsigned> &grantPointers() const { return g_; }
    /** Per-input accept pointers (exposed for the pointer tests). */
    const std::vector<unsigned> &acceptPointers() const { return a_; }

  private:
    unsigned ports_;  // ser: config
    unsigned iterations_;  // ser: config
    unsigned words_;  //!< words per bitmap [ser: config]
    unsigned last_iters_ = 0;  // ser: derived
    std::vector<unsigned> g_;  //!< grant pointer, per output
    std::vector<unsigned> a_;  //!< accept pointer, per input

    // Per-slot scratch, sized at construction.
    Matching match_;  // ser: derived
    /** Column masks, words_ per output: bit i = input i requests. */
    std::vector<std::uint64_t> cols_;  // ser: derived
    /** Grant masks, words_ per input: bit j = output j granted it. */
    std::vector<std::uint64_t> grants_;  // ser: derived
    std::vector<std::uint64_t> free_in_;  //!< [ser: derived]
    std::vector<std::uint64_t> free_out_;  //!< [ser: derived]
    /** Inputs holding at least one grant this iteration. */
    std::vector<std::uint64_t> granted_;  // ser: derived
};

/**
 * Sliding-window queue-proportional sampling.  Each slot:
 *
 *  1. hold: an edge accepted in an earlier slot is kept while it is
 *     younger than `window` slots and its VOQ is still backed --
 *     amortizing one good sample over several slots;
 *  2. sample: every unmatched input proposes one output drawn with
 *     probability proportional to its VOQ depths; each free output
 *     accepts the deepest proposal (ties to the lowest input);
 *  3. complete: a greedy pass matches any leftover input to its
 *     lowest free non-empty output, making the matching maximal.
 *
 * lastIterations() reports how many of the three phases added edges.
 */
class QpsScheduler : public Scheduler
{
  public:
    /**
     * @param ports crossbar radix N
     * @param window max slots an accepted edge may be held (>= 1)
     * @param seed sampling RNG seed (named per the repo seed rule)
     */
    QpsScheduler(unsigned ports, unsigned window, std::uint64_t seed);

    std::string name() const override;
    const Matching &schedule(const Occupancy &occ) override;
    unsigned lastIterations() const override { return last_iters_; }
    void save(ser::Writer &w) const override;
    void load(ser::Reader &r) override;

  private:
    struct Hold
    {
        QueueId out = kInvalidQueue;  //!< held output, or invalid
        std::uint64_t age = 0;        //!< slots the edge was held
    };

    unsigned ports_;  // ser: config
    std::uint64_t window_;  // ser: config
    Rng rng_;
    unsigned last_iters_ = 0;  // ser: derived
    std::vector<Hold> held_;  //!< per input

    // Per-slot scratch, sized at construction.
    Matching match_;  // ser: derived
    std::vector<bool> out_taken_;  // ser: derived
    std::vector<QueueId> proposal_;  //!< per input [ser: derived]
};

/**
 * Maximal-random baseline: a fresh seeded random input service order
 * each slot; every input picks uniformly among its non-empty VOQs
 * whose outputs are still free.  Maximal by construction, with no
 * state beyond the RNG -- the floor the smarter schedulers must beat.
 */
class RandomMaximalScheduler : public Scheduler
{
  public:
    RandomMaximalScheduler(unsigned ports, std::uint64_t seed);

    std::string name() const override { return "random"; }
    const Matching &schedule(const Occupancy &occ) override;
    unsigned lastIterations() const override { return last_iters_; }
    void save(ser::Writer &w) const override;
    void load(ser::Reader &r) override;

  private:
    unsigned ports_;  // ser: config
    Rng rng_;
    unsigned last_iters_ = 0;  // ser: derived

    // Per-slot scratch, sized at construction.
    Matching match_;  // ser: derived
    std::vector<bool> out_taken_;  // ser: derived
    std::vector<unsigned> order_;  //!< service order [ser: derived]
};

/**
 * Instantiate a scheduler.
 * @param k which family
 * @param ports crossbar radix
 * @param islip_iterations iSLIP rounds per slot (ignored otherwise)
 * @param qps_window QPS hold window in slots (ignored otherwise)
 * @param seed RNG seed for the randomized schedulers
 */
std::unique_ptr<Scheduler> makeScheduler(SchedulerKind k,
                                         unsigned ports,
                                         unsigned islip_iterations,
                                         unsigned qps_window,
                                         std::uint64_t seed);

} // namespace pktbuf::xbar

#endif // PKTBUF_CROSSBAR_SCHEDULER_HH
