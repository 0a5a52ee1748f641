/**
 * @file
 * Most Deficited Queue First (MDQF): the no-lookahead MMA of [13],
 * kept as an ablation baseline.  With no knowledge of future
 * requests it replenishes the queue in the most danger -- the one
 * with the lowest (possibly negative) occupancy counter among queues
 * that still have backing cells -- and needs the larger
 * Q(b-1)(2 + ln Q) SRAM to guarantee zero misses.
 *
 * MDQF and ECQF are two selection rules over one per-queue occupancy
 * counter (+b per replenish issued, -1 per request leaving the
 * lookahead), so MDQF keeps no state: it reads EcqfMma's counters.
 */

#ifndef PKTBUF_MMA_MDQF_HH
#define PKTBUF_MMA_MDQF_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "mma/ecqf.hh"

namespace pktbuf::mma
{

struct MdqfMma
{
    /**
     * Pick the queue with the minimum occupancy counter among those
     * for which `replenishable(p)` holds.  Queues whose counter is
     * already comfortable (>= gran) are not replenished.
     */
    template <typename Replenishable>
    static QueueId
    select(const EcqfMma &counters, unsigned gran,
           const Replenishable &replenishable)
    {
        QueueId best = kInvalidQueue;
        std::int64_t best_occ = 0;
        for (QueueId p = 0; p < counters.queues(); ++p) {
            if (!replenishable(p))
                continue;
            const std::int64_t occ = counters.occupancy(p);
            if (occ >= static_cast<std::int64_t>(gran))
                continue;
            if (best == kInvalidQueue || occ < best_occ) {
                best = p;
                best_occ = occ;
            }
        }
        return best;
    }

    /**
     * The checkpoint's "MDQF" section: the occupancy counters again,
     * under MDQF's tag.  Written from the one owner of the counters
     * so that checkpoints keep their layout.
     */
    static void
    save(ser::Writer &w, const EcqfMma &counters)
    {
        w.tag("MDQF");
        w.u64(counters.queues());
        for (QueueId p = 0; p < counters.queues(); ++p)
            w.i64(counters.occupancy(p));
    }

    /** Read the "MDQF" section back; it must repeat `counters`
     *  (already restored from the "ECQF" section) exactly. */
    static void
    load(ser::Reader &r, const EcqfMma &counters)
    {
        r.tag("MDQF");
        const auto n = r.u64();
        fatal_if(n != counters.queues(), "checkpoint: MDQF has ", n,
                 " queues, configured ", counters.queues());
        for (QueueId p = 0; p < counters.queues(); ++p) {
            const auto occ = r.i64();
            fatal_if(occ != counters.occupancy(p),
                     "checkpoint: MDQF counter of queue ", p, " is ",
                     occ, ", the ECQF section says ",
                     counters.occupancy(p));
        }
    }
};

} // namespace pktbuf::mma

#endif // PKTBUF_MMA_MDQF_HH
