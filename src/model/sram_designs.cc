#include "sram_designs.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace pktbuf::model
{

namespace
{

unsigned
bitsFor(std::uint64_t values)
{
    unsigned bits = 1;
    while ((1ULL << bits) < values)
        ++bits;
    return bits;
}

} // namespace

SramImplMetrics
sizeSramBuffer(SramDesign design, std::uint64_t cells,
               std::uint64_t lists, unsigned queues,
               const TechParams &tech)
{
    panic_if(cells == 0, "empty SRAM buffer");
    SramImplMetrics m{};
    const unsigned cell_bits = kCellBytes * 8;

    switch (design) {
      case SramDesign::GlobalCam: {
        // Tag = queue id + relative order within the queue.  The
        // order field must distinguish all cells a queue could hold;
        // the buffer itself bounds that, so bitsFor(cells) suffices
        // (with one spare bit for wrap disambiguation).
        const unsigned tag_bits = bitsFor(queues) + bitsFor(cells) + 1;
        const auto arr = camArray(cells, tag_bits, cell_bits, 2, tech);
        m.rawAccessNs = arr.accessNs;
        // Dual ported: arbiter read and DRAM refill overlap, so the
        // per-slot service time is one access.
        m.effectiveNs = arr.accessNs;
        m.areaMm2 = arr.areaMm2;
        m.bytes = cells * (cell_bits + tag_bits) / 8;
        break;
      }
      case SramDesign::LinkedListTimeMux: {
        const unsigned ptr_bits = bitsFor(cells);
        const auto arr =
            sramArray(cells, cell_bits + ptr_bits, 1, tech);
        // Head/tail pointer table: 2 pointers per list; accessed in
        // the same time-multiplexed cycle, adds area (and a small
        // fast lookup that is never the critical path).
        const auto table =
            sramArray(std::max<std::uint64_t>(lists, 2), 2 * ptr_bits,
                      1, tech);
        m.rawAccessNs = arr.accessNs;
        // Three serialized accesses per slot: read head cell+pointer,
        // write incoming cell, update old tail's pointer field
        // (Section 7.1).
        m.effectiveNs = 3.0 * arr.accessNs;
        m.areaMm2 = arr.areaMm2 + table.areaMm2;
        m.bytes = (cells * (cell_bits + ptr_bits) +
                   lists * 2 * ptr_bits) / 8;
        break;
      }
    }
    return m;
}

SramImplMetrics
bestSramBuffer(std::uint64_t cells, std::uint64_t lists, unsigned queues,
               const TechParams &tech)
{
    const auto cam = sizeSramBuffer(SramDesign::GlobalCam, cells, lists,
                                    queues, tech);
    const auto ll = sizeSramBuffer(SramDesign::LinkedListTimeMux, cells,
                                   lists, queues, tech);
    return cam.effectiveNs < ll.effectiveNs ? cam : ll;
}

HeadSramSpec
headSramSpec(const BufferParams &p, std::uint64_t lookahead)
{
    HeadSramSpec spec{};
    if (p.isRads()) {
        spec.cells = radsSramCells(lookahead, p.queues, p.gran);
        spec.lists = p.queues;
    } else {
        spec.cells = cfdsSramCells(lookahead, p);
        // Out-of-order refills need one list per (queue, bank of the
        // group): Q * B/b lists (Section 8.2).
        spec.lists =
            static_cast<std::uint64_t>(p.queues) * p.banksPerGroup();
    }
    // Degenerate b == 1 configurations still hold in-flight cells.
    spec.cells = std::max<std::uint64_t>(spec.cells, 1);
    return spec;
}

unsigned
maxQueuesMeetingSlot(unsigned granRads, unsigned gran, unsigned banks,
                     LineRate rate, const TechParams &tech)
{
    const double slot_ns = slotTimeNs(rate);

    auto feasible = [&](unsigned q) {
        BufferParams p{q, granRads, gran, banks};
        const auto spec =
            headSramSpec(p, ecqfLookaheadSlots(q, std::max(gran, 2u)));
        const auto impl =
            bestSramBuffer(spec.cells, spec.lists, q, tech);
        return impl.effectiveNs <= slot_ns;
    };

    if (!feasible(1))
        return 0;
    unsigned lo = 1, hi = 65536;
    while (lo + 1 < hi) {
        const unsigned mid = lo + (hi - lo) / 2;
        if (feasible(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace pktbuf::model
