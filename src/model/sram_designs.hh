/**
 * @file
 * The two shared-SRAM buffer organizations the paper evaluates
 * (Section 7.1), built on top of the cacti_lite array model:
 *
 *  - "global CAM": one fully associative store, tag = (queue id,
 *    relative order).  Two ports (read + write) so the arbiter read
 *    and the DRAM refill proceed in the same slot.  Fastest, largest.
 *
 *  - "unified linked list (time-mux)": direct-mapped SRAM where each
 *    entry is {cell, next pointer}, plus a head/tail pointer table.
 *    Single port time-multiplexed over the 3 accesses a slot needs,
 *    so its *effective* per-slot time is 3x the raw access.
 *    Smallest, slowest.
 *
 * Also provides the Figure-11 solver: the maximum number of queues a
 * configuration can support while meeting the line-rate slot time.
 */

#ifndef PKTBUF_MODEL_SRAM_DESIGNS_HH
#define PKTBUF_MODEL_SRAM_DESIGNS_HH

#include <cstdint>

#include "common/types.hh"
#include "model/cacti_lite.hh"
#include "model/dimensioning.hh"

namespace pktbuf::model
{

/** Which shared-SRAM organization (Section 7.1). */
enum class SramDesign
{
    GlobalCam,
    LinkedListTimeMux,
};

/** Metrics of one concrete SRAM buffer implementation. */
struct SramImplMetrics
{
    double rawAccessNs = 0.0;    //!< one array access
    double effectiveNs = 0.0;    //!< worst per-slot service time
    double areaMm2 = 0.0;
    std::uint64_t bytes = 0;     //!< total storage (incl. tags/ptrs)
};

/**
 * Size a buffer of `cells` cells shared by `lists` logical lists
 * (Q for RADS; Q * B/b for CFDS, Section 8.2) as one of the two
 * designs.
 */
SramImplMetrics sizeSramBuffer(SramDesign design, std::uint64_t cells,
                               std::uint64_t lists, unsigned queues,
                               const TechParams &tech = {});

/** Convenience: the faster of the two designs for given contents. */
SramImplMetrics bestSramBuffer(std::uint64_t cells, std::uint64_t lists,
                               unsigned queues,
                               const TechParams &tech = {});

/**
 * Head-SRAM contents of a configuration at a given lookahead:
 * cells and number of lists, handling both RADS (b == B) and CFDS.
 */
struct HeadSramSpec
{
    std::uint64_t cells = 0;
    std::uint64_t lists = 0;
};

HeadSramSpec headSramSpec(const BufferParams &p, std::uint64_t lookahead);

/**
 * Figure 11: the largest Q such that the head SRAM of the given
 * (B, b, M) configuration at maximum lookahead still meets the slot
 * time of `rate`, using the faster of the two SRAM designs.
 * Returns 0 if even Q = 1 fails.
 */
unsigned maxQueuesMeetingSlot(unsigned granRads, unsigned gran,
                              unsigned banks, LineRate rate,
                              const TechParams &tech = {});

} // namespace pktbuf::model

#endif // PKTBUF_MODEL_SRAM_DESIGNS_HH
