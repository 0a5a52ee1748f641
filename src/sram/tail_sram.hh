/**
 * @file
 * Functional model of the tail SRAM (t-SRAM): the ingress cache.
 * Arriving cells are appended per physical queue; the t-MMA claims
 * batches of b cells for transfer to DRAM (claimed cells wait for the
 * DSA to launch the write), and the head path may *bypass* unclaimed
 * cells directly into the h-SRAM when the queue has nothing resident
 * in DRAM.
 *
 * Storage: each queue is a chain of b-cell chunks from one BlockSlab
 * capped at the enforced capacity.  Emptied chunks go straight back
 * to the slab, so every chained chunk holds at least one cell and the
 * chunk count never exceeds the cell occupancy.
 */

#ifndef PKTBUF_SRAM_TAIL_SRAM_HH
#define PKTBUF_SRAM_TAIL_SRAM_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/block_slab.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pktbuf::sram
{

class TailSram
{
  public:
    /**
     * @param capacity_cells 0 = unbounded (measurement mode).
     * @param gran           cells per storage chunk (b)
     */
    TailSram(unsigned phys_queues, std::uint64_t capacity_cells,
             unsigned gran)
        : queues_(phys_queues), capacity_(capacity_cells),
          slab_(gran, capacity_cells),
          elig_((phys_queues + 63) / 64, 0)
    {}

    /**
     * Arm the eligibility tracker: a queue is *eligible* while its
     * unclaimed cell count is at least `gran` (the t-MMA's write
     * threshold).  The bitmap turns the buffer's tail-MMA
     * round-robin and quiescence checks into O(1)/O(words) bit
     * scans.  0 (the default) disarms the tracker.
     */
    void
    setThreshold(unsigned gran)
    {
        threshold_ = gran;
        std::fill(elig_.begin(), elig_.end(), 0);
        eligible_ = 0;
        for (QueueId p = 0; p < queues_.size(); ++p)
            refreshEligible(p);
    }

    /** Queues currently at or above the write threshold. */
    std::size_t eligibleCount() const { return eligible_; }

    /**
     * First eligible queue at or cyclically after `from`, or
     * kInvalidQueue when none.  Requires an armed threshold.
     */
    QueueId
    nextEligible(QueueId from) const
    {
        if (eligible_ == 0)
            return kInvalidQueue;
        std::size_t w = from / 64;
        std::uint64_t word = elig_[w] & (~0ull << (from % 64));
        for (std::size_t i = 0; i <= elig_.size(); ++i) {
            if (word)
                return static_cast<QueueId>(
                    w * 64 + std::countr_zero(word));
            w = (w + 1) % elig_.size();
            word = elig_[w];
        }
        return kInvalidQueue;  // unreachable while eligible_ > 0
    }

    /** Cell arrival from the line. */
    void
    push(QueueId p, const Cell &cell)
    {
        auto &qq = q(p);
        ++occupancy_;
        high_water_.observe(static_cast<std::int64_t>(occupancy_));
        panic_if(capacity_ && occupancy_ > capacity_,
                 "t-SRAM overflow: ", occupancy_, " cells > capacity ",
                 capacity_, " -- dimensioning violated");
        append(qq, cell);
        refreshEligible(p);
    }

    /** Cells of p not yet claimed by a pending DRAM write. */
    std::uint64_t
    unclaimed(QueueId p) const
    {
        const auto &qq = q(p);
        return qq.cells - qq.claimed;
    }

    /** Total cells of p still in the t-SRAM (claimed or not). */
    std::uint64_t
    cellsOf(QueueId p) const
    {
        return q(p).cells;
    }

    /**
     * The t-MMA claims the oldest `gran` unclaimed cells of p for a
     * DRAM write.  They stay in the SRAM (and keep occupying space)
     * until extractClaimed() when the DSA launches the write.
     */
    void
    claim(QueueId p, unsigned gran)
    {
        auto &qq = q(p);
        panic_if(unclaimed(p) < gran, "claiming ", gran,
                 " cells of queue ", p, " with only ", unclaimed(p),
                 " unclaimed");
        qq.claimed += gran;
        refreshEligible(p);
    }

    /** Undo one pending claim (write squashed in favor of bypass). */
    void
    unclaim(QueueId p, unsigned gran)
    {
        auto &qq = q(p);
        panic_if(qq.claimed < gran, "unclaim underflow on queue ", p);
        qq.claimed -= gran;
        refreshEligible(p);
    }

    /**
     * The write launches: move the oldest out.size() (claimed) cells
     * into `out`, the DRAM block's storage.
     */
    void
    extractClaimed(QueueId p, std::span<Cell> out)
    {
        auto &qq = q(p);
        panic_if(qq.claimed < out.size(), "extracting unclaimed cells");
        take(qq, out);
        qq.claimed -= out.size();
        refreshEligible(p);
    }

    /**
     * Bypass up to out.size() *unclaimed* oldest cells straight into
     * `out`, an h-SRAM block.  Only legal when the queue has no cells
     * in DRAM and no claimed cells ahead (the caller enforces order).
     * @return cells moved
     */
    std::size_t
    extractBypass(QueueId p, std::span<Cell> out)
    {
        auto &qq = q(p);
        panic_if(qq.claimed != 0,
                 "bypass with ", qq.claimed,
                 " claimed cells ahead on queue ", p);
        const auto n = std::min<std::uint64_t>(out.size(), qq.cells);
        take(qq, out.first(n));
        refreshEligible(p);
        return n;
    }

    std::uint64_t occupancy() const { return occupancy_; }
    std::int64_t highWater() const { return high_water_.max(); }
    std::uint64_t capacity() const { return capacity_; }

    /** Recycle a drained physical queue (renaming reuse). */
    void
    recycle(QueueId p)
    {
        auto &qq = q(p);
        panic_if(qq.cells != 0 || qq.claimed != 0,
                 "recycling non-empty tail queue ", p);
    }

    /** Checkpoint: every queue's cells + claim count, occupancy. */
    void
    save(ser::Writer &w) const
    {
        w.tag("TSRM");
        w.u64(queues_.size());
        for (const auto &qq : queues_) {
            w.u64(qq.claimed);
            w.u64(qq.cells);
            std::uint64_t left = qq.cells;
            for (auto c = qq.head; left > 0; c = next_[c]) {
                const auto cells = slab_.data(c);
                const std::size_t from = c == qq.head ? qq.head_off : 0;
                const std::size_t to = c == qq.tail ? qq.tail_fill
                                                    : cells.size();
                for (std::size_t i = from; i < to; ++i, --left)
                    cells[i].save(w);
            }
        }
        w.u64(occupancy_);
        high_water_.save(w);
    }

    void
    load(ser::Reader &r)
    {
        r.tag("TSRM");
        const auto n = r.u64();
        fatal_if(n != queues_.size(), "checkpoint: t-SRAM has ", n,
                 " queues, configured ", queues_.size());
        slab_.releaseAll();
        for (auto &qq : queues_) {
            qq = QueueState{};
            qq.claimed = r.u64();
            const auto nc = r.u64();
            for (std::uint64_t i = 0; i < nc; ++i) {
                Cell c;
                c.load(r);
                append(qq, c);
            }
        }
        occupancy_ = r.u64();
        high_water_.load(r);
        // Rebuild the derived eligibility view for the armed
        // threshold (a no-op while disarmed).
        setThreshold(threshold_);
    }

  private:
    /** Cells live in chunks head..tail, linked through next_;
     *  the oldest sits at head_off, the newest at tail_fill - 1. */
    struct QueueState
    {
        BlockSlab::Chunk head = BlockSlab::kNone;
        BlockSlab::Chunk tail = BlockSlab::kNone;
        unsigned head_off = 0;
        unsigned tail_fill = 0;
        std::uint64_t cells = 0;
        std::uint64_t claimed = 0;
    };

    /** Append one cell, chaining a fresh chunk when the tail is full. */
    void
    append(QueueState &qq, const Cell &cell)
    {
        if (qq.tail == BlockSlab::kNone ||
            qq.tail_fill == slab_.chunkCells()) {
            const auto c = slab_.alloc();
            if (next_.size() < slab_.chunks())
                next_.resize(slab_.chunks(), BlockSlab::kNone);
            next_[c] = BlockSlab::kNone;
            if (qq.tail == BlockSlab::kNone) {
                qq.head = c;
                qq.head_off = 0;
            } else {
                next_[qq.tail] = c;
            }
            qq.tail = c;
            qq.tail_fill = 0;
        }
        slab_.data(qq.tail)[qq.tail_fill++] = cell;
        ++qq.cells;
    }

    /** Re-derive p's bit in the eligibility bitmap (O(1)). */
    void
    refreshEligible(QueueId p)
    {
        if (threshold_ == 0)
            return;
        const bool e = unclaimed(p) >= threshold_;
        std::uint64_t &word = elig_[p / 64];
        const std::uint64_t bit = 1ull << (p % 64);
        if (e == ((word & bit) != 0))
            return;
        word ^= bit;
        if (e)
            ++eligible_;
        else
            --eligible_;
    }

    /** Move the oldest out.size() cells of a queue into `out`,
     *  returning each emptied chunk to the slab. */
    void
    take(QueueState &qq, std::span<Cell> out)
    {
        panic_if(qq.cells < out.size(), "t-SRAM underflow");
        for (Cell &c : out) {
            c = slab_.data(qq.head)[qq.head_off++];
            --qq.cells;
            if (qq.cells == 0 || qq.head_off == slab_.chunkCells()) {
                const auto done = qq.head;
                qq.head = next_[done];
                qq.head_off = 0;
                if (qq.cells == 0) {
                    qq.tail = BlockSlab::kNone;
                    qq.tail_fill = 0;
                }
                slab_.release(done);
            }
        }
        panic_if(occupancy_ < out.size(),
                 "t-SRAM occupancy accounting bug");
        occupancy_ -= out.size();
    }

    const QueueState &
    q(QueueId p) const
    {
        panic_if(p >= queues_.size(), "t-SRAM: queue ", p,
                 " out of range (const accessor)");
        return queues_[p];
    }

    QueueState &
    q(QueueId p)
    {
        panic_if(p >= queues_.size(), "t-SRAM: queue ", p,
                 " out of range");
        return queues_[p];
    }

    std::vector<QueueState> queues_;
    std::uint64_t capacity_;  // ser: config
    /** Cell storage of every queue; saved cell by cell per queue. */
    BlockSlab slab_;
    /** Chunk chain links, indexed like the slab's chunks. */
    std::vector<BlockSlab::Chunk> next_;  // ser: derived
    std::uint64_t occupancy_ = 0;
    HighWater high_water_;
    /** Write threshold the eligibility bitmap is armed with. */
    unsigned threshold_ = 0;  // ser: config
    /** One bit per queue: unclaimed(p) >= threshold_. */
    std::vector<std::uint64_t> elig_;  // ser: derived
    std::size_t eligible_ = 0;  // ser: derived
};

} // namespace pktbuf::sram

#endif // PKTBUF_SRAM_TAIL_SRAM_HH
