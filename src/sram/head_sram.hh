/**
 * @file
 * Functional model of the head SRAM (h-SRAM): the egress cache that
 * must always contain the cell the arbiter is about to be granted.
 *
 * CFDS refills can complete out of order (the DSA may launch a
 * younger request of the same queue first, Section 8.2), so blocks
 * are inserted keyed by the *replenish sequence number* assigned at
 * MMA issue time, and the reader always consumes the lowest
 * outstanding sequence.  A pop that does not find its cell is a
 * *miss* and panics -- the zero-miss guarantee is an invariant here,
 * not a statistic.
 *
 * Storage: each queue keeps a power-of-two ring of block descriptors
 * indexed by `seq - next_consume_seq`; the cells live in b-cell
 * chunks of one BlockSlab capped at the enforced capacity (every
 * resident block holds at least one unconsumed cell, so the chunk
 * count never exceeds the cell occupancy).
 */

#ifndef PKTBUF_SRAM_HEAD_SRAM_HH
#define PKTBUF_SRAM_HEAD_SRAM_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/block_slab.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/window_ring.hh"

namespace pktbuf::sram
{

class HeadSram
{
  public:
    /**
     * @param capacity_cells 0 = unbounded (measurement mode).
     * @param gran           largest block in cells (b)
     */
    HeadSram(unsigned phys_queues, std::uint64_t capacity_cells,
             unsigned gran)
        : queues_(phys_queues), capacity_(capacity_cells),
          slab_(gran, capacity_cells)
    {}

    /**
     * Insert a replenished block of `n` cells and return its storage
     * for the caller to fill in place (from the t-SRAM bypass or an
     * in-flight DRAM read), so no cell vector is built per block.
     * `seq` is the per-queue replenish sequence assigned when the
     * MMA issued the request; blocks may arrive out of order but are
     * consumed in sequence.  The span is valid until the next
     * insertion.
     */
    std::span<Cell>
    insertBlock(QueueId p, std::uint64_t seq, std::size_t n)
    {
        auto &qq = q(p);
        panic_if(seq < qq.next_consume_seq,
                 "replenish seq ", seq, " for queue ", p,
                 " already consumed");
        const std::uint64_t off = seq - qq.next_consume_seq;
        panic_if(off < qq.ring.capacity() &&
                     qq.ring[off].chunk != BlockSlab::kNone,
                 "duplicate replenish seq ", seq, " on queue ", p);
        panic_if(n == 0, "empty replenish block");
        panic_if(n > slab_.chunkCells(), "replenish block of ", n,
                 " cells exceeds the granularity ", slab_.chunkCells());
        occupancy_ += n;
        high_water_.observe(static_cast<std::int64_t>(occupancy_));
        panic_if(capacity_ && occupancy_ > capacity_,
                 "h-SRAM overflow: ", occupancy_, " cells > capacity ",
                 capacity_, " -- dimensioning violated");
        qq.ring.reserve(off + 1);
        Block &blk = qq.ring[off];
        blk.chunk = slab_.alloc();
        blk.size = static_cast<std::uint32_t>(n);
        blk.consumed = 0;
        ++qq.blocks;
        return slab_.data(blk.chunk).first(n);
    }

    /**
     * Pop the next in-order cell of queue p.  Panics (a *miss*) if
     * the block holding it has not been refilled yet.
     */
    Cell
    pop(QueueId p)
    {
        auto &qq = q(p);
        panic_if(wouldMiss(p),
                 "MISS: queue ", p, " has no cells for replenish seq ",
                 qq.next_consume_seq,
                 " in h-SRAM at grant time");
        Block &blk = qq.ring[0];
        const Cell c = slab_.data(blk.chunk)[blk.consumed++];
        if (blk.consumed == blk.size) {
            slab_.release(blk.chunk);
            blk = Block{};
            qq.ring.advance();
            --qq.blocks;
            ++qq.next_consume_seq;
        }
        panic_if(occupancy_ == 0, "h-SRAM occupancy accounting bug");
        --occupancy_;
        return c;
    }

    /** Would a pop on queue p miss right now? */
    bool
    wouldMiss(QueueId p) const
    {
        const auto &qq = q(p);
        return qq.ring.capacity() == 0 ||
               qq.ring[0].chunk == BlockSlab::kNone;
    }

    /** Physical cells of queue p currently in the SRAM. */
    std::uint64_t
    cellsOf(QueueId p) const
    {
        std::uint64_t n = 0;
        forEachBlock(q(p), [&n](std::uint64_t, const Block &blk) {
            n += blk.size - blk.consumed;
        });
        return n;
    }

    std::uint64_t occupancy() const { return occupancy_; }
    std::int64_t highWater() const { return high_water_.max(); }
    std::uint64_t capacity() const { return capacity_; }

    /** Recycle a (drained) physical queue for renaming reuse. */
    void
    recycle(QueueId p)
    {
        auto &qq = q(p);
        panic_if(qq.blocks != 0, "recycling queue ", p,
                 " with cells still cached");
        qq.next_consume_seq = 0;
    }

    /** Checkpoint: every queue's blocks in ascending seq, occupancy. */
    void
    save(ser::Writer &w) const
    {
        w.tag("HSRM");
        w.u64(queues_.size());
        for (const auto &qq : queues_) {
            w.u64(qq.next_consume_seq);
            w.u64(qq.blocks);
            forEachBlock(qq, [&](std::uint64_t off, const Block &blk) {
                w.u64(qq.next_consume_seq + off);
                w.u64(blk.consumed);
                w.u64(blk.size);
                for (const auto &c : slab_.data(blk.chunk).first(blk.size))
                    c.save(w);
            });
        }
        w.u64(occupancy_);
        high_water_.save(w);
    }

    void
    load(ser::Reader &r)
    {
        r.tag("HSRM");
        const auto n = r.u64();
        fatal_if(n != queues_.size(), "checkpoint: h-SRAM has ", n,
                 " queues, configured ", queues_.size());
        slab_.releaseAll();
        for (auto &qq : queues_) {
            qq.ring.clear();
            qq.blocks = 0;
            qq.next_consume_seq = r.u64();
            const auto nb = r.u64();
            for (std::uint64_t i = 0; i < nb; ++i) {
                const auto seq = r.u64();
                const auto consumed = r.u64();
                const auto nc = r.u64();
                fatal_if(seq < qq.next_consume_seq || nc == 0 ||
                             nc > slab_.chunkCells() || consumed >= nc,
                         "checkpoint: malformed h-SRAM block");
                const std::uint64_t off = seq - qq.next_consume_seq;
                qq.ring.reserve(off + 1);
                Block &blk = qq.ring[off];
                fatal_if(blk.chunk != BlockSlab::kNone,
                         "checkpoint: duplicate h-SRAM block");
                blk.chunk = slab_.alloc();
                blk.size = static_cast<std::uint32_t>(nc);
                blk.consumed = static_cast<std::uint32_t>(consumed);
                ++qq.blocks;
                for (auto &c : slab_.data(blk.chunk).first(nc))
                    c.load(r);
            }
        }
        occupancy_ = r.u64();
        high_water_.load(r);
    }

  private:
    /** A replenished block, consumed front to back in place. */
    struct Block
    {
        BlockSlab::Chunk chunk = BlockSlab::kNone;  //!< kNone = absent
        std::uint32_t size = 0;
        std::uint32_t consumed = 0;
    };

    struct QueueState
    {
        /** Descriptor of seq next_consume_seq + i at ring[i]. */
        WindowRing<Block> ring;
        std::uint64_t blocks = 0;  //!< descriptors present
        std::uint64_t next_consume_seq = 0;
    };

    /** Visit the present blocks of a queue in ascending seq. */
    template <typename Fn>
    static void
    forEachBlock(const QueueState &qq, Fn fn)
    {
        std::uint64_t left = qq.blocks;
        for (std::uint64_t off = 0; left > 0; ++off) {
            const Block &blk = qq.ring[off];
            if (blk.chunk == BlockSlab::kNone)
                continue;
            fn(off, blk);
            --left;
        }
    }

    const QueueState &
    q(QueueId p) const
    {
        panic_if(p >= queues_.size(), "h-SRAM: queue ", p,
                 " out of range (const accessor)");
        return queues_[p];
    }

    QueueState &
    q(QueueId p)
    {
        panic_if(p >= queues_.size(), "h-SRAM: queue ", p,
                 " out of range");
        return queues_[p];
    }

    std::vector<QueueState> queues_;
    std::uint64_t capacity_;  // ser: config
    /** Cell storage of every resident block; saved block by block. */
    BlockSlab slab_;
    std::uint64_t occupancy_ = 0;
    HighWater high_water_;
};

} // namespace pktbuf::sram

#endif // PKTBUF_SRAM_HEAD_SRAM_HH
