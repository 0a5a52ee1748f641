/**
 * @file
 * Functional contents of the DRAM: per-physical-queue blocks of b
 * cells keyed by *block ordinal* (the same ordinal that drives the
 * block-cyclic bank mapping), with per-group occupancy accounting
 * for the renaming/fragmentation machinery (Section 6).
 *
 * Timing lives in BankState / the ORR; this class only stores data.
 * Ordinal keying lets the DSA launch same-queue accesses out of
 * order (reads are re-sequenced in the head SRAM, Section 8.2)
 * without corrupting queue contents.
 *
 * Storage: each queue keeps a power-of-two ring of chunk indices
 * indexed by `ordinal - base`, where base is the oldest ordinal
 * still resident.  Writes land in order per queue; out-of-order
 * reads leave holes that the base skips once the older block goes.
 * The cells live in one BlockSlab of b-cell chunks, capped at the
 * total group capacity in blocks.
 */

#ifndef PKTBUF_DRAM_DRAM_STORE_HH
#define PKTBUF_DRAM_DRAM_STORE_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/block_slab.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "common/window_ring.hh"

namespace pktbuf::dram
{

class DramStore
{
  public:
    /**
     * @param phys_queues number of physical queues
     * @param gran        cells per block (b)
     * @param groups      number of bank groups (1 for RADS)
     * @param group_capacity_cells per-group capacity; 0 = unbounded
     */
    DramStore(unsigned phys_queues, unsigned gran, unsigned groups,
              std::uint64_t group_capacity_cells)
        : gran_(gran), group_cells_(groups, 0),
          group_capacity_(group_capacity_cells), queues_(phys_queues),
          slab_(gran, gran ? group_capacity_cells * groups / gran : 0)
    {
        panic_if(gran == 0, "zero granularity");
        panic_if(groups == 0, "zero groups");
    }

    unsigned gran() const { return gran_; }
    unsigned groups() const
    {
        return static_cast<unsigned>(group_cells_.size());
    }

    /** Is block `ordinal` of queue p resident? */
    bool
    hasBlock(QueueId p, std::uint64_t ordinal) const
    {
        const auto &qq = q(p);
        return ordinal >= qq.base && ordinal - qq.base < qq.span &&
               qq.ring[ordinal - qq.base] != BlockSlab::kNone;
    }

    /** Blocks of queue p currently resident. */
    std::uint64_t
    residentBlocks(QueueId p) const
    {
        return q(p).blocks;
    }

    /**
     * Store one block of `n` (exactly `gran`) cells and return its
     * storage for the caller to fill in place -- the write path moves
     * the claimed t-SRAM cells straight in.  The span is valid until
     * the next write.
     */
    std::span<Cell>
    writeBlock(QueueId p, std::uint64_t ordinal, std::size_t n,
               unsigned group)
    {
        panic_if(n != gran_, "write of ", n,
                 " cells, granularity is ", gran_);
        panic_if(group >= group_cells_.size(),
                 "bad group on block write");
        panic_if(hasBlock(p, ordinal),
                 "duplicate block ordinal ", ordinal, " on queue ", p);
        group_cells_[group] += gran_;
        panic_if(group_capacity_ &&
                 group_cells_[group] > group_capacity_,
                 "DRAM group ", group, " overflow (",
                 group_cells_[group], " > ", group_capacity_,
                 " cells): admission control must prevent this");
        const auto c = slab_.alloc();
        place(q(p), ordinal, c);
        return slab_.data(c);
    }

    /** Remove block `ordinal` of queue p, copying it into `out`. */
    void
    readBlock(QueueId p, std::uint64_t ordinal, unsigned group,
              std::span<Cell> out)
    {
        panic_if(!hasBlock(p, ordinal),
                 "read of absent block ", ordinal, " on queue ", p);
        panic_if(out.size() != gran_, "read into ", out.size(),
                 " cells, granularity is ", gran_);
        auto &qq = q(p);
        auto &chunk = qq.ring[ordinal - qq.base];
        std::ranges::copy(slab_.data(chunk), out.begin());
        slab_.release(chunk);
        chunk = BlockSlab::kNone;
        --qq.blocks;
        // Advance the base past the read block and any holes left
        // by younger blocks read earlier.
        while (qq.span > 0 && qq.ring[0] == BlockSlab::kNone) {
            qq.ring.advance();
            ++qq.base;
            --qq.span;
        }
        panic_if(group_cells_[group] < gran_, "group accounting bug");
        group_cells_[group] -= gran_;
    }

    /** Cells resident in one group. */
    std::uint64_t
    groupCells(unsigned group) const
    {
        panic_if(group >= group_cells_.size(),
                 "bad group in groupCells");
        return group_cells_[group];
    }

    /** Total cells resident across all groups. */
    std::uint64_t
    totalCells() const
    {
        std::uint64_t n = 0;
        for (const auto g : group_cells_)
            n += g;
        return n;
    }

    /** Reset a recycled physical queue (renaming): must be empty. */
    void
    recycle(QueueId p)
    {
        panic_if(q(p).blocks != 0,
                 "recycling non-empty queue ", p);
    }

    /** Checkpoint: group occupancies and every queue's blocks. */
    void
    save(ser::Writer &w) const
    {
        w.tag("DRAM");
        w.u64(group_cells_.size());
        for (const auto g : group_cells_)
            w.u64(g);
        w.u64(queues_.size());
        for (const auto &qq : queues_) {
            w.u64(qq.blocks);
            for (std::uint64_t off = 0; off < qq.span; ++off) {
                const auto c = qq.ring[off];
                if (c == BlockSlab::kNone)
                    continue;
                w.u64(qq.base + off);
                w.u64(gran_);
                for (const auto &cell : slab_.data(c))
                    cell.save(w);
            }
        }
    }

    void
    load(ser::Reader &r)
    {
        r.tag("DRAM");
        const auto ng = r.u64();
        fatal_if(ng != group_cells_.size(),
                 "checkpoint: DRAM store has ", ng,
                 " groups, configured ", group_cells_.size());
        for (auto &g : group_cells_)
            g = r.u64();
        const auto nq = r.u64();
        fatal_if(nq != queues_.size(), "checkpoint: DRAM has ", nq,
                 " queues, configured ", queues_.size());
        slab_.releaseAll();
        for (auto &qq : queues_) {
            qq.ring.clear();
            qq.base = qq.span = qq.blocks = 0;
            const auto nb = r.u64();
            for (std::uint64_t i = 0; i < nb; ++i) {
                const auto ordinal = r.u64();
                const auto nc = r.u64();
                fatal_if(nc != gran_, "checkpoint: DRAM block of ", nc,
                         " cells, granularity is ", gran_);
                fatal_if(qq.blocks && ordinal < qq.base + qq.span,
                         "checkpoint: DRAM ordinals out of order");
                const auto c = slab_.alloc();
                for (auto &cell : slab_.data(c))
                    cell.load(r);
                place(qq, ordinal, c);
            }
        }
    }

  private:
    /** Chunk of ordinal base + i at ring[i] for i < span (kNone for
     *  a hole); every other ring slot is kNone. */
    struct QueueData
    {
        WindowRing<BlockSlab::Chunk> ring{BlockSlab::kNone};
        std::uint64_t base = 0;
        std::uint64_t span = 0;
        std::uint64_t blocks = 0;  //!< resident (non-hole) entries
    };

    /** Index chunk `c` as block `ordinal` (absent before). */
    static void
    place(QueueData &qq, std::uint64_t ordinal, BlockSlab::Chunk c)
    {
        if (qq.blocks == 0) {
            qq.base = ordinal;
            qq.span = 0;
        } else if (ordinal < qq.base) {
            // An older ordinal than any resident: extend the window
            // backwards (the slots before the front are kNone).
            const std::uint64_t grow_by = qq.base - ordinal;
            qq.ring.reserve(qq.span + grow_by);
            qq.ring.retreat(grow_by);
            qq.base = ordinal;
            qq.span += grow_by;
        }
        const std::uint64_t off = ordinal - qq.base;
        if (off >= qq.span) {
            qq.ring.reserve(off + 1);
            qq.span = off + 1;
        }
        qq.ring[off] = c;
        ++qq.blocks;
    }

    const QueueData &
    q(QueueId p) const
    {
        panic_if(p >= queues_.size(), "physical queue ", p,
                 " out of range (const accessor)");
        return queues_[p];
    }

    QueueData &
    q(QueueId p)
    {
        panic_if(p >= queues_.size(), "physical queue ", p,
                 " out of range");
        return queues_[p];
    }

    unsigned gran_;  // ser: config
    std::vector<std::uint64_t> group_cells_;
    std::uint64_t group_capacity_;  // ser: config
    std::vector<QueueData> queues_;
    /** Cell storage of every resident block; saved block by block. */
    BlockSlab slab_;
};

} // namespace pktbuf::dram

#endif // PKTBUF_DRAM_DRAM_STORE_HH
