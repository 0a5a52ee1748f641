/**
 * @file
 * BlockSlab: fixed-size cell chunks handed out by index from one
 * contiguous pool.  It is the storage behind every block store of the
 * buffer -- h-SRAM blocks, t-SRAM queues, DRAM contents and in-flight
 * reads -- so a cell moves between them by copying at most one
 * chunk, and the steady-state cell path never touches the heap.
 *
 * The paper bounds each of those structures (Sections 3-5).  The
 * owner passes its enforced capacity as the chunk cap, so running out
 * of chunks is the same dimensioning violation the owner already
 * panics on.  Growth is lazy: the pool doubles on demand and never
 * shrinks.  A pool pre-filled to the worst-case bound would touch
 * pages that most runs never use.  A cap of 0 (measurement mode)
 * grows without limit.
 *
 * Chunks are named by index, not pointer: growing the pool moves it,
 * so a span from data() is valid only until the next alloc() on the
 * same slab.
 */

#ifndef PKTBUF_COMMON_BLOCK_SLAB_HH
#define PKTBUF_COMMON_BLOCK_SLAB_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace pktbuf
{

class BlockSlab
{
  public:
    using Chunk = std::uint32_t;
    static constexpr Chunk kNone = UINT32_MAX;

    /**
     * @param chunk_cells cells per chunk (the block size b)
     * @param max_chunks  chunk cap; 0 = grow without limit
     */
    BlockSlab(unsigned chunk_cells, std::uint64_t max_chunks)
        : chunk_cells_(chunk_cells), max_chunks_(max_chunks)
    {
        panic_if(chunk_cells == 0, "block slab with zero-cell chunks");
    }

    /** Take a free chunk, growing the pool if none is left. */
    Chunk
    alloc()
    {
        if (free_.empty())
            grow();
        const Chunk c = free_.back();
        free_.pop_back();
        return c;
    }

    /** Return a chunk to the free list (LIFO: reused while warm). */
    void release(Chunk c) { free_.push_back(c); }

    /** Return every chunk to the free list (checkpoint restore). */
    void
    releaseAll()
    {
        free_.clear();
        for (std::size_t c = chunks(); c-- > 0;)
            free_.push_back(static_cast<Chunk>(c));
    }

    std::span<Cell>
    data(Chunk c)
    {
        return {pool_.data() + std::size_t{c} * chunk_cells_,
                chunk_cells_};
    }

    std::span<const Cell>
    data(Chunk c) const
    {
        return {pool_.data() + std::size_t{c} * chunk_cells_,
                chunk_cells_};
    }

    unsigned chunkCells() const { return chunk_cells_; }
    /** Chunks the pool holds (in use or free). */
    std::size_t chunks() const { return pool_.size() / chunk_cells_; }

  private:
    static constexpr std::size_t kMinChunks = 16;

    void
    grow()
    {
        const std::size_t have = chunks();
        panic_if(max_chunks_ && have >= max_chunks_,
                 "block slab exhausted: all ", have, " chunks of ",
                 chunk_cells_, " cells in use -- dimensioning violated");
        std::size_t want = std::max(kMinChunks, 2 * have);
        if (max_chunks_)
            want = std::min<std::size_t>(want, max_chunks_);
        pool_.resize(want * chunk_cells_);
        free_.reserve(want);
        // Highest index first, so alloc() hands out the lowest.
        for (std::size_t c = want; c-- > have;)
            free_.push_back(static_cast<Chunk>(c));
    }

    unsigned chunk_cells_;  // ser: config
    std::uint64_t max_chunks_;  // ser: config
    std::vector<Cell> pool_;
    std::vector<Chunk> free_;
};

} // namespace pktbuf

#endif // PKTBUF_COMMON_BLOCK_SLAB_HH
