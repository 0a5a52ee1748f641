/**
 * @file
 * WindowRing: a power-of-two ring addressed by offset from a moving
 * front, the per-queue index behind the block stores (h-SRAM blocks
 * by replenish seq, DRAM blocks by ordinal) and the ECQF calendar's
 * entry stamps.
 *
 * Offset 0 is the front.  advance() drops the front (offsets shift
 * down by one), retreat(k) opens k fresh slots before it.  reserve()
 * grows the ring by doubling and keeps every element at its offset;
 * it never shrinks, so a ring that has reached its working size stops
 * allocating.  Slots outside the owner's live window must hold the
 * ring's empty value: growth and retreat() expose them as-is.
 */

#ifndef PKTBUF_COMMON_WINDOW_RING_HH
#define PKTBUF_COMMON_WINDOW_RING_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace pktbuf
{

template <typename T>
class WindowRing
{
  public:
    /** @param empty the value of a vacant slot */
    explicit WindowRing(T empty = T{}) : empty_(empty) {}

    T &
    operator[](std::uint64_t off)
    {
        return buf_[(head_ + off) & (buf_.size() - 1)];
    }

    const T &
    operator[](std::uint64_t off) const
    {
        return buf_[(head_ + off) & (buf_.size() - 1)];
    }

    std::size_t capacity() const { return buf_.size(); }

    /** Make offsets [0, need) addressable. */
    void
    reserve(std::uint64_t need)
    {
        if (need <= buf_.size())
            return;
        std::vector<T> grown(
            std::bit_ceil(std::max<std::uint64_t>(need, 4)), empty_);
        for (std::size_t i = 0; i < buf_.size(); ++i)
            grown[i] = (*this)[i];
        buf_ = std::move(grown);
        head_ = 0;
    }

    /** Drop the front slot (the owner has emptied it). */
    void advance() { head_ = (head_ + 1) & (buf_.size() - 1); }

    /** Open `k` slots before the front (capacity must cover them). */
    void
    retreat(std::uint64_t k)
    {
        head_ = (head_ - k) & (buf_.size() - 1);
    }

    /** Empty every slot, keeping the capacity. */
    void
    clear()
    {
        std::fill(buf_.begin(), buf_.end(), empty_);
        head_ = 0;
    }

  private:
    T empty_;
    std::vector<T> buf_;
    std::size_t head_ = 0;
};

} // namespace pktbuf

#endif // PKTBUF_COMMON_WINDOW_RING_HH
