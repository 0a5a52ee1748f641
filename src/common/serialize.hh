/**
 * @file
 * Byte-exact serialization primitives for checkpoint/restore: a
 * little-endian, fixed-width Writer/Reader pair, the FNV-1a
 * fingerprint and the versioned "PKCK" envelope around a payload.
 *
 * The codec is deliberately dumb: every field is written explicitly,
 * in declaration order, with no padding, no varints and no implicit
 * defaults, so a checkpoint byte stream is a pure function of the
 * simulator state and two states serialize identically iff they are
 * identical.  Doubles travel as their IEEE-754 bit pattern
 * (bit_cast), never through text, so restore is bit-exact.
 *
 * Error model: a Reader that sees a short read, a bad section tag or
 * trailing bytes calls fatal() -- a malformed checkpoint is invalid
 * *input* (truncated file, version skew, bit rot), not a simulator
 * bug, and callers are expected to catch FatalError and reject the
 * checkpoint.
 */

#ifndef PKTBUF_COMMON_SERIALIZE_HH
#define PKTBUF_COMMON_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "logging.hh"

namespace pktbuf::ser
{

/** FNV-1a offset basis (64-bit). */
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
/** FNV-1a prime (64-bit). */
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** Incremental FNV-1a over a byte range. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a of a string (config fingerprints hash describe() text). */
inline std::uint64_t
fnv1a(std::string_view s)
{
    return fnv1a(s.data(), s.size());
}

/** Appends little-endian fixed-width fields to a byte buffer. */
class Writer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    /** IEEE-754 bit pattern -- restore is bit-exact. */
    void
    real(double v)
    {
        u64(std::bit_cast<std::uint64_t>(v));
    }

    /** Length-prefixed byte string. */
    void
    str(std::string_view s)
    {
        u64(s.size());
        buf_.append(s.data(), s.size());
    }

    /**
     * Section tag: a 4-character marker the Reader re-validates, so
     * a producer/consumer field-order mismatch fails at the section
     * boundary with a readable name instead of decoding garbage.
     */
    void
    tag(const char (&name)[5])
    {
        buf_.append(name, 4);
    }

    const std::string &bytes() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/** Consumes a byte buffer written by Writer; fatal() on malformed
 *  input (short read, tag mismatch, trailing bytes). */
class Reader
{
  public:
    explicit Reader(std::string_view bytes) : buf_(bytes) {}

    std::uint8_t
    u8()
    {
        need(1);
        return static_cast<std::uint8_t>(buf_[pos_++]);
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(buf_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(buf_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    bool
    b()
    {
        const auto v = u8();
        fatal_if(v > 1, "checkpoint: bool field holds ", unsigned(v));
        return v != 0;
    }

    double
    real()
    {
        return std::bit_cast<double>(u64());
    }

    std::string
    str()
    {
        const auto n = u64();
        need(n);
        std::string s(buf_.substr(pos_, n));
        pos_ += n;
        return s;
    }

    void
    tag(const char (&name)[5])
    {
        need(4);
        fatal_if(buf_.compare(pos_, 4, name, 4) != 0,
                 "checkpoint: expected section '", name, "' at byte ",
                 pos_, ", found '", buf_.substr(pos_, 4), "'");
        pos_ += 4;
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return buf_.size() - pos_; }

    /** Assert the stream was consumed exactly. */
    void
    done() const
    {
        fatal_if(remaining() != 0, "checkpoint: ", remaining(),
                 " trailing bytes after the last section");
    }

  private:
    void
    need(std::size_t n)
    {
        fatal_if(buf_.size() - pos_ < n,
                 "checkpoint: short read at byte ", pos_, " (need ",
                 n, ", have ", buf_.size() - pos_, ")");
    }

    std::string_view buf_;
    std::size_t pos_ = 0;
};

/*
 * The checkpoint envelope, a versioned binary format:
 *
 *   "PKCK"             4-byte magic tag
 *   version            u32 (currently 1)
 *   config fingerprint u64 -- FNV-1a of the owner's describe() text,
 *                      so a checkpoint can only be restored into the
 *                      same configuration (grid, seed, slots, timing)
 *   payload            length-prefixed bytes (every layer's save())
 *   checksum           u64 -- FNV-1a of the payload bytes
 *
 * Any mismatch -- wrong magic, unknown version, foreign fingerprint,
 * short read, corrupt checksum, trailing bytes -- raises FatalError.
 */

/** Current envelope version; bumped on any layout change. */
inline constexpr std::uint32_t kCheckpointVersion = 1;

/**
 * Wrap a serialized payload in the versioned envelope.
 * @param payload the concatenated save() bytes of every layer
 * @param config_fingerprint FNV-1a of the owner's describe()
 * @return the envelope bytes
 */
inline std::string
sealCheckpoint(std::string_view payload, std::uint64_t config_fingerprint)
{
    Writer w;
    w.tag("PKCK");
    w.u32(kCheckpointVersion);
    w.u64(config_fingerprint);
    w.str(payload);
    w.u64(fnv1a(payload));
    return w.take();
}

/** Validate an envelope and extract its payload; FatalError on any
 *  corruption or configuration mismatch. */
inline std::string
openCheckpoint(std::string_view bytes, std::uint64_t config_fingerprint)
{
    Reader r(bytes);
    r.tag("PKCK");
    const auto version = r.u32();
    fatal_if(version != kCheckpointVersion, "checkpoint: version ",
             version, " not supported (this build reads ",
             kCheckpointVersion, ")");
    const auto fp = r.u64();
    fatal_if(fp != config_fingerprint,
             "checkpoint: built for a different configuration "
             "(fingerprint ", fp, ", this leg is ",
             config_fingerprint, ")");
    std::string payload = r.str();
    const auto sum = r.u64();
    fatal_if(sum != fnv1a(payload),
             "checkpoint: payload checksum mismatch (corrupt file?)");
    r.done();
    return payload;
}

} // namespace pktbuf::ser

#endif // PKTBUF_COMMON_SERIALIZE_HH
