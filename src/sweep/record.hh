/**
 * @file
 * Typed key/value result records for the sweep engine.
 *
 * Every sweep task reports its measurements as one or more Record
 * objects: ordered lists of (key, Value) pairs that the emitters in
 * emit.hh serialize to JSON and CSV.  Values are a small tagged union
 * (bool / signed / unsigned / real / string) so emission is exact and
 * deterministic -- the same run always serializes to the same bytes,
 * which is what lets the determinism tests compare aggregated output
 * across thread counts byte for byte.
 */

#ifndef PKTBUF_SWEEP_RECORD_HH
#define PKTBUF_SWEEP_RECORD_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace pktbuf::sweep
{

/**
 * One field value: a tagged union of the JSON scalar types.
 *
 * Integral types map to Int/UInt by signedness; floating-point
 * serializes via the shortest round-trip representation
 * (std::to_chars), so emission never depends on locale or stream
 * state.
 */
class Value
{
  public:
    /** Discriminator of the held alternative. */
    enum class Kind
    {
        Null,  //!< no value (missing CSV field, JSON null)
        Bool,
        Int,
        UInt,
        Real,
        Str,
    };

    // Implicit construction is the point of this type: result rows
    // assign bare literals (`row.set("load", 0.92)`) hundreds of
    // times across the emitters, hence the NOLINTs below.
    Value() = default;
    // NOLINTNEXTLINE(google-explicit-constructor)
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    // NOLINTNEXTLINE(google-explicit-constructor)
    Value(double d) : kind_(Kind::Real), real_(d) {}
    // NOLINTNEXTLINE(google-explicit-constructor)
    Value(const char *s) : kind_(Kind::Str), str_(s) {}
    // NOLINTNEXTLINE(google-explicit-constructor)
    Value(std::string s) : kind_(Kind::Str), str_(std::move(s)) {}

    /** Any non-bool integral type, mapped by signedness. */
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    // NOLINTNEXTLINE(google-explicit-constructor)
    Value(T v)
    {
        if constexpr (std::is_signed_v<T>) {
            kind_ = Kind::Int;
            int_ = static_cast<std::int64_t>(v);
        } else {
            kind_ = Kind::UInt;
            uint_ = static_cast<std::uint64_t>(v);
        }
    }

    Kind kind() const { return kind_; }

    /** The value as an unsigned integer; `fallback` when not Int/UInt. */
    std::uint64_t asUInt(std::uint64_t fallback = 0) const;
    /** The value as a double; `fallback` when not numeric. */
    double asReal(double fallback = 0.0) const;

    /** Serialize as a JSON token (strings quoted and escaped). */
    std::string json() const;

    /**
     * Serialize as a CSV field: like json() but strings are emitted
     * bare unless they need RFC-4180 quoting, and Null is empty.
     */
    std::string csv() const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double real_ = 0.0;
    std::string str_;
};

/**
 * An ordered set of named fields.  Insertion order is preserved (it
 * is the JSON emission order); setting an existing key overwrites the
 * value in place so emission order never depends on update order.
 */
class Record
{
  public:
    /** Set (or overwrite) one field; returns *this for chaining. */
    Record &set(std::string_view key, Value v);

    /** The fields, in first-insertion order. */
    const std::vector<std::pair<std::string, Value>> &
    fields() const
    {
        return fields_;
    }

    /** Pointer to a field's value, or nullptr when absent. */
    const Value *find(std::string_view key) const;

  private:
    std::vector<std::pair<std::string, Value>> fields_;
};

} // namespace pktbuf::sweep

#endif // PKTBUF_SWEEP_RECORD_HH
