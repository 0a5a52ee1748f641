#include "record.hh"

#include <charconv>
#include <cmath>

#include "common/logging.hh"

namespace pktbuf::sweep
{

namespace
{

std::string
formatReal(double d)
{
    // Shortest round-trip form, locale-independent.  Callers screen
    // out non-finite values (JSON null / empty CSV cell) before
    // calling; reaching here with one is a harness bug (to_chars
    // would happily emit "inf" and corrupt the artifact).
    panic_if(!std::isfinite(d), "non-finite value ", d,
             " in a result record");
    char buf[64];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), d);
    panic_if(res.ec != std::errc{}, "double formatting failed");
    std::string s(buf, res.ptr);
    // Make sure the token reads back as a JSON number even when the
    // value is integral (to_chars may emit "3" or "1e+20").
    if (s.find_first_of(".eE") == std::string::npos)
        s += ".0";
    return s;
}

std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                constexpr char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
escapeCsv(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::uint64_t
Value::asUInt(std::uint64_t fallback) const
{
    if (kind_ == Kind::UInt)
        return uint_;
    if (kind_ == Kind::Int && int_ >= 0)
        return static_cast<std::uint64_t>(int_);
    return fallback;
}

double
Value::asReal(double fallback) const
{
    switch (kind_) {
      case Kind::Real:
        return real_;
      case Kind::Int:
        return static_cast<double>(int_);
      case Kind::UInt:
        return static_cast<double>(uint_);
      case Kind::Null:
      case Kind::Bool:
      case Kind::Str:
        return fallback;
    }
    return fallback;
}

std::string
Value::json() const
{
    switch (kind_) {
      case Kind::Null:
        return "null";
      case Kind::Bool:
        return bool_ ? "true" : "false";
      case Kind::Int:
        return std::to_string(int_);
      case Kind::UInt:
        return std::to_string(uint_);
      case Kind::Real:
        // JSON has no inf/nan tokens: a non-finite measurement (an
        // empty sampler's mean, a 0/0 rate) becomes null rather than
        // corrupting the artifact or killing the whole emission.
        return std::isfinite(real_) ? formatReal(real_) : "null";
      case Kind::Str:
        return escapeJson(str_);
    }
    return "null";
}

std::string
Value::csv() const
{
    switch (kind_) {
      case Kind::Null:
        return "";
      case Kind::Str:
        return escapeCsv(str_);
      case Kind::Bool:
        return bool_ ? "true" : "false";
      case Kind::Int:
        return std::to_string(int_);
      case Kind::UInt:
        return std::to_string(uint_);
      case Kind::Real:
        // Mirror the JSON convention: a non-finite value becomes an
        // empty cell, the CSV idiom for "not available".
        return std::isfinite(real_) ? formatReal(real_) : "";
    }
    return "";
}

Record &
Record::set(std::string_view key, Value v)
{
    for (auto &[k, val] : fields_) {
        if (k == key) {
            val = std::move(v);
            return *this;
        }
    }
    fields_.emplace_back(std::string(key), std::move(v));
    return *this;
}

const Value *
Record::find(std::string_view key) const
{
    for (const auto &[k, v] : fields_)
        if (k == key)
            return &v;
    return nullptr;
}

} // namespace pktbuf::sweep
