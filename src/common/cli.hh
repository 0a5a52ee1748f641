/**
 * @file
 * Checked numeric command-line values, shared by the bench harnesses
 * and the examples.
 *
 * A flag's value must be the whole string, unsigned values carry no
 * sign, and the value must lie in the flag's range.  Anything else
 * prints one line naming the flag and exits with status 2, the status
 * of an unknown flag.  A bad value never crashes the program, and it
 * is never clamped, so a run never reports a value it did not use.
 */

#ifndef PKTBUF_COMMON_CLI_HH
#define PKTBUF_COMMON_CLI_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

namespace pktbuf::cli
{

[[noreturn]] inline void
reject(const char *flag, const char *text, const std::string &want)
{
    std::fprintf(stderr, "error: %s: '%s' is not %s\n", flag, text,
                 want.c_str());
    std::exit(2);
}

/** `text` as an unsigned integer in [lo, hi] (decimal, or 0x hex). */
inline std::uint64_t
parseUnsigned(const char *flag, const char *text, std::uint64_t lo,
              std::uint64_t hi)
{
    const auto fail = [&] {
        reject(flag, text, "an integer in [" + std::to_string(lo) +
                               ", " + std::to_string(hi) + "]");
    };
    // strtoull itself skips blanks and negates a leading '-'.
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        fail();
    char *end = nullptr;
    errno = 0;
    const auto v = std::strtoull(text, &end, 0);
    if (errno == ERANGE || *end != '\0' || v < lo || v > hi)
        fail();
    return v;
}

/** parseUnsigned narrowed to `unsigned`, [lo, hi] within its range. */
inline unsigned
parseUint(const char *flag, const char *text, unsigned lo,
          unsigned hi = std::numeric_limits<unsigned>::max())
{
    return static_cast<unsigned>(parseUnsigned(flag, text, lo, hi));
}

/** `text` as a finite number in [lo, hi]. */
inline double
parseDouble(const char *flag, const char *text, double lo, double hi)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        std::isspace(static_cast<unsigned char>(text[0])) ||
        !std::isfinite(v) || v < lo || v > hi) {
        std::ostringstream want;
        want << "a number in [" << lo << ", " << hi << "]";
        reject(flag, text, want.str());
    }
    return v;
}

/** A --jobs worker count: 0 = all hardware threads. */
inline unsigned
parseJobs(const char *text)
{
    return parseUint("--jobs", text, 0, 1024);
}

} // namespace pktbuf::cli

#endif // PKTBUF_COMMON_CLI_HH
