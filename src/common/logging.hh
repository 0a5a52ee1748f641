/**
 * @file
 * Error-reporting helpers in the gem5 spirit:
 *
 *  - panic():  an internal invariant of the simulator is broken (a bug
 *              in this code base).  Throws PanicError so tests can
 *              assert on violated invariants without killing the
 *              process.
 *  - fatal():  the *user's* configuration is impossible (e.g. more
 *              queues than physical queues).  Throws FatalError.
 *  - warn()/inform(): status messages on stderr; never stop anything.
 */

#ifndef PKTBUF_COMMON_LOGGING_HH
#define PKTBUF_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace pktbuf
{

/** Raised by panic(): a simulator invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/** Raised by fatal(): the requested configuration is invalid. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace detail
{

void appendOne(std::ostringstream &os);

template <typename T, typename... Rest>
void
appendOne(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    appendOne(os, rest...);
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

template <typename... Args>
std::string
format(const Args &...args)
{
    std::ostringstream os;
    appendOne(os, args...);
    return os.str();
}

} // namespace detail

template <typename... Args>
[[noreturn]] void
panicAt(const char *file, int line, const Args &...args)
{
    detail::panicImpl(file, line, detail::format(args...));
}

template <typename... Args>
[[noreturn]] void
fatalAt(const char *file, int line, const Args &...args)
{
    detail::fatalImpl(file, line, detail::format(args...));
}

template <typename... Args>
void
warn(const Args &...args)
{
    detail::warnImpl(detail::format(args...));
}

template <typename... Args>
void
inform(const Args &...args)
{
    detail::informImpl(detail::format(args...));
}

#define panic(...) ::pktbuf::panicAt(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) ::pktbuf::fatalAt(__FILE__, __LINE__, __VA_ARGS__)

/** panic() unless the condition holds. */
#define panic_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond)                                                           \
            panic(__VA_ARGS__);                                             \
    } while (0)

#define fatal_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond)                                                           \
            fatal(__VA_ARGS__);                                             \
    } while (0)

} // namespace pktbuf

#endif // PKTBUF_COMMON_LOGGING_HH
