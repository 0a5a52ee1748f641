#include "logging.hh"

#include <iostream>

namespace pktbuf
{

namespace detail
{

void
appendOne(std::ostringstream &)
{
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "panic: " << msg << " (" << file << ":" << line << ")";
    throw PanicError(os.str());
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "fatal: " << msg << " (" << file << ":" << line << ")";
    throw FatalError(os.str());
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << "\n";
}

void
informImpl(const std::string &msg)
{
    std::cerr << "info: " << msg << "\n";
}

} // namespace detail

} // namespace pktbuf
