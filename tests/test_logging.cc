/**
 * @file
 * Direct unit tests for src/common/logging.{hh,cc}: the exception
 * payloads of panic()/fatal() (message, variadic formatting and the
 * file:line suffix a replay depends on) and the warn()/inform() stderr
 * channels.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"

using namespace pktbuf;

namespace
{

TEST(LoggingFormat, PanicCarriesMessageFileAndLine)
{
    try {
        panic("invariant ", 3, " broke on queue ", 7);
        FAIL() << "panic did not throw";
    } catch (const PanicError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("panic: invariant 3 broke on queue 7"),
                  std::string::npos)
            << what;
        // The throw site is named so a log line alone locates it.
        EXPECT_NE(what.find("test_logging.cc"), std::string::npos)
            << what;
        EXPECT_NE(what.find(":"), std::string::npos);
    }
}

TEST(LoggingFormat, FatalCarriesMessageFileAndLine)
{
    try {
        fatal("config wants ", 9, " queues");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("fatal: config wants 9 queues"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("test_logging.cc"), std::string::npos)
            << what;
    }
}

TEST(LoggingFormat, PanicIsLogicErrorFatalIsRuntimeError)
{
    // The distinction is load-bearing: panic = simulator bug,
    // fatal = impossible user configuration.  Handlers that catch
    // one must not accidentally swallow the other.
    EXPECT_THROW(panic("x"), std::logic_error);
    EXPECT_THROW(fatal("x"), std::runtime_error);
}

TEST(LoggingFormat, ZeroArgumentFormatting)
{
    // The variadic recursion's base case: no formatting arguments.
    try {
        panic("bare");
        FAIL() << "panic did not throw";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("panic: bare"),
                  std::string::npos);
    }
}

TEST(LoggingChannels, WarnAlwaysWritesToStderr)
{
    testing::internal::CaptureStderr();
    warn("queue ", 3, " overcommitted");
    const auto text = testing::internal::GetCapturedStderr();
    EXPECT_EQ(text, "warn: queue 3 overcommitted\n");
}

TEST(LoggingChannels, InformWritesToStderr)
{
    testing::internal::CaptureStderr();
    inform("sweep has ", 40, " legs");
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "info: sweep has 40 legs\n");
}

TEST(LoggingConditions, ConditionMacrosEvaluateOnce)
{
    // A side-effecting condition must run exactly once whether or
    // not it fires (the macros wrap it in a single if).
    int calls = 0;
    const auto bump = [&calls]() { return ++calls < 0; };
    EXPECT_NO_THROW(panic_if(bump(), "never"));
    EXPECT_EQ(calls, 1);
    EXPECT_NO_THROW(fatal_if(bump(), "never"));
    EXPECT_EQ(calls, 2);
}

} // namespace
