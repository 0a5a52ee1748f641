//===--- PktbufTidyModule.cc - registers the pktbuf check module ---------===//
//
// The in-tree clang-tidy plugin: load with
//
//   clang-tidy --load=libPktbufTidyChecks.so \
//              --checks='-*,pktbuf-*' <file> -- -std=c++20 -Isrc
//
// (tools/lint/run_tidy.sh does this automatically when the plugin
// has been built).  Registration happens through the static
// ClangTidyModuleRegistry -- the supported out-of-tree plugin model
// since clang-tidy 14 -- so the module needs no entry point and
// links against nothing: all clang symbols resolve from the hosting
// clang-tidy binary when the shared object is loaded.
//
//===----------------------------------------------------------------------===//

#include "clang-tidy/ClangTidyModule.h"
#include "clang-tidy/ClangTidyModuleRegistry.h"

#include "EnumSwitchCheck.hh"
#include "SeedDisciplineCheck.hh"
#include "SerializationCompleteCheck.hh"
#include "StatKeyCheck.hh"

namespace clang::tidy::pktbuf
{

class PktbufModule : public ClangTidyModule
{
  public:
    void
    addCheckFactories(ClangTidyCheckFactories &CheckFactories) override
    {
        CheckFactories.registerCheck<SeedDisciplineCheck>(
            "pktbuf-seed-discipline");
        CheckFactories.registerCheck<SerializationCompleteCheck>(
            "pktbuf-serialization-complete");
        CheckFactories.registerCheck<StatKeyCheck>("pktbuf-stat-key");
        CheckFactories.registerCheck<EnumSwitchCheck>(
            "pktbuf-enum-switch");
    }
};

} // namespace clang::tidy::pktbuf

namespace clang::tidy
{

// Static registration: the registry is scanned when clang-tidy
// enumerates checks, after -load has pulled this object in.
static ClangTidyModuleRegistry::Add<pktbuf::PktbufModule>
    pktbufModuleInit("pktbuf-module",
                     "pktbuf simulator invariant checks");

// Anchor so the static initializer above is never dead-stripped.
volatile int pktbufModuleAnchorSource = 0;

} // namespace clang::tidy
