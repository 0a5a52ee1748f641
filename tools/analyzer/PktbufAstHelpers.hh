//===--- PktbufAstHelpers.hh - shared helpers for the pktbuf checks ------===//
//
// Small utilities shared by the four pktbuf clang-tidy checks:
// annotation-comment lookup (the linters' "// ser: config" /
// "// seed: fixed" grammar lives in source text, not the AST) and the
// StatRegistry key grammar.
//
// The plugin is deliberately header-only glue over the clang-tidy
// plugin API (-load / CheckFactories); it links against nothing --
// every symbol resolves from the hosting clang-tidy binary at load
// time, which is the supported out-of-tree plugin model.
//
//===----------------------------------------------------------------------===//

#ifndef PKTBUF_TOOLS_ANALYZER_PKTBUF_AST_HELPERS_HH
#define PKTBUF_TOOLS_ANALYZER_PKTBUF_AST_HELPERS_HH

#include "clang/Basic/SourceManager.h"
#include "llvm/ADT/StringRef.h"

namespace clang::tidy::pktbuf
{

/// The source line containing `Loc` plus up to `Above` lines before
/// it, as one StringRef slice of the file buffer.  Annotations sit on
/// the declaration line or just above it (mirroring the Python
/// linters, which accept the line and the two lines above).
inline llvm::StringRef
lineAndAbove(const SourceManager &SM, SourceLocation Loc, unsigned Above)
{
    Loc = SM.getExpansionLoc(Loc);
    const FileID FID = SM.getFileID(Loc);
    bool Invalid = false;
    const llvm::StringRef Buf = SM.getBufferData(FID, &Invalid);
    if (Invalid)
        return llvm::StringRef();
    const unsigned Offset = SM.getFileOffset(Loc);
    size_t End = Buf.find('\n', Offset);
    if (End == llvm::StringRef::npos)
        End = Buf.size();
    size_t Start = Offset ? Buf.rfind('\n', Offset) : 0;
    if (Start == llvm::StringRef::npos)
        Start = 0;
    for (unsigned i = 0; i < Above && Start > 0; ++i) {
        const size_t Prev = Buf.rfind('\n', Start - 1);
        if (Prev == llvm::StringRef::npos) {
            Start = 0;
            break;
        }
        Start = Prev;
    }
    return Buf.slice(Start, End);
}

/// True when the annotation `tag: word` (e.g. "ser: config",
/// "seed: fixed") appears in `Text`.  `Words` is the allowed word
/// set; pass an empty list to accept any word after the tag.
inline bool
hasAnnotation(llvm::StringRef Text, llvm::StringRef Tag,
              std::initializer_list<llvm::StringRef> Words)
{
    size_t Pos = 0;
    while ((Pos = Text.find(Tag, Pos)) != llvm::StringRef::npos) {
        llvm::StringRef Rest = Text.drop_front(Pos + Tag.size());
        Pos += Tag.size();
        if (!Rest.consume_front(":"))
            continue;
        Rest = Rest.ltrim(" \t");
        if (Words.size() == 0)
            return true;
        for (llvm::StringRef W : Words) {
            if (Rest.size() >= W.size() && Rest.take_front(W.size()) == W)
                return true;
        }
    }
    return false;
}

/// The StatRegistry key grammar: `component.metric` -- lower-case
/// alnum/underscore tokens joined by at least one dot, starting with
/// a letter.
inline bool
isValidStatKey(llvm::StringRef Key)
{
    if (Key.empty() || Key[0] < 'a' || Key[0] > 'z')
        return false;
    bool SawDot = false;
    char Prev = '\0';
    for (const char C : Key) {
        const bool Ok = (C >= 'a' && C <= 'z') || (C >= '0' && C <= '9') ||
                        C == '_' || C == '.';
        if (!Ok)
            return false;
        if (C == '.') {
            if (Prev == '.' || Prev == '\0')
                return false;  // empty component
            SawDot = true;
        }
        Prev = C;
    }
    return SawDot && Prev != '.';
}

/// Charset rule for literal fragments of runtime-composed keys
/// ("across_ports." + name): only lower-case alnum, '_' and '.'.
inline bool
isValidStatKeyFragment(llvm::StringRef Fragment)
{
    for (const char C : Fragment) {
        const bool Ok = (C >= 'a' && C <= 'z') || (C >= '0' && C <= '9') ||
                        C == '_' || C == '.';
        if (!Ok)
            return false;
    }
    return true;
}

/// True when a declaration name smells like a seed ("seed",
/// "masterSeed", "master_seed", "seed_"...).
inline bool
isSeedName(llvm::StringRef Name)
{
    const std::string Lower = Name.lower();
    return Lower.find("seed") != std::string::npos;
}

} // namespace clang::tidy::pktbuf

#endif // PKTBUF_TOOLS_ANALYZER_PKTBUF_AST_HELPERS_HH
