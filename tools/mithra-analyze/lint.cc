#include "lint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "lex.hh"

namespace mithra::lint
{

namespace
{

// The scanner itself lives in lex.{hh,cc}, shared with the semantic
// passes.
using lex::ScanResult;
using lex::Token;
using lex::TokenKind;
using lex::scan;

/** Forward-slashed copy of `path` for substring policy matching. */
std::string
normalized(const std::string &path)
{
    std::string out = path;
    std::replace(out.begin(), out.end(), '\\', '/');
    return out;
}

bool
pathContains(const std::string &path, const std::string &piece)
{
    return path.find(piece) != std::string::npos;
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size()
        && text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix)
        == 0;
}

/** Rule-firing context shared by the individual checks. */
struct Linter
{
    const std::string &path;
    const PathPolicy &policy;
    const ScanResult &scanned;
    std::vector<Diagnostic> diagnostics;

    void report(std::size_t line, std::string rule, std::string message)
    {
        if (lex::suppressed(scanned.allows, "mithra-lint", rule, line))
            return;
        diagnostics.push_back(
            {path, line, std::move(rule), std::move(message)});
    }
};

const Token *
tokenAt(const std::vector<Token> &tokens, std::size_t index)
{
    return index < tokens.size() ? &tokens[index] : nullptr;
}

/** time() with no argument or a constant-zero/null argument. */
bool
isWallClockSeed(const std::vector<Token> &tokens, std::size_t i)
{
    const Token *open = tokenAt(tokens, i + 1);
    if (!open || open->kind != TokenKind::Punct || open->text != "(")
        return false;
    const Token *arg = tokenAt(tokens, i + 2);
    if (!arg)
        return false;
    if (arg->kind == TokenKind::Punct && arg->text == ")")
        return true;
    const bool nullArg =
        (arg->kind == TokenKind::Number && arg->text == "0")
        || (arg->kind == TokenKind::Identifier
            && (arg->text == "NULL" || arg->text == "nullptr"));
    if (!nullArg)
        return false;
    const Token *close = tokenAt(tokens, i + 3);
    return close && close->kind == TokenKind::Punct
        && close->text == ")";
}

/** SIMD intrinsic header names (what `#include <x.h>` tokenizes to). */
bool
isIntrinsicHeader(const std::string &text)
{
    static const std::set<std::string> headers = {
        "immintrin", "x86intrin",  "x86gprintrin", "xmmintrin",
        "emmintrin", "pmmintrin",  "tmmintrin",    "smmintrin",
        "nmmintrin", "wmmintrin",  "ammintrin",    "arm_neon",
        "arm_sve",
    };
    return headers.count(text) != 0;
}

/** Vector types, _mm* intrinsic calls and ia32 builtins. */
bool
isIntrinsicIdentifier(const std::string &text)
{
    static const std::set<std::string> prefixes = {
        "_mm_",    "_mm256_", "_mm512_",         "__m64",
        "__m128",  "__m256",  "__m512",          "__builtin_ia32_",
    };
    for (const std::string &prefix : prefixes) {
        if (text.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

/** Float literal: non-hex numeric token with an f/F suffix. */
bool
isFloatLiteral(const std::string &text)
{
    if (text.size() < 2)
        return false;
    if (text[0] == '0' && (text[1] == 'x' || text[1] == 'X'))
        return false;
    const char last = text.back();
    return last == 'f' || last == 'F';
}

/**
 * True when the `final` / `override` token at index i sits in a
 * position the grammar reserves for the contextual keyword — a
 * virt-specifier after a member-function declarator (`void f() const
 * override final;`, ref-qualified or noexcept variants included) or a
 * class-head (`class X final : ...`, `struct Y final {`). Everything
 * else is the token used as an identifier.
 */
bool
isSpecifierPosition(const std::vector<Token> &tokens, std::size_t i)
{
    if (i > 0) {
        const Token &prev = tokens[i - 1];
        if (prev.kind == TokenKind::Punct
            && (prev.text == ")" || prev.text == "&"
                || prev.text == "&&"))
            return true;
        if (prev.kind == TokenKind::Identifier
            && (prev.text == "const" || prev.text == "noexcept"
                || prev.text == "override" || prev.text == "final"))
            return true;
    }
    const Token *next = tokenAt(tokens, i + 1);
    if (next && next->kind == TokenKind::Punct
        && (next->text == ":" || next->text == "{"))
        return true;
    // A following `override`/`final` is the specifier list continuing
    // (`final override`), not two identifiers in a row.
    if (next && next->kind == TokenKind::Identifier
        && (next->text == "override" || next->text == "final"))
        return true;
    return false;
}

/**
 * Lines carrying a `//` comment in real code — not inside a string,
 * character constant, or block comment. The token scanner strips
 * comments, so this is the one check that re-reads the raw source.
 */
std::vector<std::size_t>
lineCommentLines(const std::string &source)
{
    std::vector<std::size_t> lines;
    enum class State
    {
        Code,
        Block,
        Str,
        Chr,
    };
    State state = State::Code;
    std::size_t line = 1;
    for (std::size_t i = 0; i < source.size(); ++i) {
        const char c = source[i];
        const char next = i + 1 < source.size() ? source[i + 1] : '\0';
        if (c == '\n') {
            ++line;
            if (state == State::Str || state == State::Chr)
                state = State::Code; // unterminated literal; resync
            continue;
        }
        switch (state) {
          case State::Code:
            if (c == '/' && next == '/') {
                lines.push_back(line);
                while (i + 1 < source.size() && source[i + 1] != '\n')
                    ++i;
            } else if (c == '/' && next == '*') {
                state = State::Block;
                ++i;
            } else if (c == '"') {
                state = State::Str;
            } else if (c == '\'') {
                state = State::Chr;
            }
            break;
          case State::Block:
            if (c == '*' && next == '/') {
                state = State::Code;
                ++i;
            }
            break;
          case State::Str:
            if (c == '\\')
                ++i;
            else if (c == '"')
                state = State::Code;
            break;
          case State::Chr:
            if (c == '\\')
                ++i;
            else if (c == '\'')
                state = State::Code;
            break;
        }
    }
    return lines;
}

/**
 * The public C ABI header: classic include guard, no `//` comments,
 * no C++-only keywords. The `__cplusplus`-guarded extern "C" block is
 * expected — `extern` and the "C" string literal pass untouched.
 */
void
checkCAbiHeader(Linter &lint, const std::string &source)
{
    const auto &tokens = lint.scanned.tokens;

    // #ifndef GUARD / #define GUARD, before any other content.
    const Token *t0 = tokenAt(tokens, 0);
    const Token *t1 = tokenAt(tokens, 1);
    const Token *t2 = tokenAt(tokens, 2);
    const Token *t3 = tokenAt(tokens, 3);
    const Token *t4 = tokenAt(tokens, 4);
    const Token *t5 = tokenAt(tokens, 5);
    const bool guarded = t0 && t0->text == "#" && t1
        && t1->text == "ifndef" && t2
        && t2->kind == TokenKind::Identifier && t3 && t3->text == "#"
        && t4 && t4->text == "define" && t5 && t5->text == t2->text;
    if (!guarded) {
        lint.report(t0 ? t0->line : 1, "c-abi-header",
                    "C ABI headers open with a classic include guard "
                    "(#ifndef X / #define X) — `#pragma once` is not "
                    "C89");
    }

    static const std::set<std::string> cppOnly = {
        "class",        "template",         "typename",
        "namespace",    "virtual",          "constexpr",
        "mutable",      "operator",         "new",
        "delete",       "bool",             "nullptr",
        "using",        "decltype",         "static_cast",
        "reinterpret_cast", "dynamic_cast", "const_cast",
        "noexcept",     "private",          "public",
        "protected",    "friend",           "throw",
        "try",          "catch",
    };
    // Tokens inside `#ifdef __cplusplus` ... `#endif` are exempt:
    // that region is invisible to C compilers by construction.
    std::size_t cppDepth = 0;
    std::size_t condDepth = 0;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token &t = tokens[i];
        if (t.text == "#" && i + 1 < tokens.size()) {
            const std::string &directive = tokens[i + 1].text;
            if (directive == "ifdef" || directive == "ifndef"
                || directive == "if") {
                ++condDepth;
                if (cppDepth == 0 && directive == "ifdef"
                    && i + 2 < tokens.size()
                    && tokens[i + 2].text == "__cplusplus")
                    cppDepth = condDepth;
            } else if (directive == "endif") {
                if (cppDepth == condDepth)
                    cppDepth = 0;
                if (condDepth > 0)
                    --condDepth;
            }
        }
        if (cppDepth != 0)
            continue;
        if (t.kind == TokenKind::Identifier && cppOnly.count(t.text)) {
            lint.report(t.line, "c-abi-header",
                        "`" + t.text
                            + "' is not C89; the plugin ABI header is "
                              "compiled by plain C plugins (gate C++ "
                              "constructs behind __cplusplus)");
        }
    }

    for (const std::size_t line : lineCommentLines(source)) {
        lint.report(line, "c-abi-header",
                    "`//' comments are not C89; use /* ... */ in the "
                    "plugin ABI header");
    }
}

void
checkHeaderHygiene(Linter &lint)
{
    const auto &tokens = lint.scanned.tokens;
    const Token *hash = tokenAt(tokens, 0);
    const Token *pragma = tokenAt(tokens, 1);
    const Token *once = tokenAt(tokens, 2);
    const bool ok = hash && hash->text == "#" && pragma
        && pragma->text == "pragma" && once && once->text == "once";
    if (!ok) {
        lint.report(hash ? hash->line : 1, "pragma-once",
                    "header must open with `#pragma once` before any "
                    "other content");
    }
}

void
checkNamespace(Linter &lint)
{
    const auto &tokens = lint.scanned.tokens;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (tokens[i].kind == TokenKind::Identifier
            && tokens[i].text == "namespace"
            && tokens[i + 1].kind == TokenKind::Identifier
            && tokens[i + 1].text == "mithra") {
            return;
        }
    }
    // A file-level property: an allow anywhere in the file suppresses
    // it (the annotation usually lives in the file doc comment).
    for (const lex::Annotation &allow : lint.scanned.allows) {
        if (allow.tool == "mithra-lint"
            && allow.rule == "namespace-mithra")
            return;
    }
    lint.report(1, "namespace-mithra",
                "library code must live in namespace mithra");
}

void
checkTokens(Linter &lint)
{
    static const std::set<std::string> bannedRand = {
        "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48",
    };
    static const std::set<std::string> bannedStreams = {
        "iostream", "cout", "cerr", "clog", "fprintf",
    };

    const auto &tokens = lint.scanned.tokens;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token &t = tokens[i];

        if (lint.policy.determinism && t.kind == TokenKind::Identifier) {
            if (bannedRand.count(t.text)) {
                lint.report(t.line, "no-rand",
                            "`" + t.text
                                + "' is not seedable/reproducible; use "
                                  "mithra::Rng (common/rng.hh)");
            }
            if (t.text == "random_device" && !lint.policy.rngImpl) {
                lint.report(t.line, "no-random-device",
                            "std::random_device is nondeterministic; "
                            "entropy may only enter through "
                            "common/rng.*");
            }
            if (t.text == "time" && isWallClockSeed(tokens, i)) {
                lint.report(t.line, "no-time-seed",
                            "wall-clock time() makes runs "
                            "unreproducible; derive seeds from "
                            "experiment configuration");
            }
            if (!lint.policy.kernelsImpl
                && (isIntrinsicHeader(t.text)
                    || isIntrinsicIdentifier(t.text))) {
                lint.report(t.line, "no-intrinsics",
                            "`" + t.text
                                + "': SIMD intrinsics are contained in "
                                  "src/common/kernels/; call the "
                                  "dispatched kernels:: API so every "
                                  "backend stays bitwise identical");
            }
        }

        if (lint.policy.libraryHygiene
            && t.kind == TokenKind::Identifier) {
            if ((t.text == "final" || t.text == "override")
                && !isSpecifierPosition(tokens, i)) {
                lint.report(t.line, "no-keyword-identifier",
                            "`" + t.text
                                + "' is a contextual keyword; naming a "
                                  "variable after it confuses readers "
                                  "and tooling — pick another name");
            }
            if (t.text.rfind("unordered_", 0) == 0) {
                lint.report(t.line, "no-unordered",
                            "`" + t.text
                                + "' iterates in hash order, which is "
                                  "not deterministic across platforms; "
                                  "use an ordered container or annotate "
                                  "a lookup-only use with "
                                  "`mithra-lint: allow(no-unordered)'");
            }
            if (bannedStreams.count(t.text) && !lint.policy.loggingImpl) {
                lint.report(t.line, "no-iostream",
                            "library code reports through "
                            "common/logging.hh, not `" + t.text + "'");
            }
            if (!lint.policy.pluginImpl) {
                static const std::set<std::string> bannedDl = {
                    "dlopen", "dlsym",  "dlvsym", "dlclose",
                    "dlerror", "dladdr", "dlfcn",
                };
                if (bannedDl.count(t.text)) {
                    lint.report(t.line, "no-dlopen",
                                "`" + t.text
                                    + "': runtime code loading is "
                                      "confined to src/plugin/ (the "
                                      "sanctioned loader); go through "
                                      "the WorkloadRegistry instead");
                }
            }
            if (t.text == "cassert") {
                lint.report(t.line, "no-naked-assert",
                            "<cassert> is banned; use the contract "
                            "macros in common/contracts.hh");
            }
            if (t.text == "assert") {
                const Token *next = tokenAt(tokens, i + 1);
                if (next && next->kind == TokenKind::Punct
                    && (next->text == "(" || next->text == ".")) {
                    lint.report(t.line, "no-naked-assert",
                                "naked assert() compiles out under "
                                "NDEBUG and carries no message; use "
                                "MITHRA_ASSERT / MITHRA_EXPECTS / "
                                "MITHRA_ENSURES");
                }
            }
            if (!lint.policy.timingImpl) {
                static const std::set<std::string> bannedTiming = {
                    "chrono", "clock_gettime", "gettimeofday",
                    "timespec_get",
                };
                if (bannedTiming.count(t.text)) {
                    lint.report(t.line, "no-raw-timing",
                                "`" + t.text
                                    + "' is ad-hoc timing; library code "
                                      "times through MITHRA_SPAN "
                                      "(telemetry/span.hh)");
                }
                if (t.text == "clock") {
                    const Token *next = tokenAt(tokens, i + 1);
                    if (next && next->kind == TokenKind::Punct
                        && next->text == "(") {
                        lint.report(t.line, "no-raw-timing",
                                    "clock() is ad-hoc timing; library "
                                    "code times through MITHRA_SPAN "
                                    "(telemetry/span.hh)");
                    }
                }
            }
        }

        if (lint.policy.doubleOnly) {
            if (t.kind == TokenKind::Identifier && t.text == "float") {
                lint.report(t.line, "no-float-in-stats",
                            "src/stats is a double-only substrate; "
                            "float narrows the guarantee arithmetic");
            }
            if (t.kind == TokenKind::Number
                && isFloatLiteral(t.text)) {
                lint.report(t.line, "no-float-in-stats",
                            "float literal `" + t.text
                                + "' in src/stats; spell it as a "
                                  "double");
            }
        }
    }
}

} // namespace

PathPolicy
policyForPath(const std::string &path)
{
    const std::string p = normalized(path);
    PathPolicy policy;

    const bool inSrc = pathContains(p, "src/");
    const bool inBench = pathContains(p, "bench/");
    const bool inTests = pathContains(p, "tests/");

    policy.determinism = inSrc || inBench || inTests;
    policy.libraryHygiene = inSrc;
    policy.doubleOnly = pathContains(p, "src/stats/");
    policy.headerHygiene = endsWith(p, ".hh") || endsWith(p, ".hpp")
        || endsWith(p, ".h");
    policy.rngImpl = pathContains(p, "src/common/rng.");
    policy.loggingImpl = pathContains(p, "src/common/logging.");
    policy.timingImpl = pathContains(p, "src/telemetry/")
        || pathContains(p, "src/service/");
    policy.kernelsImpl = pathContains(p, "src/common/kernels/");
    policy.pluginImpl = pathContains(p, "src/plugin/");
    // include/*.h is the public C plugin ABI: the C89 rules replace
    // the C++ header hygiene (no pragma-once, no namespace).
    policy.cAbiHeader = pathContains(p, "include/") && !inSrc
        && endsWith(p, ".h");
    if (policy.cAbiHeader)
        policy.headerHygiene = false;
    return policy;
}

std::vector<Diagnostic>
lintSource(const std::string &path, const std::string &source)
{
    const PathPolicy policy = policyForPath(path);
    const ScanResult scanned = scan(source);
    Linter lint{path, policy, scanned, {}};

    if (policy.headerHygiene)
        checkHeaderHygiene(lint);
    if (policy.cAbiHeader)
        checkCAbiHeader(lint, source);
    if (policy.libraryHygiene)
        checkNamespace(lint);
    checkTokens(lint);

    std::stable_sort(lint.diagnostics.begin(), lint.diagnostics.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         return a.line < b.line;
                     });
    return std::move(lint.diagnostics);
}

std::vector<Diagnostic>
lintFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return {{path, 0, "io-error", "cannot read file"}};
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return lintSource(path, buffer.str());
}

std::vector<std::string>
collectFiles(const std::string &root)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    const fs::path rootPath(root);
    if (fs::is_regular_file(rootPath)) {
        files.push_back(rootPath.generic_string());
        return files;
    }
    if (!fs::is_directory(rootPath))
        return files;
    static const std::set<std::string> extensions = {
        ".cc", ".cpp", ".hh", ".hpp", ".h",
    };
    for (const auto &entry :
         fs::recursive_directory_iterator(rootPath)) {
        if (!entry.is_regular_file())
            continue;
        if (extensions.count(entry.path().extension().string()))
            files.push_back(entry.path().generic_string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

std::string
formatDiagnostic(const Diagnostic &diagnostic)
{
    std::ostringstream os;
    os << diagnostic.file << ":" << diagnostic.line << ": error: ["
       << diagnostic.rule << "] " << diagnostic.message;
    return os.str();
}

} // namespace mithra::lint
