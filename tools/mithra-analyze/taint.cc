/**
 * @file
 * Pass 2 — determinism taint.
 *
 * The lint rules ban most nondeterminism sources outright, but a banned
 * token is not the whole story: a value can pick up nondeterminism
 * legitimately (placement stats, timing under telemetry's control)
 * and then *flow* somewhere it must never reach — a deterministic
 * counter, a run-report metric, a cache key. This pass follows those
 * flows within one translation unit: identifiers assigned from a
 * source become tainted, functions returning taint become tainted
 * TU-wide, and a tainted identifier inside a sink's argument list is
 * an error. src/telemetry/ is the sanctioned quarantine (volatile
 * stats, timing-on-request) and is exempt; so is src/service/ (the
 * serving shell: sockets, wall-clock timeouts and environment live
 * there by design, DESIGN.md §14) and everything outside src/
 * (benches and tests time freely by design).
 */

#include "analyze.hh"

#include <map>
#include <set>

#include "lex.hh"

namespace mithra::analyze
{

namespace
{

using lex::ScanResult;
using lex::Token;
using lex::TokenKind;

/** Identifiers whose value/effect is nondeterministic. */
const std::set<std::string> &
sourceNames()
{
    static const std::set<std::string> names = {
        "getenv",        "rand",          "srand",
        "rand_r",        "drand48",       "lrand48",
        "mrand48",       "random_device", "chrono",
        "clock_gettime", "gettimeofday",  "timespec_get",
        "wallClockNs",   "cpuClockNs",    "threadOrdinal",
        "steady_clock",  "system_clock",  "high_resolution_clock",
        // Socket I/O: payload sizes, peer addresses and readiness are
        // external-world values. Only src/service/ may touch them.
        "socket",        "accept",        "recv",
        "send",          "poll",          "connect",
        "bind",          "listen",        "getsockname",
    };
    return names;
}

/** Call-like sinks whose arguments must stay deterministic. */
const std::set<std::string> &
sinkNames()
{
    static const std::set<std::string> names = {
        "MITHRA_COUNT", "MITHRA_GAUGE_SET", "MITHRA_HIST",
        "addMetric",    "counter",          "gauge",
        "histogram",    "cacheKey",
    };
    return names;
}

bool
isPunct(const Token &token, const char *text)
{
    return token.kind == TokenKind::Punct && token.text == text;
}

bool
isIdent(const Token &token)
{
    return token.kind == TokenKind::Identifier;
}

/** Index of the matching closer for the opener at `open`. */
std::size_t
matchForward(const std::vector<Token> &tokens, std::size_t open)
{
    const std::string &openText = tokens[open].text;
    const std::string closeText = openText == "(" ? ")"
        : openText == "["                         ? "]"
                                                  : "}";
    int depth = 0;
    for (std::size_t i = open; i < tokens.size(); ++i) {
        if (isPunct(tokens[i], openText.c_str()))
            ++depth;
        else if (isPunct(tokens[i], closeText.c_str()) && --depth == 0)
            return i;
    }
    return tokens.size();
}

/** One enclosing function definition: name + body token range. */
struct FunctionSpan
{
    std::string name;
    std::size_t begin; ///< first token inside the body
    std::size_t end;   ///< one past the last body token
};

/**
 * Locate function definitions: `name ( ... ) [specifiers] {`. Lambdas
 * do not match (their `(` is preceded by `]`) and stay part of the
 * enclosing function, which is what taint scoping wants.
 */
std::vector<FunctionSpan>
segmentFunctions(const std::vector<Token> &tokens)
{
    static const std::set<std::string> specifiers = {
        "const", "noexcept", "override", "final", "mutable",
    };
    std::vector<FunctionSpan> spans;
    std::size_t i = 0;
    while (i < tokens.size()) {
        if (!isPunct(tokens[i], "{")) {
            ++i;
            continue;
        }
        // Walk back over trailing specifiers to the `)`.
        std::size_t j = i;
        while (j > 0 && isIdent(tokens[j - 1])
               && specifiers.count(tokens[j - 1].text))
            --j;
        if (j == 0 || !isPunct(tokens[j - 1], ")")) {
            ++i;
            continue;
        }
        // Find the matching `(` and the name before it.
        int depth = 0;
        std::size_t open = j - 1;
        while (open > 0) {
            if (isPunct(tokens[open], ")"))
                ++depth;
            else if (isPunct(tokens[open], "(") && --depth == 0)
                break;
            --open;
        }
        if (open == 0 || !isIdent(tokens[open - 1])) {
            ++i;
            continue;
        }
        const std::size_t close = matchForward(tokens, i);
        spans.push_back({tokens[open - 1].text, i + 1, close});
        i += 1; // descend: nested lambdas belong to this span
    }
    return spans;
}

/** Where and why an identifier became tainted. */
struct TaintOrigin
{
    std::size_t line;
    std::string reason;
};

using TaintMap = std::map<std::string, TaintOrigin>;

/** Names declared as unordered_* or pointer-keyed map/set in the TU. */
std::set<std::string>
hashOrderedContainers(const std::vector<Token> &tokens)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (!isIdent(tokens[i]))
            continue;
        const bool unordered =
            tokens[i].text.rfind("unordered_", 0) == 0;
        const bool orderedAssoc = tokens[i].text == "map"
            || tokens[i].text == "set" || tokens[i].text == "multimap"
            || tokens[i].text == "multiset";
        if (!unordered && !orderedAssoc)
            continue;
        if (!isPunct(tokens[i + 1], "<"))
            continue;
        // Scan the template argument list; for ordered associative
        // containers only a pointer-typed *key* is hash-like (address
        // order), so the pointer must show up before the first
        // top-level comma.
        int depth = 0;
        bool pointerKey = false;
        bool pastKey = false;
        std::size_t k = i + 1;
        for (; k < tokens.size(); ++k) {
            if (isPunct(tokens[k], "<")) {
                ++depth;
            } else if (isPunct(tokens[k], ">")) {
                if (--depth == 0)
                    break;
            } else if (depth == 1 && isPunct(tokens[k], ",")) {
                pastKey = true;
            } else if (isPunct(tokens[k], "*") && !pastKey) {
                pointerKey = true;
            }
        }
        if (orderedAssoc && !pointerKey)
            continue;
        // Declared name: the identifier after the closer (possibly
        // behind & or the variable name directly).
        std::size_t n = k + 1;
        while (n < tokens.size()
               && (isPunct(tokens[n], "&") || isPunct(tokens[n], "*")))
            ++n;
        if (n < tokens.size() && isIdent(tokens[n]))
            names.insert(tokens[n].text);
    }
    return names;
}

/** Does [begin, end) mention a tainted or source identifier? Returns
 *  the offender's name, or empty. */
std::string
taintIn(const std::vector<Token> &tokens, std::size_t begin,
        std::size_t end, const TaintMap &tainted)
{
    for (std::size_t i = begin; i < end && i < tokens.size(); ++i) {
        if (!isIdent(tokens[i]))
            continue;
        if (tainted.count(tokens[i].text)
            || sourceNames().count(tokens[i].text))
            return tokens[i].text;
    }
    return {};
}

/** End of the expression starting at `begin`: the `;`/`,` at relative
 *  depth 0 or the closer that drops below it. */
std::size_t
expressionEnd(const std::vector<Token> &tokens, std::size_t begin)
{
    int depth = 0;
    for (std::size_t i = begin; i < tokens.size(); ++i) {
        const Token &t = tokens[i];
        if (isPunct(t, "(") || isPunct(t, "[") || isPunct(t, "{"))
            ++depth;
        else if (isPunct(t, ")") || isPunct(t, "]")
                 || isPunct(t, "}")) {
            if (--depth < 0)
                return i;
        } else if (depth == 0
                   && (isPunct(t, ";") || isPunct(t, ","))) {
            return i;
        }
    }
    return tokens.size();
}

TaintOrigin
originOf(const std::string &offender, const TaintMap &tainted,
         std::size_t line)
{
    const auto known = tainted.find(offender);
    if (known != tainted.end())
        return known->second;
    return {line, "nondeterminism source `" + offender + "'"};
}

} // namespace

std::vector<Diagnostic>
checkTaint(const SourceFile &file)
{
    std::vector<Diagnostic> diagnostics;
    if (file.path.rfind("src/", 0) != 0
        || file.path.rfind("src/telemetry/", 0) == 0
        || file.path.rfind("src/service/", 0) == 0)
        return diagnostics;

    const ScanResult scanned = lex::scan(file.source);
    const std::vector<Token> &tokens = scanned.tokens;
    TaintMap tainted;

    // Persistent mutable state shared across calls is a source: a
    // thread_local's value depends on which worker runs the chunk.
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (!isIdent(tokens[i]) || tokens[i].text != "thread_local")
            continue;
        std::string last;
        for (std::size_t j = i + 1; j < tokens.size(); ++j) {
            const Token &t = tokens[j];
            if (isPunct(t, "=") || isPunct(t, ";") || isPunct(t, "{")) {
                if (!last.empty())
                    tainted.emplace(
                        last,
                        TaintOrigin{tokens[i].line,
                                    "thread_local state `" + last
                                        + "'"});
                break;
            }
            if (isIdent(t))
                last = t.text;
        }
    }

    // Iteration order over hash-ordered / pointer-keyed containers is
    // platform-dependent: the range-for loop variable is tainted.
    const std::set<std::string> hashOrdered =
        hashOrderedContainers(tokens);
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (!isIdent(tokens[i]) || tokens[i].text != "for"
            || !isPunct(tokens[i + 1], "("))
            continue;
        const std::size_t close = matchForward(tokens, i + 1);
        std::size_t colon = tokens.size();
        std::string loopVar;
        for (std::size_t j = i + 2; j < close; ++j) {
            if (isPunct(tokens[j], ":")
                && !(j > 0 && isPunct(tokens[j - 1], ":"))
                && !(j + 1 < close && isPunct(tokens[j + 1], ":"))) {
                colon = j;
                break;
            }
            if (isIdent(tokens[j]))
                loopVar = tokens[j].text;
        }
        if (colon == tokens.size() || loopVar.empty())
            continue;
        for (std::size_t j = colon + 1; j < close; ++j) {
            if (isIdent(tokens[j]) && hashOrdered.count(tokens[j].text)) {
                tainted.emplace(
                    loopVar,
                    TaintOrigin{tokens[j].line,
                                "iteration order of hash-ordered "
                                "container `"
                                    + tokens[j].text + "'"});
                break;
            }
        }
    }

    const std::vector<FunctionSpan> functions =
        segmentFunctions(tokens);

    // Propagate through assignments and returns to a fixpoint. The
    // function list gives assignment scoping its granularity; returns
    // taint the function's own name TU-wide.
    bool changed = true;
    for (int round = 0; changed && round < 16; ++round) {
        changed = false;
        for (std::size_t i = 1; i + 1 < tokens.size(); ++i) {
            if (!isPunct(tokens[i], "="))
                continue;
            // `==`, `<=`, `>=`, `!=` are two punct tokens; skip them.
            if (isPunct(tokens[i + 1], "="))
                continue;
            const Token &prev = tokens[i - 1];
            if (isPunct(prev, "=") || isPunct(prev, "<")
                || isPunct(prev, ">") || isPunct(prev, "!"))
                continue;
            std::size_t targetIndex;
            if (isIdent(prev)) {
                targetIndex = i - 1; // plain assignment / init
            } else if (i >= 2 && isIdent(tokens[i - 2])
                       && prev.kind == TokenKind::Punct
                       && std::string("+-*/%&|^").find(prev.text)
                           != std::string::npos) {
                targetIndex = i - 2; // compound assignment
            } else {
                continue;
            }
            const std::string offender = taintIn(
                tokens, i + 1, expressionEnd(tokens, i + 1), tainted);
            if (offender.empty())
                continue;
            const std::string &target = tokens[targetIndex].text;
            if (tainted.count(target))
                continue;
            const TaintOrigin origin =
                originOf(offender, tainted, tokens[i].line);
            tainted.emplace(
                target, TaintOrigin{tokens[i].line,
                                    "assigned from " + origin.reason
                                        + " (line "
                                        + std::to_string(origin.line)
                                        + ")"});
            changed = true;
        }
        for (const FunctionSpan &fn : functions) {
            if (tainted.count(fn.name))
                continue;
            for (std::size_t i = fn.begin;
                 i < fn.end && i < tokens.size(); ++i) {
                if (!isIdent(tokens[i]) || tokens[i].text != "return")
                    continue;
                const std::string offender = taintIn(
                    tokens, i + 1, expressionEnd(tokens, i + 1),
                    tainted);
                if (offender.empty())
                    continue;
                const TaintOrigin origin =
                    originOf(offender, tainted, tokens[i].line);
                tainted.emplace(
                    fn.name,
                    TaintOrigin{tokens[i].line,
                                "returns " + origin.reason + " (line "
                                    + std::to_string(origin.line)
                                    + ")"});
                changed = true;
                break;
            }
        }
    }

    // Sinks: any tainted or source identifier inside the call's
    // argument list is a flow of nondeterminism into deterministic
    // output.
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (!isIdent(tokens[i]) || !sinkNames().count(tokens[i].text)
            || !isPunct(tokens[i + 1], "("))
            continue;
        const std::size_t close = matchForward(tokens, i + 1);
        const std::string offender =
            taintIn(tokens, i + 2, close, tainted);
        if (offender.empty())
            continue;
        if (lex::suppressed(scanned.allows, "mithra-analyze",
                            "taint-flow", tokens[i].line))
            continue;
        const TaintOrigin origin =
            originOf(offender, tainted, tokens[i].line);
        diagnostics.push_back(
            {file.shown(), tokens[i].line, "taint-flow",
             "`" + offender + "' (" + origin.reason
                 + ") flows into sink `" + tokens[i].text
                 + "' — nondeterminism may not reach reports, "
                   "telemetry or cache keys outside src/telemetry"});
    }

    return diagnostics;
}

} // namespace mithra::analyze
