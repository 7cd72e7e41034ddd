/**
 * @file
 * Pass 4 — the MITHRA_* environment-variable registry.
 *
 * Every knob the runtime reads from the environment must be declared
 * exactly once, in src/common/env_registry.hh, with its value range,
 * fallback, and a one-line doc string. This pass closes the loop in
 * three directions: (a) raw `getenv` anywhere outside the registry
 * header is banned — call the checked env:: accessors instead; (b) a
 * `MITHRA_*` string handed to an accessor (or to setenv/unsetenv in
 * tests) must name a registry entry; (c) the registry and the README
 * environment table must list exactly the same variables
 * (`mithra-analyze --env-table` regenerates the table).
 */

#include "analyze.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "lex.hh"

namespace mithra::analyze
{

namespace
{

using lex::ScanResult;
using lex::Token;
using lex::TokenKind;

bool
isPunct(const Token &token, const char *text)
{
    return token.kind == TokenKind::Punct && token.text == text;
}

/** Calls whose first string argument names an environment variable. */
const std::set<std::string> &
envAccessors()
{
    static const std::set<std::string> names = {
        "getenv", "secure_getenv", "setenv", "unsetenv", "putenv",
        "raw",    "countIn",       "realIn", "flag",     "text",
    };
    return names;
}

} // namespace

bool
EnvRegistry::registered(const std::string &name) const
{
    return std::any_of(entries.begin(), entries.end(),
                       [&](const Entry &entry) {
                           return entry.name == name;
                       });
}

EnvRegistry
parseEnvRegistry(const std::string &source)
{
    EnvRegistry registry;
    const ScanResult scanned = lex::scan(source);
    const std::vector<Token> &tokens = scanned.tokens;

    // Find `registry` followed (eventually) by `{` — the array
    // initializer. Entries are inner brace groups of four
    // comma-separated string fields; adjacent string literals
    // concatenate, like in C++.
    std::size_t start = tokens.size();
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (tokens[i].kind == TokenKind::Identifier
            && tokens[i].text == "registry") {
            for (std::size_t j = i + 1;
                 j < tokens.size() && j < i + 8; ++j) {
                if (isPunct(tokens[j], "{")) {
                    start = j;
                    break;
                }
            }
            break;
        }
    }
    if (start == tokens.size())
        return registry;

    // Aggregate nesting varies (`std::array` needs double braces), so
    // an "entry" is recognized by content: a brace group whose first
    // token is a string literal.
    int depth = 0;
    int entryDepth = 0;
    EnvRegistry::Entry entry;
    std::string field;
    std::size_t fieldIndex = 0;
    const auto commitField = [&]() {
        switch (fieldIndex) {
        case 0: entry.name = field; break;
        case 1: entry.values = field; break;
        case 2: entry.fallback = field; break;
        case 3: entry.doc = field; break;
        default: break;
        }
        field.clear();
        ++fieldIndex;
    };
    for (std::size_t i = start; i < tokens.size(); ++i) {
        const Token &t = tokens[i];
        if (isPunct(t, "{")) {
            ++depth;
            if (entryDepth == 0 && i + 1 < tokens.size()
                && tokens[i + 1].kind == TokenKind::String) {
                entryDepth = depth;
                entry = {};
                field.clear();
                fieldIndex = 0;
            }
            continue;
        }
        if (isPunct(t, "}")) {
            if (depth == entryDepth) {
                commitField();
                if (!entry.name.empty())
                    registry.entries.push_back(entry);
                entryDepth = 0;
            }
            if (--depth == 0)
                break;
            continue;
        }
        if (entryDepth == 0 || depth != entryDepth)
            continue;
        if (isPunct(t, ",")) {
            commitField();
            continue;
        }
        if (t.kind == TokenKind::String)
            field += t.text;
    }
    return registry;
}

std::vector<Diagnostic>
checkEnvUse(const EnvRegistry &registry, const SourceFile &file)
{
    std::vector<Diagnostic> diagnostics;
    const bool isRegistryHeader =
        file.path == "src/common/env_registry.hh";
    if (isRegistryHeader)
        return diagnostics;

    const ScanResult scanned = lex::scan(file.source);
    const std::vector<Token> &tokens = scanned.tokens;

    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        const Token &t = tokens[i];
        if (t.kind != TokenKind::Identifier)
            continue;

        // (a) raw getenv outside the registry header. Applies to every
        // scanned root: tests and benches read knobs through the
        // checked accessors too, so malformed values trip contracts
        // everywhere the same way.
        if ((t.text == "getenv" || t.text == "secure_getenv")
            && isPunct(tokens[i + 1], "(")
            && !lex::suppressed(scanned.allows, "mithra-analyze",
                                "env-registry", t.line)) {
            diagnostics.push_back(
                {file.shown(), t.line, "env-registry",
                 "raw `" + t.text
                     + "' — read environment knobs through the "
                       "checked accessors in "
                       "src/common/env_registry.hh"});
        }

        // (b) MITHRA_* names handed to accessors must be registered.
        if (!envAccessors().count(t.text)
            || !isPunct(tokens[i + 1], "("))
            continue;
        if (i + 2 >= tokens.size()
            || tokens[i + 2].kind != TokenKind::String)
            continue;
        const std::string &name = tokens[i + 2].text;
        if (name.rfind("MITHRA_", 0) != 0)
            continue;
        if (registry.registered(name))
            continue;
        if (lex::suppressed(scanned.allows, "mithra-analyze",
                            "env-registry", t.line))
            continue;
        diagnostics.push_back(
            {file.shown(), t.line, "env-registry",
             "`" + name
                 + "' is not declared in src/common/env_registry.hh — "
                   "every MITHRA_* variable needs a registry entry "
                   "with range and doc string"});
    }
    return diagnostics;
}

std::vector<Diagnostic>
checkReadme(const EnvRegistry &registry, const std::string &readmePath,
            const std::string &readmeText)
{
    std::vector<Diagnostic> diagnostics;

    // Table rows look like `| `MITHRA_FOO` | ... |`. Collect the rows
    // in order so the README can also be checked for staleness against
    // the registry order.
    std::vector<std::pair<std::string, std::size_t>> rows;
    std::istringstream in(readmeText);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const std::string prefix = "| `MITHRA_";
        if (line.rfind(prefix, 0) != 0)
            continue;
        const std::size_t start = 2; // after "| "
        const std::size_t closeTick = line.find('`', start + 1);
        if (closeTick == std::string::npos)
            continue;
        rows.emplace_back(line.substr(start + 1, closeTick - start - 1),
                          lineNo);
    }

    for (const auto &[name, rowLine] : rows) {
        if (!registry.registered(name)) {
            diagnostics.push_back(
                {readmePath, rowLine, "env-registry",
                 "README documents `" + name
                     + "' but src/common/env_registry.hh does not "
                       "declare it — stale row, or missing registry "
                       "entry"});
        }
    }
    for (const EnvRegistry::Entry &entry : registry.entries) {
        const bool present =
            std::any_of(rows.begin(), rows.end(),
                        [&](const std::pair<std::string, std::size_t> &row) {
                            return row.first == entry.name;
                        });
        if (!present) {
            diagnostics.push_back(
                {readmePath, 1, "env-registry",
                 "registry entry `" + entry.name
                     + "' is missing from the README environment "
                       "table — regenerate it with `mithra-analyze "
                       "--env-table`"});
        }
    }
    return diagnostics;
}

std::string
renderEnvTable(const EnvRegistry &registry)
{
    std::string out;
    out += "| variable | values (default) | effect |\n";
    out += "| --- | --- | --- |\n";
    for (const EnvRegistry::Entry &entry : registry.entries) {
        out += "| `" + entry.name + "` | " + entry.values + " ("
            + entry.fallback + ") | " + entry.doc + " |\n";
    }
    return out;
}

} // namespace mithra::analyze
