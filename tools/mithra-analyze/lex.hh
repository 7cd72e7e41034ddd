/**
 * @file
 * Shared C++ token scanner for mithra-analyze.
 *
 * Both the lint rules (token level) and the semantic passes need the
 * same front end: a fast, dependency-free scan that
 * strips comments and literals, keeps identifiers/numbers/punctuation
 * with line numbers, extracts `#include` targets with full lexing
 * context (so includes inside strings or comments are NOT seen — the
 * analyzer's include graph must not grow phantom edges from test
 * snippets), and collects `<tool>: allow(<rule>)` suppression
 * annotations under either tool name.
 *
 * Annotation semantics (shared by both names): an annotation on line N
 * suppresses the named rule on line N (trailing-comment style) and on
 * line N+1 (preceding-line style). Inside a multi-line block comment
 * the annotation is anchored to the line the marker itself is on, not
 * the comment's first line.
 */

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace mithra::lex
{

enum class TokenKind
{
    Identifier,
    Number,
    Punct,
    /** A string literal; `text` is the uninterpreted body (no quotes,
     *  escapes kept verbatim). Raw strings carry their full body. */
    String,
};

struct Token
{
    TokenKind kind;
    std::string text;
    std::size_t line;
};

/** One `<tool>: allow(<rule>)` suppression annotation. */
struct Annotation
{
    std::size_t line;
    std::string tool; ///< "mithra-lint" or "mithra-analyze"
    std::string rule;
};

/** One `#include` directive, lexed in context. */
struct IncludeDirective
{
    std::string target; ///< the path between the quotes / angles
    std::size_t line;
    bool angled; ///< `<...>` (true) vs `"..."` (false)
};

/** Everything one pass over a translation unit yields. */
struct ScanResult
{
    std::vector<Token> tokens;
    std::vector<Annotation> allows;
    std::vector<IncludeDirective> includes;
};

/** Tokenize one translation unit. Never fails; garbage input yields
 *  garbage tokens with sane line numbers. */
ScanResult scan(const std::string &source);

/**
 * True when `allows` contains an annotation for `tool` naming `rule`
 * on `line` itself or on the directly preceding line.
 */
bool suppressed(const std::vector<Annotation> &allows,
                std::string_view tool, std::string_view rule,
                std::size_t line);

} // namespace mithra::lex
