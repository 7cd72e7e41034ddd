/**
 * @file
 * A minimal JSON value model with a deterministic writer and a strict
 * pull reader.
 *
 * The telemetry layer emits machine-readable run reports and Chrome
 * trace files, and the service reads request bodies with it; this
 * header is the only JSON implementation in the tree. Three
 * properties matter more than generality:
 *
 *  - **Deterministic output.** Objects are std::map, so keys serialize
 *    in sorted order; doubles print in the shortest %g form that
 *    round-trips a binary64 exactly; integers print as integers. The
 *    same value always serializes to the same bytes. appendJson()
 *    writes a value at any nesting depth into a caller's buffer, so a
 *    document can be spliced from a tree and hand-written parts with
 *    the bytes dump() would give.
 *  - **Strict input.** Numbers follow the RFC 8259 grammar (`01`,
 *    `.5`, `1.`, `1e`, `+1` and `1.2.3` are "malformed number");
 *    duplicate object keys and trailing content are errors.
 *  - **One tokenizer.** JsonReader walks a document without building
 *    a tree; parseJson() is its value() plus finish(). A decoder that
 *    reads a document's parts straight into its own buffers (the
 *    `/invoke` body) uses the same primitives, so a malformed document
 *    fails with the same message wherever it is read.
 *
 * parse(dump(v)) reconstructs v exactly for every value this library
 * produces (needed by the schema round-trip tests and the report-check
 * tool).
 *
 * Not supported (reports never need them): non-finite numbers, \u
 *  escapes beyond ASCII control characters, duplicate object keys.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mithra::telemetry
{

/** One JSON value; a tagged union over the seven JSON shapes. */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,
        Double,
        String,
        Array,
        Object,
    };

    using Array = std::vector<Json>;
    using Object = std::map<std::string, Json>;

    Json() = default;
    Json(bool value) : kind_(Kind::Bool), boolValue(value) {}
    Json(std::int64_t value) : kind_(Kind::Int), intValue(value) {}
    Json(int value) : Json(static_cast<std::int64_t>(value)) {}
    Json(std::size_t value)
        : Json(static_cast<std::int64_t>(value))
    {
    }
    Json(double value) : kind_(Kind::Double), doubleValue(value) {}
    Json(std::string value)
        : kind_(Kind::String), stringValue(std::move(value))
    {
    }
    Json(const char *value) : Json(std::string(value)) {}
    Json(Array value) : kind_(Kind::Array), arrayValue(std::move(value)) {}
    Json(Object value)
        : kind_(Kind::Object), objectValue(std::move(value))
    {
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** Typed accessors; MITHRA_EXPECTS the kind matches. */
    bool asBool() const;
    std::int64_t asInt() const;
    /** Int or Double, widened to double. */
    double asNumber() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;
    Object &asObject();

    /** Object member lookup; returns nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Object member assignment (converts a Null value to an object). */
    Json &operator[](const std::string &key);

    bool operator==(const Json &other) const;

    /**
     * Serialize. `indent` < 0 emits the compact single-line form;
     * otherwise a pretty form with that many spaces per level.
     */
    std::string dump(int indent = -1) const;

  private:
    Kind kind_ = Kind::Null;
    bool boolValue = false;
    std::int64_t intValue = 0;
    double doubleValue = 0.0;
    std::string stringValue;
    Array arrayValue;
    Object objectValue;
};

/**
 * Append `value` to `out` as dump(indent) writes it when nested
 * `depth` levels deep (no trailing newline).
 */
void appendJson(std::string &out, const Json &value, int indent = -1,
                int depth = 0);

/**
 * A pull reader over one JSON document. Each method consumes one
 * token or value and returns false on a syntax error; the first error
 * is kept with its byte offset, and every later call fails too.
 */
class JsonReader
{
  public:
    explicit JsonReader(std::string_view document) : text(document) {}

    /** Skip spaces, tabs and line breaks. */
    void skipSpace();
    /** The next byte, or '\0' at the end of the document. */
    char peek() const { return at < text.size() ? text[at] : '\0'; }
    /** Consume `c` if it is the next byte. */
    bool skip(char c);
    /** Consume `c`, or fail with "expected 'c'". */
    bool expect(char c);
    /** A string token, unescaped into `out`. */
    bool string(std::string &out);
    /** A number token, read as value() reads it (an Int unless it has
     *  a fraction or an exponent) and widened to double as
     *  Json::asNumber() does. */
    bool number(double &out);
    /** Whitespace, then any value. */
    bool value(Json &out);
    /** Whitespace, then the end of the document. */
    bool finish();

    /** Record `message` at the current offset unless an error is
     *  already kept; always returns false. */
    bool fail(const std::string &message);

    const std::string &error() const { return message; }
    std::size_t errorOffset() const { return failedAt; }

  private:
    /** Scan one number token into [start, at); false when malformed. */
    bool numberToken(std::size_t &start, bool &isDouble);
    bool number(Json &out);
    bool literal(std::string_view word, Json literalValue, Json &out);

    std::string_view text;
    std::size_t at = 0;
    bool failed = false;
    std::string message;
    std::size_t failedAt = 0;
};

/** Outcome of a parse: a value, or a message anchored to an offset. */
struct ParseResult
{
    Json value;
    bool ok = false;
    std::string error;
    std::size_t errorOffset = 0;
};

/** Parse a complete JSON document (trailing garbage is an error). */
ParseResult parseJson(const std::string &text);

} // namespace mithra::telemetry
