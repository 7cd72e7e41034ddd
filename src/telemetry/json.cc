#include "telemetry/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/contracts.hh"

namespace mithra::telemetry
{

bool
Json::asBool() const
{
    MITHRA_EXPECTS(kind_ == Kind::Bool, "JSON value is not a bool");
    return boolValue;
}

std::int64_t
Json::asInt() const
{
    MITHRA_EXPECTS(kind_ == Kind::Int, "JSON value is not an integer");
    return intValue;
}

double
Json::asNumber() const
{
    MITHRA_EXPECTS(kind_ == Kind::Int || kind_ == Kind::Double,
                   "JSON value is not a number");
    return kind_ == Kind::Int ? static_cast<double>(intValue)
                              : doubleValue;
}

const std::string &
Json::asString() const
{
    MITHRA_EXPECTS(kind_ == Kind::String, "JSON value is not a string");
    return stringValue;
}

const Json::Array &
Json::asArray() const
{
    MITHRA_EXPECTS(kind_ == Kind::Array, "JSON value is not an array");
    return arrayValue;
}

const Json::Object &
Json::asObject() const
{
    MITHRA_EXPECTS(kind_ == Kind::Object, "JSON value is not an object");
    return objectValue;
}

Json::Object &
Json::asObject()
{
    MITHRA_EXPECTS(kind_ == Kind::Object, "JSON value is not an object");
    return objectValue;
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    const auto it = objectValue.find(key);
    return it == objectValue.end() ? nullptr : &it->second;
}

Json &
Json::operator[](const std::string &key)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    MITHRA_EXPECTS(kind_ == Kind::Object,
                   "operator[] on a non-object JSON value");
    return objectValue[key];
}

bool
Json::operator==(const Json &other) const
{
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return boolValue == other.boolValue;
      case Kind::Int:
        return intValue == other.intValue;
      case Kind::Double:
        return doubleValue == other.doubleValue;
      case Kind::String:
        return stringValue == other.stringValue;
      case Kind::Array:
        return arrayValue == other.arrayValue;
      case Kind::Object:
        return objectValue == other.objectValue;
    }
    return false;
}

namespace
{

void
appendEscaped(std::string &out, const std::string &text)
{
    out.push_back('"');
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
appendDouble(std::string &out, double value)
{
    MITHRA_EXPECTS(std::isfinite(value),
                   "JSON cannot represent non-finite number ", value);
    char buf[40];
    // Shortest %g form that still round-trips binary64: try 15 and 16
    // significant digits first, fall back to 17.
    for (const int precision : {15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    out += buf;
    // Keep the Double kind visible on re-parse ("1e2" and "1.5" carry
    // a decimal marker already; bare "15" would re-parse as Int).
    if (out.find_first_of(".eE", out.size() - std::strlen(buf))
        == std::string::npos) {
        out += ".0";
    }
}

} // namespace

void
appendJson(std::string &out, const Json &value, int indent, int depth)
{
    const auto newline = [&] {
        if (indent < 0)
            return;
        out.push_back('\n');
        out.append(static_cast<std::size_t>(indent * depth), ' ');
    };

    switch (value.kind()) {
      case Json::Kind::Null:
        out += "null";
        return;
      case Json::Kind::Bool:
        out += value.asBool() ? "true" : "false";
        return;
      case Json::Kind::Int: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value.asInt()));
        out += buf;
        return;
      }
      case Json::Kind::Double:
        appendDouble(out, value.asNumber());
        return;
      case Json::Kind::String:
        appendEscaped(out, value.asString());
        return;
      case Json::Kind::Array: {
        const auto &items = value.asArray();
        if (items.empty()) {
            out += "[]";
            return;
        }
        out.push_back('[');
        bool first = true;
        for (const auto &item : items) {
            if (!first)
                out.push_back(',');
            first = false;
            ++depth;
            newline();
            --depth;
            appendJson(out, item, indent, depth + 1);
        }
        newline();
        out.push_back(']');
        return;
      }
      case Json::Kind::Object: {
        const auto &members = value.asObject();
        if (members.empty()) {
            out += "{}";
            return;
        }
        out.push_back('{');
        bool first = true;
        for (const auto &[key, member] : members) {
            if (!first)
                out.push_back(',');
            first = false;
            ++depth;
            newline();
            --depth;
            appendEscaped(out, key);
            out.push_back(':');
            if (indent >= 0)
                out.push_back(' ');
            appendJson(out, member, indent, depth + 1);
        }
        newline();
        out.push_back('}');
        return;
      }
    }
}

void
JsonReader::skipSpace()
{
    while (at < text.size()
           && (text[at] == ' ' || text[at] == '\t' || text[at] == '\n'
               || text[at] == '\r')) {
        ++at;
    }
}

bool
JsonReader::fail(const std::string &what)
{
    if (!failed) {
        failed = true;
        message = what;
        failedAt = at;
    }
    return false;
}

bool
JsonReader::skip(char c)
{
    if (failed || at >= text.size() || text[at] != c)
        return false;
    ++at;
    return true;
}

bool
JsonReader::expect(char c)
{
    return skip(c) || fail(std::string("expected '") + c + "'");
}

bool
JsonReader::string(std::string &out)
{
    out.clear();
    if (!expect('"'))
        return false;
    while (at < text.size()) {
        const char c = text[at];
        if (c == '"') {
            ++at;
            return true;
        }
        if (c != '\\') {
            out.push_back(c);
            ++at;
            continue;
        }
        if (at + 1 >= text.size())
            return fail("dangling escape");
        const char esc = text[at + 1];
        at += 2;
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            out.push_back(esc);
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'u': {
            if (at + 4 > text.size())
                return fail("truncated \\u escape");
            unsigned code = 0;
            for (std::size_t d = 0; d < 4; ++d) {
                const char h = text[at + d];
                code <<= 4;
                if (h >= '0' && h <= '9')
                    code |= static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    code |= static_cast<unsigned>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    code |= static_cast<unsigned>(h - 'A' + 10);
                else
                    return fail("bad \\u escape digit");
            }
            at += 4;
            if (code > 0x7f)
                return fail("non-ASCII \\u escape unsupported");
            out.push_back(static_cast<char>(code));
            break;
          }
          default:
            return fail("unknown escape");
        }
    }
    return fail("unterminated string");
}

namespace
{

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** True when `token` is an RFC 8259 number:
 *  -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? */
bool
wellFormedNumber(std::string_view token)
{
    std::size_t p = 0;
    const auto digits = [&] {
        const std::size_t first = p;
        while (p < token.size() && isDigit(token[p]))
            ++p;
        return p > first;
    };
    if (p < token.size() && token[p] == '-')
        ++p;
    if (p < token.size() && token[p] == '0')
        ++p;
    else if (!digits())
        return false;
    if (p < token.size() && token[p] == '.') {
        ++p;
        if (!digits())
            return false;
    }
    if (p < token.size() && (token[p] == 'e' || token[p] == 'E')) {
        ++p;
        if (p < token.size() && (token[p] == '+' || token[p] == '-'))
            ++p;
        if (!digits())
            return false;
    }
    return p == token.size();
}

} // namespace

bool
JsonReader::numberToken(std::size_t &start, bool &isDouble)
{
    if (failed)
        return false;
    // The token is the longest run of number bytes, with a minus sign
    // at the start and either sign right after the exponent marker; it
    // must then match the grammar as a whole, so `1.2.3` or `01` is one
    // malformed token rather than a number followed by garbage.
    start = at;
    isDouble = false;
    if (at < text.size() && text[at] == '-')
        ++at;
    while (at < text.size()) {
        const char c = text[at];
        if (c == '.' || c == 'e' || c == 'E') {
            isDouble = true;
        } else if (c == '+' || c == '-') {
            if (at == start || (text[at - 1] != 'e' && text[at - 1] != 'E'))
                break;
        } else if (!isDigit(c)) {
            break;
        }
        ++at;
    }
    if (!wellFormedNumber(text.substr(start, at - start)))
        return fail("malformed number");
    return true;
}

namespace
{

/** An integer token as strtoll reads it: saturated when out of range. */
std::int64_t
integerValue(const char *first, const char *last)
{
    std::int64_t value = 0;
    if (std::from_chars(first, last, value).ec
        == std::errc::result_out_of_range) {
        value = *first == '-' ? std::numeric_limits<std::int64_t>::min()
                              : std::numeric_limits<std::int64_t>::max();
    }
    return value;
}

/** A fraction or exponent token as strtod reads it. */
double
doubleValue(const char *first, const char *last)
{
    double value = 0.0;
    if (std::from_chars(first, last, value).ec
        == std::errc::result_out_of_range) {
        // Overflow and underflow: strtod's infinity or denormal.
        value = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    return value;
}

} // namespace

bool
JsonReader::number(Json &out)
{
    std::size_t start = 0;
    bool isDouble = false;
    if (!numberToken(start, isDouble))
        return false;
    const char *first = text.data() + start;
    const char *last = text.data() + at;
    out = isDouble ? Json(doubleValue(first, last))
                   : Json(integerValue(first, last));
    return true;
}

bool
JsonReader::number(double &out)
{
    std::size_t start = 0;
    bool isDouble = false;
    if (!numberToken(start, isDouble))
        return false;
    const char *first = text.data() + start;
    const char *last = text.data() + at;
    out = isDouble ? doubleValue(first, last)
                   : static_cast<double>(integerValue(first, last));
    return true;
}

bool
JsonReader::value(Json &out)
{
    skipSpace();
    if (failed)
        return false;
    if (at >= text.size())
        return fail("unexpected end of document");
    const char c = text[at];
    if (c == '{') {
        ++at;
        Json::Object members;
        skipSpace();
        if (!skip('}')) {
            std::string key;
            do {
                skipSpace();
                if (!string(key))
                    return false;
                if (members.count(key))
                    return fail("duplicate object key `" + key + "'");
                skipSpace();
                Json member;
                if (!expect(':') || !value(member))
                    return false;
                members.emplace(std::move(key), std::move(member));
                skipSpace();
            } while (skip(','));
            if (!expect('}'))
                return false;
        }
        out = Json(std::move(members));
        return true;
    }
    if (c == '[') {
        ++at;
        Json::Array items;
        skipSpace();
        if (!skip(']')) {
            do {
                Json item;
                if (!value(item))
                    return false;
                items.push_back(std::move(item));
                skipSpace();
            } while (skip(','));
            if (!expect(']'))
                return false;
        }
        out = Json(std::move(items));
        return true;
    }
    if (c == '"') {
        std::string chars;
        if (!string(chars))
            return false;
        out = Json(std::move(chars));
        return true;
    }
    if (c == 't')
        return literal("true", Json(true), out);
    if (c == 'f')
        return literal("false", Json(false), out);
    if (c == 'n')
        return literal("null", Json(), out);
    return number(out);
}

bool
JsonReader::literal(std::string_view word, Json literalValue, Json &out)
{
    if (text.substr(at, word.size()) != word)
        return fail("expected `" + std::string(word) + "'");
    at += word.size();
    out = std::move(literalValue);
    return true;
}

bool
JsonReader::finish()
{
    skipSpace();
    if (at != text.size())
        fail("trailing content after document");
    return !failed;
}

std::string
Json::dump(int indent) const
{
    std::string out;
    appendJson(out, *this, indent, 0);
    if (indent >= 0)
        out.push_back('\n');
    return out;
}

ParseResult
parseJson(const std::string &text)
{
    JsonReader reader(text);
    ParseResult result;
    result.ok = reader.value(result.value) && reader.finish();
    if (!result.ok) {
        result.error = reader.error();
        result.errorOffset = reader.errorOffset();
    }
    return result;
}

} // namespace mithra::telemetry
