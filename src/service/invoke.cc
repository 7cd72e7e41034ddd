#include "service/invoke.hh"

#include <set>

#include "telemetry/json.hh"

namespace mithra::service
{

namespace
{

using telemetry::Json;
using telemetry::JsonReader;

constexpr std::size_t none = static_cast<std::size_t>(-1);

/**
 * What the row checks need to know of `inputs`, gathered before the
 * model, and so the row width, is known.
 */
struct RowShapes
{
    std::size_t rows = 0;
    /** Row 0's cell count; `none` when row 0 is not an array. */
    std::size_t firstWidth = none;
    /** The first row that is not an array or whose count differs
     *  from row 0's. */
    std::size_t firstMisfit = none;
    /** The first row holding a non-number cell. */
    std::size_t firstNonNumber = none;

    void add(bool isArray, std::size_t count, bool nonNumber)
    {
        if (rows == 0 && isArray)
            firstWidth = count;
        if (firstMisfit == none && (!isArray || count != firstWidth))
            firstMisfit = rows;
        if (firstNonNumber == none && nonNumber)
            firstNonNumber = rows;
        ++rows;
    }

    /** The first bad row's error at `width`, "" when every row is an
     *  array of `width` numbers. A row's width is checked before its
     *  cells' kinds. */
    std::string problem(std::size_t width) const
    {
        const auto widthError = [&](std::size_t row) {
            return "row " + std::to_string(row) + " must be an array of "
                + std::to_string(width) + " numbers";
        };
        if (firstWidth != width)
            return widthError(0);
        if (firstNonNumber < firstMisfit)
            return "row " + std::to_string(firstNonNumber)
                + " holds a non-number";
        if (firstMisfit != none)
            return widthError(firstMisfit);
        return "";
    }
};

/** The parts of the body the checks read. */
struct Decoded
{
    bool isObject = false;
    bool hasModel = false;
    std::string model;
    bool hasRows = false;
    RowShapes shapes;
    std::vector<float> cells;
};

bool
skipValue(JsonReader &in)
{
    Json ignored;
    return in.value(ignored);
}

/** One row at '[': numbers go to `cells`; anything else is read,
 *  checked and dropped. */
bool
readRow(JsonReader &in, Decoded &out)
{
    in.expect('[');
    in.skipSpace();
    std::size_t count = 0;
    bool nonNumber = false;
    if (!in.skip(']')) {
        do {
            in.skipSpace();
            const char c = in.peek();
            double cell = 0.0;
            if (c == '-' || (c >= '0' && c <= '9')) {
                if (!in.number(cell))
                    return false;
                out.cells.push_back(static_cast<float>(cell));
            } else {
                if (!skipValue(in))
                    return false;
                nonNumber = true;
            }
            ++count;
            in.skipSpace();
        } while (in.skip(','));
        if (!in.expect(']'))
            return false;
    }
    out.shapes.add(true, count, nonNumber);
    return true;
}

/** The `inputs` member's value. */
bool
readInputs(JsonReader &in, Decoded &out)
{
    in.skipSpace();
    if (in.peek() != '[')
        return skipValue(in);
    out.hasRows = true;
    in.expect('[');
    in.skipSpace();
    if (in.skip(']'))
        return true;
    do {
        in.skipSpace();
        if (in.peek() == '[') {
            if (!readRow(in, out))
                return false;
        } else {
            if (!skipValue(in))
                return false;
            out.shapes.add(false, 0, false);
        }
        in.skipSpace();
    } while (in.skip(','));
    return in.expect(']');
}

/** The top-level object at '{', members in any order. */
bool
readBody(JsonReader &in, Decoded &out)
{
    out.isObject = true;
    in.expect('{');
    in.skipSpace();
    if (in.skip('}'))
        return true;
    std::set<std::string> keys;
    std::string key;
    do {
        in.skipSpace();
        if (!in.string(key))
            return false;
        if (!keys.insert(key).second)
            return in.fail("duplicate object key `" + key + "'");
        in.skipSpace();
        if (!in.expect(':'))
            return false;
        bool read = false;
        if (key == "model") {
            in.skipSpace();
            out.hasModel = in.peek() == '"';
            read = out.hasModel ? in.string(out.model) : skipValue(in);
        } else if (key == "inputs") {
            read = readInputs(in, out);
        } else {
            read = skipValue(in);
        }
        if (!read)
            return false;
        in.skipSpace();
    } while (in.skip(','));
    return in.expect('}');
}

InvokeRequest
rejected(int status, std::string error)
{
    InvokeRequest out;
    out.status = status;
    out.error = std::move(error);
    return out;
}

} // namespace

InvokeRequest
decodeInvoke(std::string_view body, const ModelLookup &lookup)
{
    JsonReader in(body);
    Decoded decoded;
    in.skipSpace();
    const bool parsed = (in.peek() == '{' ? readBody(in, decoded)
                                          : skipValue(in))
        && in.finish();
    if (!parsed)
        return rejected(400, "invalid JSON body: " + in.error());
    if (!decoded.isObject)
        return rejected(400, "invoke body must be a JSON object");
    if (!decoded.hasModel)
        return rejected(400, "`model' string is required");
    const InvokeTarget target = lookup(decoded.model);
    if (target.status != 200)
        return rejected(target.status, target.error);
    if (!decoded.hasRows || decoded.shapes.rows == 0)
        return rejected(400,
                        "`inputs' must be a non-empty array of rows");
    std::string problem = decoded.shapes.problem(target.width);
    if (!problem.empty())
        return rejected(400, std::move(problem));

    InvokeRequest out;
    out.rows = decoded.shapes.rows;
    out.cells = std::move(decoded.cells);
    return out;
}

std::string
encodeInvoke(const std::string &model, const InvokeOutcome &outcome)
{
    // dump(1) of the sorted three-member object, spliced: the
    // certificate one level deep, then one 0/1 digit per decision.
    std::string out = "{\n \"certificate\": ";
    telemetry::appendJson(out, outcome.certificate, 1, 1);
    out.reserve(out.size() + 4 * outcome.decisions.size() + model.size()
                + 40);
    out += ",\n \"decisions\": ";
    if (outcome.decisions.empty()) {
        out += "[]";
    } else {
        out += '[';
        for (std::size_t i = 0; i < outcome.decisions.size(); ++i) {
            out += i ? ",\n  " : "\n  ";
            out += outcome.decisions[i] ? '1' : '0';
        }
        out += "\n ]";
    }
    out += ",\n \"model\": ";
    telemetry::appendJson(out, Json(model), 1, 1);
    out += "\n}\n\n";
    return out;
}

} // namespace mithra::service
