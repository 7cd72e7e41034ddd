/**
 * @file
 * Deterministic mutation fuzzing of the bytes the service reads from
 * a socket: the strict JSON reader and the `/invoke` body decoder.
 *
 * Mutants grow from a corpus of real body shapes (the load generator's
 * and the example client's `%.9g` rows, the router contract's error
 * cases, a job spec) by stacked byte flips, truncations, insertions,
 * deletions and span copies drawn from splitMix64 under a fixed
 * budget, so every run checks the same documents. The sanitizer
 * builds run the whole file (asan/ubsan labels).
 *
 * The `/invoke` oracle is the tree decode the decoder replaced:
 * parseJson, then the checks on the Json tree. On every mutant both
 * must give the same status, error text, row count and float bits.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "service/invoke.hh"
#include "telemetry/json.hh"

using namespace mithra;
using telemetry::Json;

namespace
{

/** The model lookup both decoders see: two served widths, one
 *  pending job, everything else unknown. */
service::InvokeTarget
lookup(const std::string &id)
{
    if (id == "m")
        return {200, "", 2};
    if (id == "w")
        return {200, "", 3};
    if (id == "p")
        return {409, "model `p' is not ready (job is queued)", 0};
    return {404, "no such model `" + id + "'", 0};
}

/** The tree decode: parseJson, then the checks on the tree. */
service::InvokeRequest
treeDecode(const std::string &text)
{
    service::InvokeRequest out;
    const auto reject = [&](int status, std::string error) {
        out.status = status;
        out.error = std::move(error);
        out.cells.clear();
        return out;
    };
    const telemetry::ParseResult parsed = telemetry::parseJson(text);
    if (!parsed.ok)
        return reject(400, "invalid JSON body: " + parsed.error);
    const Json &body = parsed.value;
    if (body.kind() != Json::Kind::Object)
        return reject(400, "invoke body must be a JSON object");
    const Json *modelId = body.find("model");
    if (!modelId || modelId->kind() != Json::Kind::String)
        return reject(400, "`model' string is required");
    const service::InvokeTarget target = lookup(modelId->asString());
    if (target.status != 200)
        return reject(target.status, target.error);
    const Json *inputs = body.find("inputs");
    if (!inputs || inputs->kind() != Json::Kind::Array
        || inputs->asArray().empty())
        return reject(400, "`inputs' must be a non-empty array of rows");
    const Json::Array &rows = inputs->asArray();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i].kind() != Json::Kind::Array
            || rows[i].asArray().size() != target.width)
            return reject(400, "row " + std::to_string(i)
                                   + " must be an array of "
                                   + std::to_string(target.width)
                                   + " numbers");
        for (const Json &cell : rows[i].asArray()) {
            if (cell.kind() != Json::Kind::Int
                && cell.kind() != Json::Kind::Double)
                return reject(400, "row " + std::to_string(i)
                                       + " holds a non-number");
            out.cells.push_back(static_cast<float>(cell.asNumber()));
        }
    }
    out.rows = rows.size();
    return out;
}

/** A body in the load generator's layout, `%.9g` cells. */
std::string
rowsBody(const std::string &model, std::size_t rows, std::size_t width,
         std::uint64_t seed)
{
    std::string body = "{\"model\": \"" + model + "\", \"inputs\": [";
    for (std::size_t i = 0; i < rows; ++i) {
        body += i ? ",[" : "[";
        for (std::size_t j = 0; j < width; ++j) {
            const std::uint64_t draw = splitMix64(seed);
            const float cell = static_cast<float>(draw >> 40) * 0x1.0p-24f
                * (draw & 1 ? -1.0f : 1.0f)
                * (draw & 2 ? 1e-4f : 3.0f);
            char text[32];
            std::snprintf(text, sizeof(text), "%.9g",
                          static_cast<double>(cell));
            if (j)
                body += ',';
            body += text;
        }
        body += ']';
    }
    return body + "]}";
}

std::vector<std::string>
corpus()
{
    return {
        rowsBody("m", 4, 2, 1),
        rowsBody("w", 3, 3, 2),
        rowsBody("m", 1, 2, 3),
        rowsBody("p", 2, 2, 4),
        "{\"inputs\": [[1, 2], [3, -4.5e-3]], \"model\": \"m\"}",
        "{\"model\": \"m\", \"inputs\": [[1, 2]], \"extra\": "
        "{\"a\": [true, null, \"s\\n\\u0041\"]}}",
        "{\"model\": \"m\", \"inputs\": [[1, 2], [1, \"x\"], [1]]}",
        "{\"model\": \"m\", \"inputs\": [[1, 2], 3, [[1], 2]]}",
        "{\"model\": \"ghost\", \"inputs\": []}",
        "{\"model\": \"m\", \"inputs\": []}",
        "{\"model\": \"w\", \"inputs\": [[1, 2, 3], [null, 2, 3]]}",
        "{\"model\": 7, \"inputs\": {\"0\": [1, 2]}}",
        "[[1, 2], [3, 4]]",
        "{\"benchmark\": \"inversek2j\", \"design\": \"table\", "
        "\"compileDatasets\": 6, \"confidence\": 0.95}",
    };
}

/** Fragments an insertion splices in: structure, number pieces,
 *  literals, keys, extreme numbers. */
const char *const fragments[] = {
    "[", "]", "{", "}", ",", ":", "\"", " ", "\\", "-", "+", ".",
    "e", "E", "0", "1", "9", "true", "null", "f", "\"model\"",
    "\"inputs\"", "\"m\"", "\"w\"", "\"p\"", "[1,2]", "[1,2,3]",
    "1e999", "-1e-999", "99999999999999999999", "0.5", "\\u00",
};

std::string
mutate(std::string text, std::uint64_t &state)
{
    const std::size_t ops = 1 + splitMix64(state) % 3;
    for (std::size_t op = 0; op < ops; ++op) {
        const std::uint64_t draw = splitMix64(state);
        const std::size_t at =
            text.empty() ? 0 : splitMix64(state) % (text.size() + 1);
        switch (draw % 5) {
          case 0: // flip one byte: half random, half a structural one
            if (at < text.size()) {
                const std::uint64_t pick = splitMix64(state);
                text[at] = pick & 1
                    ? static_cast<char>(pick >> 8)
                    : std::string("[]{},:\"-.eE0 ")[(pick >> 8) % 13];
            }
            break;
          case 1: // truncate
            text.resize(at);
            break;
          case 2: // insert a fragment
            text.insert(at, fragments[splitMix64(state)
                                      % std::size(fragments)]);
            break;
          case 3: // delete a few bytes
            text.erase(at, 1 + splitMix64(state) % 4);
            break;
          default: { // copy a span elsewhere
            const std::size_t from =
                text.empty() ? 0 : splitMix64(state) % text.size();
            const std::size_t length = 1 + splitMix64(state) % 16;
            text.insert(at, text.substr(from, length));
          }
        }
    }
    return text;
}

constexpr std::size_t mutantBudget = 6000;

/** Every corpus entry once, then the budget of seeded mutants. */
template <class Check>
void
forEachMutant(Check check)
{
    const std::vector<std::string> seeds = corpus();
    for (const std::string &seed : seeds)
        check(seed);
    std::uint64_t state = 0xf022ULL;
    for (std::size_t i = 0; i < mutantBudget; ++i)
        check(mutate(seeds[i % seeds.size()], state));
}

bool
allFinite(const Json &value)
{
    switch (value.kind()) {
      case Json::Kind::Double:
        return std::isfinite(value.asNumber());
      case Json::Kind::Array:
        for (const Json &item : value.asArray())
            if (!allFinite(item))
                return false;
        return true;
      case Json::Kind::Object:
        for (const auto &member : value.asObject())
            if (!allFinite(member.second))
                return false;
        return true;
      default:
        return true;
    }
}

} // namespace

TEST(FuzzInvokeDecode, MatchesTheTreeDecodeOnEveryMutant)
{
    std::map<int, std::size_t> statuses;
    std::map<std::string, std::size_t> errors;
    forEachMutant([&](const std::string &body) {
        const service::InvokeRequest got =
            service::decodeInvoke(body, lookup);
        const service::InvokeRequest want = treeDecode(body);
        ASSERT_EQ(got.status, want.status) << body;
        ASSERT_EQ(got.error, want.error) << body;
        ASSERT_EQ(got.rows, want.rows) << body;
        ASSERT_EQ(got.cells.size(), want.cells.size()) << body;
        if (!got.cells.empty()) {
            ASSERT_EQ(std::memcmp(got.cells.data(), want.cells.data(),
                                  got.cells.size() * sizeof(float)),
                      0)
                << body;
        }
        ++statuses[got.status];
        // Bucket by message, minus the quoted key or model id.
        ++errors[got.error.empty() || got.error[0] == '`'
                     ? got.error
                     : got.error.substr(0, got.error.find('`'))];
    });
    // The budget must reach every answer, not just syntax errors.
    for (const int status : {200, 400, 404, 409})
        EXPECT_GE(statuses[status], 20u) << "status " << status;
    EXPECT_GE(errors.size(), 20u);
}

TEST(FuzzJsonReader, AcceptedMutantsRoundTrip)
{
    std::size_t accepted = 0;
    forEachMutant([&](const std::string &text) {
        const telemetry::ParseResult parsed = telemetry::parseJson(text);
        if (!parsed.ok) {
            ASSERT_FALSE(parsed.error.empty()) << text;
            ASSERT_LE(parsed.errorOffset, text.size()) << text;
            return;
        }
        ++accepted;
        if (!allFinite(parsed.value))
            return; // 1e999 reads as infinity, which no writer emits
        for (const int indent : {-1, 1}) {
            const std::string dumped = parsed.value.dump(indent);
            const telemetry::ParseResult again =
                telemetry::parseJson(dumped);
            ASSERT_TRUE(again.ok) << dumped << ": " << again.error;
            ASSERT_TRUE(again.value == parsed.value) << text;
            ASSERT_EQ(again.value.dump(indent), dumped);
        }
    });
    EXPECT_GE(accepted, 500u);
}
