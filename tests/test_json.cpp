/**
 * @file
 * telemetry/json tests: deterministic serialization (sorted keys,
 * round-tripping doubles, Int/Double kind preservation, nested
 * appendJson) and the strict reader (duplicate keys, trailing
 * content, malformed escapes, the RFC 8259 number grammar).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.hh"
#include "telemetry/json.hh"

namespace
{

using mithra::telemetry::Json;
using mithra::telemetry::JsonReader;
using mithra::telemetry::parseJson;

TEST(Json, ScalarKindsAndAccessors)
{
    EXPECT_EQ(Json().kind(), Json::Kind::Null);
    EXPECT_TRUE(Json(true).asBool());
    EXPECT_EQ(Json(std::int64_t{-7}).asInt(), -7);
    EXPECT_DOUBLE_EQ(Json(2.5).asNumber(), 2.5);
    EXPECT_EQ(Json("text").asString(), "text");
    // asNumber widens Int transparently.
    EXPECT_DOUBLE_EQ(Json(std::int64_t{3}).asNumber(), 3.0);
}

TEST(Json, CompactDumpSortsObjectKeys)
{
    Json value;
    value["zebra"] = Json(std::int64_t{1});
    value["alpha"] = Json(std::int64_t{2});
    value["mid"] = Json(std::int64_t{3});
    EXPECT_EQ(value.dump(), R"({"alpha":2,"mid":3,"zebra":1})");
}

TEST(Json, PrettyDumpIsStable)
{
    Json value;
    value["a"] = Json(Json::Array{Json(std::int64_t{1}),
                                  Json(std::int64_t{2})});
    value["b"] = Json("x");
    EXPECT_EQ(value.dump(1), "{\n \"a\": [\n  1,\n  2\n ],\n"
                             " \"b\": \"x\"\n}\n");
}

TEST(Json, DoubleRoundTripsExactly)
{
    const double samples[] = {0.1, 1.0 / 3.0, 6.02214076e23,
                              -2.2250738585072014e-308, 12345.678,
                              0.0, -0.0, 1e-9};
    for (const double sample : samples) {
        const std::string text = Json(sample).dump();
        const auto parsed = parseJson(text);
        ASSERT_TRUE(parsed.ok) << text << ": " << parsed.error;
        EXPECT_EQ(parsed.value.asNumber(), sample) << text;
    }
}

TEST(Json, DoubleKindSurvivesRoundTrip)
{
    // A double that prints without a fraction must not come back Int.
    const std::string text = Json(1.0).dump();
    EXPECT_EQ(text, "1.0");
    const auto parsed = parseJson(text);
    ASSERT_TRUE(parsed.ok);
    EXPECT_EQ(parsed.value.kind(), Json::Kind::Double);

    const auto intParsed = parseJson(Json(std::int64_t{1}).dump());
    ASSERT_TRUE(intParsed.ok);
    EXPECT_EQ(intParsed.value.kind(), Json::Kind::Int);
}

TEST(Json, StringEscapesRoundTrip)
{
    const std::string nasty = "line\nwith \"quotes\", tab\t, "
                              "backslash \\ and bell\x07";
    const auto parsed = parseJson(Json(nasty).dump());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.asString(), nasty);
}

TEST(Json, NestedDocumentRoundTrip)
{
    Json document;
    document["metrics"]["speedup"] = Json(2.5);
    document["name"] = Json("fig06");
    document["tags"] =
        Json(Json::Array{Json("a"), Json(), Json(false)});
    const auto parsed = parseJson(document.dump(2));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_TRUE(parsed.value == document);
}

TEST(Json, FindAndEquality)
{
    Json value;
    value["key"] = Json(std::int64_t{9});
    ASSERT_NE(value.find("key"), nullptr);
    EXPECT_EQ(value.find("key")->asInt(), 9);
    EXPECT_EQ(value.find("absent"), nullptr);
    EXPECT_FALSE(Json(std::int64_t{1}) == Json(1.0)); // kinds differ
}

TEST(Json, ParserRejectsDuplicateKeys)
{
    const auto parsed = parseJson(R"({"a":1,"a":2})");
    EXPECT_FALSE(parsed.ok);
    EXPECT_NE(parsed.error.find("duplicate"), std::string::npos);
}

TEST(Json, ParserRejectsTrailingContent)
{
    const auto parsed = parseJson("{} []");
    EXPECT_FALSE(parsed.ok);
    EXPECT_NE(parsed.error.find("trailing"), std::string::npos);
}

TEST(Json, ParserRejectsMalformedDocuments)
{
    const char *broken[] = {
        "",         "{",         "[1,",       "\"open",
        "{\"a\"1}", "tru",       "01x",       "{\"a\":\"\\q\"}",
        "nan",      "{\"a\":}",
    };
    for (const char *text : broken)
        EXPECT_FALSE(parseJson(text).ok) << text;
}

TEST(Json, ParserAcceptsNumbersAndLiterals)
{
    const auto parsed =
        parseJson(R"([0, -3, 2.5, 1e3, -1.5e-2, true, false, null])");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const auto &items = parsed.value.asArray();
    ASSERT_EQ(items.size(), 8u);
    EXPECT_EQ(items[0].asInt(), 0);
    EXPECT_EQ(items[1].asInt(), -3);
    EXPECT_DOUBLE_EQ(items[2].asNumber(), 2.5);
    EXPECT_DOUBLE_EQ(items[3].asNumber(), 1000.0);
    EXPECT_DOUBLE_EQ(items[4].asNumber(), -0.015);
    EXPECT_TRUE(items[5].asBool());
    EXPECT_FALSE(items[6].asBool());
    EXPECT_EQ(items[7].kind(), Json::Kind::Null);
}

TEST(Json, ParserReportsErrorOffset)
{
    const auto parsed = parseJson("[1, )");
    EXPECT_FALSE(parsed.ok);
    EXPECT_EQ(parsed.errorOffset, 4u);
}

TEST(Json, LeadingPlusIsMalformedWithoutReadingBeforeTheText)
{
    // A document whose first byte is '+' once made the number scanner
    // look one byte before the text (caught by AddressSanitizer; the
    // string is long enough to live on the heap).
    const std::string text = "+11111111111111111111111";
    const auto parsed = parseJson(text);
    EXPECT_FALSE(parsed.ok);
    EXPECT_EQ(parsed.error, "malformed number");
    EXPECT_EQ(parsed.errorOffset, 0u);
    EXPECT_EQ(parseJson("[+1]").error, "malformed number");
}

TEST(Json, ParserRejectsNumbersOutsideTheRfcGrammar)
{
    const char *broken[] = {
        "[1.2.3]", "[1e]",   "[.]",    "[-.]",  "[1e5e5]", "[01]",
        "[.5]",    "[1.]",   "[-]",    "[-01]", "[1.e5]",  "[1e+]",
        "[1E-]",   "[00]",   "[-.5]",  "[2.e]", "[1e1.5]", "[0.5.]",
        "1.",      "-",      "01",     "1ee2",  "[1,-]",   "[1.5e]",
    };
    for (const char *text : broken) {
        const auto parsed = parseJson(text);
        EXPECT_FALSE(parsed.ok) << text;
        EXPECT_EQ(parsed.error, "malformed number") << text;
    }
    // A sign in the middle ends the token; what follows is not JSON.
    EXPECT_EQ(parseJson("[1-2]").error, "expected ']'");
    EXPECT_EQ(parseJson("[1+2]").error, "expected ']'");
}

TEST(Json, ParserAcceptsEveryRfcNumberForm)
{
    const struct
    {
        const char *text;
        double value;
        bool isInt;
    } cases[] = {
        {"0", 0.0, true},          {"-0", 0.0, true},
        {"7", 7.0, true},          {"-42", -42.0, true},
        {"0.5", 0.5, false},       {"-0.25", -0.25, false},
        {"1e5", 1e5, false},       {"1E+5", 1e5, false},
        {"2.5e-3", 2.5e-3, false}, {"1e-05", 1e-5, false},
        {"0e0", 0.0, false},       {"-0.0", -0.0, false},
        {"10.75E2", 1075.0, false},
    };
    for (const auto &c : cases) {
        const auto parsed = parseJson(c.text);
        ASSERT_TRUE(parsed.ok) << c.text << ": " << parsed.error;
        EXPECT_EQ(parsed.value.kind(),
                  c.isInt ? Json::Kind::Int : Json::Kind::Double)
            << c.text;
        EXPECT_EQ(parsed.value.asNumber(), c.value) << c.text;
    }
    // Out-of-range integers saturate and out-of-range doubles go to
    // infinity, as strtoll and strtod read them.
    EXPECT_EQ(parseJson("99999999999999999999").value.asInt(),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(parseJson("-99999999999999999999").value.asInt(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(parseJson("1e999").value.asNumber(),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(parseJson("1e-999").value.asNumber(), 0.0);
}

TEST(Json, EveryWrittenDoubleReadsBackExactly)
{
    // appendDouble's shortest %g forms must all be in the grammar the
    // reader accepts: random bit patterns over the whole finite range,
    // and the %.9g cell form request bodies use for floats.
    std::uint64_t state = 0x5eedULL;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t bits = mithra::splitMix64(state);
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof(value));
        if (!std::isfinite(value))
            continue;
        const std::string text = Json(value).dump();
        const auto parsed = parseJson(text);
        ASSERT_TRUE(parsed.ok) << text << ": " << parsed.error;
        ASSERT_EQ(parsed.value.kind(), Json::Kind::Double) << text;
        const double back = parsed.value.asNumber();
        ASSERT_EQ(std::memcmp(&back, &value, sizeof(value)), 0) << text;

        const float cell = static_cast<float>(mithra::splitMix64(state)
                                              >> 40)
            * 0x1.0p-24f * (i % 2 ? 1.0f : -1e-3f);
        char form[32];
        std::snprintf(form, sizeof(form), "%.9g",
                      static_cast<double>(cell));
        double read = 0.0;
        JsonReader reader(form);
        ASSERT_TRUE(reader.number(read) && reader.finish()) << form;
        EXPECT_EQ(static_cast<float>(read), cell) << form;
    }
}

TEST(Json, AppendJsonNestsAsDumpDoes)
{
    Json inner;
    inner["list"] = Json(Json::Array{Json(std::int64_t{1}), Json(2.5)});
    inner["name"] = Json("x");
    Json outer;
    outer["inner"] = inner;
    std::string spliced = "{\n \"inner\": ";
    mithra::telemetry::appendJson(spliced, inner, 1, 1);
    spliced += "\n}\n";
    EXPECT_EQ(spliced, outer.dump(1));

    std::string compact;
    mithra::telemetry::appendJson(compact, inner);
    EXPECT_EQ(compact, inner.dump());
}

TEST(Json, ReaderWalksADocumentWithoutATree)
{
    JsonReader reader(" {\"k\": [1, -2.5e1, \"s\"]} ");
    reader.skipSpace();
    ASSERT_TRUE(reader.expect('{'));
    std::string key;
    reader.skipSpace();
    ASSERT_TRUE(reader.string(key));
    EXPECT_EQ(key, "k");
    reader.skipSpace();
    ASSERT_TRUE(reader.expect(':'));
    reader.skipSpace();
    ASSERT_TRUE(reader.expect('['));
    double first = 0.0;
    double second = 0.0;
    ASSERT_TRUE(reader.number(first));
    EXPECT_TRUE(reader.skip(','));
    reader.skipSpace();
    ASSERT_TRUE(reader.number(second));
    EXPECT_EQ(first, 1.0);
    EXPECT_EQ(second, -25.0);
    EXPECT_TRUE(reader.skip(','));
    Json text;
    ASSERT_TRUE(reader.value(text));
    EXPECT_EQ(text.asString(), "s");
    EXPECT_TRUE(reader.expect(']'));
    EXPECT_TRUE(reader.expect('}'));
    EXPECT_TRUE(reader.finish());

    // The first error is kept, with its offset, and later calls fail.
    JsonReader broken("[1 2]");
    Json ignored;
    EXPECT_FALSE(broken.value(ignored));
    EXPECT_EQ(broken.error(), "expected ']'");
    EXPECT_EQ(broken.errorOffset(), 3u);
    EXPECT_FALSE(broken.finish());
    EXPECT_FALSE(broken.skip('2'));
    EXPECT_EQ(broken.error(), "expected ']'");
}

} // namespace
