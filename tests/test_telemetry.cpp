/**
 * @file
 * Telemetry-layer tests: the determinism contract (bitwise-identical
 * stats JSON and run reports at MITHRA_THREADS=1/2/8), histogram bucket
 * edges, span call counts, the run-report schema round trip, and the
 * MITHRA_EXPECTS death on duplicate stat registration.
 *
 * The thread-count sweep exercises the striped-counter merge under
 * real concurrency, so this suite carries the tsan label.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "telemetry/run_report.hh"
#include "telemetry/span.hh"
#include "telemetry/stats.hh"

namespace
{

using namespace mithra;
using namespace mithra::telemetry;

// Death tests first (gtest runs *DeathTest suites before the rest, so
// they fork before any pool worker threads exist).

TEST(TelemetryDeathTest, DuplicateRegistrationDies)
{
    StatsRegistry registry;
    registry.addCounter("dup.stat");
    EXPECT_DEATH(registry.addCounter("dup.stat"),
                 "precondition.*duplicate stat registration");
    // The name is reserved across kinds, not per kind.
    EXPECT_DEATH(registry.addGauge("dup.stat"),
                 "precondition.*duplicate stat registration");
    EXPECT_DEATH(registry.addHistogram("dup.stat", 0.0, 1.0, 4),
                 "precondition.*duplicate stat registration");
}

TEST(TelemetryDeathTest, GetOrCreateKindMismatchDies)
{
    StatsRegistry registry;
    registry.addCounter("kinds.counter");
    registry.histogram("kinds.hist", 0.0, 1.0, 8);
    EXPECT_DEATH(registry.gauge("kinds.counter"),
                 "precondition.*exists with a different kind");
    EXPECT_DEATH(registry.histogram("kinds.hist", 0.0, 1.0, 16),
                 "precondition.*different bucketing");
}

TEST(Telemetry, CounterStripesMergeExactly)
{
    StatsRegistry registry;
    Counter &counter = registry.addCounter("stripes.hits");
    constexpr std::size_t iterations = 100000;
    parallelFor(0, iterations, 128,
                [&](std::size_t) { counter.increment(); });
    EXPECT_EQ(counter.value(),
              static_cast<std::int64_t>(iterations));
    counter.reset();
    EXPECT_EQ(counter.value(), 0);
}

TEST(Telemetry, HistogramBucketEdges)
{
    Histogram histogram("edges", 0.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(histogram.bucketWidth(), 0.25);

    histogram.record(0.0);    // lo is inclusive: bucket 0
    histogram.record(0.25);   // exact interior edge: bucket 1, not 0
    histogram.record(0.9999); // last bucket
    histogram.record(1.0);    // hi is exclusive: overflow
    histogram.record(-0.001); // underflow
    histogram.record(7.0);    // overflow

    EXPECT_EQ(histogram.samples(), 6);
    EXPECT_EQ(histogram.bucketCountAt(0), 1);
    EXPECT_EQ(histogram.bucketCountAt(1), 1);
    EXPECT_EQ(histogram.bucketCountAt(2), 0);
    EXPECT_EQ(histogram.bucketCountAt(3), 1);
    EXPECT_EQ(histogram.underflows(), 1);
    EXPECT_EQ(histogram.overflows(), 2);
    // min/max track every sample, including under/overflows.
    EXPECT_DOUBLE_EQ(histogram.minSample(), -0.001);
    EXPECT_DOUBLE_EQ(histogram.maxSample(), 7.0);

    histogram.reset();
    EXPECT_EQ(histogram.samples(), 0);
    EXPECT_DOUBLE_EQ(histogram.minSample(), 0.0);
    EXPECT_DOUBLE_EQ(histogram.maxSample(), 0.0);
}

TEST(Telemetry, GaugeIsLastWriteWins)
{
    StatsRegistry registry;
    Gauge &gauge = registry.gauge("gauge.lww");
    gauge.set(1.0);
    gauge.set(2.5);
    EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
    EXPECT_EQ(registry.findGauge("gauge.lww"), &gauge);
    EXPECT_EQ(registry.findCounter("gauge.lww"), nullptr);
}

TEST(Telemetry, VolatileStatsAreExcludedByDefault)
{
    StatsRegistry registry;
    registry.addCounter("stable.count").add(3);
    registry.addCounter("placement.count", /*isVolatile=*/true).add(9);

    const std::string quiet = registry.toJson(false).dump();
    EXPECT_NE(quiet.find("stable.count"), std::string::npos);
    EXPECT_EQ(quiet.find("placement.count"), std::string::npos);

    const std::string full = registry.toJson(true).dump();
    EXPECT_NE(full.find("placement.count"), std::string::npos);

    const Json quietJson = registry.toJson(false);
    EXPECT_EQ(quietJson.find("counters")->find("placement.count"),
              nullptr);
    const Json fullJson = registry.toJson(true);
    ASSERT_NE(fullJson.find("counters")->find("placement.count"),
              nullptr);
    EXPECT_EQ(
        fullJson.find("counters")->find("placement.count")->asInt(), 9);
}

TEST(Telemetry, SpanSitesAggregateCallCounts)
{
    SpanRegistry registry;
    SpanSite &site = registry.site("test.span");
    EXPECT_EQ(&registry.site("test.span"), &site);

    for (int i = 0; i < 5; ++i) {
        ScopedSpan span(site);
    }
    EXPECT_EQ(site.calls(), 5);

    // Counts-only export carries no timing keys.
    const Json quiet = registry.toJson(false);
    const Json *entry = quiet.find("test.span");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->find("calls")->asInt(), 5);
    EXPECT_EQ(entry->find("wall_ns"), nullptr);
    const Json timed = registry.toJson(true);
    EXPECT_NE(timed.find("test.span")->find("wall_ns"), nullptr);

    registry.resetValues();
    EXPECT_EQ(site.calls(), 0);
}

TEST(Telemetry, RunReportSchemaRoundTrips)
{
    RunReport report("schema_round_trip");
    report.addMetric("speedup", 2.5);
    report.addMetric("invocations", std::int64_t{1024});
    report.addMetric("design", std::string("table"));

    const Json document = report.toJson();
    const ParseResult parsed = parseJson(document.dump(2));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_TRUE(parsed.value == document);
    EXPECT_EQ(validateReport(parsed.value), "");

    EXPECT_EQ(parsed.value.find("schema")->asString(),
              reportSchemaName);
    EXPECT_EQ(parsed.value.find("schemaVersion")->asInt(),
              reportSchemaVersion);
    EXPECT_EQ(parsed.value.find("name")->asString(),
              "schema_round_trip");
    const Json *metrics = parsed.value.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_DOUBLE_EQ(metrics->find("speedup")->asNumber(), 2.5);
    EXPECT_EQ(metrics->find("invocations")->kind(), Json::Kind::Int);
    EXPECT_EQ(metrics->find("design")->asString(), "table");
}

TEST(Telemetry, ValidateReportRejectsBadDocuments)
{
    EXPECT_NE(validateReport(Json(std::int64_t{1})), "");

    const auto tampered = [](const char *key, Json value) {
        Json document = RunReport("tamper").toJson();
        document[key] = std::move(value);
        return validateReport(document);
    };
    EXPECT_NE(tampered("schema", Json("other-schema")), "");
    EXPECT_NE(tampered("schemaVersion",
                       Json(reportSchemaVersion + 1)),
              "");
    EXPECT_NE(tampered("name", Json("")), "");
    EXPECT_NE(tampered("metrics", Json(std::int64_t{3})), "");
    EXPECT_NE(tampered("stats", Json(Json::Object{})), "");
    EXPECT_NE(tampered("spans", Json()), "");
}

/**
 * The headline guarantee: the same workload produces bitwise-identical
 * stats JSON and run-report documents at pool widths 1, 2 and 8.
 * Width 1 is the exact serial path, so this also proves the striped
 * parallel accumulation reproduces serial results.
 */
TEST(Telemetry, DumpAndReportAreBitwiseStableAcrossThreadCounts)
{
    // Span wall/CPU times may never leak into the compared documents.
    ::unsetenv("MITHRA_REPORT_TIMING");

    auto &stats = StatsRegistry::global();
    auto &spans = SpanRegistry::global();
    Counter &items = stats.counter("test.determinism.items");
    Histogram &values =
        stats.histogram("test.determinism.values", 0.0, 1.0, 10);

    const std::size_t originalWidth = parallelThreadCount();
    std::vector<std::string> dumps;
    std::vector<std::string> reports;
    for (const std::size_t width : {1u, 2u, 8u}) {
        setParallelThreadCount(width);
        stats.resetValues();
        spans.resetValues();
        {
            ScopedSpan span(spans.site("test.determinism.region"));
            parallelFor(0, 4096, 64, [&](std::size_t i) {
                items.add(1);
                values.record(static_cast<double>(i % 100) / 100.0);
            });
        }
        stats.gauge("test.determinism.gauge")
            .set(static_cast<double>(items.value()));

        dumps.push_back(stats.toJson(false).dump());
        reports.push_back(RunReport("determinism_check").toJson().dump());
    }
    setParallelThreadCount(originalWidth);

    ASSERT_EQ(dumps.size(), 3u);
    EXPECT_EQ(items.value(), 4096); // one increment per index, exact
    EXPECT_EQ(dumps[0], dumps[1]);
    EXPECT_EQ(dumps[0], dumps[2]);
    EXPECT_EQ(reports[0], reports[1]);
    EXPECT_EQ(reports[0], reports[2]);

    // Sanity: the compared dump actually contains the workload's stats.
    EXPECT_NE(dumps[0].find("test.determinism.items"),
              std::string::npos);
    EXPECT_NE(dumps[0].find("test.determinism.values"),
              std::string::npos);
}

} // namespace
