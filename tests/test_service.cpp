/**
 * @file
 * Service layer tests: the strict HTTP/1.1 parser's edge cases
 * (oversized headers, truncated lines, pipelining, body limits), the
 * socket-free router's error contract, classify-first `/invoke`
 * against the full-trace reference, model reproducibility across
 * independently compiled jobs, and a live-socket end-to-end lifecycle
 * with concurrent clients (the tsan-labeled heavy path).
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "axbench/drift.hh"
#include "axbench/registry.hh"
#include "common/parallel.hh"
#include "core/runtime.hh"
#include "service/client.hh"
#include "service/http.hh"
#include "service/model.hh"
#include "service/server.hh"
#include "stats/sequential_bound.hh"
#include "telemetry/json.hh"
#include "telemetry/run_report.hh"

using namespace mithra;
using service::HttpLimits;
using service::HttpRequest;
using service::HttpResponse;
using service::RequestParser;
using Status = service::RequestParser::Status;
using telemetry::Json;

namespace
{

Status
feedAll(RequestParser &parser, const std::string &text)
{
    return parser.feed(text.data(), text.size());
}

Json
bodyOf(const HttpResponse &response)
{
    const telemetry::ParseResult parsed =
        telemetry::parseJson(response.body);
    EXPECT_TRUE(parsed.ok) << parsed.error << "\n" << response.body;
    return parsed.value;
}

} // namespace

TEST(HttpParser, ParsesSimpleGet)
{
    RequestParser parser;
    ASSERT_EQ(feedAll(parser,
                      "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
              Status::Complete);
    const HttpRequest &request = parser.request();
    EXPECT_EQ(request.method, "GET");
    EXPECT_EQ(request.target, "/metrics");
    EXPECT_EQ(request.minorVersion, 1);
    EXPECT_TRUE(request.keepAlive);
    ASSERT_NE(request.header("host"), nullptr);
    EXPECT_EQ(*request.header("host"), "x");
}

TEST(HttpParser, AccumulatesByteByByte)
{
    RequestParser parser;
    const std::string text =
        "POST /invoke HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
    for (std::size_t i = 0; i + 1 < text.size(); ++i)
        ASSERT_EQ(parser.feed(&text[i], 1), Status::NeedMore) << i;
    ASSERT_EQ(parser.feed(&text[text.size() - 1], 1),
              Status::Complete);
    EXPECT_EQ(parser.request().body, "{}");
}

TEST(HttpParser, TruncatedRequestLineNeedsMore)
{
    RequestParser parser;
    EXPECT_EQ(feedAll(parser, "GET /jo"), Status::NeedMore);
    EXPECT_EQ(feedAll(parser, "bs HTTP/1.1\r\n\r\n"),
              Status::Complete);
    EXPECT_EQ(parser.request().target, "/jobs");
}

TEST(HttpParser, MalformedRequestLineIs400)
{
    RequestParser parser;
    ASSERT_EQ(feedAll(parser, "NOT-A-REQUEST\r\n\r\n"), Status::Error);
    EXPECT_EQ(parser.errorStatus(), 400);
}

TEST(HttpParser, WrongHttpVersionIs505)
{
    RequestParser parser;
    ASSERT_EQ(feedAll(parser, "GET / HTTP/2.0\r\n\r\n"),
              Status::Error);
    EXPECT_EQ(parser.errorStatus(), 505);
}

TEST(HttpParser, Http10DefaultsToClose)
{
    RequestParser parser;
    ASSERT_EQ(feedAll(parser, "GET / HTTP/1.0\r\n\r\n"),
              Status::Complete);
    EXPECT_FALSE(parser.request().keepAlive);
}

TEST(HttpParser, ConnectionCloseDisablesKeepAlive)
{
    RequestParser parser;
    ASSERT_EQ(feedAll(parser,
                      "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
              Status::Complete);
    EXPECT_FALSE(parser.request().keepAlive);
}

TEST(HttpParser, OversizedHeaderBlockIs431)
{
    HttpLimits limits;
    limits.maxHeaderBytes = 128;
    RequestParser parser(limits);
    const std::string text = "GET / HTTP/1.1\r\nX-Pad: "
        + std::string(200, 'a') + "\r\n\r\n";
    ASSERT_EQ(feedAll(parser, text), Status::Error);
    EXPECT_EQ(parser.errorStatus(), 431);
}

TEST(HttpParser, TooManyHeadersIs431)
{
    HttpLimits limits;
    limits.maxHeaderCount = 4;
    RequestParser parser(limits);
    std::string text = "GET / HTTP/1.1\r\n";
    for (int i = 0; i < 6; ++i)
        text += "X-H" + std::to_string(i) + ": v\r\n";
    text += "\r\n";
    ASSERT_EQ(feedAll(parser, text), Status::Error);
    EXPECT_EQ(parser.errorStatus(), 431);
}

TEST(HttpParser, ChunkedTransferIs411)
{
    RequestParser parser;
    ASSERT_EQ(feedAll(parser,
                      "POST / HTTP/1.1\r\n"
                      "Transfer-Encoding: chunked\r\n\r\n"),
              Status::Error);
    EXPECT_EQ(parser.errorStatus(), 411);
}

TEST(HttpParser, MalformedContentLengthIs400)
{
    RequestParser parser;
    ASSERT_EQ(feedAll(parser,
                      "POST / HTTP/1.1\r\n"
                      "Content-Length: twelve\r\n\r\n"),
              Status::Error);
    EXPECT_EQ(parser.errorStatus(), 400);
}

TEST(HttpParser, OverLimitBodyIs413)
{
    HttpLimits limits;
    limits.maxBodyBytes = 1024;
    RequestParser parser(limits);
    ASSERT_EQ(feedAll(parser,
                      "POST / HTTP/1.1\r\n"
                      "Content-Length: 2048\r\n\r\n"),
              Status::Error);
    EXPECT_EQ(parser.errorStatus(), 413);
}

TEST(HttpParser, ZeroLengthBodyCompletes)
{
    RequestParser parser;
    ASSERT_EQ(feedAll(parser,
                      "POST /jobs HTTP/1.1\r\n"
                      "Content-Length: 0\r\n\r\n"),
              Status::Complete);
    EXPECT_TRUE(parser.request().body.empty());
}

TEST(HttpParser, PipelinedRequestsParseInOrder)
{
    RequestParser parser;
    ASSERT_EQ(feedAll(parser,
                      "GET /first HTTP/1.1\r\n\r\n"
                      "POST /second HTTP/1.1\r\n"
                      "Content-Length: 3\r\n\r\nabc"),
              Status::Complete);
    EXPECT_EQ(parser.request().target, "/first");
    ASSERT_EQ(parser.next(), Status::Complete);
    EXPECT_EQ(parser.request().target, "/second");
    EXPECT_EQ(parser.request().body, "abc");
    EXPECT_EQ(parser.next(), Status::NeedMore);
}

TEST(HttpParser, SerializedResponseRoundTrips)
{
    HttpResponse response;
    response.status = 429;
    response.body = "{\"error\": \"full\"}";
    const std::string wire = serializeResponse(response, true);
    EXPECT_NE(wire.find("HTTP/1.1 429 Too Many Requests\r\n"),
              std::string::npos);
    EXPECT_NE(wire.find("Content-Length: 17\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Connection: keep-alive\r\n"),
              std::string::npos);
    EXPECT_NE(wire.find("\r\n\r\n{\"error\": \"full\"}"),
              std::string::npos);
}

namespace
{

HttpRequest
makeRequest(const std::string &method, const std::string &target,
            const std::string &body = "")
{
    HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = body;
    return request;
}

} // namespace

TEST(ServiceRouter, HealthzAndUnknownPaths)
{
    service::Server server;
    EXPECT_EQ(server.handle(makeRequest("GET", "/healthz")).status,
              200);
    EXPECT_EQ(server.handle(makeRequest("GET", "/bogus")).status,
              404);
    EXPECT_EQ(server.handle(makeRequest("DELETE", "/jobs")).status,
              405);
    EXPECT_EQ(server.handle(makeRequest("PUT", "/invoke")).status,
              405);
    EXPECT_EQ(server.handle(makeRequest("POST", "/metrics")).status,
              405);
}

TEST(ServiceRouter, RejectsBadJobSpecs)
{
    service::Server server;
    EXPECT_EQ(server.handle(makeRequest("POST", "/jobs", "{nope"))
                  .status,
              400);
    EXPECT_EQ(server
                  .handle(makeRequest("POST", "/jobs",
                                      "{\"benchmark\": \"no-such\"}"))
                  .status,
              400);
    EXPECT_EQ(
        server
            .handle(makeRequest(
                "POST", "/jobs",
                "{\"benchmark\": \"fft\", \"design\": \"magic\"}"))
            .status,
        400);
    EXPECT_EQ(
        server
            .handle(makeRequest(
                "POST", "/jobs",
                "{\"benchmark\": \"fft\", \"shards\": 0}"))
            .status,
        400);
    EXPECT_EQ(
        server
            .handle(makeRequest(
                "POST", "/jobs",
                "{\"benchmark\": \"fft\", \"confidence\": 1.5}"))
            .status,
        400);
}

TEST(ServiceRouter, InvokeErrorsDistinguishMissingFromPending)
{
    service::ServerOptions options;
    options.jobQueueDepth = 8;
    service::Server server(options); // never started: jobs stay queued
    EXPECT_EQ(server
                  .handle(makeRequest("POST", "/invoke",
                                      "{\"model\": \"ghost\"}"))
                  .status,
              404);

    const HttpResponse submitted = server.handle(makeRequest(
        "POST", "/jobs", "{\"benchmark\": \"fft\"}"));
    ASSERT_EQ(submitted.status, 202);
    const std::string id =
        bodyOf(submitted).find("id")->asString();
    const HttpResponse pending = server.handle(makeRequest(
        "POST", "/invoke", "{\"model\": \"" + id + "\"}"));
    EXPECT_EQ(pending.status, 409);
    EXPECT_EQ(server.handle(makeRequest("GET", "/jobs/" + id)).status,
              200);
    EXPECT_EQ(server.handle(makeRequest("GET", "/jobs/nope")).status,
              404);
}

TEST(ServiceRouter, BoundedJobQueueAnswers429)
{
    service::ServerOptions options;
    options.jobQueueDepth = 2;
    service::Server server(options); // never started: nothing drains
    const HttpRequest submit = makeRequest(
        "POST", "/jobs", "{\"benchmark\": \"fft\"}");
    EXPECT_EQ(server.handle(submit).status, 202);
    EXPECT_EQ(server.handle(submit).status, 202);
    EXPECT_EQ(server.handle(submit).status, 429);
}

TEST(ServiceRouter, MetricsDocumentValidates)
{
    service::Server server;
    const HttpResponse response =
        server.handle(makeRequest("GET", "/metrics"));
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(telemetry::validateMetrics(bodyOf(response)), "");
}

// Each startup case runs in a freshly executed process, where no
// kernel has run yet: only Server::start() can have chosen the backend.
TEST(ServiceStartupDeathTest, MetricsReportKernelBackendBeforeAnyJob)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            service::Server server;
            server.start();
            const service::ClientResult metrics =
                service::HttpClient(server.port()).get("/metrics");
            server.stop();
            const telemetry::ParseResult document =
                telemetry::parseJson(metrics.body);
            const Json *stats =
                document.ok ? document.value.find("stats") : nullptr;
            const Json *gauges = stats ? stats->find("gauges") : nullptr;
            const bool reported = metrics.status == 200 && gauges
                && gauges->find("kernels.backend") != nullptr;
            std::fprintf(stderr, "%s\n",
                         reported ? "backend reported"
                                  : metrics.body.c_str());
            std::_Exit(reported ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "backend reported");
}

TEST(ServiceStartupDeathTest, BadKernelBackendStopsStartup)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            setenv("MITHRA_KERNELS", "sse42", 1);
            service::Server server;
            server.start();
        },
        "is not a kernel backend");
}

TEST(ServiceRouter, ModelsListStartsEmpty)
{
    service::Server server;
    const HttpResponse response =
        server.handle(makeRequest("GET", "/models"));
    ASSERT_EQ(response.status, 200);
    EXPECT_TRUE(bodyOf(response).find("models")->asArray().empty());
    EXPECT_EQ(server.handle(makeRequest("GET", "/models/none")).status,
              404);
}

namespace
{

/** One `/invoke` certificate's batch and running-total counts. */
struct CertificateCounts
{
    std::int64_t accelerated, audits, violations, forcedPrecise;
    std::int64_t totalBatches, totalInvocations, totalAccelerated;
    std::string state;
};

CertificateCounts
countsOf(const Json &certificate)
{
    const Json &batch = *certificate.find("batch");
    const Json &total = *certificate.find("total");
    return {batch.find("accelerated")->asInt(),
            batch.find("audits")->asInt(),
            batch.find("violations")->asInt(),
            batch.find("forcedPrecise")->asInt(),
            total.find("batches")->asInt(),
            total.find("invocations")->asInt(),
            total.find("accelerated")->asInt(),
            certificate.find("watchdog")->find("state")->asString()};
}

} // namespace

TEST(ModelCertificate, BatchAndTotalCountsArePinned)
{
    // A model whose watchdog audits densely against a tight threshold
    // and a low allowed violation rate: the served stream turns
    // SUSPECT in batch 1, trips into DEGRADED in batch 2 and is forced
    // precise from batch 4 on. The golden counts pin the certificate's
    // numbers, so a change to the decision loop, the watchdog or the
    // tally folds shows up here.
    core::PipelineOptions options;
    options.compileDatasetCount = 6;
    options.npuTrainSamples = 500;
    options.classifierTuples = 5000;
    core::CompiledWorkload workload =
        core::Pipeline(options).compile("inversek2j");
    const axbench::InvocationTrace &source = *workload.compileTraces[0];
    const std::size_t width = source.inputWidth();
    const std::vector<float> inputs(source.inputsFlat().begin(),
                                    source.inputsFlat().end());

    service::ModelConfig config;
    config.shards = 3;
    config.watchdog.baseAuditRate = 0.5;
    config.watchdog.suspectAuditRate = 0.8;
    config.watchdog.degradedAuditRate = 0.5;
    config.watchdog.maxViolationRate = 0.05;
    core::ThresholdResult threshold;
    threshold.threshold = 0.12;
    service::Model model(
        "pin", std::move(workload),
        std::make_unique<core::RandomFilterClassifier>(0.25, 0x91eULL),
        threshold, config);

    const CertificateCounts golden[] = {
        {228, 162, 18, 0, 1, 300, 228, "suspect"},
        {209, 171, 36, 16, 2, 600, 437, "degraded"},
        {97, 142, 19, 133, 3, 900, 534, "degraded"},
        {0, 127, 18, 245, 4, 1200, 534, "degraded"},
        {0, 119, 15, 221, 5, 1500, 534, "degraded"},
        {0, 107, 13, 238, 6, 1800, 534, "degraded"},
    };
    constexpr std::size_t batchRows = 300;
    ASSERT_GE(inputs.size(), std::size(golden) * batchRows * width);
    for (std::size_t b = 0; b < std::size(golden); ++b) {
        const service::InvokeOutcome outcome = model.invoke(
            inputs.data() + b * batchRows * width, batchRows);
        const CertificateCounts got = countsOf(outcome.certificate);
        const CertificateCounts &want = golden[b];
        SCOPED_TRACE("batch " + std::to_string(b));
        EXPECT_EQ(got.accelerated, want.accelerated);
        EXPECT_EQ(got.audits, want.audits);
        EXPECT_EQ(got.violations, want.violations);
        EXPECT_EQ(got.forcedPrecise, want.forcedPrecise);
        EXPECT_EQ(got.totalBatches, want.totalBatches);
        EXPECT_EQ(got.totalInvocations, want.totalInvocations);
        EXPECT_EQ(got.totalAccelerated, want.totalAccelerated);
        EXPECT_EQ(got.state, want.state);
        // Oracle false-decision counts are evaluation facts: a served
        // model cannot know them, so the certificate carries none.
        for (const char *section : {"batch", "total"}) {
            const Json &counts = *outcome.certificate.find(section);
            EXPECT_EQ(counts.find("falsePositives"), nullptr);
            EXPECT_EQ(counts.find("falseNegatives"), nullptr);
        }
    }
}

namespace
{

/** The pinned model's inversek2j compile: about a second. */
core::CompiledWorkload
compileTiny()
{
    core::PipelineOptions options;
    options.compileDatasetCount = 6;
    options.npuTrainSamples = 500;
    options.classifierTuples = 5000;
    return core::Pipeline(options).compile("inversek2j");
}

/** What a served model needs of `compiled`: a fresh benchmark
 *  instance and the same trained accelerator. */
core::CompiledWorkload
servedCopy(const core::CompiledWorkload &compiled)
{
    core::CompiledWorkload copy;
    copy.benchmark = axbench::makeBenchmark(compiled.benchmark->name());
    copy.accel = compiled.accel;
    return copy;
}

/** A densely audited model config that trips on a drifted stream. */
service::ModelConfig
auditingConfig(std::size_t shards)
{
    service::ModelConfig config;
    config.shards = shards;
    config.watchdog.baseAuditRate = 0.3;
    config.watchdog.suspectAuditRate = 0.6;
    config.watchdog.degradedAuditRate = 0.3;
    config.watchdog.maxViolationRate = 0.05;
    return config;
}

constexpr double auditingThreshold = 0.12;
constexpr std::uint64_t filterSeed = 0x91eULL;

/**
 * The pre-classify-first `/invoke`: every row's precise and
 * accelerator outputs in a trace, then the decision loop on it with
 * watchdogs built as service::Model builds them. Produces the
 * certificate in Model::invoke's layout.
 */
class TraceReference
{
  public:
    TraceReference(const core::CompiledWorkload &compiled,
                   const service::ModelConfig &modelConfig)
        : workload(compiled), config(modelConfig),
          classifier(0.25, filterSeed)
    {
        for (std::size_t k = 0; k < config.shards; ++k) {
            core::watchdog::WatchdogOptions options = config.watchdog;
            options.confidence = stats::splitConfidence(
                config.watchdog.confidence, config.shards);
            options.seed = core::shardSeed(config.watchdog.seed, k);
            dogs.emplace_back(options, auditingThreshold);
        }
    }

    service::InvokeOutcome invoke(const float *rows, std::size_t count)
    {
        const std::size_t width = workload.benchmark->npuTopology()[0];
        const axbench::InvocationTrace trace =
            core::traceFromInputs(workload, rows, width, count);
        classifier.beginDataset(trace);
        service::InvokeOutcome outcome;
        outcome.decisions.resize(count);
        core::DecisionLoopOptions loop;
        loop.streamOffset = position;
        std::vector<core::ShardTally> tallies;
        core::runShardedDecisions(classifier, trace,
                                  core::ShardPlan(count, dogs.size()),
                                  dogs, loop, outcome.decisions.data(),
                                  tallies);
        position += count;
        ++batches;

        core::ShardTally batch;
        for (const core::ShardTally &tally : tallies) {
            batch.accelerated += tally.accelerated;
            batch.audits += tally.audits;
            batch.violations += tally.violations;
            batch.forcedPrecise += tally.forcedPrecise;
        }
        accelerated += batch.accelerated;
        core::ShardedEvaluation merged;
        merged.shards.resize(dogs.size());
        core::mergeShardEvidence(dogs, config.watchdog.confidence,
                                 merged);
        outcome.certificate = certificate(count, batch, merged);
        return outcome;
    }

  private:
    Json certificate(std::size_t count, const core::ShardTally &batch,
                     const core::ShardedEvaluation &merged) const
    {
        Json::Array perShard;
        std::size_t audits = 0;
        std::size_t violations = 0;
        for (const core::ShardReport &shard : merged.shards) {
            const core::watchdog::Snapshot &snap = shard.watchdog;
            audits += snap.audits;
            violations += snap.violations;
            perShard.push_back(Json(Json::Object{
                {"state", Json(core::watchdog::stateName(snap.state))},
                {"invocations", Json(snap.invocations)},
                {"audits", Json(snap.audits)},
                {"violations", Json(snap.violations)},
                {"lower", Json(snap.violationLowerBound)},
                {"upper", Json(snap.violationUpperBound)}}));
        }
        const Json watchdog(Json::Object{
            {"state",
             Json(core::watchdog::stateName(merged.combinedState))},
            {"envelope",
             Json(Json::Object{
                 {"confidence", Json(config.watchdog.confidence)},
                 {"lower", Json(merged.violationEnvelope.lower)},
                 {"upper", Json(merged.violationEnvelope.upper)}})},
            {"audits", Json(audits)},
            {"violations", Json(violations)},
            {"perShard", Json(std::move(perShard))}});
        return Json(Json::Object{
            {"model", Json("ref")},
            {"benchmark", Json(workload.benchmark->name())},
            {"design", Json(config.design)},
            {"shards", Json(config.shards)},
            {"threshold", Json(auditingThreshold)},
            {"watchdogEnabled", Json(true)},
            {"batch",
             Json(Json::Object{
                 {"invocations", Json(count)},
                 {"accelerated", Json(batch.accelerated)},
                 {"audits", Json(batch.audits)},
                 {"violations", Json(batch.violations)},
                 {"forcedPrecise", Json(batch.forcedPrecise)}})},
            {"total",
             Json(Json::Object{{"batches", Json(batches)},
                               {"invocations", Json(position)},
                               {"accelerated", Json(accelerated)}})},
            {"watchdog", watchdog}});
    }

    const core::CompiledWorkload &workload;
    service::ModelConfig config;
    core::RandomFilterClassifier classifier;
    std::vector<core::watchdog::Watchdog> dogs;
    std::size_t position = 0;
    std::size_t batches = 0;
    std::size_t accelerated = 0;
};

/** An accelerator that counts its invocations around a trained NPU. */
class CountingAccelerator final : public axbench::Accelerator
{
  public:
    CountingAccelerator(npu::Approximator trained,
                        std::atomic<std::size_t> &counter)
        : npu(std::move(trained)), calls(counter)
    {
    }

    std::string kind() const override { return "counting"; }
    double trainToMimic(const VecBatch &, const VecBatch &,
                        std::uint64_t) override
    {
        return 0.0;
    }
    bool trained() const override { return true; }
    Vec invoke(const Vec &input) const override
    {
        calls.fetch_add(1, std::memory_order_relaxed);
        return npu.invoke(input);
    }
    axbench::AcceleratorCost invocationCost() const override
    {
        return {};
    }

  private:
    npu::Approximator npu;
    std::atomic<std::size_t> &calls;
};

} // namespace

TEST(ModelInvoke, MatchesTraceReference)
{
    // A 2-sigma drifted stream takes the accelerator off its training
    // distribution, so the dense audits find violations and every
    // configuration trips. Model::invoke computes true errors only
    // for audited rows; the reference computes them for every row.
    // Decisions and certificates must agree byte for byte.
    const core::CompiledWorkload compiled = compileTiny();
    const axbench::InvocationTrace &source = *compiled.compileTraces[0];
    axbench::DriftSpec drift;
    drift.shiftSigma = 2.0;
    drift.scrambleSigns = true;
    const axbench::InvocationTrace drifted = axbench::driftTrace(
        *compiled.benchmark, compiled.accel, source,
        axbench::measureInputMoments(source), drift);
    const std::size_t width = drifted.inputWidth();
    const float *inputs = drifted.inputsFlat().data();
    constexpr std::size_t batchRows = 250;
    constexpr std::size_t numBatches = 6;
    ASSERT_GE(drifted.count(), batchRows * numBatches);

    core::ThresholdResult threshold;
    threshold.threshold = auditingThreshold;
    for (const std::size_t shards : {1, 3, 4}) {
        const service::ModelConfig config = auditingConfig(shards);
        TraceReference reference(compiled, config);
        std::vector<service::InvokeOutcome> expected;
        for (std::size_t b = 0; b < numBatches; ++b)
            expected.push_back(reference.invoke(
                inputs + b * batchRows * width, batchRows));
        const Json &last = expected.back().certificate;
        EXPECT_GT(last.find("watchdog")->find("audits")->asInt(), 0);
        EXPECT_EQ(last.find("watchdog")->find("state")->asString(),
                  "degraded");

        for (const std::size_t threads : {1, 2, 8}) {
            SCOPED_TRACE("shards " + std::to_string(shards) + ", threads "
                         + std::to_string(threads));
            setParallelThreadCount(threads);
            service::Model model(
                "ref", servedCopy(compiled),
                std::make_unique<core::RandomFilterClassifier>(
                    0.25, filterSeed),
                threshold, config);
            for (std::size_t b = 0; b < numBatches; ++b) {
                const service::InvokeOutcome got = model.invoke(
                    inputs + b * batchRows * width, batchRows);
                EXPECT_EQ(got.decisions, expected[b].decisions);
                EXPECT_EQ(got.certificate.dump(),
                          expected[b].certificate.dump());
            }
            setParallelThreadCount(1);
        }
    }
}

TEST(ModelInvoke, ComputesGroundTruthOnlyForAuditedRows)
{
    // The accelerator runs only to measure an audited row's true
    // error: the classifier decides from the inputs alone, and a
    // served model never produces accelerator outputs itself.
    const core::CompiledWorkload compiled = compileTiny();
    std::atomic<std::size_t> calls{0};
    core::CompiledWorkload served = servedCopy(compiled);
    served.backend =
        std::make_unique<CountingAccelerator>(compiled.accel, calls);
    core::ThresholdResult threshold;
    threshold.threshold = auditingThreshold;
    service::Model model(
        "count", std::move(served),
        std::make_unique<core::RandomFilterClassifier>(0.25, filterSeed),
        threshold, auditingConfig(3));

    const axbench::InvocationTrace &source = *compiled.compileTraces[0];
    const std::size_t width = source.inputWidth();
    constexpr std::size_t batchRows = 300;
    std::size_t audits = 0;
    std::size_t rows = 0;
    for (std::size_t b = 0; b < 5; ++b) {
        const service::InvokeOutcome outcome =
            model.invoke(source.inputsFlat().data()
                             + b * batchRows * width,
                         batchRows);
        audits += static_cast<std::size_t>(
            outcome.certificate.find("batch")->find("audits")->asInt());
        rows += batchRows;
        EXPECT_EQ(calls.load(), audits);
    }
    EXPECT_GT(audits, 0u);
    EXPECT_LT(audits, rows);
}

namespace
{

/** Tiny certifiable-in-seconds spec for the end-to-end tests. */
std::string
tinyJobSpec()
{
    return "{\"benchmark\": \"inversek2j\", \"design\": \"table\", "
           "\"compileDatasets\": 6, \"npuTrainSamples\": 500, "
           "\"classifierTuples\": 5000}";
}

std::string
waitForJob(service::Server &server, const std::string &id)
{
    for (;;) {
        service::JobSnapshot snap;
        EXPECT_TRUE(server.jobs().snapshot(id, snap));
        if (snap.state == service::JobState::Done)
            return "";
        if (snap.state == service::JobState::Failed)
            return snap.error.empty() ? "failed" : snap.error;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

/** A 3-row invoke body for the 2-wide inversek2j model. */
std::string
invokeBody(const std::string &model)
{
    return "{\"model\": \"" + model
        + "\", \"inputs\": [[0.25,0.5],[0.75,0.1],[0.9,0.9]]}";
}

} // namespace

TEST(ServiceEndToEnd, LifecycleOverRealSocket)
{
    service::ServerOptions options;
    options.workers = 2;
    service::Server server(options);
    server.start();
    service::HttpClient client(server.port());

    const service::ClientResult submitted =
        client.post("/jobs", tinyJobSpec());
    ASSERT_TRUE(submitted.ok) << submitted.error;
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    const telemetry::ParseResult parsed =
        telemetry::parseJson(submitted.body);
    ASSERT_TRUE(parsed.ok);
    const std::string id = parsed.value.find("id")->asString();
    ASSERT_EQ(waitForJob(server, id), "");

    const service::ClientResult invoked =
        client.post("/invoke", invokeBody(id));
    ASSERT_TRUE(invoked.ok) << invoked.error;
    ASSERT_EQ(invoked.status, 200) << invoked.body;
    const telemetry::ParseResult reply =
        telemetry::parseJson(invoked.body);
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.value.find("decisions")->asArray().size(), 3u);
    const Json *certificate = reply.value.find("certificate");
    ASSERT_NE(certificate, nullptr);
    EXPECT_EQ(certificate->find("batch")
                  ->find("invocations")
                  ->asInt(),
              3);
    EXPECT_NE(certificate->find("watchdog"), nullptr);

    // Wrong row width and malformed JSON answer 400, not a crash.
    const service::ClientResult badWidth = client.post(
        "/invoke",
        "{\"model\": \"" + id + "\", \"inputs\": [[1.0]]}");
    EXPECT_EQ(badWidth.status, 400);
    const service::ClientResult badJson =
        client.post("/invoke", "{\"model\": ");
    EXPECT_EQ(badJson.status, 400);

    const service::ClientResult metrics = client.get("/metrics");
    ASSERT_EQ(metrics.status, 200);
    const telemetry::ParseResult document =
        telemetry::parseJson(metrics.body);
    ASSERT_TRUE(document.ok);
    EXPECT_EQ(telemetry::validateMetrics(document.value), "");

    const service::ClientResult described =
        client.get("/models/" + id);
    ASSERT_EQ(described.status, 200);
    server.stop();
}

TEST(ServiceEndToEnd, IndependentCompilesReproduceBitwise)
{
    service::Server server;
    server.start();
    service::HttpClient client(server.port());

    std::vector<std::string> ids;
    for (int i = 0; i < 2; ++i) {
        const service::ClientResult submitted =
            client.post("/jobs", tinyJobSpec());
        ASSERT_EQ(submitted.status, 202);
        const telemetry::ParseResult parsed =
            telemetry::parseJson(submitted.body);
        ASSERT_TRUE(parsed.ok);
        ids.push_back(parsed.value.find("id")->asString());
    }
    for (const std::string &id : ids)
        ASSERT_EQ(waitForJob(server, id), "");

    // Same spec, same inputs: identical decisions and certificates
    // modulo the server-assigned model id.
    std::vector<std::string> stripped;
    for (const std::string &id : ids) {
        const service::ClientResult invoked =
            client.post("/invoke", invokeBody(id));
        ASSERT_EQ(invoked.status, 200);
        telemetry::ParseResult reply =
            telemetry::parseJson(invoked.body);
        ASSERT_TRUE(reply.ok);
        reply.value.asObject().erase("model");
        Json &certificate =
            reply.value.asObject().at("certificate");
        certificate.asObject().erase("model");
        stripped.push_back(reply.value.dump());
    }
    EXPECT_EQ(stripped[0], stripped[1]);
    server.stop();
}

TEST(ServiceEndToEnd, ConcurrentClientsSeeConsistentAnswers)
{
    service::ServerOptions options;
    options.workers = 4;
    service::Server server(options);
    server.start();

    std::vector<std::thread> clients;
    std::vector<int> failures(8, 0);
    for (std::size_t t = 0; t < failures.size(); ++t) {
        clients.emplace_back([&, t] {
            service::HttpClient client(server.port());
            for (int i = 0; i < 25; ++i) {
                const service::ClientResult health =
                    client.get("/healthz");
                if (!health.ok || health.status != 200)
                    ++failures[t];
                const service::ClientResult metrics =
                    client.get("/metrics");
                if (!metrics.ok || metrics.status != 200)
                    ++failures[t];
            }
        });
    }
    for (std::thread &thread : clients)
        thread.join();
    for (const int failed : failures)
        EXPECT_EQ(failed, 0);
    server.stop();
}

TEST(ServiceEndToEnd, ClientSurvivesIdleTimeoutBetweenRequests)
{
    // The server reaps idle keep-alive connections; a client request
    // after the reaping must transparently reconnect (the long-poll
    // pattern: submit, wait out a compile, invoke).
    service::ServerOptions options;
    options.requestTimeoutMs = 150;
    service::Server server(options);
    server.start();
    service::HttpClient client(server.port());
    EXPECT_EQ(client.get("/healthz").status, 200);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const service::ClientResult after = client.get("/healthz");
    EXPECT_TRUE(after.ok) << after.error;
    EXPECT_EQ(after.status, 200);
    server.stop();
}

TEST(ServiceEndToEnd, PartialRequestTimesOutWith408)
{
    service::ServerOptions options;
    options.requestTimeoutMs = 150;
    service::Server server(options);
    server.start();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&address),
                        sizeof(address)),
              0);
    const char *partial = "GET /metrics HTT";
    ASSERT_GT(::send(fd, partial, std::strlen(partial), MSG_NOSIGNAL),
              0);
    std::string reply;
    char chunk[512];
    for (;;) {
        const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got <= 0)
            break;
        reply.append(chunk, static_cast<std::size_t>(got));
    }
    EXPECT_NE(reply.find("HTTP/1.1 408 "), std::string::npos)
        << reply;
    ::close(fd);
    server.stop();
}
