/**
 * @file
 * Plugin ABI tests: loader rejection paths (ABI mismatch, missing
 * entry points, missing files, duplicate workload names), deterministic
 * MITHRA_PLUGINS registration order, bitwise parity between the
 * statically linked and dlopen-loaded kmeans plugin, the plugin
 * accelerator-backend seam, thread/shard bitwise identity of the full
 * pipeline on a plugin workload (tsan-labeled: drives the shard loop
 * at 8 threads), and the /invoke end-to-end path with a certificate.
 *
 * The kmeans example plugin is linked into this binary *and* loaded
 * as kmeans.so — the parity test drives the C tables directly and
 * compares against the registry-resolved benchmark.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "axbench/benchmark.hh"
#include "axbench/registry.hh"
#include "common/parallel.hh"
#include "core/pipeline.hh"
#include "core/runtime.hh"
#include "core/table_classifier.hh"
#include "mithra_plugin.h"
#include "plugin/host.hh"
#include "plugin/loader.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "telemetry/json.hh"

using namespace mithra;
using namespace mithra::core;

// The statically linked copy of plugins/kmeans/kmeans_plugin.c.
extern "C" {
uint32_t mithra_plugin_abi_version(void);
int mithra_plugin_register(const mithra_host_v1 *host);
}

namespace
{

/**
 * Load the example plugins exactly the way a user would: through the
 * MITHRA_PLUGINS knob and the registry's lazy discovery hook. Runs
 * once; every test goes through here so ordering cannot matter.
 */
void
ensurePluginsLoaded()
{
    static const bool loaded = [] {
        const std::string paths = std::string(MITHRA_TEST_PLUGIN_KMEANS)
            + ":" + MITHRA_TEST_PLUGIN_MINI;
        setenv("MITHRA_PLUGINS", paths.c_str(), 1);
        plugin::enableAutoDiscovery();
        // First resolution anywhere triggers discovery.
        return !axbench::benchmarkNames().empty();
    }();
    ASSERT_TRUE(loaded);
}

} // namespace

TEST(PluginLoader, RejectsAbiMismatch)
{
    EXPECT_DEATH(plugin::loadPlugin(MITHRA_TEST_PLUGIN_ABI_MISMATCH),
                 "ABI v99.*rebuild the plugin against this tree's "
                 "include/mithra_plugin\\.h");
}

TEST(PluginLoader, RejectsSharedObjectWithoutEntryPoints)
{
    EXPECT_DEATH(plugin::loadPlugin(MITHRA_TEST_PLUGIN_NO_ENTRY),
                 "is not a MITHRA plugin.*mithra_plugin_abi_version");
}

TEST(PluginLoader, RejectsMissingFile)
{
    EXPECT_DEATH(plugin::loadPlugin("/nonexistent/ghost.so"),
                 "cannot load plugin.*MITHRA_PLUGINS");
}

TEST(PluginLoader, RejectsWorkloadShadowingBuiltin)
{
    EXPECT_DEATH(plugin::loadPlugin(MITHRA_TEST_PLUGIN_SHADOW),
                 "duplicate workload name `sobel'");
}

TEST(PluginLoader, RegistersInEnvOrderAfterBuiltins)
{
    ensurePluginsLoaded();

    const auto plugins = plugin::loadedPlugins();
    ASSERT_EQ(plugins.size(), 2u);
    EXPECT_EQ(plugins[0].path, MITHRA_TEST_PLUGIN_KMEANS);
    EXPECT_EQ(plugins[0].abiVersion, MITHRA_PLUGIN_ABI_VERSION);
    ASSERT_EQ(plugins[0].workloads,
              std::vector<std::string>{"kmeans"});
    EXPECT_EQ(plugins[1].path, MITHRA_TEST_PLUGIN_MINI);
    ASSERT_EQ(plugins[1].workloads,
              std::vector<std::string>{"toyline"});
    ASSERT_EQ(plugins[1].backends, std::vector<std::string>{"mean1"});

    // Built-ins keep Table I order; plugin workloads follow in
    // MITHRA_PLUGINS order. This exact sequence is the determinism
    // contract reports and cache keys rely on.
    const std::vector<std::string> expected{
        "blackscholes", "fft", "inversek2j", "jmeint",
        "jpeg",         "sobel", "kmeans",   "toyline"};
    EXPECT_EQ(axbench::benchmarkNames(), expected);

    // Idempotent: a second pass over the same env loads nothing new.
    EXPECT_EQ(plugin::loadFromEnv(), 0u);
    EXPECT_EQ(plugin::loadedPlugins().size(), 2u);
}

TEST(PluginLoader, ProvenanceFeedsCacheTag)
{
    ensurePluginsLoaded();
    auto &registry = axbench::WorkloadRegistry::global();
    EXPECT_EQ(registry.cacheTag("inversek2j"), "");
    EXPECT_EQ(registry.provenance("kmeans").origin,
              MITHRA_TEST_PLUGIN_KMEANS);
    EXPECT_EQ(registry.cacheTag("kmeans"), "kmeans@v1");
}

TEST(PluginWorkload, ExposesCustomMetric)
{
    ensurePluginsLoaded();
    const auto bench = axbench::makeBenchmark("kmeans");
    EXPECT_EQ(bench->name(), "kmeans");
    EXPECT_EQ(bench->domain(), "Machine Learning");
    EXPECT_EQ(bench->metric(), axbench::QualityMetric::Custom);
    EXPECT_EQ(bench->metricLabel(), "Cluster Miss Rate");
    EXPECT_EQ(bench->npuTopology(), (npu::Topology{6, 8, 1}));

    // The custom loss: identical assignments -> 0, one of four
    // flipped -> 25%.
    axbench::FinalOutput a{{0.0f, 1.0f, 2.0f, 3.0f}};
    axbench::FinalOutput b{{0.0f, 1.0f, 2.0f, 0.0f}};
    EXPECT_EQ(bench->qualityLoss(a, a), 0.0);
    EXPECT_EQ(bench->qualityLoss(a, b), 25.0);
}

TEST(PluginStaticParity, DlopenMatchesStaticLinkBitwise)
{
    ensurePluginsLoaded();
    ASSERT_EQ(mithra_plugin_abi_version(), MITHRA_PLUGIN_ABI_VERSION);

    // Capture the statically linked plugin's table with a local host
    // that records instead of registering (the name "kmeans" is
    // already taken by the dlopen copy).
    static mithra_workload_v1 captured;
    static bool capturedOne = false;
    mithra_host_v1 host;
    std::memset(&host, 0, sizeof(host));
    host.abi_version = MITHRA_PLUGIN_ABI_VERSION;
    host.struct_size = sizeof(host);
    host.register_workload = [](void *, const mithra_workload_v1 *w) {
        captured = *w;
        capturedOne = true;
        return 0;
    };
    host.register_backend = [](void *, const mithra_backend_v1 *) {
        return 0;
    };
    ASSERT_EQ(mithra_plugin_register(&host), 0);
    ASSERT_TRUE(capturedOne);
    const mithra_workload_v1 &w = captured;

    const auto bench = axbench::makeBenchmark("kmeans");
    for (std::size_t d = 0; d < 2; ++d) {
        SCOPED_TRACE("dataset " + std::to_string(d));
        const std::uint64_t seed = axbench::compileSeed("kmeans", d);

        void *raw = w.dataset_create(w.ctx, seed);
        ASSERT_NE(raw, nullptr);
        const std::size_t n = w.dataset_invocations(w.ctx, raw);

        const auto dataset = bench->makeDataset(seed);
        const auto trace = bench->trace(*dataset);
        ASSERT_EQ(trace.count(), n);

        std::vector<float> input(w.input_width);
        std::vector<float> output(w.output_width);
        std::vector<float> precise;
        precise.reserve(n * w.output_width);
        for (std::size_t i = 0; i < n; ++i) {
            w.dataset_input(w.ctx, raw, i, input.data());
            w.target_function(w.ctx, input.data(), output.data());
            ASSERT_EQ(std::memcmp(trace.input(i).data(), input.data(),
                                  input.size() * sizeof(float)),
                      0)
                << "input " << i;
            ASSERT_EQ(std::memcmp(trace.preciseOutput(i).data(),
                                  output.data(),
                                  output.size() * sizeof(float)),
                      0)
                << "output " << i;
            precise.insert(precise.end(), output.begin(), output.end());
        }

        // Final-output parity: all-precise recompose both ways.
        const auto viaHost = bench->recompose(
            *dataset, trace, std::vector<std::uint8_t>(n, 0));
        const std::size_t finalCount = w.final_size(w.ctx, raw);
        ASSERT_EQ(viaHost.elements.size(), finalCount);
        std::vector<float> viaTable(finalCount);
        w.recompose(w.ctx, raw, precise.data(), n, viaTable.data());
        EXPECT_EQ(std::memcmp(viaHost.elements.data(), viaTable.data(),
                              finalCount * sizeof(float)),
                  0);

        w.dataset_destroy(w.ctx, raw);
    }
}

TEST(PluginBackend, TrainsInvokesAndCosts)
{
    ensurePluginsLoaded();
    const auto bench = axbench::makeBenchmark("toyline");
    const auto accel = bench->makeAccelerator();
    ASSERT_NE(accel, nullptr);
    EXPECT_EQ(accel->kind(), "mean1");
    EXPECT_FALSE(accel->trained());

    // mean1 memorizes the mean training output: mean of {1, 2, 3} = 2,
    // MSE = variance = 2/3.
    const VecBatch inputs{{0.0f, 0.0f}, {1.0f, 0.0f}, {0.0f, 1.0f}};
    const VecBatch outputs{{1.0f}, {2.0f}, {3.0f}};
    const double mse = accel->trainToMimic(inputs, outputs, 0x5eed);
    EXPECT_NEAR(mse, 2.0 / 3.0, 1e-9);
    EXPECT_TRUE(accel->trained());

    const Vec predicted = accel->invoke({0.5f, 0.5f});
    ASSERT_EQ(predicted.size(), 1u);
    EXPECT_FLOAT_EQ(predicted[0], 2.0f);

    const auto cost = accel->invocationCost();
    EXPECT_EQ(cost.cycles, 12u);
    EXPECT_EQ(cost.picoJoules, 4.5);
}

namespace
{

/** Small, fast pipeline configuration (mirrors test_runtime). */
PipelineOptions
kmeansOptions()
{
    PipelineOptions options;
    options.compileDatasetCount = 12;
    options.npuTrainSamples = 2000;
    options.classifierTuples = 10000;
    options.maxCalibrationRounds = 1;
    return options;
}

QualitySpec
kmeansSpec()
{
    QualitySpec spec;
    spec.maxQualityLossPct = 5.0; // <= 5% of points misassigned
    spec.confidence = 0.9;
    spec.successRate = 0.6;
    return spec;
}

/** One compiled kmeans workload shared by the identity sweeps. */
struct KmeansEnv
{
    CompiledWorkload workload;
    QualitySpec spec = kmeansSpec();
    double threshold = 0.0;
    std::unique_ptr<TableClassifier> table{};
    ValidationSet validation{};
};

KmeansEnv &
kmeansEnv()
{
    static KmeansEnv *shared = [] {
        ensurePluginsLoaded();
        const Pipeline pipeline(kmeansOptions());
        auto *e = new KmeansEnv{pipeline.compile("kmeans")};
        e->threshold =
            pipeline.tuneThreshold(e->workload, e->spec).threshold;
        // Trained without calibration: at this compile budget
        // calibration fails closed and the table would never
        // accelerate, leaving nothing for the identity sweep to
        // compare.
        e->table = std::make_unique<TableClassifier>(TableClassifier::train(
            pipeline.makeTrainingData(e->workload, e->threshold),
            TableClassifierOptions{}));
        e->validation = makeValidationSet(e->workload, 8);
        return e;
    }();
    return *shared;
}

DesignEvaluation
runKmeansEval(std::size_t threads)
{
    KmeansEnv &e = kmeansEnv();
    setParallelThreadCount(threads);
    const Evaluator evaluator(e.workload, e.spec, e.threshold);
    TableClassifier copy = *e.table;
    DesignEvaluation eval = evaluator.evaluate(copy, e.validation);
    setParallelThreadCount(1);
    return eval;
}

/** Every aggregate the evaluation reports, compared bitwise. */
void
expectIdentical(const DesignEvaluation &a, const DesignEvaluation &b)
{
    EXPECT_EQ(a.meanQualityLoss, b.meanQualityLoss);
    EXPECT_EQ(a.p99QualityLoss, b.p99QualityLoss);
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.successLowerBound, b.successLowerBound);
    EXPECT_EQ(a.invocationRate, b.invocationRate);
    EXPECT_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.energyReduction, b.energyReduction);
    EXPECT_EQ(a.edpImprovement, b.edpImprovement);
    EXPECT_EQ(a.totals.cycles, b.totals.cycles);
    EXPECT_EQ(a.totals.energyPj, b.totals.energyPj);
}

} // namespace

TEST(PluginPipeline, KmeansBitwiseIdenticalAcrossShardsAndThreads)
{
    // The determinism contract applies to plugin workloads unchanged:
    // bit-for-bit identical aggregates at any MITHRA_THREADS, which
    // also sets the evaluator's shard count.
    const DesignEvaluation reference = runKmeansEval(1);
    EXPECT_GT(reference.invocationRate, 0.0);
    EXPECT_LT(reference.invocationRate, 1.0);
    for (const std::size_t threads : {2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectIdentical(reference, runKmeansEval(threads));
    }
}

namespace
{

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

} // namespace

TEST(PluginService, KmeansServesCertifiedInvocations)
{
    ensurePluginsLoaded();
    service::ServerOptions options;
    options.workers = 2;
    service::Server server(options);
    server.start();
    service::HttpClient client(server.port());

    const service::ClientResult submitted = client.post(
        "/jobs",
        "{\"benchmark\": \"kmeans\", \"design\": \"table\", "
        "\"compileDatasets\": 6, \"npuTrainSamples\": 500, "
        "\"classifierTuples\": 5000}");
    ASSERT_TRUE(submitted.ok) << submitted.error;
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    const telemetry::ParseResult parsed =
        telemetry::parseJson(submitted.body);
    ASSERT_TRUE(parsed.ok);
    const std::string id = parsed.value.find("id")->asString();
    ASSERT_EQ(waitForJob(server, id), "");

    // Two rows of kmeans inputs: point xyz ++ centroid xyz.
    const service::ClientResult invoked = client.post(
        "/invoke",
        "{\"model\": \"" + id
            + "\", \"inputs\": [[0.2,0.3,0.4,0.25,0.3,0.4],"
              "[0.7,0.6,0.5,0.2,0.2,0.2]]}");
    ASSERT_TRUE(invoked.ok) << invoked.error;
    ASSERT_EQ(invoked.status, 200) << invoked.body;
    const telemetry::ParseResult reply =
        telemetry::parseJson(invoked.body);
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.value.find("decisions")->asArray().size(), 2u);
    const telemetry::Json *certificate =
        reply.value.find("certificate");
    ASSERT_NE(certificate, nullptr);
    EXPECT_EQ(
        certificate->find("batch")->find("invocations")->asInt(), 2);

    server.stop();
}
