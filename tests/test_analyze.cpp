/**
 * @file
 * mithra-analyze pass tests: each pass is fed synthetic translation
 * units seeded with one known violation and must fire with the right
 * rule id and file:line; a known-good variant must stay clean.
 * Snippets live in raw strings, which the shared tokenizer strips —
 * so this file itself scans clean under the lint rules and the passes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "analyze.hh"
#include "lex.hh"

namespace
{

using mithra::analyze::checkCaptures;
using mithra::analyze::checkEnvUse;
using mithra::analyze::checkLayering;
using mithra::analyze::checkReadme;
using mithra::analyze::checkTaint;
using mithra::analyze::Diagnostic;
using mithra::analyze::EnvRegistry;
using mithra::analyze::LayerSpec;
using mithra::analyze::parseEnvRegistry;
using mithra::analyze::parseLayerSpec;
using mithra::analyze::renderEnvTable;
using mithra::analyze::SourceFile;

bool
fired(const std::vector<Diagnostic> &diagnostics,
      const std::string &rule, std::size_t line)
{
    return std::any_of(diagnostics.begin(), diagnostics.end(),
                       [&](const Diagnostic &d) {
                           return d.rule == rule && d.line == line;
                       });
}

bool
firedRule(const std::vector<Diagnostic> &diagnostics,
          const std::string &rule)
{
    return std::any_of(diagnostics.begin(), diagnostics.end(),
                       [&](const Diagnostic &d) {
                           return d.rule == rule;
                       });
}

// ------------------------------------------------------------- layer spec

const char *specText = R"(# test spec
layer common src/common/
layer core   src/core/
layer tests  tests/
allow core  -> common
allow tests -> common core
)";

LayerSpec
spec()
{
    std::vector<Diagnostic> diagnostics;
    LayerSpec parsed =
        parseLayerSpec("layers.txt", specText, diagnostics);
    EXPECT_TRUE(diagnostics.empty());
    return parsed;
}

TEST(AnalyzeLayerSpec, ParsesLayersAndEdges)
{
    const LayerSpec parsed = spec();
    ASSERT_EQ(parsed.layers.size(), 3u);
    EXPECT_EQ(parsed.layerOf("src/common/foo.hh"), 0u);
    EXPECT_EQ(parsed.layerOf("src/core/bar.cc"), 1u);
    EXPECT_EQ(parsed.layerOf("elsewhere/x.cc"),
              static_cast<std::size_t>(-1));
    EXPECT_TRUE(parsed.edgeAllowed(1, 0)); // core -> common
    EXPECT_FALSE(parsed.edgeAllowed(0, 1)); // common -> core
    EXPECT_TRUE(parsed.edgeAllowed(0, 0)); // reflexive
}

TEST(AnalyzeLayerSpec, LongestPrefixWins)
{
    std::vector<Diagnostic> diagnostics;
    const LayerSpec parsed = parseLayerSpec(
        "layers.txt",
        "layer common src/common/\n"
        "layer parallel src/common/parallel.\n",
        diagnostics);
    EXPECT_TRUE(diagnostics.empty());
    EXPECT_EQ(parsed.layerOf("src/common/parallel.cc"), 1u);
    EXPECT_EQ(parsed.layerOf("src/common/scale.cc"), 0u);
}

TEST(AnalyzeLayerSpec, SyntaxErrorsAreDiagnosed)
{
    std::vector<Diagnostic> diagnostics;
    parseLayerSpec("layers.txt",
                   "layer onlyname\n"
                   "allow nowhere -> nothing\n"
                   "frobnicate x\n",
                   diagnostics);
    ASSERT_EQ(diagnostics.size(), 3u);
    EXPECT_TRUE(fired(diagnostics, "layer-spec", 1));
    EXPECT_TRUE(fired(diagnostics, "layer-spec", 2));
    EXPECT_TRUE(fired(diagnostics, "layer-spec", 3));
}

TEST(AnalyzeLayerSpec, CyclicSpecIsDiagnosed)
{
    std::vector<Diagnostic> diagnostics;
    parseLayerSpec("layers.txt",
                   "layer a src/a/\n"
                   "layer b src/b/\n"
                   "allow a -> b\n"
                   "allow b -> a\n",
                   diagnostics);
    EXPECT_TRUE(firedRule(diagnostics, "layer-spec"));
}

// -------------------------------------------------------------- layering

TEST(AnalyzeLayering, UpwardIncludeIsDiagnosed)
{
    const std::vector<SourceFile> files = {
        {"src/common/low.hh", "#pragma once\n#include \"core/high.hh\"\n",
         ""},
        {"src/core/high.hh", "#pragma once\n", ""},
    };
    const std::vector<Diagnostic> diagnostics =
        checkLayering(spec(), files);
    ASSERT_TRUE(fired(diagnostics, "layering", 2));
    // The message names both endpoints and their layers.
    const auto d = std::find_if(diagnostics.begin(), diagnostics.end(),
                                [](const Diagnostic &x) {
                                    return x.rule == "layering";
                                });
    EXPECT_NE(d->message.find("src/common/low.hh"), std::string::npos);
    EXPECT_NE(d->message.find("core"), std::string::npos);
}

TEST(AnalyzeLayering, AllowedEdgeAndSameLayerAreClean)
{
    const std::vector<SourceFile> files = {
        {"src/core/a.hh", "#pragma once\n#include \"common/b.hh\"\n"
                          "#include \"core/peer.hh\"\n",
         ""},
        {"src/core/peer.hh", "#pragma once\n", ""},
        {"src/common/b.hh", "#pragma once\n", ""},
    };
    EXPECT_TRUE(checkLayering(spec(), files).empty());
}

TEST(AnalyzeLayering, ServiceShellSitsAboveCoreNotBeside)
{
    // The in-tree spec's shape for the service layer: service may
    // reach down into core/telemetry/common, but nothing below the
    // shell may include service headers — the deterministic core
    // must stay deliverable without the socket code.
    std::vector<Diagnostic> specDiags;
    const LayerSpec layered = parseLayerSpec(
        "layers.txt",
        "layer common  src/common/\n"
        "layer core    src/core/\n"
        "layer service src/service/\n"
        "allow core    -> common\n"
        "allow service -> common core\n",
        specDiags);
    EXPECT_TRUE(specDiags.empty());
    const std::vector<SourceFile> clean = {
        {"src/service/server.hh", "#pragma once\n"
                                  "#include \"core/runtime.hh\"\n"
                                  "#include \"common/logging.hh\"\n",
         ""},
        {"src/core/runtime.hh", "#pragma once\n", ""},
        {"src/common/logging.hh", "#pragma once\n", ""},
    };
    EXPECT_TRUE(checkLayering(layered, clean).empty());

    const std::vector<SourceFile> inverted = {
        {"src/core/runtime.hh", "#pragma once\n"
                                "#include \"service/http.hh\"\n",
         ""},
        {"src/service/http.hh", "#pragma once\n", ""},
    };
    EXPECT_TRUE(fired(checkLayering(layered, inverted), "layering", 2));
}

TEST(AnalyzeLayering, DseSitsAboveCoreAndCoreCannotReachBack)
{
    // The in-tree spec's shape for the design-space explorer: dse may
    // drive core's experiment runner, but core must never include a
    // dse header — the runner stays deliverable without the explorer,
    // and the explorer's determinism contract rests on core's, not
    // the other way around.
    std::vector<Diagnostic> specDiags;
    const LayerSpec layered = parseLayerSpec(
        "layers.txt",
        "layer common src/common/\n"
        "layer core   src/core/\n"
        "layer dse    src/dse/\n"
        "allow core -> common\n"
        "allow dse  -> common core\n",
        specDiags);
    EXPECT_TRUE(specDiags.empty());

    const std::vector<SourceFile> clean = {
        {"src/dse/explorer.hh", "#pragma once\n"
                                "#include \"core/experiment.hh\"\n",
         ""},
        {"src/core/experiment.hh", "#pragma once\n", ""},
    };
    EXPECT_TRUE(checkLayering(layered, clean).empty());

    // Seeded violation: core reaching up into the explorer.
    const std::vector<SourceFile> inverted = {
        {"src/core/experiment.cc", "#include \"dse/explorer.hh\"\n",
         ""},
        {"src/dse/explorer.hh", "#pragma once\n", ""},
    };
    const std::vector<Diagnostic> diagnostics =
        checkLayering(layered, inverted);
    ASSERT_TRUE(fired(diagnostics, "layering", 1));
    const auto d = std::find_if(diagnostics.begin(), diagnostics.end(),
                                [](const Diagnostic &x) {
                                    return x.rule == "layering";
                                });
    EXPECT_NE(d->message.find("dse"), std::string::npos);
}

TEST(AnalyzeLayering, PluginHostSitsAboveAxbenchOutsideTheCore)
{
    // The in-tree spec's shape for the plugin host: plugin adapts C
    // tables into the axbench registry, so it may reach down into
    // axbench/common — but core must never include plugin (discovery
    // is injected through WorkloadRegistry::setDiscovery), and the
    // loader must not grow tendrils into the service shell.
    std::vector<Diagnostic> specDiags;
    const LayerSpec layered = parseLayerSpec(
        "layers.txt",
        "layer common  src/common/\n"
        "layer axbench src/axbench/\n"
        "layer core    src/core/\n"
        "layer service src/service/\n"
        "layer plugin  src/plugin/\n"
        "allow axbench -> common\n"
        "allow core    -> common axbench\n"
        "allow service -> common core\n"
        "allow plugin  -> common axbench\n",
        specDiags);
    EXPECT_TRUE(specDiags.empty());

    const std::vector<SourceFile> clean = {
        {"src/plugin/host.cc", "#include \"axbench/registry.hh\"\n"
                               "#include \"common/logging.hh\"\n",
         ""},
        {"src/axbench/registry.hh", "#pragma once\n", ""},
        {"src/common/logging.hh", "#pragma once\n", ""},
    };
    EXPECT_TRUE(checkLayering(layered, clean).empty());

    // Seeded violation 1: the loader reaching sideways-up into the
    // service shell.
    const std::vector<SourceFile> intoService = {
        {"src/plugin/loader.cc", "#include \"service/server.hh\"\n",
         ""},
        {"src/service/server.hh", "#pragma once\n", ""},
    };
    const std::vector<Diagnostic> diagnostics =
        checkLayering(layered, intoService);
    ASSERT_TRUE(fired(diagnostics, "layering", 1));
    const auto d = std::find_if(diagnostics.begin(), diagnostics.end(),
                                [](const Diagnostic &x) {
                                    return x.rule == "layering";
                                });
    EXPECT_NE(d->message.find("service"), std::string::npos);

    // Seeded violation 2: core depending on the loader (the discovery
    // hook exists precisely so this edge never appears).
    const std::vector<SourceFile> coreIntoPlugin = {
        {"src/core/experiment.cc", "#include \"plugin/loader.hh\"\n",
         ""},
        {"src/plugin/loader.hh", "#pragma once\n", ""},
    };
    EXPECT_TRUE(
        fired(checkLayering(layered, coreIntoPlugin), "layering", 1));
}

TEST(AnalyzeLayering, TransitivityIsNotImplied)
{
    // tests -> core and core -> common, but a spec without
    // tests -> common must still reject the direct include.
    std::vector<Diagnostic> specDiags;
    const LayerSpec narrow = parseLayerSpec(
        "layers.txt",
        "layer common src/common/\n"
        "layer core   src/core/\n"
        "layer tests  tests/\n"
        "allow core  -> common\n"
        "allow tests -> core\n",
        specDiags);
    const std::vector<SourceFile> files = {
        {"tests/t.cpp", "#include \"common/b.hh\"\n", ""},
        {"src/common/b.hh", "#pragma once\n", ""},
    };
    EXPECT_TRUE(fired(checkLayering(narrow, files), "layering", 1));
}

TEST(AnalyzeLayering, UnmappedFileIsDiagnosed)
{
    const std::vector<SourceFile> files = {
        {"scripts/tool.cc", "int x;\n", ""},
    };
    EXPECT_TRUE(fired(checkLayering(spec(), files), "layering", 1));
}

TEST(AnalyzeLayering, IncludeCycleIsDiagnosedWithChain)
{
    const std::vector<SourceFile> files = {
        {"src/core/a.hh", "#pragma once\n#include \"core/b.hh\"\n", ""},
        {"src/core/b.hh", "#pragma once\n#include \"core/c.hh\"\n", ""},
        {"src/core/c.hh", "#pragma once\n#include \"core/a.hh\"\n", ""},
    };
    const std::vector<Diagnostic> diagnostics =
        checkLayering(spec(), files);
    ASSERT_TRUE(firedRule(diagnostics, "include-cycle"));
    const auto d = std::find_if(diagnostics.begin(), diagnostics.end(),
                                [](const Diagnostic &x) {
                                    return x.rule == "include-cycle";
                                });
    // The full chain is printed: every participant appears.
    EXPECT_NE(d->message.find("src/core/a.hh"), std::string::npos);
    EXPECT_NE(d->message.find("src/core/b.hh"), std::string::npos);
    EXPECT_NE(d->message.find("src/core/c.hh"), std::string::npos);
}

TEST(AnalyzeLayering, AnnotationSuppressesUpwardInclude)
{
    const std::vector<SourceFile> files = {
        {"src/common/low.hh",
         "#pragma once\n"
         "// mithra-analyze: allow(layering) — test fixture\n"
         "#include \"core/high.hh\"\n",
         ""},
        {"src/core/high.hh", "#pragma once\n", ""},
    };
    EXPECT_TRUE(checkLayering(spec(), files).empty());
}

// ----------------------------------------------------------------- taint

std::vector<Diagnostic>
taintAt(const std::string &path, const std::string &source)
{
    return checkTaint({path, source, ""});
}

TEST(AnalyzeTaint, DirectSourceInSinkFires)
{
    const std::string source = R"cpp(
void emit() {
    MITHRA_GAUGE_SET("x", threadOrdinal());
}
)cpp";
    EXPECT_TRUE(fired(taintAt("src/core/a.cc", source), "taint-flow", 3));
}

TEST(AnalyzeTaint, AssignmentPropagatesToSink)
{
    const std::string source = R"cpp(
void emit() {
    double t = wallClockNs();
    double u = t * 2.0;
    MITHRA_COUNT("x", u);
}
)cpp";
    EXPECT_TRUE(fired(taintAt("src/core/a.cc", source), "taint-flow", 5));
}

TEST(AnalyzeTaint, ReturnTaintsFunctionTuWide)
{
    const std::string source = R"cpp(
double stamp() {
    return static_cast<double>(wallClockNs());
}
void emit() {
    MITHRA_HIST("x", stamp());
}
)cpp";
    EXPECT_TRUE(fired(taintAt("src/core/a.cc", source), "taint-flow", 6));
}

TEST(AnalyzeTaint, ThreadLocalIsASource)
{
    const std::string source = R"cpp(
thread_local int scratch = 0;
void emit() {
    MITHRA_COUNT("x", scratch);
}
)cpp";
    EXPECT_TRUE(fired(taintAt("src/core/a.cc", source), "taint-flow", 4));
}

TEST(AnalyzeTaint, UnorderedIterationTaintsLoopVariable)
{
    const std::string source = R"cpp(
void emit(const std::unordered_map<int, double> &m) {
    for (const auto &entry : m) {
        addMetric("k", entry.second);
    }
}
)cpp";
    EXPECT_TRUE(fired(taintAt("src/core/a.cc", source), "taint-flow", 4));
}

TEST(AnalyzeTaint, CleanFlowsStayClean)
{
    const std::string source = R"cpp(
void emit(double value) {
    double scaled = value * 2.0;
    MITHRA_COUNT("x", scaled);
    double t = wallClockNs();
    consume(t); // tainted, but never reaches a sink
}
)cpp";
    EXPECT_TRUE(taintAt("src/core/a.cc", source).empty());
}

TEST(AnalyzeTaint, TelemetryAndTestsAreExempt)
{
    const std::string source = R"cpp(
void emit() {
    MITHRA_GAUGE_SET("x", threadOrdinal());
}
)cpp";
    EXPECT_TRUE(taintAt("src/telemetry/a.cc", source).empty());
    EXPECT_TRUE(taintAt("tests/a.cpp", source).empty());
    EXPECT_TRUE(taintAt("bench/a.cpp", source).empty());
}

TEST(AnalyzeTaint, SocketReadsAreSourcesOutsideTheServiceShell)
{
    // recv() results are external-world values: a payload size must
    // not feed a deterministic metric from core code...
    const std::string source = R"cpp(
void pump(int fd, char *buffer) {
    long got = recv(fd, buffer, 4096, 0);
    MITHRA_COUNT("bytes", got);
}
)cpp";
    EXPECT_TRUE(fired(taintAt("src/core/a.cc", source), "taint-flow", 4));
    // ...while the identical code is sanctioned in the service shell
    // (the clean twin), exactly like wall-clock in telemetry.
    EXPECT_TRUE(taintAt("src/service/a.cc", source).empty());
}

TEST(AnalyzeTaint, AcceptedConnectionsAreSourcesOutsideTheShell)
{
    const std::string source = R"cpp(
int next(int listenFd) {
    int fd = accept(listenFd, nullptr, nullptr);
    MITHRA_GAUGE_SET("fd", fd);
    return fd;
}
)cpp";
    EXPECT_TRUE(fired(taintAt("src/hw/a.cc", source), "taint-flow", 4));
    EXPECT_TRUE(taintAt("src/service/a.cc", source).empty());
}

TEST(AnalyzeTaint, AnnotationSuppresses)
{
    const std::string source = R"cpp(
void emit() {
    // volatile stat, never in dumps: mithra-analyze: allow(taint-flow)
    MITHRA_GAUGE_SET("x", threadOrdinal());
}
)cpp";
    EXPECT_TRUE(taintAt("src/core/a.cc", source).empty());
}

// -------------------------------------------------------------- captures

std::vector<Diagnostic>
capturesAt(const std::string &source)
{
    return checkCaptures({"src/core/a.cc", source, ""});
}

TEST(AnalyzeCaptures, SharedAccumulatorFires)
{
    const std::string source = R"cpp(
void sum(std::size_t n) {
    double total = 0.0;
    parallelFor(0, n, 1, [&](std::size_t i) {
        total += work(i);
    });
}
)cpp";
    EXPECT_TRUE(fired(capturesAt(source), "capture-race", 5));
}

TEST(AnalyzeCaptures, SharedIncrementFires)
{
    const std::string source = R"cpp(
void count(std::size_t n) {
    int calls = 0;
    parallelFor(0, n, 1, [&](std::size_t i) {
        ++calls;
        use(i);
    });
}
)cpp";
    EXPECT_TRUE(fired(capturesAt(source), "capture-race", 5));
}

TEST(AnalyzeCaptures, PerSlotIndexedWriteIsClean)
{
    const std::string source = R"cpp(
void fill(std::vector<double> &out) {
    parallelFor(0, out.size(), 1, [&](std::size_t i) {
        out[i] = work(i);
    });
}
)cpp";
    EXPECT_TRUE(capturesAt(source).empty());
}

TEST(AnalyzeCaptures, AtomicTargetIsClean)
{
    const std::string source = R"cpp(
void count(std::size_t n) {
    std::atomic<int> calls{0};
    parallelFor(0, n, 1, [&](std::size_t i) {
        ++calls;
        use(i);
    });
}
)cpp";
    EXPECT_TRUE(capturesAt(source).empty());
}

TEST(AnalyzeCaptures, MutexGuardedWriteIsClean)
{
    const std::string source = R"cpp(
void sum(std::size_t n) {
    double total = 0.0;
    std::mutex m;
    parallelFor(0, n, 1, [&](std::size_t i) {
        const double part = work(i);
        std::lock_guard<std::mutex> lock(m);
        total += part;
    });
}
)cpp";
    EXPECT_TRUE(capturesAt(source).empty());
}

TEST(AnalyzeCaptures, LambdaLocalsAndParamsAreClean)
{
    const std::string source = R"cpp(
void run(std::size_t n) {
    parallelFor(0, n, 1, [&](std::size_t i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < i; ++j)
            acc += work(j);
        sink(acc);
    });
}
)cpp";
    EXPECT_TRUE(capturesAt(source).empty());
}

TEST(AnalyzeCaptures, ValueCaptureIsClean)
{
    const std::string source = R"cpp(
void run(std::size_t n, int seed) {
    parallelFor(0, n, 1, [&, seed](std::size_t i) mutable {
        seed = static_cast<int>(i);
        use(seed);
    });
}
)cpp";
    EXPECT_TRUE(capturesAt(source).empty());
}

TEST(AnalyzeCaptures, NestedParallelOuterIndexIsClean)
{
    // Nested regions run inline on the calling worker, so a write
    // striped by the *outer* parameter stays single-writer.
    const std::string source = R"cpp(
void run(std::size_t n, std::size_t m, Grid &out) {
    parallelFor(0, n, 1, [&](std::size_t d) {
        parallelFor(0, m, 1, [&](std::size_t i) {
            out[d][i] = work(d, i);
        });
    });
}
)cpp";
    EXPECT_TRUE(capturesAt(source).empty());
}

TEST(AnalyzeCaptures, SerialLambdaOutsideParallelIsClean)
{
    const std::string source = R"cpp(
void run(std::vector<double> &values) {
    double total = 0.0;
    std::for_each(values.begin(), values.end(),
                  [&](double v) { total += v; });
}
)cpp";
    EXPECT_TRUE(capturesAt(source).empty());
}

TEST(AnalyzeCaptures, AnnotationSuppresses)
{
    const std::string source = R"cpp(
void sum(std::size_t n) {
    double total = 0.0;
    parallelFor(0, n, 1, [&](std::size_t i) {
        // single-threaded test fixture: mithra-analyze: allow(capture-race)
        total += work(i);
    });
}
)cpp";
    EXPECT_TRUE(capturesAt(source).empty());
}

// ------------------------------------------------------------------- env

const char *registrySource = R"cpp(
struct VarInfo { const char *n, *v, *f, *d; };
inline constexpr std::array<VarInfo, 2> registry{{
    {"MITHRA_THREADS", "int in [1, 1024]", "all hardware threads",
     "sizes the worker pool"},
    {"MITHRA_TRACE", "path", "off", "trace output path"},
}};
)cpp";

TEST(AnalyzeEnv, ParsesRegistryEntries)
{
    const EnvRegistry registry = parseEnvRegistry(registrySource);
    ASSERT_EQ(registry.entries.size(), 2u);
    EXPECT_EQ(registry.entries[0].name, "MITHRA_THREADS");
    EXPECT_EQ(registry.entries[0].values, "int in [1, 1024]");
    EXPECT_EQ(registry.entries[0].fallback, "all hardware threads");
    EXPECT_EQ(registry.entries[0].doc, "sizes the worker pool");
    EXPECT_TRUE(registry.registered("MITHRA_TRACE"));
    EXPECT_FALSE(registry.registered("MITHRA_NOPE"));
}

TEST(AnalyzeEnv, UnregisteredVariableFires)
{
    const EnvRegistry registry = parseEnvRegistry(registrySource);
    const std::string source = R"cpp(
int f() { return env::countIn("MITHRA_NOPE", 1, 9, 4); }
)cpp";
    EXPECT_TRUE(fired(checkEnvUse(registry, {"src/core/a.cc", source, ""}),
                      "env-registry", 2));
}

TEST(AnalyzeEnv, RawGetenvFires)
{
    const EnvRegistry registry = parseEnvRegistry(registrySource);
    const std::string source = R"cpp(
const char *f() { return std::getenv("MITHRA_THREADS"); }
)cpp";
    EXPECT_TRUE(fired(checkEnvUse(registry, {"src/core/a.cc", source, ""}),
                      "env-registry", 2));
}

TEST(AnalyzeEnv, RegisteredAccessorUseIsClean)
{
    const EnvRegistry registry = parseEnvRegistry(registrySource);
    const std::string source = R"cpp(
int f() { return env::countIn("MITHRA_THREADS", 1, 1024, 8); }
void g() { setenv("MITHRA_TRACE", "/tmp/t.json", 1); }
)cpp";
    EXPECT_TRUE(
        checkEnvUse(registry, {"src/core/a.cc", source, ""}).empty());
}

TEST(AnalyzeEnv, ReadmeDriftFiresBothDirections)
{
    const EnvRegistry registry = parseEnvRegistry(registrySource);
    const std::string readme =
        "# doc\n"
        "| `MITHRA_THREADS` | int | pool |\n"
        "| `MITHRA_STALE` | ? | gone |\n";
    const std::vector<Diagnostic> diagnostics =
        checkReadme(registry, "README.md", readme);
    // MITHRA_STALE documented but unregistered; MITHRA_TRACE
    // registered but undocumented.
    EXPECT_TRUE(fired(diagnostics, "env-registry", 3));
    EXPECT_TRUE(fired(diagnostics, "env-registry", 1));
    EXPECT_EQ(diagnostics.size(), 2u);
}

TEST(AnalyzeEnv, RenderedTableRoundTrips)
{
    const EnvRegistry registry = parseEnvRegistry(registrySource);
    const std::string table = renderEnvTable(registry);
    EXPECT_NE(table.find("| `MITHRA_THREADS` | int in [1, 1024] "
                         "(all hardware threads) | sizes the worker "
                         "pool |"),
              std::string::npos);
    // The rendered table satisfies the README check by construction.
    EXPECT_TRUE(checkReadme(registry, "README.md", table).empty());
}

// ---------------------------------------------------------------- driver

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::filesystem::create_directories(path.parent_path());
    std::ofstream(path, std::ios::binary) << text;
}

/**
 * A tree that passes every semantic pass, with one lint violation in
 * each of src/, bench/, tests/ and include/ and one in tools/, which
 * the lint rules do not cover. bench/ and tests/ files have no
 * namespace, so a src/ policy leaking onto them would add findings.
 */
void
writeSeededTree(const std::filesystem::path &root)
{
    std::filesystem::remove_all(root);
    writeFile(root / "tools/mithra-analyze/layers.txt",
              "layer common src/common/\n"
              "layer core   src/core/\n"
              "layer tools  tools/\n"
              "layer bench  bench/\n"
              "layer tests  tests/\n");
    const std::string registry =
        std::string("#pragma once\n#include <array>\n"
                    "namespace mithra::env\n{\n")
        + registrySource + "} // namespace mithra::env\n";
    writeFile(root / "src/common/env_registry.hh", registry);
    writeFile(root / "README.md",
              renderEnvTable(parseEnvRegistry(registry)));
    writeFile(root / "src/core/a.cc",
              "namespace mithra\n{\nint f() { return rand(); }\n}\n");
    writeFile(root / "bench/b.cc", "int f() { return rand(); }\n");
    writeFile(root / "tests/t.cpp", "int f() { return rand(); }\n");
    writeFile(root / "include/p.h",
              "#ifndef P_H\n#define P_H\n// not C89\n#endif\n");
    // A header without `#pragma once': header hygiene would fire on it
    // under any root the lint rules cover.
    writeFile(root / "tools/x.hh", "int f();\n");
}

TEST(AnalyzeTree, LintsSrcBenchTestsAndIncludeButNotTools)
{
    const std::filesystem::path scratch =
        std::filesystem::path(::testing::TempDir())
        / ("mithra-analyze-tree-" + std::to_string(::getpid()));
    // The second checkout sits under a directory named src/: policies
    // must follow repo-relative paths, not the checkout location.
    for (const std::filesystem::path &root :
         {scratch / "plain", scratch / "src" / "checkout"}) {
        SCOPED_TRACE(root.string());
        writeSeededTree(root);
        const mithra::analyze::TreeReport report =
            mithra::analyze::analyzeTree(root.string());
        EXPECT_EQ(report.fileCount, 6u);

        const std::vector<std::pair<std::string, std::string>> expected{
            {"bench/b.cc", "no-rand"},
            {"include/p.h", "c-abi-header"},
            {"src/core/a.cc", "no-rand"},
            {"tests/t.cpp", "no-rand"},
        };
        std::vector<std::pair<std::string, std::string>> got;
        for (const Diagnostic &d : report.diagnostics) {
            const std::string prefix = root.string() + "/";
            EXPECT_EQ(d.file.rfind(prefix, 0), 0u) << d.file;
            got.emplace_back(d.file.substr(prefix.size()), d.rule);
        }
        EXPECT_EQ(got, expected);
    }
    std::filesystem::remove_all(scratch);
}

// ------------------------------------------------- diagnostics & lexer

TEST(AnalyzeFormat, GoldenDiagnosticFormat)
{
    const Diagnostic d{"src/core/a.cc", 12, "layering", "bad edge"};
    EXPECT_EQ(mithra::analyze::formatDiagnostic(d),
              "src/core/a.cc:12: error: [layering] bad edge");
}

TEST(SharedLexer, SuppressionCoversSameAndFollowingLine)
{
    using mithra::lex::scan;
    using mithra::lex::suppressed;
    const auto scanned = scan("int a; // mithra-analyze: allow(x)\n"
                              "int b;\n"
                              "int c;\n");
    EXPECT_TRUE(suppressed(scanned.allows, "mithra-analyze", "x", 1));
    EXPECT_TRUE(suppressed(scanned.allows, "mithra-analyze", "x", 2));
    EXPECT_FALSE(suppressed(scanned.allows, "mithra-analyze", "x", 3));
    // Tool and rule must both match.
    EXPECT_FALSE(suppressed(scanned.allows, "mithra-lint", "x", 1));
    EXPECT_FALSE(suppressed(scanned.allows, "mithra-analyze", "y", 1));
}

TEST(SharedLexer, IncludesAreExtractedWithoutConsumingTokens)
{
    using mithra::lex::scan;
    const auto scanned = scan("#include \"core/a.hh\"\n"
                              "#include <vector>\n"
                              "int x;\n");
    ASSERT_EQ(scanned.includes.size(), 2u);
    EXPECT_EQ(scanned.includes[0].target, "core/a.hh");
    EXPECT_FALSE(scanned.includes[0].angled);
    EXPECT_EQ(scanned.includes[0].line, 1u);
    EXPECT_EQ(scanned.includes[1].target, "vector");
    EXPECT_TRUE(scanned.includes[1].angled);
}

} // namespace
