#include "workload.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "axbench/benchmark.hh"
#include "axbench/registry.hh"
#include "common/rng.hh"

namespace perfbench
{

namespace
{

std::vector<Workload>
workloads()
{
    Workload bulk;
    bulk.name = "serve-bulk";
    bulk.setupJobs = {{"inversek2j", "table"}};
    bulk.batchRows = 4096;
    bulk.connections = 1;
    bulk.closedLoop = true;
    bulk.bodiesPerModel = 32;
    // Client and server take turns on one connection, so one vCPU
    // loses nothing, and a batch never waits for a wake-up on another
    // vCPU whose speed the host changes independently.
    bulk.threads = 1;
    bulk.oneCpu = true;

    Workload small;
    small.name = "serve-small";
    small.setupJobs = {{"jmeint", "table"}, {"jmeint", "neural"}};
    small.batchRows = 16;
    small.connections = 4;
    // Rungs thin out toward the capacity of four connections, so the
    // highest rung that meets the limit moves in small steps from run
    // to run; the limit sits well above the tail of a sustained rung
    // and well below that of an overloaded one.
    small.rungs = {{"r1", 2000.0},
                   {"lo", 4000.0},
                   {"r3", 6000.0},
                   {"hi", 8000.0},
                   {"r5", 10000.0},
                   {"r6", 11000.0},
                   {"r7", 12000.0},
                   {"r8", 13000.0},
                   {"r9", 14000.0},
                   {"r10", 15000.0},
                   {"r11", 16000.0}};
    small.latencyLimitMs = 20.0;
    // Sixteen-row requests are too small to split across a pool: one
    // thread keeps the per-request path free of pool wake-ups.
    small.threads = 1;
    small.bodiesPerModel = 1024;

    Workload mix;
    mix.name = "compile-mix";
    mix.setupJobs = {{"jmeint", "table"}};
    mix.mixJobs = {{"inversek2j", "table"},
                   {"fft", "table"},
                   {"jmeint", "neural"}};
    mix.batchRows = 16;
    mix.connections = 2;
    mix.rungs = {{"stream", 200.0}};
    mix.bodiesPerModel = 512;

    return {bulk, small, mix};
}

/** Uniform double in (0, 1] from one splitmix64 draw. */
double
unitDraw(std::uint64_t &state)
{
    return (static_cast<double>(mithra::splitMix64(state) >> 11) + 1.0)
        * 0x1.0p-53;
}

void
appendBody(std::string &body, const std::string &modelId,
           const float *rows, std::size_t count, std::size_t width)
{
    body = "{\"model\": \"" + modelId + "\", \"inputs\": [";
    char cell[32];
    for (std::size_t i = 0; i < count; ++i) {
        body += i ? ",[" : "[";
        for (std::size_t j = 0; j < width; ++j) {
            if (j)
                body += ',';
            // %.9g round-trips every float exactly.
            std::snprintf(cell, sizeof(cell), "%.9g",
                          static_cast<double>(rows[i * width + j]));
            body += cell;
        }
        body += ']';
    }
    body += "]}";
}

} // namespace

const Workload &
findWorkload(const std::string &name)
{
    static const std::vector<Workload> all = workloads();
    for (const Workload &workload : all) {
        if (workload.name == name)
            return workload;
    }
    std::fprintf(stderr, "perfbench: unknown workload `%s'\n",
                 name.c_str());
    std::exit(2);
}

mithra::core::QualitySpec
qualitySpec()
{
    return mithra::core::QualitySpec{};
}

std::string
jobSpecBody(const JobRequest &job)
{
    const mithra::core::QualitySpec spec = qualitySpec();
    char text[512];
    std::snprintf(
        text, sizeof(text),
        "{\"benchmark\": \"%s\", \"design\": \"%s\", \"shards\": %zu, "
        "\"compileDatasets\": %zu, \"npuTrainSamples\": %zu, "
        "\"classifierTuples\": %zu, \"seed\": %llu, "
        "\"watchdog\": true, \"maxQualityLossPct\": %.17g, "
        "\"confidence\": %.17g, \"successRate\": %.17g}",
        job.benchmark.c_str(), job.design.c_str(), modelShards,
        compileDatasets, npuTrainSamples, classifierTuples,
        static_cast<unsigned long long>(jobSeed),
        spec.maxQualityLossPct, spec.confidence, spec.successRate);
    return text;
}

std::string
jobId(std::size_t ordinal)
{
    return "job-" + std::to_string(ordinal + 1);
}

std::vector<ModelInputs>
makeInputs(const Workload &workload, std::uint64_t seed)
{
    std::vector<ModelInputs> out;
    for (std::size_t m = 0; m < workload.setupJobs.size(); ++m) {
        const std::string &name = workload.setupJobs[m].benchmark;
        const auto bench = mithra::axbench::makeBenchmark(name);
        std::set<std::uint64_t> compileSeeds;
        for (std::size_t d = 0; d < compileDatasets; ++d)
            compileSeeds.insert(mithra::axbench::compileSeed(name, d));

        ModelInputs inputs;
        inputs.modelId = jobId(m);
        inputs.benchmark = name;
        inputs.width = bench->npuTopology().front();
        const std::size_t needed = workload.bodiesPerModel
            * workload.batchRows * inputs.width;
        std::uint64_t state =
            seed ^ (0xda7a5eedULL * (static_cast<std::uint64_t>(m) + 1));
        while (inputs.rows.size() < needed) {
            const std::uint64_t datasetSeed = mithra::splitMix64(state);
            if (compileSeeds.count(datasetSeed))
                continue;
            const auto dataset = bench->makeDataset(datasetSeed);
            const mithra::axbench::InvocationTrace trace =
                bench->trace(*dataset);
            const auto flat = trace.inputsFlat();
            inputs.rows.insert(inputs.rows.end(), flat.begin(),
                               flat.end());
        }
        inputs.rows.resize(needed);

        inputs.bodies.resize(workload.bodiesPerModel);
        for (std::size_t b = 0; b < workload.bodiesPerModel; ++b)
            appendBody(inputs.bodies[b], inputs.modelId,
                       inputs.batch(b, workload.batchRows),
                       workload.batchRows, inputs.width);
        out.push_back(std::move(inputs));
    }
    return out;
}

std::vector<Planned>
makeSchedule(const Workload &workload, std::uint64_t seed,
             double seconds, double horizon, std::size_t models)
{
    std::vector<Planned> out;
    std::uint64_t state = seed ^ 0xa771a15eedULL;
    const double rungSeconds =
        seconds / static_cast<double>(workload.rungs.size());
    const auto rungAt = [&](double t) -> std::int32_t {
        if (t < warmupSeconds)
            return -1;
        const auto index =
            static_cast<std::size_t>((t - warmupSeconds) / rungSeconds);
        return static_cast<std::int32_t>(
            std::min(index, workload.rungs.size() - 1));
    };
    double at = 0.0;
    const double end = warmupSeconds + horizon;
    for (;;) {
        // The rate in force where the previous arrival landed.
        const std::int32_t current = rungAt(at);
        const double rate =
            workload.rungs[current < 0 ? 0 : static_cast<std::size_t>(current)]
                .rate;
        at += -std::log(unitDraw(state)) / rate;
        if (at >= end)
            break;
        Planned request;
        request.due = at;
        request.rung = rungAt(at);
        request.model = static_cast<std::uint32_t>(
            mithra::splitMix64(state) % models);
        request.body = static_cast<std::uint32_t>(
            mithra::splitMix64(state) % workload.bodiesPerModel);
        out.push_back(request);
    }
    return out;
}

} // namespace perfbench
