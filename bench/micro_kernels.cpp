/**
 * @file
 * Microbenchmarks (google-benchmark) of the SIMD kernel layer
 * (src/common/kernels): single-thread throughput of the batched MLP
 * forward pass, the batch MISR hasher and the batch quantizer, run
 * once per backend the host CPU supports.
 *
 * Every benchmark reports two counters:
 *   backend            — kernels::Backend the measurement ran under
 *   speedup_vs_scalar  — this backend's mean wall time relative to the
 *                        scalar run of the same family (registration
 *                        puts the scalar run first)
 *
 * The determinism contract (common/kernels/kernels.hh) guarantees all
 * backends compute bitwise-identical results, so the speedup is the
 * whole story. The run report carries the best backend's speedup per
 * family as `<family>.speedup_vs_scalar`; CI pins those keys with
 * report-check --require.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/kernels/kernels.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/vec.hh"
#include "hw/misr.hh"
#include "npu/mlp.hh"
#include "npu/trainer.hh"

using namespace mithra;
namespace kernels = mithra::kernels;

namespace
{

/** family -> speedup at the best backend, for the run report. */
std::map<std::string, double> &
reportSpeedups()
{
    static std::map<std::string, double> speedups;
    return speedups;
}

/** Register one Arg per supported backend, scalar first. */
void
applyBackendArgs(benchmark::internal::Benchmark *bench)
{
    for (auto backend : {kernels::Backend::Scalar, kernels::Backend::Avx2}) {
        if (kernels::backendSupported(backend))
            bench->Arg(static_cast<long>(backend));
    }
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Report the counters. The scalar mean of each family is captured when
 * it runs (first, by registration order) and serves as the baseline
 * for the SIMD backends.
 */
void
reportCounters(benchmark::State &state, const std::string &family,
               kernels::Backend backend, double meanSeconds)
{
    static std::map<std::string, double> baselines;
    if (backend == kernels::Backend::Scalar)
        baselines[family] = meanSeconds;
    state.counters["backend"] =
        benchmark::Counter(static_cast<double>(backend));
    const auto it = baselines.find(family);
    const double speedup = it != baselines.end() && meanSeconds > 0.0
        ? it->second / meanSeconds
        : 0.0;
    state.counters["speedup_vs_scalar"] = benchmark::Counter(speedup);
    // Backends run ascending, so the last write is the best backend.
    reportSpeedups()[family + ".speedup_vs_scalar"] = speedup;
}

void
BM_MlpForward(benchmark::State &state)
{
    const auto backend = static_cast<kernels::Backend>(state.range(0));
    kernels::setActiveBackend(backend);

    const npu::Topology topology = {64, 32, 8};
    npu::Mlp net(topology);
    npu::initWeights(net, 0x5eedULL);

    constexpr std::size_t batch = 512;
    Rng rng(0x6d6c70ULL);
    std::vector<float> inputs(batch * topology.front());
    for (auto &v : inputs)
        v = static_cast<float>(rng.uniform());

    npu::ForwardScratch scratch;
    scratch.prepare(topology);

    double totalSeconds = 0.0;
    std::size_t iterations = 0;
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        float sink = 0.0f;
        for (std::size_t i = 0; i < batch; ++i) {
            npu::forwardTrace(
                net, {inputs.data() + i * topology.front(),
                      topology.front()},
                scratch);
            sink += scratch.output()[0];
        }
        benchmark::DoNotOptimize(sink);
        totalSeconds += secondsSince(start);
        ++iterations;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * batch));
    reportCounters(state, "mlp_forward", backend,
                   totalSeconds / static_cast<double>(iterations));
}
BENCHMARK(BM_MlpForward)
    ->Apply(applyBackendArgs)
    ->Unit(benchmark::kMicrosecond);

void
BM_MisrHash(benchmark::State &state)
{
    const auto backend = static_cast<kernels::Backend>(state.range(0));
    kernels::setActiveBackend(backend);

    constexpr std::size_t width = 16;
    constexpr std::size_t count = 4096;
    const hw::Misr misr(hw::misrConfigPool()[0], 12);

    Rng rng(0x6d697372ULL);
    std::vector<std::uint8_t> codes(width * count);
    for (auto &code : codes)
        code = static_cast<std::uint8_t>(rng.nextBelow(256));
    std::vector<std::uint32_t> out(count);

    double totalSeconds = 0.0;
    std::size_t iterations = 0;
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        kernels::misrHashBatch(misr.params(), codes.data(), width,
                               count, out.data());
        benchmark::DoNotOptimize(out.data());
        totalSeconds += secondsSince(start);
        ++iterations;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * count));
    reportCounters(state, "misr_hash", backend,
                   totalSeconds / static_cast<double>(iterations));
}
BENCHMARK(BM_MisrHash)
    ->Apply(applyBackendArgs)
    ->Unit(benchmark::kMicrosecond);

void
BM_Quantize(benchmark::State &state)
{
    const auto backend = static_cast<kernels::Backend>(state.range(0));
    kernels::setActiveBackend(backend);

    constexpr std::size_t width = 16;
    constexpr std::size_t count = 4096;
    Rng rng(0x7175616eULL);
    std::vector<float> lows(width), highs(width);
    for (std::size_t j = 0; j < width; ++j) {
        lows[j] = static_cast<float>(rng.uniform(-4.0, 0.0));
        highs[j] = lows[j] + static_cast<float>(rng.uniform(0.5, 4.0));
    }
    std::vector<float> values(width * count);
    for (auto &v : values)
        v = static_cast<float>(rng.uniform(-5.0, 5.0));
    std::vector<std::uint8_t> out(width * count);

    double totalSeconds = 0.0;
    std::size_t iterations = 0;
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        kernels::quantizeBatch(values.data(), width, count, lows.data(),
                               highs.data(), 255, out.data());
        benchmark::DoNotOptimize(out.data());
        totalSeconds += secondsSince(start);
        ++iterations;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * width * count));
    reportCounters(state, "quantize", backend,
                   totalSeconds / static_cast<double>(iterations));
}
BENCHMARK(BM_Quantize)
    ->Apply(applyBackendArgs)
    ->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    std::vector<std::pair<std::string, double>> metrics(
        reportSpeedups().begin(), reportSpeedups().end());
    bench::writeBenchReport("micro_kernels", metrics);
    return 0;
}
