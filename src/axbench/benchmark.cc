#include "axbench/benchmark.hh"

#include <atomic>
#include <cmath>
#include <functional>

#include "common/contracts.hh"

namespace mithra::axbench
{

namespace
{

std::uint64_t
nextTraceId()
{
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

InvocationTrace::InvocationTrace(std::size_t inputWidth,
                                 std::size_t outputWidth)
    : inWidth(inputWidth), outWidth(outputWidth), uniqueId(nextTraceId())
{
    MITHRA_ASSERT(inWidth > 0 && outWidth > 0,
                  "trace needs nonzero vector widths");
}

void
InvocationTrace::append(const Vec &input, const Vec &preciseOut)
{
    MITHRA_ASSERT(input.size() == inWidth, "trace input width mismatch");
    MITHRA_ASSERT(preciseOut.size() == outWidth,
                  "trace output width mismatch");
    inputs.insert(inputs.end(), input.begin(), input.end());
    preciseOuts.insert(preciseOuts.end(), preciseOut.begin(),
                       preciseOut.end());
    ++numInvocations;
}

template <typename Invoke>
void
InvocationTrace::attachWith(Invoke &&invoke)
{
    approxOuts.resize(preciseOuts.size());
    Vec input(inWidth);
    for (std::size_t i = 0; i < numInvocations; ++i) {
        const auto in = this->input(i);
        std::copy(in.begin(), in.end(), input.begin());
        const Vec out = invoke(input);
        MITHRA_ASSERT(out.size() == outWidth,
                      "accelerator output width mismatch");
        std::copy(out.begin(), out.end(),
                  approxOuts.begin()
                      + static_cast<std::ptrdiff_t>(i * outWidth));
    }
    approximated = true;
    localErrors.resize(numInvocations);
    for (std::size_t i = 0; i < numInvocations; ++i)
        localErrors[i] = computeError(i);
}

void
InvocationTrace::attachApproximations(const npu::Approximator &accel)
{
    attachWith([&](const Vec &input) { return accel.invoke(input); });
}

void
InvocationTrace::attachApproximations(const Accelerator &accel)
{
    attachWith([&](const Vec &input) { return accel.invoke(input); });
}

void
InvocationTrace::appendWithApprox(const Vec &input, const Vec &preciseOut,
                                  const Vec &approxOut)
{
    MITHRA_ASSERT(approxOut.size() == outWidth,
                  "trace approx width mismatch");
    MITHRA_ASSERT(approxOuts.size() == numInvocations * outWidth,
                  "cannot mix appendWithApprox with plain append");
    append(input, preciseOut);
    approxOuts.insert(approxOuts.end(), approxOut.begin(),
                      approxOut.end());
    approximated = true;
    localErrors.push_back(computeError(numInvocations - 1));
}

std::span<const float>
InvocationTrace::input(std::size_t i) const
{
    MITHRA_ASSERT(i < numInvocations, "trace index out of range: ", i);
    return {inputs.data() + i * inWidth, inWidth};
}

std::span<const float>
InvocationTrace::preciseOutput(std::size_t i) const
{
    MITHRA_ASSERT(i < numInvocations, "trace index out of range: ", i);
    return {preciseOuts.data() + i * outWidth, outWidth};
}

std::span<const float>
InvocationTrace::approxOutput(std::size_t i) const
{
    MITHRA_ASSERT(approximated, "no approximations attached yet");
    MITHRA_ASSERT(i < numInvocations, "trace index out of range: ", i);
    return {approxOuts.data() + i * outWidth, outWidth};
}

Vec
InvocationTrace::inputVec(std::size_t i) const
{
    const auto span = input(i);
    return Vec(span.begin(), span.end());
}

float
InvocationTrace::computeError(std::size_t i) const
{
    const auto precise = preciseOutput(i);
    const auto approx = approxOutput(i);
    float worst = 0.0f;
    for (std::size_t o = 0; o < outWidth; ++o)
        worst = std::max(worst, std::fabs(precise[o] - approx[o]));
    return worst;
}

float
InvocationTrace::maxAbsError(std::size_t i) const
{
    MITHRA_ASSERT(approximated, "no approximations attached yet");
    MITHRA_ASSERT(i < numInvocations, "trace index out of range: ", i);
    return localErrors[i];
}

npu::TrainerOptions
Benchmark::npuTrainerOptions() const
{
    return npu::TrainerOptions{};
}

double
Benchmark::qualityLoss(const FinalOutput &reference,
                       const FinalOutput &candidate) const
{
    // Custom metrics must override; the free function rejects them.
    return axbench::qualityLoss(metric(), reference, candidate);
}

std::string
Benchmark::metricLabel() const
{
    return metricName(metric());
}

std::unique_ptr<Accelerator>
Benchmark::makeAccelerator() const
{
    return nullptr; // built-in NPU
}

FinalOutput
Benchmark::preciseOutput(const Dataset &dataset,
                         const InvocationTrace &trace) const
{
    return recompose(dataset, trace,
                     std::vector<std::uint8_t>(trace.count(), 0));
}

FinalOutput
Benchmark::approxOutput(const Dataset &dataset,
                        const InvocationTrace &trace) const
{
    return recompose(dataset, trace,
                     std::vector<std::uint8_t>(trace.count(), 1));
}

namespace
{

std::uint64_t
seedFor(const std::string &benchmark, std::size_t index,
        std::uint64_t salt)
{
    const std::uint64_t nameHash = std::hash<std::string>{}(benchmark);
    return nameHash ^ salt ^ (0x9e3779b97f4a7c15ULL * (index + 1));
}

} // namespace

std::uint64_t
compileSeed(const std::string &benchmark, std::size_t index)
{
    return seedFor(benchmark, index, 0xc0de5eedULL);
}

std::uint64_t
validationSeed(const std::string &benchmark, std::size_t index)
{
    return seedFor(benchmark, index, 0x7e57da7aULL << 16);
}

} // namespace mithra::axbench
