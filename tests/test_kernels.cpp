/**
 * @file
 * Kernel-layer tests (src/common/kernels): every backend the CPU
 * supports must be bitwise identical to the scalar reference on every
 * kernel, the scalar reference must match pinned golden values (the
 * pre-refactor behavior), and the batch paths must stay bitwise
 * deterministic at any thread width. Suite names start with "Kernels"
 * so CI's native-build gate can run exactly this file twice
 * (`ctest -R '^Kernels'` under MITHRA_KERNELS=scalar and the default
 * best backend).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/kernels/kernels.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/vec.hh"
#include "hw/misr.hh"
#include "hw/quantizer.hh"
#include "npu/mlp.hh"
#include "npu/trainer.hh"

namespace
{

using mithra::Rng;
using mithra::Vec;
namespace kernels = mithra::kernels;
using kernels::Backend;

/** Every backend the running CPU can execute (scalar always can). */
std::vector<Backend>
supportedBackends()
{
    std::vector<Backend> backends;
    for (Backend b : {Backend::Scalar, Backend::Avx2}) {
        if (kernels::backendSupported(b))
            backends.push_back(b);
    }
    return backends;
}

/** RAII backend override that restores the previous choice. */
struct BackendGuard
{
    Backend previous;

    explicit BackendGuard(Backend backend)
        : previous(kernels::activeBackend())
    {
        kernels::setActiveBackend(backend);
    }

    ~BackendGuard() { kernels::setActiveBackend(previous); }
};

std::uint32_t
bitsOf(float value)
{
    return std::bit_cast<std::uint32_t>(value);
}

/** Fill a padded weight/input pair with deterministic values. */
void
fillGemvOperands(Rng &rng, std::size_t rows, std::size_t width,
                 kernels::AlignedVec &weights, kernels::AlignedVec &input,
                 std::vector<float> &bias)
{
    const std::size_t stride = kernels::paddedSize(width);
    weights.assign(rows * stride, 0.0f);
    input.assign(stride, 0.0f);
    bias.assign(rows, 0.0f);
    for (std::size_t r = 0; r < rows; ++r) {
        bias[r] = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (std::size_t j = 0; j < width; ++j) {
            weights[r * stride + j] =
                static_cast<float>(rng.uniform(-2.0, 2.0));
        }
    }
    for (std::size_t j = 0; j < width; ++j)
        input[j] = static_cast<float>(rng.uniform(-3.0, 3.0));
}

TEST(KernelsBackend, ScalarAlwaysSupported)
{
    EXPECT_TRUE(kernels::backendSupported(Backend::Scalar));
    EXPECT_TRUE(kernels::backendSupported(kernels::bestSupportedBackend()));
    EXPECT_TRUE(kernels::backendSupported(kernels::activeBackend()));
}

TEST(KernelsBackend, NamesAreStable)
{
    EXPECT_STREQ(kernels::backendName(Backend::Scalar), "scalar");
    EXPECT_STREQ(kernels::backendName(Backend::Avx2), "avx2");
    // The kernels.backend gauge reports the enum value; readers of
    // /metrics map 2 back to "avx2".
    EXPECT_EQ(static_cast<int>(Backend::Avx2), 2);
}

TEST(KernelsBackend, OverrideSwitchesDispatch)
{
    const Backend before = kernels::activeBackend();
    {
        BackendGuard guard(Backend::Scalar);
        EXPECT_EQ(kernels::activeBackend(), Backend::Scalar);
    }
    EXPECT_EQ(kernels::activeBackend(), before);
}

// Golden values pin the scalar reference (and therefore every backend)
// to the canonical 8-lane reduction and the floor(+0.5) quantizer
// rounding; a change in any backend's arithmetic order shows up here
// as a bit-pattern mismatch.
TEST(KernelsGolden, GemvBiasMatchesPinnedBits)
{
    const std::size_t width = 10, rows = 3;
    const std::size_t stride = kernels::paddedSize(width);
    kernels::AlignedVec weights(rows * stride, 0.0f);
    kernels::AlignedVec input(stride, 0.0f);
    float bias[3];
    for (std::size_t r = 0; r < rows; ++r) {
        bias[r] = 0.25f * static_cast<float>(r) - 0.1f;
        for (std::size_t j = 0; j < width; ++j) {
            weights[r * stride + j] =
                0.123f * static_cast<float>(j + 1)
                - 0.3f * static_cast<float>(r);
        }
    }
    for (std::size_t j = 0; j < width; ++j)
        input[j] = 0.017f * static_cast<float>(j) - 0.05f;

    const std::uint32_t golden[3] = {0x3e80e950u, 0x3ed83517u,
                                     0x3f17c06eu};
    for (Backend backend : supportedBackends()) {
        BackendGuard guard(backend);
        float out[3] = {0.0f, 0.0f, 0.0f};
        kernels::gemvBias(weights.data(), stride, bias, input.data(),
                          rows, out);
        for (std::size_t r = 0; r < rows; ++r) {
            EXPECT_EQ(bitsOf(out[r]), golden[r])
                << "backend " << kernels::backendName(backend)
                << " row " << r;
        }
    }
}

TEST(KernelsGolden, MisrPoolSignaturesMatchPinnedValues)
{
    std::uint8_t codes[16];
    for (int i = 0; i < 16; ++i)
        codes[i] = static_cast<std::uint8_t>(17 * i + 3);

    const struct
    {
        std::size_t configId;
        std::uint32_t signature;
    } golden[] = {{0, 0x293u}, {7, 0x8f3u}, {15, 0x58au}};

    for (const auto &expect : golden) {
        const mithra::hw::Misr misr(
            mithra::hw::misrConfigPool()[expect.configId], 12);
        EXPECT_EQ(misr.hash({codes, 16}), expect.signature);
        for (Backend backend : supportedBackends()) {
            BackendGuard guard(backend);
            std::uint32_t out = 0;
            kernels::misrHashBatch(misr.params(), codes, 16, 1, &out);
            EXPECT_EQ(out, expect.signature)
                << "backend " << kernels::backendName(backend)
                << " config " << expect.configId;
        }
    }
}

TEST(KernelsGolden, QuantizeMatchesPinnedCodes)
{
    const float lows[4] = {-1.0f, 0.0f, -2.5f, 1.0f};
    const float highs[4] = {1.0f, 4.0f, 2.5f, 9.0f};
    const float vals[4] = {-0.2f, 3.1f, 2.6f, 0.5f};
    const std::uint8_t golden[4] = {3, 5, 7, 0};
    for (Backend backend : supportedBackends()) {
        BackendGuard guard(backend);
        std::uint8_t out[4] = {255, 255, 255, 255};
        kernels::quantizeBatch(vals, 4, 1, lows, highs, 7, out);
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(out[i], golden[i])
                << "backend " << kernels::backendName(backend)
                << " element " << i;
        }
    }
}

TEST(KernelsEquality, GemvBitwiseEqualAcrossShapes)
{
    Rng rng(0x6b65726e31ULL);
    for (std::size_t width = 1; width <= 64; ++width) {
        const std::size_t rows = 1 + width % 7;
        const std::size_t stride = kernels::paddedSize(width);
        kernels::AlignedVec weights, input;
        std::vector<float> bias;
        fillGemvOperands(rng, rows, width, weights, input, bias);

        std::vector<float> reference(rows);
        {
            BackendGuard guard(Backend::Scalar);
            kernels::gemvBias(weights.data(), stride, bias.data(),
                              input.data(), rows, reference.data());
        }
        for (Backend backend : supportedBackends()) {
            BackendGuard guard(backend);
            std::vector<float> out(rows);
            kernels::gemvBias(weights.data(), stride, bias.data(),
                              input.data(), rows, out.data());
            for (std::size_t r = 0; r < rows; ++r) {
                ASSERT_EQ(bitsOf(out[r]), bitsOf(reference[r]))
                    << "backend " << kernels::backendName(backend)
                    << " width " << width << " row " << r;
            }
        }
    }
}

TEST(KernelsEquality, ElementwiseKernelsBitwiseEqual)
{
    Rng rng(0x6b65726e32ULL);
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                          std::size_t{19}, std::size_t{64},
                          std::size_t{70}}) {
        std::vector<float> x(n), grad(n);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
            grad[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        }
        const float a = static_cast<float>(rng.uniform(-1.0, 1.0));

        std::vector<float> yRef(n, 0.5f), velRef(n, 0.25f),
            wRef(n, -0.75f);
        {
            BackendGuard guard(Backend::Scalar);
            kernels::axpy(a, x.data(), yRef.data(), n);
            kernels::addInPlace(yRef.data(), grad.data(), n);
            kernels::sgdMomentumStep(0.9f, 0.01f, grad.data(),
                                     velRef.data(), wRef.data(), n);
        }
        for (Backend backend : supportedBackends()) {
            BackendGuard guard(backend);
            std::vector<float> y(n, 0.5f), vel(n, 0.25f), w(n, -0.75f);
            kernels::axpy(a, x.data(), y.data(), n);
            kernels::addInPlace(y.data(), grad.data(), n);
            kernels::sgdMomentumStep(0.9f, 0.01f, grad.data(),
                                     vel.data(), w.data(), n);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(bitsOf(y[i]), bitsOf(yRef[i]))
                    << kernels::backendName(backend) << " n " << n;
                ASSERT_EQ(bitsOf(vel[i]), bitsOf(velRef[i]))
                    << kernels::backendName(backend) << " n " << n;
                ASSERT_EQ(bitsOf(w[i]), bitsOf(wRef[i]))
                    << kernels::backendName(backend) << " n " << n;
            }
        }
    }
}

TEST(KernelsEquality, MisrBatchEqualsSequentialForAllPoolConfigs)
{
    Rng rng(0x6b65726e33ULL);
    const auto &pool = mithra::hw::misrConfigPool();
    for (std::size_t id = 0; id < mithra::hw::misrPoolSize; ++id) {
        const mithra::hw::Misr misr(pool[id], 12);
        for (std::size_t width : {std::size_t{1}, std::size_t{3},
                                  std::size_t{16}, std::size_t{33}}) {
            const std::size_t count = 19; // exercises the lane tails
            std::vector<std::uint8_t> codes(width * count);
            for (auto &code : codes)
                code = static_cast<std::uint8_t>(rng.nextBelow(256));

            std::vector<std::uint32_t> expected(count);
            for (std::size_t i = 0; i < count; ++i) {
                expected[i] = misr.hash(
                    {codes.data() + i * width, width});
            }
            for (Backend backend : supportedBackends()) {
                BackendGuard guard(backend);
                std::vector<std::uint32_t> out(count, 0);
                kernels::misrHashBatch(misr.params(), codes.data(),
                                       width, count, out.data());
                for (std::size_t i = 0; i < count; ++i) {
                    ASSERT_EQ(out[i], expected[i])
                        << kernels::backendName(backend) << " config "
                        << id << " width " << width << " row " << i;
                }
            }
        }
    }
}

TEST(KernelsEquality, QuantizeBatchEqualsScalarAndLround)
{
    Rng rng(0x6b65726e34ULL);
    const std::size_t width = 11, count = 23;
    std::vector<float> lows(width), highs(width),
        values(width * count);
    for (std::size_t j = 0; j < width; ++j) {
        lows[j] = static_cast<float>(rng.uniform(-4.0, 0.0));
        highs[j] = lows[j] + static_cast<float>(rng.uniform(0.5, 4.0));
    }
    // Mix in-range, out-of-range (clamped) and exact-boundary values.
    for (std::size_t i = 0; i < count; ++i) {
        for (std::size_t j = 0; j < width; ++j) {
            const double pick = rng.uniform();
            float v;
            if (pick < 0.1) {
                v = lows[j];
            } else if (pick < 0.2) {
                v = highs[j];
            } else {
                v = static_cast<float>(
                    rng.uniform(lows[j] - 1.0, highs[j] + 1.0));
            }
            values[i * width + j] = v;
        }
    }

    for (std::uint32_t levels : {1u, 7u, 15u, 255u}) {
        std::vector<std::uint8_t> reference(width * count);
        {
            BackendGuard guard(Backend::Scalar);
            kernels::quantizeBatch(values.data(), width, count,
                                   lows.data(), highs.data(), levels,
                                   reference.data());
        }
        // The scalar reference must equal the historical formula
        // lround(clamp((x - lo) / (hi - lo), 0, 1) * levels).
        for (std::size_t i = 0; i < count; ++i) {
            for (std::size_t j = 0; j < width; ++j) {
                const float x = values[i * width + j];
                float t = (x - lows[j]) / (highs[j] - lows[j]);
                t = std::min(1.0f, std::max(0.0f, t));
                const long code =
                    std::lround(t * static_cast<float>(levels));
                ASSERT_EQ(static_cast<long>(reference[i * width + j]),
                          code)
                    << "levels " << levels << " row " << i << " col "
                    << j;
            }
        }
        for (Backend backend : supportedBackends()) {
            BackendGuard guard(backend);
            std::vector<std::uint8_t> out(width * count, 255);
            kernels::quantizeBatch(values.data(), width, count,
                                   lows.data(), highs.data(), levels,
                                   out.data());
            ASSERT_EQ(out, reference)
                << kernels::backendName(backend) << " levels "
                << levels;
        }
    }
}

TEST(KernelsEquality, LessEqualMaskEqualsScalar)
{
    Rng rng(0x6b65726e35ULL);
    const float threshold = 0.125f;
    for (std::size_t n : {std::size_t{1}, std::size_t{8},
                          std::size_t{31}, std::size_t{100}}) {
        std::vector<float> values(n);
        for (std::size_t i = 0; i < n; ++i) {
            // Exact-threshold hits must count as accelerated.
            values[i] = (i % 5 == 0)
                ? threshold
                : static_cast<float>(rng.uniform(-1.0, 1.0));
        }
        std::vector<std::uint8_t> reference(n, 255);
        std::size_t referenceOnes = 0;
        {
            BackendGuard guard(Backend::Scalar);
            referenceOnes = kernels::lessEqualMask(
                values.data(), n, threshold, reference.data());
        }
        std::size_t plainOnes = 0;
        for (std::size_t i = 0; i < n; ++i)
            plainOnes += values[i] <= threshold ? 1u : 0u;
        EXPECT_EQ(referenceOnes, plainOnes);

        for (Backend backend : supportedBackends()) {
            BackendGuard guard(backend);
            std::vector<std::uint8_t> out(n, 255);
            const std::size_t ones = kernels::lessEqualMask(
                values.data(), n, threshold, out.data());
            EXPECT_EQ(ones, referenceOnes)
                << kernels::backendName(backend) << " n " << n;
            ASSERT_EQ(out, reference)
                << kernels::backendName(backend) << " n " << n;
        }
    }
}

/** Forward an MLP under one backend; returns the output activations. */
Vec
forwardUnder(Backend backend, const mithra::npu::Mlp &net,
             const Vec &input)
{
    BackendGuard guard(backend);
    return net.forward(input);
}

TEST(KernelsMlp, ForwardBitwiseEqualAcrossBackends)
{
    Rng rng(0x6b65726e36ULL);
    const std::size_t shapes[][3] = {
        {1, 2, 1}, {9, 4, 2}, {18, 16, 2}, {33, 8, 5}, {64, 32, 8}};
    for (const auto &shape : shapes) {
        mithra::npu::Mlp net({shape[0], shape[1], shape[2]});
        mithra::npu::initWeights(net, 0x5eedULL + shape[0]);
        Vec input(shape[0]);
        for (auto &v : input)
            v = static_cast<float>(rng.uniform(0.0, 1.0));

        const Vec reference = forwardUnder(Backend::Scalar, net, input);
        for (Backend backend : supportedBackends()) {
            const Vec out = forwardUnder(backend, net, input);
            ASSERT_EQ(out.size(), reference.size());
            for (std::size_t i = 0; i < out.size(); ++i) {
                ASSERT_EQ(bitsOf(out[i]), bitsOf(reference[i]))
                    << kernels::backendName(backend) << " topology "
                    << shape[0] << "x" << shape[1] << "x" << shape[2];
            }
        }
    }
}

/** Train a small classifier-shaped MLP; returns all logical weights. */
std::vector<float>
trainUnder(Backend backend)
{
    BackendGuard guard(backend);
    mithra::npu::Mlp net({6, 8, 2});
    mithra::npu::initWeights(net, 0x7ea17ULL);

    Rng rng(0xda7aULL);
    mithra::VecBatch inputs, targets;
    for (std::size_t i = 0; i < 96; ++i) {
        Vec in(6);
        for (auto &v : in)
            v = static_cast<float>(rng.uniform(0.0, 1.0));
        const bool hot = in[0] + in[1] > 1.0f;
        inputs.push_back(std::move(in));
        targets.push_back(hot ? Vec{0.9f, 0.1f} : Vec{0.1f, 0.9f});
    }
    mithra::npu::TrainerOptions options;
    options.epochs = 12;
    options.batchSize = 16;
    options.seed = 0x5eedULL;
    mithra::npu::train(net, inputs, targets, options);

    std::vector<float> weights;
    for (std::size_t l = 1; l < net.topology().size(); ++l) {
        for (std::size_t o = 0; o < net.topology()[l]; ++o) {
            for (std::size_t f = 0; f <= net.topology()[l - 1]; ++f)
                weights.push_back(net.weight(l, o, f));
        }
    }
    return weights;
}

TEST(KernelsMlp, TrainingBitwiseEqualAcrossBackends)
{
    const std::vector<float> reference = trainUnder(Backend::Scalar);
    for (Backend backend : supportedBackends()) {
        const std::vector<float> weights = trainUnder(backend);
        ASSERT_EQ(weights.size(), reference.size());
        for (std::size_t i = 0; i < weights.size(); ++i) {
            ASSERT_EQ(bitsOf(weights[i]), bitsOf(reference[i]))
                << kernels::backendName(backend) << " weight " << i;
        }
    }
}

// tsan-labeled: the batch paths must stay bitwise identical at any
// MITHRA_THREADS width (the parallel substrate guarantees ordered
// reductions; the kernels must not break that by sharing state).
TEST(KernelsDeterminism, TrainingIdenticalAcrossThreadWidths)
{
    const std::size_t before = mithra::parallelThreadCount();
    mithra::setParallelThreadCount(1);
    const std::vector<float> reference =
        trainUnder(kernels::activeBackend());
    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        mithra::setParallelThreadCount(threads);
        const std::vector<float> weights =
            trainUnder(kernels::activeBackend());
        ASSERT_EQ(weights.size(), reference.size());
        for (std::size_t i = 0; i < weights.size(); ++i) {
            ASSERT_EQ(bitsOf(weights[i]), bitsOf(reference[i]))
                << "threads " << threads << " weight " << i;
        }
    }
    mithra::setParallelThreadCount(before);
}

TEST(KernelsDeterminism, QuantizerBatchMatchesScalarEntryPoint)
{
    Rng rng(0x6b65726e37ULL);
    mithra::VecBatch calibration;
    for (std::size_t i = 0; i < 32; ++i) {
        Vec v(5);
        for (auto &x : v)
            x = static_cast<float>(rng.uniform(-3.0, 3.0));
        calibration.push_back(std::move(v));
    }
    mithra::hw::InputQuantizer quantizer;
    quantizer.calibrate(calibration);

    const std::size_t count = 17;
    std::vector<float> flat(5 * count);
    for (auto &x : flat)
        x = static_cast<float>(rng.uniform(-4.0, 4.0));

    std::vector<std::uint8_t> batch(5 * count);
    quantizer.quantizeBatch(flat.data(), count, batch.data());
    for (std::size_t i = 0; i < count; ++i) {
        const Vec row(flat.begin() + static_cast<std::ptrdiff_t>(i * 5),
                      flat.begin()
                          + static_cast<std::ptrdiff_t>((i + 1) * 5));
        const auto codes = quantizer.quantize(row);
        for (std::size_t j = 0; j < 5; ++j)
            ASSERT_EQ(batch[i * 5 + j], codes[j]) << "row " << i;
    }
}

} // namespace
