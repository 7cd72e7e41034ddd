/**
 * @file
 * Internal backend plumbing for src/common/kernels.
 *
 * Each backend translation unit (kernels_scalar.cc, kernels_avx2.cc)
 * fills one KernelOps table; kernels.cc selects one table at startup
 * and the public entry points indirect through it.
 * The inline helpers here are the *specification* implementations the
 * SIMD backends reuse for row tails — plain C++, no intrinsics (the
 * intrinsics-containment lint rule also covers this header).
 */

#pragma once

#include <cmath>

#include "common/kernels/kernels.hh"

namespace mithra::kernels::detail
{

/** Function-pointer table one backend fills. */
struct KernelOps
{
    void (*gemvBias)(const float *weights, std::size_t stride,
                     const float *bias, const float *input,
                     std::size_t rows, float *out) = nullptr;
    void (*axpy)(float a, const float *x, float *y, std::size_t n)
        = nullptr;
    void (*addInPlace)(float *y, const float *x, std::size_t n) = nullptr;
    void (*sgdMomentumStep)(float momentum, float scale,
                            const float *grad, float *velocity,
                            float *weights, std::size_t n) = nullptr;
    void (*misrHashBatch)(const MisrParams &params,
                          const std::uint8_t *codes, std::size_t width,
                          std::size_t count, std::uint32_t *out)
        = nullptr;
    void (*quantizeBatch)(const float *inputs, std::size_t width,
                          std::size_t count, const float *lows,
                          const float *highs, std::uint32_t levels,
                          std::uint8_t *out) = nullptr;
    std::size_t (*lessEqualMask)(const float *values, std::size_t n,
                                 float threshold, std::uint8_t *out)
        = nullptr;
};

/** The reference backend (always available). */
const KernelOps &scalarOps();

#if defined(__x86_64__) || defined(__i386__)
/** AVX2 backend (compiled only on x86). */
const KernelOps &avx2Ops();
#endif

/**
 * The canonical 8-lane strided dot product (see kernels.hh). Shared by
 * the scalar backend and by assertions/tests; the SIMD backends must
 * match it bit for bit.
 */
inline float
dot8Reference(const float *w, const float *x, std::size_t stride)
{
    float lane[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
    for (std::size_t j = 0; j < stride; j += 8) {
        for (std::size_t k = 0; k < 8; ++k)
            lane[k] += w[j + k] * x[j + k];
    }
    const float m0 = lane[0] + lane[4];
    const float m1 = lane[1] + lane[5];
    const float m2 = lane[2] + lane[6];
    const float m3 = lane[3] + lane[7];
    return (m0 + m2) + (m1 + m3);
}

/**
 * One sequential MISR register step — the exact hw::Misr::stepState
 * sequence. SIMD backends replicate this per lane and reuse it for
 * batch tails.
 */
inline std::uint32_t
misrStep(const MisrParams &p, std::uint32_t current, std::uint8_t code)
{
    std::uint32_t parity = current & p.taps;
    parity ^= parity >> 16;
    parity ^= parity >> 8;
    parity ^= parity >> 4;
    parity ^= parity >> 2;
    parity ^= parity >> 1;
    const std::uint32_t feedback = parity & 1u;

    const std::uint32_t r = p.rotate % p.bits;
    current = ((current << r) | (current >> (p.bits - r))) & p.mask;
    current ^= feedback;

    const std::uint32_t spreadCode =
        (static_cast<std::uint32_t>(code) * p.spread) & p.mask;
    return current ^ spreadCode;
}

/** Sequential hash of one row (the batch-tail / reference path). */
inline std::uint32_t
misrHashOne(const MisrParams &p, const std::uint8_t *codes,
            std::size_t width)
{
    std::uint32_t state = p.seed & p.mask;
    for (std::size_t j = 0; j < width; ++j)
        state = misrStep(p, state, codes[j]);
    return state;
}

/** Reference quantization of one element (the canonical rounding). */
inline std::uint8_t
quantizeOne(float x, float lo, float hi, float levels)
{
    float t = (x - lo) / (hi - lo);
    t = t < 0.0f ? 0.0f : t;
    t = t > 1.0f ? 1.0f : t;
    return static_cast<std::uint8_t>(std::floor(t * levels + 0.5f));
}

} // namespace mithra::kernels::detail
