/**
 * @file
 * Portable SIMD batch kernels for the MITHRA hot loops.
 *
 * Three inner loops dominate the software runtime of every experiment:
 * the sigmoid-MLP forward/backward MACs (paper §IV-B), the MISR
 * signature hash over each invocation's quantized input codes
 * (§IV-A.1), and the input quantizer itself. This layer provides
 * batched primitives for all three with runtime-dispatched
 * implementations: a scalar reference and AVX2. Intrinsics are
 * confined to kernels_avx2.cc (the no-intrinsics lint rule of
 * mithra-analyze enforces the containment to this directory);
 * everything above calls the dispatched entry points below.
 *
 * Determinism contract (the reason this file exists instead of
 * `-O3 -ffast-math`):
 *
 *  - Every backend is **bitwise identical**. The floating-point MAC
 *    reduction order is part of the kernel specification, not an
 *    implementation detail: a dot product is defined as a fixed
 *    8-lane strided sum
 *
 *        lane[k] += w[j + k] * x[j + k]      k = 0..7, j += 8
 *
 *    followed by the canonical tree
 *
 *        m[k] = lane[k] + lane[k + 4]        k = 0..3
 *        dot  = (m[0] + m[2]) + (m[1] + m[3])
 *
 *    The scalar reference implements exactly this order (compiled with
 *    -ffp-contract=off so no FMA contraction sneaks in) and AVX2
 *    holds the eight lanes in one 8-wide register — both produce the
 *    same bit pattern for every input. Operands are multiplied then
 *    added; FMA is never used, at any -march.
 *  - Integer kernels (the batch MISR) are exactly the sequential
 *    register sequence of hw::Misr, lane-parallel across invocations.
 *  - Element-wise kernels (axpy, saxpby-style updates, quantization,
 *    threshold compares) have no cross-element reduction, so any lane
 *    width is bitwise identical by construction.
 *
 * The backend is selected once at startup: the best instruction set
 * the CPU supports, overridable with MITHRA_KERNELS=scalar|avx2.
 * Benchmarks and tests may switch explicitly via setActiveBackend().
 *
 * Buffers fed to the GEMV kernels use the padded SoA layout: row
 * strides rounded up to 8 floats (32 bytes), rows 32-byte aligned,
 * padding lanes zero-filled (AlignedVec value-initializes). Padding
 * contributes +0.0f products to the lane sums, which leaves every
 * accumulation bit-exact.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace mithra::kernels
{

/**
 * Kernel instruction-set backends, in ascending preference order. The
 * values are stable: the kernels.backend gauge reports them, and
 * readers of /metrics map them back to names.
 */
enum class Backend
{
    Scalar = 0,
    Avx2 = 2,
};

/** Stable lowercase name ("scalar", "avx2"). */
const char *backendName(Backend backend);

/** True when the running CPU can execute `backend`. */
bool backendSupported(Backend backend);

/** The most capable backend the running CPU supports. */
Backend bestSupportedBackend();

/**
 * The backend every dispatched kernel currently runs. Selected once on
 * first use: bestSupportedBackend(), unless MITHRA_KERNELS names a
 * specific backend (fatal when the name is unknown or the CPU cannot
 * run it). The choice is recorded through telemetry as the
 * kernels.backend gauge.
 */
Backend activeBackend();

/**
 * Override the dispatched backend (tests and the scalar-vs-SIMD
 * micro benches). Not thread safe against concurrently running
 * kernels; call only from a quiescent point.
 */
void setActiveBackend(Backend backend);

/** Round a row width up to the 8-float lane granularity. */
constexpr std::size_t
paddedSize(std::size_t n)
{
    return (n + 7) / 8 * 8;
}

/** Byte alignment of every kernel-visible float row. */
inline constexpr std::size_t kernelAlignment = 32;

/**
 * Minimal 32-byte-aligning allocator so the padded SoA buffers can
 * stay ordinary std::vectors (value-initialized — padding lanes start
 * at +0.0f and the kernels never write them).
 */
template <typename T> struct AlignedAllocator
{
    using value_type = T;

    AlignedAllocator() = default;
    template <typename U> AlignedAllocator(const AlignedAllocator<U> &)
    {
    }

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{kernelAlignment}));
    }

    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t{kernelAlignment});
    }

    template <typename U>
    bool operator==(const AlignedAllocator<U> &) const
    {
        return true;
    }
};

/** A 32-byte-aligned float buffer (the padded SoA row storage). */
using AlignedVec = std::vector<float, AlignedAllocator<float>>;

/**
 * Dense GEMV with bias over the padded SoA layout:
 *
 *     out[r] = dot8(weights + r * stride, input) + bias[r]
 *
 * for r in [0, rows), where dot8 is the canonical 8-lane reduction
 * described in the file header. `stride` must be a multiple of 8;
 * `weights` and `input` must be 32-byte aligned with zero-filled
 * padding lanes. `out` receives exactly `rows` floats (no padding is
 * written). The activation (sigmoid) deliberately stays with the
 * caller: it is scalar std::exp in every path.
 */
void gemvBias(const float *weights, std::size_t stride, const float *bias,
              const float *input, std::size_t rows, float *out);

/** y[i] += a * x[i]. Element-wise; no alignment requirement. */
void axpy(float a, const float *x, float *y, std::size_t n);

/** y[i] += x[i]. Element-wise; no alignment requirement. */
void addInPlace(float *y, const float *x, std::size_t n);

/**
 * Momentum SGD step over one flat parameter array:
 *
 *     velocity[i] = momentum * velocity[i] - scale * grad[i]
 *     weights[i] += velocity[i]
 *
 * Element-wise; no alignment requirement.
 */
void sgdMomentumStep(float momentum, float scale, const float *grad,
                     float *velocity, float *weights, std::size_t n);

/**
 * One MISR wiring flattened for the kernel layer (hw::Misr::params()
 * produces it — hw depends on kernels, not the other way around).
 */
struct MisrParams
{
    std::uint32_t taps = 0;
    std::uint32_t spread = 0;
    std::uint32_t seed = 0;
    std::uint32_t mask = 0;
    std::uint32_t rotate = 0;
    std::uint32_t bits = 0;
};

/**
 * Batch MISR hash: `count` invocations of `width` codes each, stored
 * row-major in one flat buffer. out[i] receives exactly the value
 * sequential hashing produces (hw::Misr::hash of row i). Pure integer;
 * SIMD backends advance one register lane per invocation.
 */
void misrHashBatch(const MisrParams &params, const std::uint8_t *codes,
                   std::size_t width, std::size_t count,
                   std::uint32_t *out);

/**
 * Batch linear quantization: `count` rows of `width` floats, row-major.
 * Per element with the per-column ranges:
 *
 *     t = clamp((x - lo) / (hi - lo), 0, 1)
 *     code = floor(t * levels + 0.5f)
 *
 * The floor(+0.5) rounding is the canonical spec (identical to
 * round-half-up, and directly expressible as a SIMD floor). Requires
 * hi > lo per column; levels = 2^bits - 1 <= 255.
 */
void quantizeBatch(const float *inputs, std::size_t width,
                   std::size_t count, const float *lows,
                   const float *highs, std::uint32_t levels,
                   std::uint8_t *out);

/**
 * Threshold compare: out[i] = (values[i] <= threshold) ? 1 : 0.
 * Returns the number of ones. The pipeline's instrumented-run loops
 * (Algorithm 1 step 2) burn most of the threshold search here.
 */
std::size_t lessEqualMask(const float *values, std::size_t n,
                          float threshold, std::uint8_t *out);

} // namespace mithra::kernels
