/**
 * @file
 * Backend selection and the dispatched public entry points.
 *
 * The backend is chosen exactly once, on first kernel use: the most
 * capable instruction set the CPU reports, unless MITHRA_KERNELS names
 * one explicitly (fatal on an unknown name or an unsupported backend —
 * a silent fallback would invalidate any scalar-vs-SIMD comparison the
 * caller thought it was running). Tests and benches may re-point the
 * dispatch table afterwards through setActiveBackend() from a
 * quiescent point.
 */

#include "common/kernels/kernels.hh"

#include <atomic>
#include <cstring>

#include "common/contracts.hh"
#include "common/env_registry.hh"
#include "common/kernels/kernels_impl.hh"
#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace mithra::kernels
{

namespace
{

std::atomic<const detail::KernelOps *> activeOpsPointer{nullptr};
std::atomic<int> activeBackendValue{static_cast<int>(Backend::Scalar)};

/** The dispatch table of one (supported) backend. */
const detail::KernelOps &
opsFor(Backend backend)
{
#if defined(__x86_64__) || defined(__i386__)
    if (backend == Backend::Avx2)
        return detail::avx2Ops();
#endif
    (void)backend;
    return detail::scalarOps();
}

/** Parse a MITHRA_KERNELS value; fatal on an unknown name. */
Backend
parseBackendName(const char *name)
{
    if (std::strcmp(name, "scalar") == 0)
        return Backend::Scalar;
    if (std::strcmp(name, "avx2") == 0)
        return Backend::Avx2;
    fatal("MITHRA_KERNELS=", name,
          " is not a kernel backend (scalar|avx2)");
}

/** Pick the startup backend: MITHRA_KERNELS override or best. */
Backend
selectStartupBackend()
{
    const char *request = env::text("MITHRA_KERNELS");
    if (request == nullptr)
        return bestSupportedBackend();
    const Backend backend = parseBackendName(request);
    if (!backendSupported(backend)) {
        fatal("MITHRA_KERNELS=", request,
              " requested but this CPU does not support it");
    }
    return backend;
}

/** The active dispatch table, selecting a backend on first use. */
const detail::KernelOps &
activeOps()
{
    const detail::KernelOps *ops =
        activeOpsPointer.load(std::memory_order_acquire);
    if (ops != nullptr)
        return *ops;
    // Thread-safe one-time selection; concurrent first users block on
    // the magic static until the winner has published the table.
    static const bool selected = [] {
        setActiveBackend(selectStartupBackend());
        return true;
    }();
    (void)selected;
    return *activeOpsPointer.load(std::memory_order_acquire);
}

} // namespace

const char *
backendName(Backend backend)
{
    switch (backend) {
    case Backend::Scalar:
        return "scalar";
    case Backend::Avx2:
        return "avx2";
    }
    return "unknown";
}

bool
backendSupported(Backend backend)
{
    if (backend == Backend::Scalar)
        return true;
#if defined(__x86_64__) || defined(__i386__)
    if (backend == Backend::Avx2)
        return __builtin_cpu_supports("avx2") != 0;
#endif
    return false;
}

Backend
bestSupportedBackend()
{
    return backendSupported(Backend::Avx2) ? Backend::Avx2
                                           : Backend::Scalar;
}

Backend
activeBackend()
{
    activeOps(); // force first-use selection
    return static_cast<Backend>(
        activeBackendValue.load(std::memory_order_acquire));
}

void
setActiveBackend(Backend backend)
{
    if (!backendSupported(backend)) {
        fatal("kernel backend ", backendName(backend),
              " is not supported on this CPU");
    }
    activeBackendValue.store(static_cast<int>(backend),
                             std::memory_order_release);
    activeOpsPointer.store(&opsFor(backend),
                           std::memory_order_release);
    MITHRA_GAUGE_SET("kernels.backend", static_cast<int>(backend));
}

void
gemvBias(const float *weights, std::size_t stride, const float *bias,
         const float *input, std::size_t rows, float *out)
{
    MITHRA_EXPECTS(stride % 8 == 0, "gemv stride ", stride,
                   " is not lane-padded");
    MITHRA_EXPECTS(reinterpret_cast<std::uintptr_t>(weights)
                           % kernelAlignment
                       == 0,
                   "gemv weights are not 32-byte aligned");
    MITHRA_EXPECTS(reinterpret_cast<std::uintptr_t>(input)
                           % kernelAlignment
                       == 0,
                   "gemv input is not 32-byte aligned");
    // No per-call telemetry: this is the innermost MAC loop. Callers
    // account MACs/bytes at batch granularity.
    activeOps().gemvBias(weights, stride, bias, input, rows, out);
}

void
axpy(float a, const float *x, float *y, std::size_t n)
{
    activeOps().axpy(a, x, y, n);
}

void
addInPlace(float *y, const float *x, std::size_t n)
{
    activeOps().addInPlace(y, x, n);
}

void
sgdMomentumStep(float momentum, float scale, const float *grad,
                float *velocity, float *weights, std::size_t n)
{
    activeOps().sgdMomentumStep(momentum, scale, grad, velocity,
                                weights, n);
}

void
misrHashBatch(const MisrParams &params, const std::uint8_t *codes,
              std::size_t width, std::size_t count, std::uint32_t *out)
{
    MITHRA_EXPECTS(params.bits > 0 && params.bits <= 24,
                   "MISR width ", params.bits, " out of range");
    MITHRA_COUNT("kernels.misr.rows", count);
    MITHRA_COUNT("kernels.misr.bytes", width * count);
    activeOps().misrHashBatch(params, codes, width, count, out);
}

void
quantizeBatch(const float *inputs, std::size_t width, std::size_t count,
              const float *lows, const float *highs,
              std::uint32_t levels, std::uint8_t *out)
{
    MITHRA_EXPECTS(levels > 0 && levels <= 255, "quantizer levels ",
                   levels, " out of range");
    MITHRA_COUNT("kernels.quantize.elems", width * count);
    activeOps().quantizeBatch(inputs, width, count, lows, highs,
                              levels, out);
}

std::size_t
lessEqualMask(const float *values, std::size_t n, float threshold,
              std::uint8_t *out)
{
    MITHRA_COUNT("kernels.mask.elems", n);
    return activeOps().lessEqualMask(values, n, threshold, out);
}

} // namespace mithra::kernels
