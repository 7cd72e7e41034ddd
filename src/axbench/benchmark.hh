/**
 * @file
 * The AxBench-style benchmark interface.
 *
 * Each benchmark exposes its safe-to-approximate function as a stream
 * of accelerator invocations. The key structure is the
 * InvocationTrace: for one dataset it caches every invocation's input
 * vector, the precise output vector, and (once an accelerator is
 * attached) the approximate output vector. The statistical optimizer
 * can then re-evaluate the final output quality for any error
 * threshold by *recomposing* the application output from the cached
 * per-invocation outputs — without re-running the kernels.
 */

#pragma once

#include <memory>
#include <span>
#include <string>

#include "axbench/accelerator.hh"
#include "axbench/quality.hh"
#include "common/vec.hh"
#include "npu/approximator.hh"
#include "npu/mlp.hh"
#include "npu/trainer.hh"
#include "sim/opcount.hh"

namespace mithra::axbench
{

/** Opaque per-benchmark dataset; concrete types live in each .cc. */
class Dataset
{
  public:
    virtual ~Dataset() = default;
};

/** Cached invocation stream of one dataset (flat storage). */
class InvocationTrace
{
  public:
    InvocationTrace(std::size_t inputWidth, std::size_t outputWidth);

    std::size_t count() const { return numInvocations; }
    std::size_t inputWidth() const { return inWidth; }
    std::size_t outputWidth() const { return outWidth; }

    /**
     * Process-unique identity of this trace. Benchmarks with expensive
     * recompose steps (jpeg's inverse DCT) key internal caches on it;
     * unlike the object address it is never reused.
     */
    std::uint64_t id() const { return uniqueId; }

    /** Append one invocation (precise output known, approx later). */
    void append(const Vec &input, const Vec &preciseOut);

    /** Fill approximate outputs by invoking the accelerator. */
    void attachApproximations(const npu::Approximator &accel);

    /** Same, for a custom accelerator backend (plugin workloads). */
    void attachApproximations(const Accelerator &accel);

    /**
     * Append one invocation with a known approximate output (tools and
     * tests that construct traces without an accelerator).
     */
    void appendWithApprox(const Vec &input, const Vec &preciseOut,
                          const Vec &approxOut);

    /** True once attachApproximations() has run. */
    bool hasApproximations() const { return approximated; }

    std::span<const float> input(std::size_t i) const;
    std::span<const float> preciseOutput(std::size_t i) const;
    std::span<const float> approxOutput(std::size_t i) const;

    /** Copy of one input as a Vec (for classifier APIs). */
    Vec inputVec(std::size_t i) const;

    /**
     * The whole input stream as one flat row-major buffer of
     * count() * inputWidth() floats (for batch classifier APIs).
     */
    std::span<const float> inputsFlat() const { return inputs; }

    /**
     * Largest |precise - approx| across the output vector of
     * invocation i — the accelerator's local error (paper Eq. 1).
     * Precomputed when the approximations attach, so an audit in the
     * runtime decision loop reads it instead of running both paths.
     */
    float maxAbsError(std::size_t i) const;

  private:
    float computeError(std::size_t i) const;

    template <typename Invoke>
    void attachWith(Invoke &&invoke);

    std::size_t inWidth;
    std::size_t outWidth;
    std::uint64_t uniqueId;
    std::size_t numInvocations = 0;
    bool approximated = false;
    std::vector<float> inputs;
    std::vector<float> preciseOuts;
    std::vector<float> approxOuts;
    /** localErrors[i] = max-abs error of invocation i (cached). */
    std::vector<float> localErrors;
};

/** Measured cost profile of one benchmark (op-count driven). */
struct BenchmarkCosts
{
    /** Mean dynamic ops of one precise target-function invocation. */
    sim::OpCounts targetOpsPerInvocation;
    /** Dynamic ops of the non-target region per dataset. */
    sim::OpCounts otherOpsPerDataset;
};

/** Abstract AxBench benchmark. */
class Benchmark
{
  public:
    virtual ~Benchmark() = default;

    /** Short name, e.g. "blackscholes". */
    virtual std::string name() const = 0;

    /** Application domain as listed in Table I. */
    virtual std::string domain() const = 0;

    /** Quality metric used for final outputs. */
    virtual QualityMetric metric() const = 0;

    /**
     * Final quality loss of `candidate` against `reference`, percent
     * (larger is worse, 0 = identical). The default delegates to the
     * free qualityLoss() over metric(); benchmarks with
     * QualityMetric::Custom must override (plugin workloads route
     * this to their C quality_loss hook). Every consumer of final
     * quality — threshold optimizer, calibration, runtime evaluator —
     * scores through this seam.
     */
    virtual double qualityLoss(const FinalOutput &reference,
                               const FinalOutput &candidate) const;

    /**
     * Human-readable metric label for tables and reports. Defaults to
     * metricName(metric()); custom-metric benchmarks override it with
     * their own label.
     */
    virtual std::string metricLabel() const;

    /** NPU topology from Table I, e.g. {6, 8, 3, 1}. */
    virtual npu::Topology npuTopology() const = 0;

    /**
     * Training hyper-parameters for the NPU. Tuned per benchmark so
     * the full-approximation error lands in the paper's 6%-18% band.
     */
    virtual npu::TrainerOptions npuTrainerOptions() const;

    /**
     * Quantizer code width for the table-based classifier — a
     * compile-time decision (paper §IV-A.1: the MISR configuration is
     * decided at compile time per application). Workloads with
     * clustered inputs want fine codes (clusters map to few distinct
     * patterns); diffuse workloads want coarse codes so similar
     * inputs share table entries. 0 defers to the width-based policy.
     */
    virtual unsigned tableQuantizerBits() const { return 0; }

    /** Create one dataset deterministically from a seed. */
    virtual std::unique_ptr<Dataset> makeDataset(
        std::uint64_t seed) const = 0;

    /**
     * Run the application once, recording every target-function
     * invocation (inputs + precise outputs) in order.
     */
    virtual InvocationTrace trace(const Dataset &dataset) const = 0;

    /**
     * Rebuild the final application output, taking invocation i's
     * output from the trace's approx outputs when useAccel[i] != 0 and
     * from the precise outputs otherwise.
     */
    virtual FinalOutput recompose(
        const Dataset &dataset, const InvocationTrace &trace,
        const std::vector<std::uint8_t> &useAccel) const = 0;

    /**
     * Evaluate the safe-to-approximate target function on one raw
     * input vector — the same kernel trace() invokes, exposed point-
     * wise. Lets harnesses obtain ground truth for inputs that never
     * appeared in any dataset: the drift injector shifts cached
     * inputs off the compile-time distribution and needs fresh
     * precise outputs for them.
     */
    virtual Vec targetFunction(const Vec &input) const = 0;

    /** Convenience: the all-precise final output. */
    FinalOutput preciseOutput(const Dataset &dataset,
                              const InvocationTrace &trace) const;

    /** Convenience: the all-approximate final output. */
    FinalOutput approxOutput(const Dataset &dataset,
                             const InvocationTrace &trace) const;

    /**
     * Measure the benchmark's cost profile by running instrumented
     * kernels (sim::Counted) over a representative dataset.
     */
    virtual BenchmarkCosts measureCosts() const = 0;

    /**
     * Custom accelerator backend, or nullptr for the built-in NPU
     * (the default). When non-null the pipeline trains and costs the
     * returned accelerator instead of the NPU, and the runtime
     * invokes it for every accelerated invocation.
     */
    virtual std::unique_ptr<Accelerator> makeAccelerator() const;
};

/** Seed layout: compile datasets and validation datasets never overlap. */
std::uint64_t compileSeed(const std::string &benchmark, std::size_t index);
std::uint64_t validationSeed(const std::string &benchmark,
                             std::size_t index);

} // namespace mithra::axbench

