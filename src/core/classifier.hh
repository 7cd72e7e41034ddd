/**
 * @file
 * The MITHRA classifier interface (paper §II-B, §IV).
 *
 * A classifier maps one accelerator input vector to a binary decision:
 * invoke the accelerator, or branch back to the precise function. It
 * also reports the per-invocation cycle/energy overheads it adds to
 * the system and the configuration state that must be encoded in the
 * binary (and saved/restored on context switches).
 */

#pragma once

#include <cstdint>
#include <string>

#include "axbench/benchmark.hh"
#include "common/rng.hh"
#include "common/vec.hh"
#include "sim/system_sim.hh"

namespace mithra::core
{

/** Abstract quality-control classifier. */
class Classifier
{
  public:
    virtual ~Classifier() = default;

    /** Short kind name: "oracle", "table", "neural", "random". */
    virtual std::string kind() const = 0;

    /**
     * Called before iterating one dataset's invocations. The oracle
     * uses the trace to look up true accelerator errors; stateful
     * designs may reset here. A served `/invoke` batch passes a
     * zero-row trace: served designs decide from the inputs alone.
     */
    virtual void beginDataset(const axbench::InvocationTrace &trace);

    /**
     * Decide one invocation.
     *
     * @param input accelerator input vector (what the FIFO carries)
     * @param invocationIndex position within the current dataset
     * @return true when the precise function must run
     */
    virtual bool decidePrecise(const Vec &input,
                               std::size_t invocationIndex) = 0;

    /**
     * Decide `count` consecutive invocations whose inputs are stored
     * row-major in one flat buffer of `width` floats each, starting at
     * dataset position `beginIndex`: out[i] = 1 when invocation
     * beginIndex + i must run precise. Exactly equal to calling
     * decidePrecise() per row in ascending index order (the default
     * does just that); batch-capable designs override it with
     * vectorized kernels.
     *
     * Sharded-runtime contract: between beginDataset() and the next
     * observe(), decisions must be a pure function of (input, index) —
     * the sharded evaluator batches disjoint index ranges from
     * concurrent shards, so a classifier whose decision stream depends
     * on call order (a shared mutating RNG, say) would lose the
     * bitwise-reproducibility guarantee. Pseudo-random designs derive
     * per-decision draws from indexedBernoulli (common/rng.hh)
     * instead, exactly like the watchdog's audit schedule.
     */
    virtual void decideBatch(const float *inputs, std::size_t width,
                             std::size_t count, std::size_t beginIndex,
                             std::uint8_t *out);

    /**
     * Online feedback: the runtime sporadically samples the true
     * accelerator error (running both paths) and reports it here
     * (paper §IV-C.1). Default: ignore.
     */
    virtual void observe(const Vec &input, float actualError);

    /** Per-invocation overheads for the system simulator. */
    virtual sim::ClassifierCost cost() const = 0;

    /** Configuration bytes encoded in the binary. */
    virtual std::size_t configSizeBytes() const = 0;

    /**
     * Fail closed: when the compiler cannot certify the quality
     * contract even with maximally conservative training, it refuses
     * to deploy approximation at all — every decision becomes
     * "precise" (the special branch is always taken).
     */
    void disableApproximation() { approximationDisabled = true; }

    /** True when the compiler refused to deploy approximation. */
    bool approximationEnabled() const { return !approximationDisabled; }

  protected:
    bool approximationDisabled = false;
};

/**
 * The infeasible gold standard: for every invocation it knows the true
 * accelerator error and filters exactly those above the threshold
 * (paper §V-B.1). Adds no overhead.
 */
class OracleClassifier final : public Classifier
{
  public:
    explicit OracleClassifier(float threshold);

    std::string kind() const override { return "oracle"; }
    void beginDataset(const axbench::InvocationTrace &trace) override;
    bool decidePrecise(const Vec &input,
                       std::size_t invocationIndex) override;
    void decideBatch(const float *inputs, std::size_t width,
                     std::size_t count, std::size_t beginIndex,
                     std::uint8_t *out) override;
    sim::ClassifierCost cost() const override;
    std::size_t configSizeBytes() const override { return 0; }

    float threshold() const { return errorThreshold; }

  private:
    float errorThreshold;
    const axbench::InvocationTrace *currentTrace = nullptr;
};

/**
 * Input-oblivious baseline: routes a fixed fraction of invocations to
 * the precise function at random (paper §V-B.1, "comparison with
 * random filtering").
 *
 * The draw is counter-based — a pure function of (seed, dataset
 * ordinal, invocation index) through indexedBernoulli — so the
 * decision stream honours the sharded-runtime contract: any index
 * partition at any thread count reproduces the same decisions.
 */
class RandomFilterClassifier final : public Classifier
{
  public:
    /**
     * @param preciseFraction fraction of invocations run precisely
     * @param seed            deterministic stream seed
     */
    RandomFilterClassifier(double preciseFraction, std::uint64_t seed);

    std::string kind() const override { return "random"; }
    void beginDataset(const axbench::InvocationTrace &trace) override;
    bool decidePrecise(const Vec &input,
                       std::size_t invocationIndex) override;
    void decideBatch(const float *inputs, std::size_t width,
                     std::size_t count, std::size_t beginIndex,
                     std::uint8_t *out) override;
    sim::ClassifierCost cost() const override;
    std::size_t configSizeBytes() const override { return 8; }

  private:
    double fraction;
    std::uint64_t baseSeed;
    /** Per-dataset schedule seed (advanced by beginDataset). */
    std::uint64_t datasetSeed;
    std::uint64_t datasetOrdinal = 0;
};

} // namespace mithra::core

