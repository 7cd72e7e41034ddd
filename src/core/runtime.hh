/**
 * @file
 * The MITHRA runtime (paper Figure 2, right half) and the evaluation
 * harness that measures a classifier on unseen validation datasets.
 *
 * Per invocation the runtime feeds the accelerator inputs to the
 * classifier (they stream into both the classifier and the NPU FIFOs),
 * takes the special branch to the precise function when the classifier
 * says so, and sporadically samples the true accelerator error to
 * update table-based designs online.
 *
 * The evaluator reports everything the paper's figures need: final
 * quality loss per dataset with Clopper–Pearson bounds, accelerator
 * invocation rate, speedup / energy reduction / EDP against the
 * precise baseline, and false positives/negatives against the oracle.
 *
 * The decision loop itself is sharded and batch-first (core/shard.hh):
 * each dataset's invocation stream splits into a fixed number of
 * deterministic contiguous shards; the shards decide via
 * Classifier::decideBatch() and run concurrently. Evaluation runs
 * without the runtime watchdog, as the paper's figures do, so the
 * result is bitwise identical at any thread count. The oracle
 * false-decision counts are evaluation-only work: the evaluator
 * derives them from the final routing, outside the decision engine.
 * See DESIGN.md §12 for the determinism contract.
 */

#pragma once

#include <memory>
#include <vector>

#include "core/classifier.hh"
#include "core/pipeline.hh"

namespace mithra::core
{

/** One unseen dataset prepared for evaluation. */
struct ValidationEntry
{
    std::unique_ptr<axbench::Dataset> dataset;
    std::unique_ptr<axbench::InvocationTrace> trace;
    axbench::FinalOutput preciseFinal;
};

/** The unseen validation suite for one workload. */
struct ValidationSet
{
    std::vector<ValidationEntry> entries;

    std::size_t totalInvocations() const;
};

/**
 * Generate `count` unseen datasets (disjoint seed space from the
 * compile sets), trace them and attach the accelerator outputs.
 * count == 0 uses the paper's 250 (scaled).
 */
ValidationSet makeValidationSet(const CompiledWorkload &workload,
                                std::size_t count = 0);

/**
 * Trace `count` externally supplied row-major input rows of `width`
 * (the accelerator FIFO width) floats: precise outputs from the
 * benchmark's pointwise target function, then the trained
 * accelerator's approximations. The reference for a served batch,
 * whose `/invoke` computes outputs only for audited rows.
 * Deterministic: a pure function of (workload, rows) at any threads.
 */
axbench::InvocationTrace traceFromInputs(const CompiledWorkload &workload,
                                         const float *rows,
                                         std::size_t width,
                                         std::size_t count);

/** Everything measured for one (classifier, quality spec) pair. */
struct DesignEvaluation
{
    std::string kind;
    /** Mean final quality loss over the validation sets (percent). */
    double meanQualityLoss = 0.0;
    /** 99th-percentile quality loss (tail behaviour). */
    double p99QualityLoss = 0.0;
    /** Datasets within the quality target. */
    std::size_t successes = 0;
    std::size_t trials = 0;
    /** Clopper–Pearson lower bound at the spec's confidence. */
    double successLowerBound = 0.0;
    /** Fraction of invocations delegated to the accelerator. */
    double invocationRate = 0.0;
    /** Geometric aggregates versus the precise baseline. */
    double speedup = 1.0;
    double energyReduction = 1.0;
    double edpImprovement = 1.0;
    /** False decisions versus the oracle (fractions of invocations). */
    double falsePositiveRate = 0.0;
    double falseNegativeRate = 0.0;
    /** Raw totals (summed over the validation sets). */
    sim::RunTotals totals{};
    sim::RunTotals baselineTotals{};
};

/** Measures classifiers over a validation set. */
class Evaluator
{
  public:
    /**
     * @param workload  the compiled workload (profile, accel, costs)
     * @param spec      the quality contract being validated
     * @param threshold the tuned knob (defines the oracle's decisions)
     */
    Evaluator(const CompiledWorkload &workload, const QualitySpec &spec,
              double threshold);

    /** Run one classifier over the validation set. */
    DesignEvaluation evaluate(Classifier &classifier,
                              const ValidationSet &validation) const;

    /** Shortcut: evaluate the oracle at the tuned threshold. */
    DesignEvaluation evaluateOracle(const ValidationSet &validation) const;

    /**
     * Shortcut: evaluate random filtering that runs the same fraction
     * of invocations precisely as the given design did.
     */
    DesignEvaluation evaluateRandom(const ValidationSet &validation,
                                    double preciseFraction) const;

    /** The always-approximate design (no quality control). */
    DesignEvaluation evaluateFullApprox(
        const ValidationSet &validation) const;

  private:
    const CompiledWorkload &workload;
    QualitySpec spec;
    double threshold;
    sim::SystemSimulator systemSim;
};

} // namespace mithra::core

