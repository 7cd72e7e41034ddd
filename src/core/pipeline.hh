/**
 * @file
 * The MITHRA compile pipeline (paper Figure 2, left half).
 *
 * For one benchmark the pipeline:
 *   1. generates the representative compile datasets,
 *   2. trains the NPU (the approximate accelerator's MLP) to mimic
 *      the safe-to-approximate function,
 *   3. collects invocation traces and attaches the accelerator's
 *      outputs,
 *   4. profiles cycle/energy costs into a sim::RegionProfile,
 * producing a CompiledWorkload that the threshold optimizer and the
 * classifier trainers consume.
 */

#pragma once

#include <memory>
#include <string>

#include "axbench/benchmark.hh"
#include "core/neural_classifier.hh"
#include "core/table_classifier.hh"
#include "core/threshold_optimizer.hh"
#include "core/training_data.hh"
#include "npu/approximator.hh"
#include "npu/cost_model.hh"
#include "sim/system_sim.hh"

namespace mithra::core
{

/** Everything the compiler derived for one benchmark. */
struct CompiledWorkload
{
    std::unique_ptr<axbench::Benchmark> benchmark;
    /** The trained approximate accelerator (host NPU path). */
    npu::Approximator accel;
    /**
     * Non-null when the benchmark brings its own accelerator (plugin
     * backends, `axbench::Benchmark::makeAccelerator()`); it then
     * replaces the NPU for training, invocation, and cost modeling.
     */
    std::unique_ptr<axbench::Accelerator> backend;

    /** Attach whichever accelerator this workload trained. */
    void attachApproximations(axbench::InvocationTrace &trace) const
    {
        if (backend)
            trace.attachApproximations(*backend);
        else
            trace.attachApproximations(accel);
    }
    /** The local error (paper Eq. 1) of one input row of `width`
     *  floats, bitwise what a trace of it caches. Reentrant. */
    float auditError(const float *row, std::size_t width) const;
    /** Representative compile datasets and their traces. */
    std::vector<std::unique_ptr<axbench::Dataset>> compileDatasets;
    std::vector<std::unique_ptr<axbench::InvocationTrace>> compileTraces;
    /** Prepared threshold problem over the compile sets. */
    ThresholdProblem problem;
    /** Measured op counts. */
    axbench::BenchmarkCosts costs;
    /** Modeled per-invocation / per-dataset costs. */
    sim::RegionProfile profile;
    /** Mean final quality loss with 100% accelerator invocation. */
    double fullApproxLossMean = 0.0;
    /** Final training MSE of the NPU (normalized units). */
    double npuTrainMse = 0.0;
    /** Model parameters the profile was built with (evaluator reuse). */
    sim::CoreParams coreParams{};
    sim::SystemParams systemParams{};
};

/** Global pipeline knobs. */
struct PipelineOptions
{
    /** Representative datasets (paper: 250). 0 = paper default. */
    std::size_t compileDatasetCount = 0;
    /** Samples drawn from the traces to train the NPU. */
    std::size_t npuTrainSamples = 12000;
    /**
     * Tuples sampled for classifier training. The paper's trainer
     * *samples* the accelerator error sporadically rather than
     * labeling every invocation; cells that only rarely err escape
     * marking, which is what keeps the table design's false positives
     * (and the small false-negative rate) at the paper's levels.
     */
    std::size_t classifierTuples = 250000;
    /**
     * Closed-loop classifier calibration (paper Figure 2's feedback
     * from training to the knob): real classifiers miss some
     * large-error inputs they never saw (false negatives), which can
     * push unseen-dataset quality past the certified bound. After
     * training, the compiler re-runs the success measurement with the
     * *actual* classifier decisions on the compile sets and tightens
     * the labeling threshold until the Clopper–Pearson bound holds
     * end to end.
     */
    std::size_t maxCalibrationRounds = 5;
    /** Label-threshold tightening factor per calibration round. */
    double labelTighten = 0.6;
    sim::CoreParams coreParams{};
    npu::NpuParams npuParams{};
    sim::SystemParams systemParams{};
    std::uint64_t seed = 0x5eed;
};

/** Classifier bundle for one quality contract. */
struct QualityPackage
{
    QualitySpec spec;
    ThresholdResult threshold;
    /** Label thresholds after closed-loop calibration (<= tuned th). */
    double tableLabelThreshold = 0.0;
    double neuralLabelThreshold = 0.0;
    std::unique_ptr<TableClassifier> table;
    std::unique_ptr<NeuralClassifier> neural;
};

/** A calibrated classifier plus the labels it was trained against. */
template <typename ClassifierType>
struct CalibratedClassifier
{
    std::unique_ptr<ClassifierType> classifier;
    double labelThreshold = 0.0;
};

/** The compiler driver. */
class Pipeline
{
  public:
    explicit Pipeline(const PipelineOptions &options = PipelineOptions{});

    /** Run steps 1-4 above for one benchmark. */
    CompiledWorkload compile(const std::string &benchmarkName) const;

    /** Tune the knob and train both classifiers for a contract. */
    QualityPackage tune(const CompiledWorkload &workload,
                        const QualitySpec &spec,
                        const TableClassifierOptions &tableOptions =
                            TableClassifierOptions{},
                        const NeuralClassifierOptions &neuralOptions =
                            NeuralClassifierOptions{}) const;

    /** Calibrate just the table design against a tuned threshold. */
    CalibratedClassifier<TableClassifier> tuneTable(
        const CompiledWorkload &workload, const QualitySpec &spec,
        const ThresholdResult &threshold,
        const TableClassifierOptions &tableOptions =
            TableClassifierOptions{}) const;

    /** Calibrate just the neural design against a tuned threshold. */
    CalibratedClassifier<NeuralClassifier> tuneNeural(
        const CompiledWorkload &workload, const QualitySpec &spec,
        const ThresholdResult &threshold,
        const NeuralClassifierOptions &neuralOptions =
            NeuralClassifierOptions{}) const;

    /** Threshold only (cheaper when no classifier is needed). */
    ThresholdResult tuneThreshold(const CompiledWorkload &workload,
                                  const QualitySpec &spec) const;

    /** Labeled tuples for a tuned threshold. */
    TrainingData makeTrainingData(const CompiledWorkload &workload,
                                  double threshold) const;

    const PipelineOptions &options() const { return pipelineOptions; }

  private:
    PipelineOptions pipelineOptions;
};

} // namespace mithra::core

