#include "core/pipeline.hh"

#include <algorithm>

#include "axbench/registry.hh"
#include "common/contracts.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/scale.hh"
#include "core/shard.hh"
#include "sim/core_model.hh"
#include "stats/clopper_pearson.hh"
#include "telemetry/telemetry.hh"

namespace mithra::core
{

Pipeline::Pipeline(const PipelineOptions &options)
    : pipelineOptions(options)
{
}

namespace
{

/** Sample (input, precise output) pairs across traces to train the NPU. */
void
sampleNpuTraining(
    const std::vector<std::unique_ptr<axbench::InvocationTrace>> &traces,
    std::size_t maxSamples, std::uint64_t seed, VecBatch &inputs,
    VecBatch &outputs)
{
    std::size_t total = 0;
    for (const auto &trace : traces)
        total += trace->count();
    MITHRA_ASSERT(total > 0, "no invocations to sample");

    const double keep = std::min(
        1.0, static_cast<double>(maxSamples) / static_cast<double>(total));

    // Each trace samples from its own RNG stream split off the seed, so
    // the drawn set depends only on (seed, trace index) — identical at
    // any thread count — and traces can sample concurrently. Per-trace
    // batches are concatenated in trace order.
    std::vector<std::pair<VecBatch, VecBatch>> perTrace(traces.size());
    parallelFor(0, traces.size(), 1, [&](std::size_t t) {
        Rng rng = rngStream(seed ^ 0x6e70755f747261ULL, t);
        const auto &trace = *traces[t];
        auto &[localIn, localOut] = perTrace[t];
        for (std::size_t i = 0; i < trace.count(); ++i) {
            if (keep < 1.0 && !rng.bernoulli(keep))
                continue;
            const auto in = trace.input(i);
            const auto out = trace.preciseOutput(i);
            localIn.emplace_back(in.begin(), in.end());
            localOut.emplace_back(out.begin(), out.end());
        }
    });

    for (auto &[localIn, localOut] : perTrace) {
        std::move(localIn.begin(), localIn.end(),
                  std::back_inserter(inputs));
        std::move(localOut.begin(), localOut.end(),
                  std::back_inserter(outputs));
    }
}

} // namespace

CompiledWorkload
Pipeline::compile(const std::string &benchmarkName) const
{
    MITHRA_SPAN("core.pipeline.compile");
    MITHRA_COUNT("core.pipeline.compiles", 1);
    CompiledWorkload workload;
    workload.benchmark = axbench::makeBenchmark(benchmarkName);
    const auto &bench = *workload.benchmark;
    workload.backend = bench.makeAccelerator();

    const std::size_t datasetCount = pipelineOptions.compileDatasetCount
        ? pipelineOptions.compileDatasetCount
        : numCompileDatasets();

    inform("compile[", benchmarkName, "]: generating ", datasetCount,
           " datasets and tracing");
    // Datasets are seeded per index, so generation and tracing are
    // independent across d and fill pre-sized slots in parallel.
    workload.compileDatasets.resize(datasetCount);
    workload.compileTraces.resize(datasetCount);
    {
        MITHRA_SPAN("core.pipeline.dataset_gen");
        parallelFor(0, datasetCount, 1, [&](std::size_t d) {
            auto dataset = bench.makeDataset(
                axbench::compileSeed(benchmarkName, d));
            workload.compileTraces[d] =
                std::make_unique<axbench::InvocationTrace>(
                    bench.trace(*dataset));
            workload.compileDatasets[d] = std::move(dataset);
        });
    }
    MITHRA_COUNT("core.pipeline.datasets", datasetCount);
    std::size_t tracedInvocations = 0;
    for (const auto &trace : workload.compileTraces)
        tracedInvocations += trace->count();
    MITHRA_COUNT("core.pipeline.traced_invocations", tracedInvocations);

    // Train the accelerator on sampled invocations (the paper's NPU
    // workflow: the compiler collects input/output pairs of the target
    // function and trains the network offline).
    VecBatch trainIn, trainOut;
    sampleNpuTraining(workload.compileTraces,
                      pipelineOptions.npuTrainSamples,
                      pipelineOptions.seed, trainIn, trainOut);
    if (workload.backend) {
        inform("compile[", benchmarkName, "]: training ",
               workload.backend->kind(), " backend on ", trainIn.size(),
               " samples");
        MITHRA_SPAN("core.pipeline.npu_train");
        workload.npuTrainMse = workload.backend->trainToMimic(
            trainIn, trainOut, pipelineOptions.seed);
    } else {
        inform("compile[", benchmarkName, "]: training NPU ",
               npu::topologyName(bench.npuTopology()), " on ",
               trainIn.size(), " samples");
        MITHRA_SPAN("core.pipeline.npu_train");
        workload.npuTrainMse = workload.accel.trainToMimic(
            bench.npuTopology(), trainIn, trainOut,
            bench.npuTrainerOptions());
    }
    // Keyed per benchmark: workloads may compile concurrently (the
    // experiment runner's prefetch), so a shared last-write-wins gauge
    // would depend on completion order and break the bitwise
    // thread-count determinism of dumps and run reports.
    telemetry::StatsRegistry::global()
        .gauge("core.pipeline.npu_train_mse." + benchmarkName)
        .set(workload.npuTrainMse);

    // Attach approximate outputs to every trace and build the
    // threshold problem. Each dataset's attach/entry/loss work only
    // touches its own slot; the loss partials reduce in dataset order.
    workload.problem.benchmark = &bench;
    workload.problem.entries.resize(workload.compileTraces.size());
    double lossSum = 0.0;
    {
        MITHRA_SPAN("core.pipeline.attach");
        lossSum = parallelMapReduce(
            0, workload.compileTraces.size(), 1, 0.0,
            [&](std::size_t d) {
                auto &trace = *workload.compileTraces[d];
                workload.attachApproximations(trace);
                workload.problem.entries[d] = ThresholdProblem::makeEntry(
                    bench, *workload.compileDatasets[d], trace);

                const auto approxFinal = bench.approxOutput(
                    *workload.compileDatasets[d], trace);
                return bench.qualityLoss(
                    workload.problem.entries[d].preciseFinal, approxFinal);
            },
            [](double a, double b) { return a + b; });
    }
    workload.fullApproxLossMean =
        lossSum / static_cast<double>(workload.compileTraces.size());

    // Cost profile.
    workload.coreParams = pipelineOptions.coreParams;
    workload.systemParams = pipelineOptions.systemParams;
    workload.costs = bench.measureCosts();
    const sim::CoreModel core(pipelineOptions.coreParams);
    const npu::NpuCostModel npuCost(pipelineOptions.npuParams);

    sim::RegionProfile &profile = workload.profile;
    profile.preciseCycles =
        core.cycles(workload.costs.targetOpsPerInvocation)
        + pipelineOptions.coreParams.regionOverheadCycles;
    profile.preciseEnergyPj = core.energyPj(profile.preciseCycles);
    if (workload.backend) {
        const auto accelCost = workload.backend->invocationCost();
        profile.accelCycles = static_cast<double>(accelCost.cycles);
        profile.accelEnergyPj = accelCost.picoJoules;
    } else {
        const auto accelCost = npuCost.invocationCost(
            workload.accel.network());
        profile.accelCycles = static_cast<double>(accelCost.cycles);
        profile.accelEnergyPj = accelCost.picoJoules;
    }
    profile.invocationsPerDataset =
        workload.compileTraces.front()->count();
    profile.otherCyclesPerDataset =
        core.cycles(workload.costs.otherOpsPerDataset);
    profile.otherEnergyPjPerDataset =
        core.energyPj(profile.otherCyclesPerDataset);

    inform("compile[", benchmarkName, "]: full-approx loss ",
           workload.fullApproxLossMean, "%, precise ",
           profile.preciseCycles, " cyc/inv, NPU ", profile.accelCycles,
           " cyc/inv");
    return workload;
}

ThresholdResult
Pipeline::tuneThreshold(const CompiledWorkload &workload,
                        const QualitySpec &spec) const
{
    MITHRA_SPAN("core.pipeline.threshold_search");
    MITHRA_COUNT("core.pipeline.threshold_searches", 1);
    const ThresholdOptimizer optimizer(spec);
    return optimizer.optimize(workload.problem);
}

TrainingData
Pipeline::makeTrainingData(const CompiledWorkload &workload,
                           double threshold) const
{
    return buildTrainingData(workload.problem, threshold,
                             pipelineOptions.classifierTuples,
                             pipelineOptions.seed);
}

namespace
{

/** Outcome of one classifier-in-the-loop compile measurement. */
struct CalibrationMeasurement
{
    double successBound = 0.0;
    double invocationRate = 0.0;
};

/**
 * Success bound and invocation rate of a trained classifier measured
 * end to end (Algorithm 1's measurement, but with the real
 * classifier's decisions instead of the oracle's) over the *held-out*
 * half of the compile datasets — the half the training tuples were not
 * sampled from, so memorizing classifiers cannot inflate the bound.
 */
CalibrationMeasurement
calibrationMeasure(const CompiledWorkload &workload,
                   Classifier &classifier, const QualitySpec &spec)
{
    // Held-out datasets are measured concurrently, each through the
    // decision loop on a one-shard plan without a watchdog. The
    // classifiers calibrated here (table, neural) decide each
    // invocation from the input alone — beginDataset is a no-op for
    // them and decideBatch holds no mutable state — so sharing one
    // classifier across datasets is safe; per-dataset counters reduce
    // in entry order.
    struct Tally
    {
        std::size_t successes = 0;
        std::size_t trials = 0;
        std::size_t accel = 0;
        std::size_t total = 0;
    };

    const std::size_t numHeldOut = workload.problem.entries.size() / 2;
    const Tally tally = parallelMapReduce(
        0, numHeldOut, 1, Tally{},
        [&](std::size_t k) {
            const std::size_t e = 2 * k + 1;
            const auto &entry = workload.problem.entries[e];
            const auto &trace = *entry.trace;
            classifier.beginDataset(trace);
            std::vector<std::uint8_t> decisions(trace.count());
            std::vector<watchdog::Watchdog> noDogs;
            std::vector<ShardTally> shard;
            runShardedDecisions(classifier, trace,
                                ShardPlan(trace.count(), 1), noDogs,
                                DecisionLoopOptions{}, decisions.data(),
                                shard);
            Tally one;
            one.accel = shard.front().accelerated;
            one.total = trace.count();
            const auto recomposed = workload.benchmark->recompose(
                *entry.dataset, trace, decisions);
            const double loss = workload.benchmark->qualityLoss(
                entry.preciseFinal, recomposed);
            one.successes = loss <= spec.maxQualityLossPct ? 1 : 0;
            one.trials = 1;
            return one;
        },
        [](Tally a, const Tally &b) {
            a.successes += b.successes;
            a.trials += b.trials;
            a.accel += b.accel;
            a.total += b.total;
            return a;
        });

    // Bulk counts after the ordered reduction: thread-count
    // independent, so safe as deterministic stats.
    MITHRA_COUNT("core.calibration.measurements", 1);
    MITHRA_COUNT("core.calibration.datasets_measured", tally.trials);
    MITHRA_COUNT("core.calibration.dataset_successes", tally.successes);
    MITHRA_COUNT("core.calibration.invocations_approximated", tally.accel);
    MITHRA_COUNT("core.calibration.invocations_measured", tally.total);

    CalibrationMeasurement out;
    out.successBound = stats::clopperPearsonLower(
        tally.successes, tally.trials, spec.confidence);
    out.invocationRate = tally.total
        ? static_cast<double>(tally.accel)
            / static_cast<double>(tally.total)
        : 0.0;
    return out;
}

/** Sub-problem holding only the even-indexed (training) entries. */
ThresholdProblem
trainingHalf(const ThresholdProblem &problem)
{
    ThresholdProblem half;
    half.benchmark = problem.benchmark;
    for (std::size_t e = 0; e < problem.entries.size(); e += 2)
        half.entries.push_back(problem.entries[e]);
    return half;
}

} // namespace

namespace
{

/**
 * Closed-loop calibration: train on the even-indexed compile sets,
 * measure the classifier-in-the-loop success bound on the odd half,
 * and tighten the labeling threshold while the bound misses the
 * contract. Deploys the first (loosest-label) round that meets it,
 * or the most conservative round when none does.
 */
template <typename ClassifierType, typename TrainFn>
CalibratedClassifier<ClassifierType>
calibrateLoop(const PipelineOptions &options,
              const CompiledWorkload &workload, const QualitySpec &spec,
              double tunedThreshold, TrainFn trainOne)
{
    MITHRA_SPAN("core.pipeline.calibration");
    const ThresholdProblem trainProblem = trainingHalf(workload.problem);
    CalibratedClassifier<ClassifierType> out;
    double th = tunedThreshold;

    for (std::size_t round = 0; round <= options.maxCalibrationRounds;
         ++round) {
        MITHRA_COUNT("core.calibration.rounds", 1);
        const TrainingData data = buildTrainingData(
            trainProblem, th, options.classifierTuples, options.seed);
        auto candidate = trainOne(data, round);
        const auto measured = calibrationMeasure(workload, *candidate,
                                                 spec);
        inform("tune[", workload.benchmark->name(), "]: ",
               candidate->kind(), " labels@", th, " -> bound ",
               measured.successBound, ", rate ",
               measured.invocationRate);
        if (measured.successBound >= spec.successRate) {
            out.labelThreshold = th;
            out.classifier = std::move(candidate);
            return out;
        }
        th *= options.labelTighten;
    }

    // No round met the contract: deploy the tightest round
    // (maximally conservative labels).
    out.labelThreshold = th / options.labelTighten;
    const TrainingData data = buildTrainingData(
        trainProblem, out.labelThreshold, options.classifierTuples,
        options.seed);
    out.classifier = trainOne(data, options.maxCalibrationRounds);
    const auto conservative = calibrationMeasure(workload,
                                                 *out.classifier, spec);
    if (conservative.successBound >= spec.successRate) {
        warn("tune[", workload.benchmark->name(), "]: ",
             out.classifier->kind(),
             " classifier deployed with maximally conservative labels");
    } else {
        // Fail closed: the compiler refuses to deploy approximation it
        // cannot certify; every invocation runs precisely.
        out.classifier->disableApproximation();
        warn("tune[", workload.benchmark->name(), "]: ",
             out.classifier->kind(),
             " classifier could not certify the contract; "
             "approximation disabled (fail closed)");
    }
    return out;
}

} // namespace

CalibratedClassifier<TableClassifier>
Pipeline::tuneTable(const CompiledWorkload &workload,
                    const QualitySpec &spec,
                    const ThresholdResult &threshold,
                    const TableClassifierOptions &tableOptions) const
{
    TableClassifierOptions tableOpts = tableOptions;
    if (tableOpts.quantizerBits == 0)
        tableOpts.quantizerBits = workload.benchmark->tableQuantizerBits();

    return calibrateLoop<TableClassifier>(
        pipelineOptions, workload, spec, threshold.threshold,
        [&](const TrainingData &data, std::size_t) {
            return std::make_unique<TableClassifier>(
                TableClassifier::train(data, tableOpts));
        });
}

CalibratedClassifier<NeuralClassifier>
Pipeline::tuneNeural(const CompiledWorkload &workload,
                     const QualitySpec &spec,
                     const ThresholdResult &threshold,
                     const NeuralClassifierOptions &neuralOptions) const
{
    NeuralClassifierOptions neuralOpts = neuralOptions;
    neuralOpts.npuParams = pipelineOptions.npuParams;

    std::size_t selectedHidden = 0;
    return calibrateLoop<NeuralClassifier>(
        pipelineOptions, workload, spec, threshold.threshold,
        [&](const TrainingData &data, std::size_t round) {
            // Bimodal error distributions make the label threshold an
            // all-or-nothing knob; ramp the class-weight bias as the
            // smoother second knob. Topology selection runs once; the
            // later, more conservative rounds reuse the winner.
            NeuralClassifierOptions opts = neuralOpts;
            opts.preciseOversample =
                1.0 + 0.8 * static_cast<double>(round);
            opts.forcedHidden = selectedHidden;
            auto classifier = std::make_unique<NeuralClassifier>(
                NeuralClassifier::train(data, opts));
            selectedHidden = classifier->topology()[1];
            return classifier;
        });
}

QualityPackage
Pipeline::tune(const CompiledWorkload &workload, const QualitySpec &spec,
               const TableClassifierOptions &tableOptions,
               const NeuralClassifierOptions &neuralOptions) const
{
    QualityPackage package;
    package.spec = spec;
    package.threshold = tuneThreshold(workload, spec);
    inform("tune[", workload.benchmark->name(), "]: q<=",
           spec.maxQualityLossPct, "% -> th=", package.threshold.threshold,
           " (bound ", package.threshold.successLowerBound, ", rate ",
           package.threshold.invocationRate, ")");

    auto table = tuneTable(workload, spec, package.threshold,
                           tableOptions);
    package.table = std::move(table.classifier);
    package.tableLabelThreshold = table.labelThreshold;

    auto neural = tuneNeural(workload, spec, package.threshold,
                             neuralOptions);
    package.neural = std::move(neural.classifier);
    package.neuralLabelThreshold = neural.labelThreshold;
    return package;
}

} // namespace mithra::core
