#include "core/runtime.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/contracts.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/scale.hh"
#include "core/shard.hh"
#include "stats/clopper_pearson.hh"
#include "stats/summary.hh"
#include "telemetry/telemetry.hh"

namespace mithra::core
{

namespace
{

/** Fraction of invocations whose true error is sampled online. */
constexpr double onlineSampleRate = 0.01;
/** Seed of the online-sampling schedule and of random filtering. */
constexpr std::uint64_t evaluationSeed = 0xe7a1;
/**
 * Shards each validation dataset is split into: a full-scale 4096-row
 * dataset is then one 512-row decision block per shard. With the
 * watchdog off the result is bitwise identical at any shard count
 * (DESIGN.md §12); a fixed count, not the thread count, also keeps
 * the shard loop's work counters (parallel.chunks) thread-independent.
 */
constexpr std::size_t evaluationShards = 8;

} // namespace

std::size_t
ValidationSet::totalInvocations() const
{
    std::size_t total = 0;
    for (const auto &entry : entries)
        total += entry.trace->count();
    return total;
}

ValidationSet
makeValidationSet(const CompiledWorkload &workload, std::size_t count)
{
    const auto &bench = *workload.benchmark;
    if (count == 0)
        count = numValidationDatasets();

    // Validation datasets are seeded per index, so generation, tracing
    // and accelerator attachment fill pre-sized slots in parallel.
    ValidationSet set;
    set.entries.resize(count);
    parallelFor(0, count, 1, [&](std::size_t d) {
        ValidationEntry &entry = set.entries[d];
        entry.dataset = bench.makeDataset(
            axbench::validationSeed(bench.name(), d));
        entry.trace = std::make_unique<axbench::InvocationTrace>(
            bench.trace(*entry.dataset));
        workload.attachApproximations(*entry.trace);
        entry.preciseFinal = bench.preciseOutput(*entry.dataset,
                                                 *entry.trace);
    });
    return set;
}

Evaluator::Evaluator(const CompiledWorkload &workloadIn,
                     const QualitySpec &specIn, double thresholdIn)
    : workload(workloadIn), spec(specIn), threshold(thresholdIn),
      systemSim(sim::CoreModel{workloadIn.coreParams},
                workloadIn.systemParams)
{
}

DesignEvaluation
Evaluator::evaluate(Classifier &classifier,
                    const ValidationSet &validation) const
{
    MITHRA_EXPECTS(!validation.entries.empty(), "empty validation set");
    const auto &bench = *workload.benchmark;

    DesignEvaluation eval;
    eval.kind = classifier.kind();
    eval.trials = validation.entries.size();

    std::vector<double> losses;
    losses.reserve(eval.trials);

    // The validation suite is one long stream: the engine's sampling
    // position persists across datasets.
    DecisionLoopOptions loop;
    loop.onlineSampleRate = onlineSampleRate;
    loop.sampleSeed = evaluationSeed ^ 0x0b5e7feULL;
    DecisionEngine engine(evaluationShards, watchdog::WatchdogOptions{},
                          loop);

    std::size_t accelTotal = 0;
    std::size_t invocationTotal = 0;
    std::size_t falsePositives = 0;
    std::size_t falseNegatives = 0;
    const auto oracleThreshold = static_cast<float>(threshold);

    std::vector<std::uint8_t> decisions;
    for (const auto &entry : validation.entries) {
        const auto &trace = *entry.trace;
        classifier.beginDataset(trace);

        decisions.assign(trace.count(), 0);
        const ShardTally tally =
            engine.decide(classifier, trace, decisions.data());
        accelTotal += tally.accelerated;
        invocationTotal += trace.count();

        // Oracle false-decision accounting against the final routing:
        // evaluation-only work, kept out of the decision engine.
        for (std::size_t i = 0; i < trace.count(); ++i) {
            const bool oraclePrecise =
                trace.maxAbsError(i) > oracleThreshold;
            if (!decisions[i] && !oraclePrecise)
                ++falsePositives;
            else if (decisions[i] && oraclePrecise)
                ++falseNegatives;
        }

        // Deferred online observations (paper §IV-C.1): the schedule
        // picked the indices inside the sharded loop; the mutating
        // observe() calls run here, serially, in ascending stream
        // order — identical for any shard partition and thread count.
        for (const std::size_t i : tally.sampledIndices)
            classifier.observe(trace.inputVec(i), trace.maxAbsError(i));

        const auto recomposed = bench.recompose(*entry.dataset, trace,
                                                decisions);
        const double loss = bench.qualityLoss(entry.preciseFinal,
                                              recomposed);
        losses.push_back(loss);
        if (loss <= spec.maxQualityLossPct)
            ++eval.successes;

        eval.totals += systemSim.run(
            workload.profile, classifier.cost(), tally.accelerated,
            trace.count() - tally.accelerated);
        eval.baselineTotals += systemSim.baseline(workload.profile);
    }

    MITHRA_COUNT("runtime.decisions", invocationTotal);
    MITHRA_COUNT("runtime.accel", accelTotal);

    eval.meanQualityLoss = stats::mean(losses);
    eval.p99QualityLoss = stats::percentile(losses, 99.0);
    eval.successLowerBound = stats::clopperPearsonLower(
        eval.successes, eval.trials, spec.confidence);
    eval.invocationRate = invocationTotal
        ? static_cast<double>(accelTotal)
            / static_cast<double>(invocationTotal)
        : 0.0;
    eval.falsePositiveRate = invocationTotal
        ? static_cast<double>(falsePositives)
            / static_cast<double>(invocationTotal)
        : 0.0;
    eval.falseNegativeRate = invocationTotal
        ? static_cast<double>(falseNegatives)
            / static_cast<double>(invocationTotal)
        : 0.0;
    eval.speedup = sim::speedup(eval.baselineTotals, eval.totals);
    eval.energyReduction = sim::energyReduction(eval.baselineTotals,
                                                eval.totals);
    eval.edpImprovement = sim::edpImprovement(eval.baselineTotals,
                                              eval.totals);
    return eval;
}

DesignEvaluation
Evaluator::evaluateOracle(const ValidationSet &validation) const
{
    OracleClassifier oracle(static_cast<float>(threshold));
    return evaluate(oracle, validation);
}

DesignEvaluation
Evaluator::evaluateRandom(const ValidationSet &validation,
                          double preciseFraction) const
{
    RandomFilterClassifier random(preciseFraction, evaluationSeed);
    return evaluate(random, validation);
}

axbench::InvocationTrace
traceFromInputs(const CompiledWorkload &workload, const float *rows,
                std::size_t width, std::size_t count)
{
    const axbench::Benchmark &bench = *workload.benchmark;
    const npu::Topology topology = bench.npuTopology();
    MITHRA_EXPECTS(topology.size() >= 2,
                   "benchmark topology must have input and output "
                   "layers");
    const std::size_t inWidth = topology.front();
    const std::size_t outWidth = topology.back();
    MITHRA_EXPECTS(width == inWidth, "input width ", width,
                   " does not match the accelerator FIFO width ",
                   inWidth);
    // Rows are independent, so the precise outputs compute in
    // parallel into index-disjoint slots; the appends below stay
    // serial because the trace's flat storage is order-sensitive.
    std::vector<float> precise(count * outWidth);
    parallelFor(0, count, 256, [&](std::size_t i) {
        const Vec input(rows + i * width, rows + (i + 1) * width);
        const Vec out = bench.targetFunction(input);
        MITHRA_ASSERT(out.size() == outWidth,
                      "target function produced ", out.size(),
                      " outputs, topology promises ", outWidth);
        std::copy(out.begin(), out.end(),
                  precise.begin()
                      + static_cast<std::ptrdiff_t>(i * outWidth));
    });
    axbench::InvocationTrace trace(inWidth, outWidth);
    Vec input(width);
    Vec out(outWidth);
    for (std::size_t i = 0; i < count; ++i) {
        std::copy(rows + i * width, rows + (i + 1) * width,
                  input.begin());
        std::copy(precise.begin()
                      + static_cast<std::ptrdiff_t>(i * outWidth),
                  precise.begin()
                      + static_cast<std::ptrdiff_t>((i + 1) * outWidth),
                  out.begin());
        trace.append(input, out);
    }
    workload.attachApproximations(trace);
    return trace;
}

DesignEvaluation
Evaluator::evaluateFullApprox(const ValidationSet &validation) const
{
    // A classifier that never redirects: always approximate.
    class AlwaysAccel final : public Classifier
    {
      public:
        std::string kind() const override { return "full-approx"; }
        bool decidePrecise(const Vec &, std::size_t) override
        {
            return false;
        }
        void decideBatch(const float *, std::size_t, std::size_t count,
                         std::size_t, std::uint8_t *out) override
        {
            std::fill(out, out + count, std::uint8_t{0});
        }
        sim::ClassifierCost cost() const override { return {}; }
        std::size_t configSizeBytes() const override { return 0; }
    };

    AlwaysAccel always;
    return evaluate(always, validation);
}

} // namespace mithra::core
