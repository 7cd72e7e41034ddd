/**
 * @file
 * Figure 12 (extension): watchdog detection latency under input
 * drift and hardware faults.
 *
 * The offline certificate (Figures 6-10) assumes the serving
 * distribution matches the compile distribution and the hardware
 * stays healthy. This harness breaks both assumptions on purpose and
 * measures how fast the runtime guarantee watchdog notices:
 *
 *  - Drift sweep: every benchmark's invocation stream is re-run with
 *    its inputs shifted by 0 / 0.5 / 1 / 2 per-dimension standard
 *    deviations. The 0-sigma row is the false-trip control — the
 *    watchdog must stay HEALTHY on clean streams.
 *  - Fault drills: NPU weight-memory bit flips and MISR decision-
 *    table corruption on otherwise clean streams.
 *
 * For each condition the table reports the post-change violation rate
 * among accelerated invocations (what the watchdog is trying to
 * estimate), whether the watchdog reached DEGRADED, the detection
 * latency in invocations from the onset of the change, and the
 * latency bound predicted from the sequential test's look schedule.
 * Shape to match: zero trips in the control row, detection latency
 * within the predicted bound once the drift pushes the violation rate
 * past the contract, and latency shrinking as drift grows.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "axbench/drift.hh"
#include "axbench/registry.hh"
#include "common/logging.hh"
#include "core/report.hh"
#include "core/shard.hh"
#include "core/table_classifier.hh"
#include "core/watchdog/watchdog.hh"
#include "sim/fault_injection.hh"
#include "stats/clopper_pearson.hh"
#include "stats/summary.hh"

using namespace mithra;
using core::watchdog::noTrip;
using core::watchdog::Watchdog;
using core::watchdog::WatchdogOptions;

namespace
{

/** Drift magnitudes swept (per-dimension sigmas; 0 = control). */
const double driftMagnitudes[] = {0.0, 0.5, 1.0, 2.0};

/** Streams fed before the change (clean warmup) and after it. */
constexpr std::size_t warmupTraces = 2;
constexpr std::size_t changedTraces = 4;

/**
 * Merge several traces into one stationary mixture stream with a
 * fixed, seeded shuffle. Feeding whole traces back to back makes the
 * violation process bursty — one hot trace followed by three mild
 * ones, or a textured image region after a flat one — which is not
 * the stationary stream the sequential test models. The shuffled
 * mixture carries the aggregate violation rate at every point, so
 * the drill measures rate detection, not input ordering.
 */
axbench::InvocationTrace
mergeShuffled(const std::vector<const axbench::InvocationTrace *> &streams)
{
    MITHRA_EXPECTS(!streams.empty(), "nothing to merge");

    std::vector<std::pair<std::size_t, std::size_t>> order;
    for (std::size_t s = 0; s < streams.size(); ++s)
        for (std::size_t i = 0; i < streams[s]->count(); ++i)
            order.emplace_back(s, i);
    Rng rng = rngStream(0x51f7ULL, 0xf16ULL);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);

    axbench::InvocationTrace merged(streams.front()->inputWidth(),
                                    streams.front()->outputWidth());
    for (const auto &[s, i] : order) {
        const auto in = streams[s]->input(i);
        const auto precise = streams[s]->preciseOutput(i);
        const auto approx = streams[s]->approxOutput(i);
        merged.appendWithApprox(Vec(in.begin(), in.end()),
                                Vec(precise.begin(), precise.end()),
                                Vec(approx.begin(), approx.end()));
    }
    return merged;
}

/** Violation rate / accelerated fraction of one stream. */
struct StreamProfile
{
    double violationRate = 0.0;
    double accelFraction = 0.0;
};

/**
 * Measure what a pristine classifier copy does on one trace: the
 * fraction of invocations it accelerates and the true violation rate
 * among those. This is the quantity the watchdog's audits estimate.
 */
StreamProfile
profileStream(core::TableClassifier classifier,
              const axbench::InvocationTrace &trace, double threshold)
{
    StreamProfile profile;
    std::size_t accel = 0;
    std::size_t violations = 0;
    classifier.beginDataset(trace);
    for (std::size_t i = 0; i < trace.count(); ++i) {
        if (classifier.decidePrecise(trace.inputVec(i), i))
            continue;
        ++accel;
        if (trace.maxAbsError(i) > static_cast<float>(threshold))
            ++violations;
    }
    if (trace.count() > 0)
        profile.accelFraction = static_cast<double>(accel)
            / static_cast<double>(trace.count());
    if (accel > 0)
        profile.violationRate = static_cast<double>(violations)
            / static_cast<double>(accel);
    return profile;
}

/**
 * Latency bound predicted from the sequential test: walk the look
 * schedule until the Clopper-Pearson lower bound at a conservative
 * violation fraction (the contract plus 0.8 of the measured excess
 * over it — shrinking the gap, not the rate, so a stream just above
 * the contract stays detectable) clears the contract, convert audits
 * to invocations through the audit rates, and double for schedule
 * noise. noTrip when the measured rate gives the test nothing to
 * detect.
 */
std::size_t
predictedDetectionInvocations(const StreamProfile &profile,
                              const WatchdogOptions &opts)
{
    if (profile.accelFraction <= 0.0)
        return noTrip;
    const double conservative = opts.maxViolationRate
        + 0.8 * (profile.violationRate - opts.maxViolationRate);
    if (conservative <= opts.maxViolationRate)
        return noTrip;

    const stats::SequentialBoundOptions schedule;
    const double alpha = 1.0 - opts.confidence;
    std::size_t n = schedule.firstLook;
    for (std::size_t look = 0; look < 64; ++look) {
        const double lookAlpha = stats::sequentialAlphaAtLook(alpha,
                                                              look);
        const auto k = static_cast<std::size_t>(
            std::ceil(conservative * static_cast<double>(n)));
        const double lower = stats::clopperPearsonLower(
            k, n, 1.0 - lookAlpha / 2.0);
        if (lower > opts.maxViolationRate) {
            // HEALTHY phase: the windowed screen needs up to a full
            // window of post-change audits at the base rate before the
            // ramp can engage.
            const double healthy =
                static_cast<double>(opts.suspectWindowAudits)
                / (opts.baseAuditRate * profile.accelFraction);
            const double suspect = static_cast<double>(n)
                / (opts.suspectAuditRate * profile.accelFraction);
            return static_cast<std::size_t>(2.0 * (healthy + suspect));
        }
        const auto grown = static_cast<std::size_t>(std::ceil(
            static_cast<double>(n) * schedule.lookGrowth));
        n = grown > n ? grown : n + 1;
    }
    return noTrip;
}

/** Outcome of one drill (warmup + changed streams). */
struct DrillResult
{
    std::size_t warmupTrips = 0;
    /** Invocations from change onset to DEGRADED (noTrip: never). */
    std::size_t detectLatency = noTrip;
    std::size_t audits = 0;
    StreamProfile changed;
};

/**
 * The trained tables' own decisions, even when the compiler refused
 * to deploy them (small-scale runs fail closed): the drills put the
 * watchdog, not the deploy verdict, under test.
 */
class TableDecisions final : public core::Classifier
{
  public:
    explicit TableDecisions(core::TableClassifier &inner) : table(inner) {}

    std::string kind() const override { return table.kind(); }
    void beginDataset(const axbench::InvocationTrace &trace) override
    {
        table.beginDataset(trace);
    }
    bool decidePrecise(const Vec &input, std::size_t index) override
    {
        return table.decidePrecise(input, index);
    }
    void decideBatch(const float *inputs, std::size_t width,
                     std::size_t count, std::size_t beginIndex,
                     std::uint8_t *out) override
    {
        table.decideBatch(inputs, width, count, beginIndex, out);
    }
    sim::ClassifierCost cost() const override { return table.cost(); }
    std::size_t configSizeBytes() const override
    {
        return table.configSizeBytes();
    }

  private:
    core::TableClassifier &table;
};

/**
 * Decide one stream through the drill's watchdog on a one-shard plan;
 * scheduled audits are served from the trace's cached true errors.
 * Returns the index within `trace` of the stream's first trip.
 */
std::size_t
feedStream(std::vector<Watchdog> &dog, core::TableClassifier &table,
           const axbench::InvocationTrace &trace)
{
    TableDecisions classifier(table);
    classifier.beginDataset(trace);
    std::vector<std::uint8_t> decisions(trace.count());
    std::vector<core::ShardTally> tallies;
    core::runShardedDecisions(classifier, trace,
                              core::ShardPlan(trace.count(), 1), dog,
                              core::DecisionLoopOptions{},
                              decisions.data(), tallies);
    return tallies.front().firstTripAt;
}

/**
 * Run one drill: feed `warmup` clean streams through a pristine
 * classifier copy, then `changed` streams (optionally through a
 * different — corrupted — classifier, modeling a fault that strikes
 * at the onset); record when the watchdog first reaches DEGRADED
 * after the change. The changed streams cycle — deployment does not
 * stop producing inputs — until the watchdog trips or the stream has
 * covered `minChangedInvocations` (at least one full pass). The
 * drill's single watchdog runs at the unsplit confidence and seed.
 */
DrillResult
runDrill(const core::TableClassifier &pristine, double threshold,
         const WatchdogOptions &opts,
         const std::vector<const axbench::InvocationTrace *> &warmup,
         const std::vector<const axbench::InvocationTrace *> &changed,
         std::size_t minChangedInvocations = 0,
         const core::TableClassifier *changedClassifier = nullptr)
{
    core::TableClassifier classifier = pristine;
    std::vector<Watchdog> dog{Watchdog(opts, threshold)};

    DrillResult result;
    for (const auto *trace : warmup)
        feedStream(dog, classifier, *trace);
    result.warmupTrips = dog.front().snapshot().trips;

    core::TableClassifier onset =
        changedClassifier ? *changedClassifier : classifier;
    std::size_t offset = 0;
    bool firstPass = true;
    while (firstPass || offset < minChangedInvocations) {
        firstPass = false;
        for (const auto *trace : changed) {
            const std::size_t tripAt = feedStream(dog, onset, *trace);
            if (result.detectLatency == noTrip && tripAt != noTrip)
                result.detectLatency = offset + tripAt;
            offset += trace->count();
            if (result.detectLatency != noTrip)
                break;
        }
        if (result.detectLatency != noTrip || changed.empty())
            break;
    }
    result.audits = dog.front().snapshot().audits;
    return result;
}

/**
 * How far past the change a drill keeps feeding invocations while
 * the watchdog stays quiet: the predicted bound itself (it already
 * carries 2x schedule slack), capped so a hopeless condition cannot
 * stall the harness.
 */
std::size_t
drillHorizon(std::size_t predictedBound)
{
    constexpr std::size_t cap = 1'500'000;
    if (predictedBound == noTrip)
        return 0;
    return predictedBound < cap ? predictedBound : cap;
}

std::string
fmtLatency(std::size_t latency)
{
    return latency == noTrip ? "-" : std::to_string(latency);
}

} // namespace

int
main()
{
    setInformEnabled(false);
    core::ExperimentRunner runner;
    const auto spec = bench::headlineSpec();
    runner.prefetch(axbench::benchmarkNames());

    WatchdogOptions wopts;
    wopts.enabled = true;

    core::printBanner("Figure 12: watchdog detection latency under "
                      "drift and faults (5% loss contract)");

    core::TablePrinter table({"benchmark", "drift (sigma)",
                              "accel fraction", "violation rate",
                              "tripped", "detect (invocations)",
                              "predicted bound", "audits"});
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<double> twoSigmaLatencies;
    std::size_t controlTrips = 0;
    std::size_t twoSigmaMisses = 0;

    for (const auto &name : axbench::benchmarkNames()) {
        const auto &workload = runner.workload(name);
        const auto &bench = *workload.benchmark;
        const double threshold =
            runner.qualityPackage(name, spec).threshold.threshold;
        const auto &pristine = runner.tunedTableClassifier(name, spec);

        const auto &traces = workload.compileTraces;
        MITHRA_EXPECTS(traces.size() > warmupTraces,
                       "not enough compile traces for the drill");
        std::vector<const axbench::InvocationTrace *> warmup;
        for (std::size_t t = 0; t < warmupTraces; ++t)
            warmup.push_back(traces[t].get());

        // Source streams the change is applied to (reused per drift
        // magnitude; wrap around when compile traces run short).
        std::vector<const axbench::InvocationTrace *> sources;
        for (std::size_t t = 0; t < changedTraces; ++t)
            sources.push_back(
                traces[warmupTraces + t % (traces.size() - warmupTraces)]
                    .get());

        for (const double magnitude : driftMagnitudes) {
            // Build the drifted streams (identity drift reuses the
            // clean traces directly).
            // Sign-scrambled shift plus spread widening: a uniform
            // translation is invisible to gradient/geometry kernels,
            // and pure translation clamps every input to the same
            // quantizer corner. This drift deforms the distribution.
            axbench::DriftSpec drift;
            drift.shiftSigma = magnitude;
            drift.scrambleSigns = true;
            drift.spread = 1.0 + magnitude;
            std::vector<axbench::InvocationTrace> storage;
            std::vector<const axbench::InvocationTrace *> changed;
            for (const auto *source : sources) {
                if (drift.identity()) {
                    changed.push_back(source);
                    continue;
                }
                storage.push_back(axbench::driftTrace(
                    bench, workload.accel, *source,
                    axbench::measureInputMoments(*source), drift));
            }
            for (const auto &trace : storage)
                changed.push_back(&trace);
            const auto merged = mergeShuffled(changed);

            const auto profile =
                profileStream(pristine, merged, threshold);
            const auto bound =
                predictedDetectionInvocations(profile, wopts);
            const auto result = runDrill(pristine, threshold, wopts,
                                         warmup, {&merged},
                                         drillHorizon(bound));
            controlTrips +=
                magnitude == 0.0 ? result.warmupTrips : 0;
            if (magnitude == 0.0 && result.detectLatency != noTrip)
                ++controlTrips;

            const bool tripped = result.detectLatency != noTrip;
            table.addRow({name, core::fmtRatio(magnitude),
                          core::fmtPct(100.0 * profile.accelFraction),
                          core::fmtPct(100.0 * profile.violationRate),
                          tripped ? "yes" : "no",
                          fmtLatency(result.detectLatency),
                          fmtLatency(bound),
                          std::to_string(result.audits)});

            const std::string prefix = name + ".drift_"
                + std::to_string(static_cast<int>(10.0 * magnitude));
            metrics.emplace_back(prefix + ".violation_rate",
                                 profile.violationRate);
            metrics.emplace_back(prefix + ".tripped",
                                 tripped ? 1.0 : 0.0);
            if (tripped)
                metrics.emplace_back(
                    prefix + ".detect_invocations",
                    static_cast<double>(result.detectLatency));
            if (magnitude == 2.0) {
                if (tripped)
                    twoSigmaLatencies.push_back(
                        static_cast<double>(result.detectLatency));
                else
                    ++twoSigmaMisses;
                if (bound != noTrip && tripped
                    && result.detectLatency > bound)
                    ++twoSigmaMisses;
            }
        }
    }
    table.print();

    // Fault drills: hardware decay on clean input streams.
    core::printBanner("Fault drills: NPU weight upsets / decision-"
                      "table corruption on clean streams");
    core::TablePrinter faults({"benchmark", "fault", "bits",
                               "accel fraction", "violation rate",
                               "tripped", "detect (invocations)",
                               "audits"});
    for (const auto &name : axbench::benchmarkNames()) {
        const auto &workload = runner.workload(name);
        const auto &bench = *workload.benchmark;
        const double threshold =
            runner.qualityPackage(name, spec).threshold.threshold;
        const auto &pristine = runner.tunedTableClassifier(name, spec);
        const auto &traces = workload.compileTraces;

        std::vector<const axbench::InvocationTrace *> warmup;
        for (std::size_t t = 0; t < warmupTraces; ++t)
            warmup.push_back(traces[t].get());
        std::vector<const axbench::InvocationTrace *> sources;
        for (std::size_t t = 0; t < changedTraces; ++t)
            sources.push_back(
                traces[warmupTraces + t % (traces.size() - warmupTraces)]
                    .get());

        // NPU decay: deep-copy the accelerator, flip weight bits, and
        // rebuild the streams with the corrupted approximations.
        {
            auto faulty = npu::Approximator::fromParts(
                workload.accel.inputScalerRef(),
                workload.accel.outputScalerRef(),
                workload.accel.network());
            const std::size_t flips =
                std::max<std::size_t>(4, faulty.network().weightCount() / 4);
            sim::flipMlpWeightBits(faulty.mutableNetwork(), flips,
                                   0xfa017ULL);

            const axbench::DriftSpec identity;
            std::vector<axbench::InvocationTrace> storage;
            std::vector<const axbench::InvocationTrace *> changed;
            for (const auto *source : sources)
                storage.push_back(axbench::driftTrace(
                    bench, faulty, *source,
                    axbench::measureInputMoments(*source), identity));
            for (const auto &trace : storage)
                changed.push_back(&trace);
            const auto merged = mergeShuffled(changed);

            const auto profile =
                profileStream(pristine, merged, threshold);
            const auto bound =
                predictedDetectionInvocations(profile, wopts);
            const auto result = runDrill(pristine, threshold, wopts,
                                         warmup, {&merged},
                                         drillHorizon(bound));
            const bool tripped = result.detectLatency != noTrip;
            faults.addRow({name, "npu-weights",
                           std::to_string(flips),
                           core::fmtPct(100.0 * profile.accelFraction),
                           core::fmtPct(100.0 * profile.violationRate),
                           tripped ? "yes" : "no",
                           fmtLatency(result.detectLatency),
                           std::to_string(result.audits)});
            metrics.emplace_back(name + ".npu_fault.tripped",
                                 tripped ? 1.0 : 0.0);
        }

        // Quality-control decay: corrupt the decision tables; clean
        // streams, but the classifier now approves inputs it was
        // trained to redirect.
        {
            core::TableClassifier corrupted = pristine;
            const auto &geom = corrupted.hardware().geometry();
            const std::size_t bits = geom.numTables
                * geom.tableBytes; // 1/8 of all decision bits
            sim::corruptTableBits(corrupted.mutableHardware(), bits,
                                  0x7ab1e2ULL);

            const auto merged = mergeShuffled(sources);
            const auto profile =
                profileStream(corrupted, merged, threshold);
            const auto bound =
                predictedDetectionInvocations(profile, wopts);
            const auto result =
                runDrill(pristine, threshold, wopts, warmup, {&merged},
                         drillHorizon(bound), &corrupted);
            const bool tripped = result.detectLatency != noTrip;
            faults.addRow({name, "misr-table",
                           std::to_string(bits),
                           core::fmtPct(100.0 * profile.accelFraction),
                           core::fmtPct(100.0 * profile.violationRate),
                           tripped ? "yes" : "no",
                           fmtLatency(result.detectLatency),
                           std::to_string(result.audits)});
            metrics.emplace_back(name + ".table_fault.tripped",
                                 tripped ? 1.0 : 0.0);
        }
    }
    faults.print();

    std::printf("\nClean streams never trip the watchdog; every "
                "2-sigma drift trips it within the sequential test's "
                "predicted latency, faster as the drift grows. Faults "
                "that push the violation rate past the contract trip "
                "it too; faults the classifier absorbs below the "
                "contract correctly do not — the watchdog patrols the "
                "guarantee, not the hardware.\n");

    metrics.emplace_back("watchdog.control_trips",
                         static_cast<double>(controlTrips));
    metrics.emplace_back("watchdog.two_sigma_misses",
                         static_cast<double>(twoSigmaMisses));
    metrics.emplace_back("watchdog.detect_latency_mean_2sigma",
                         twoSigmaLatencies.empty()
                             ? -1.0
                             : stats::mean(twoSigmaLatencies));
    bench::writeBenchReport("fig12_drift_watchdog", metrics);
    return 0;
}
