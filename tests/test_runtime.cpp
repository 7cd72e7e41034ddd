/**
 * @file
 * Sharded runtime decision loop tests: shard-plan partition
 * properties, bitwise identity of the DecisionEngine stream across
 * shard and thread counts (watchdog off) and of the Evaluator's
 * aggregates and stats across thread counts, the Evaluator's pinned
 * false-decision counts, thread-count identity at a fixed
 * shard count on a drifted stream that audits and trips (watchdog
 * on), the deterministic evidence merge, and the predicted alpha-split
 * gap of the merged sequential bound. tsan-labeled: the identity tests
 * drive the shard loop at 8 threads.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/pipeline.hh"
#include "core/runtime.hh"
#include "core/shard.hh"
#include "core/table_classifier.hh"
#include "stats/clopper_pearson.hh"
#include "stats/sequential_bound.hh"
#include "telemetry/stats.hh"

using namespace mithra;
using namespace mithra::core;

namespace
{

/** Small, fast pipeline configuration (mirrors test_integration). */
PipelineOptions
testOptions()
{
    PipelineOptions options;
    options.compileDatasetCount = 16;
    options.npuTrainSamples = 3000;
    options.classifierTuples = 20000;
    options.maxCalibrationRounds = 2;
    return options;
}

QualitySpec
testSpec()
{
    QualitySpec spec;
    spec.maxQualityLossPct = 5.0;
    spec.confidence = 0.95;
    spec.successRate = 0.75;
    return spec;
}

/** One compiled workload shared by every test in this binary. */
struct Env
{
    CompiledWorkload workload;
    QualitySpec spec = testSpec();
    double threshold = 0.0;
    std::unique_ptr<TableClassifier> table{};
    ValidationSet validation{};
};

Env &
env()
{
    static Env *shared = [] {
        const Pipeline pipeline(testOptions());
        auto *e = new Env{pipeline.compile("inversek2j")};
        e->threshold =
            pipeline.tuneThreshold(e->workload, e->spec).threshold;
        // Trained without calibration: at this small compile budget
        // calibration fails closed and the table would never
        // accelerate, leaving nothing for the identity tests to
        // compare.
        e->table = std::make_unique<TableClassifier>(TableClassifier::train(
            pipeline.makeTrainingData(e->workload, e->threshold),
            TableClassifierOptions{}));
        e->validation = makeValidationSet(e->workload, 8);
        return e;
    }();
    return *shared;
}

/**
 * Evaluate a fresh copy of the trained table classifier (online updates
 * mutate it) at the given thread count.
 */
DesignEvaluation
runEval(std::size_t threads)
{
    Env &e = env();
    setParallelThreadCount(threads);
    const Evaluator evaluator(e.workload, e.spec, e.threshold);
    TableClassifier copy = *e.table;
    DesignEvaluation eval = evaluator.evaluate(copy, e.validation);
    setParallelThreadCount(1);
    return eval;
}

/** What one DecisionEngine stream over the validation suite made. */
struct StreamRun
{
    /** Every dataset's decisions, concatenated in stream order. */
    std::vector<std::uint8_t> decisions;
    /** Each decide() call's slot-ordered fold, in call order. */
    std::vector<ShardTally> calls;
    ShardedEvaluation evidence;
};

/**
 * Stream the validation suite through one DecisionEngine, replaying
 * the online observations at each dataset boundary the way the
 * Evaluator does.
 */
StreamRun
runStream(Classifier &classifier, std::size_t shards,
          std::size_t threads, const watchdog::WatchdogOptions &wd,
          double threshold)
{
    setParallelThreadCount(threads);
    DecisionLoopOptions loop;
    loop.oracleThreshold = threshold;
    loop.onlineSampleRate = 0.01;
    loop.sampleSeed = 0x5a3eULL;
    DecisionEngine engine(shards, wd, loop);
    StreamRun run;
    std::vector<std::uint8_t> decisions;
    for (const ValidationEntry &entry : env().validation.entries) {
        const axbench::InvocationTrace &trace = *entry.trace;
        classifier.beginDataset(trace);
        decisions.assign(trace.count(), 0);
        run.calls.push_back(
            engine.decide(classifier, trace, decisions.data()));
        for (const std::size_t i : run.calls.back().sampledIndices)
            classifier.observe(trace.inputVec(i), trace.maxAbsError(i));
        run.decisions.insert(run.decisions.end(), decisions.begin(),
                             decisions.end());
    }
    run.evidence = engine.evidence();
    setParallelThreadCount(1);
    return run;
}

/**
 * A drifted stream: random filtering, audited densely, against a
 * violation threshold tight enough that most audits violate.
 */
StreamRun
runDriftedStream(std::size_t shards, std::size_t threads)
{
    RandomFilterClassifier classifier(0.4, 0x1234);
    watchdog::WatchdogOptions wd;
    wd.enabled = true;
    wd.baseAuditRate = 0.3;
    return runStream(classifier, shards, threads, wd,
                     0.1 * env().threshold);
}

/** Every decision and every per-call count, compared exactly. */
void
expectSameStream(const StreamRun &a, const StreamRun &b)
{
    EXPECT_EQ(a.decisions, b.decisions);
    ASSERT_EQ(a.calls.size(), b.calls.size());
    for (std::size_t c = 0; c < a.calls.size(); ++c) {
        SCOPED_TRACE("call " + std::to_string(c));
        EXPECT_EQ(a.calls[c].accelerated, b.calls[c].accelerated);
        EXPECT_EQ(a.calls[c].audits, b.calls[c].audits);
        EXPECT_EQ(a.calls[c].violations, b.calls[c].violations);
        EXPECT_EQ(a.calls[c].forcedPrecise, b.calls[c].forcedPrecise);
        EXPECT_EQ(a.calls[c].firstTripAt, b.calls[c].firstTripAt);
        EXPECT_EQ(a.calls[c].sampledIndices, b.calls[c].sampledIndices);
    }
}

/** Watchdog audits and DEGRADED entries over all shards. */
std::size_t
totalAudits(const ShardedEvaluation &evidence)
{
    std::size_t audits = 0;
    for (const ShardReport &shard : evidence.shards)
        audits += shard.watchdog.audits;
    return audits;
}

std::size_t
totalTrips(const ShardedEvaluation &evidence)
{
    std::size_t trips = 0;
    for (const ShardReport &shard : evidence.shards)
        trips += shard.watchdog.trips;
    return trips;
}

/** Every aggregate the evaluation reports, compared bitwise. */
void
expectIdentical(const DesignEvaluation &a, const DesignEvaluation &b)
{
    EXPECT_EQ(a.meanQualityLoss, b.meanQualityLoss);
    EXPECT_EQ(a.p99QualityLoss, b.p99QualityLoss);
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.successLowerBound, b.successLowerBound);
    EXPECT_EQ(a.invocationRate, b.invocationRate);
    EXPECT_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.energyReduction, b.energyReduction);
    EXPECT_EQ(a.edpImprovement, b.edpImprovement);
    EXPECT_EQ(a.falsePositiveRate, b.falsePositiveRate);
    EXPECT_EQ(a.falseNegativeRate, b.falseNegativeRate);
    EXPECT_EQ(a.totals.cycles, b.totals.cycles);
    EXPECT_EQ(a.totals.energyPj, b.totals.energyPj);
    EXPECT_EQ(a.baselineTotals.cycles, b.baselineTotals.cycles);
    EXPECT_EQ(a.baselineTotals.energyPj, b.baselineTotals.energyPj);
}

} // namespace

TEST(ShardPlan, PartitionsContiguouslyWithBalancedSizes)
{
    for (const std::size_t total : {0u, 1u, 7u, 64u, 1000u, 1001u}) {
        for (const std::size_t shards : {1u, 2u, 3u, 8u, 13u}) {
            const ShardPlan plan(total, shards);
            EXPECT_EQ(plan.begin(0), 0u);
            EXPECT_EQ(plan.end(shards - 1), total);
            std::size_t covered = 0;
            for (std::size_t k = 0; k < shards; ++k) {
                EXPECT_EQ(plan.begin(k), covered);
                covered += plan.size(k);
                // Balanced: sizes differ by at most one.
                EXPECT_LE(plan.size(k), total / shards + 1);
                EXPECT_GE(plan.size(k) + 1, total / shards);
            }
            EXPECT_EQ(covered, total);
        }
    }
}

TEST(ShardPlan, ShardSeedsAreDistinct)
{
    EXPECT_NE(shardSeed(0xd09ULL, 0), shardSeed(0xd09ULL, 1));
    EXPECT_NE(shardSeed(0xd09ULL, 0), shardSeed(0xd0aULL, 0));
}

TEST(ShardedRuntime, BitwiseIdenticalAcrossShardsAndThreads)
{
    // Watchdog off: the engine's decisions, tallies and sampling
    // schedule must be bit-for-bit identical for ANY shard count and
    // ANY thread count (DESIGN.md §12).
    TableClassifier referenceTable = *env().table;
    const StreamRun reference = runStream(
        referenceTable, 1, 1, watchdog::WatchdogOptions{}, env().threshold);
    // The stream must mix both paths and feed the online updates.
    std::size_t accelerated = 0;
    std::size_t sampled = 0;
    for (const ShardTally &call : reference.calls) {
        accelerated += call.accelerated;
        sampled += call.sampledIndices.size();
    }
    EXPECT_GT(accelerated, 0u);
    EXPECT_LT(accelerated, reference.decisions.size());
    EXPECT_GT(sampled, 0u);
    for (const std::size_t shards : {1u, 5u}) {
        for (const std::size_t threads : {1u, 2u, 8u}) {
            SCOPED_TRACE("shards=" + std::to_string(shards)
                         + " threads=" + std::to_string(threads));
            TableClassifier table = *env().table;
            const StreamRun run =
                runStream(table, shards, threads,
                          watchdog::WatchdogOptions{}, env().threshold);
            expectSameStream(reference, run);
            EXPECT_EQ(run.evidence.shardCount, shards);
            EXPECT_FALSE(run.evidence.watchdogEnabled);
        }
    }
}

TEST(ShardedRuntime, EvaluatorBitwiseIdenticalAcrossThreads)
{
    // The evaluator runs without the watchdog, so its aggregates must
    // not depend on the thread count.
    const DesignEvaluation reference = runEval(1);
    EXPECT_GT(reference.invocationRate, 0.0);
    EXPECT_LT(reference.invocationRate, 1.0);
    for (const std::size_t threads : {2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectIdentical(reference, runEval(threads));
    }
}

TEST(ShardedRuntime, EvaluatorStatsIdenticalAcrossThreads)
{
    // Every deterministic stat an evaluation records (work counters
    // included) must not depend on the thread count either, or the
    // fig reports' stats would differ between MITHRA_THREADS settings.
    env(); // compile the fixture before the first reset
    auto &registry = telemetry::StatsRegistry::global();
    std::vector<std::string> exports;
    for (const std::size_t threads : {1u, 4u}) {
        registry.resetValues();
        runEval(threads);
        exports.push_back(registry.toJson(false).dump());
    }
    EXPECT_EQ(exports[0], exports[1]);
}

TEST(ShardedRuntime, EvaluatorFalseDecisionCountsArePinned)
{
    // The evaluator counts false decisions itself, from each dataset's
    // final routing and cached true errors. The golden counts over the
    // fixture's 8 x 4096 validation invocations pin that accounting.
    Env &e = env();
    const std::size_t total = e.validation.totalInvocations();
    ASSERT_EQ(total, 32768u);
    const auto rate = [&](std::size_t count) {
        return static_cast<double>(count) / static_cast<double>(total);
    };

    const DesignEvaluation table = runEval(1);
    EXPECT_EQ(table.falsePositiveRate, rate(6785));
    EXPECT_EQ(table.falseNegativeRate, rate(3));

    const Evaluator evaluator(e.workload, e.spec, e.threshold);
    const DesignEvaluation random =
        evaluator.evaluateRandom(e.validation, 0.3);
    EXPECT_EQ(random.falsePositiveRate, rate(8370));
    EXPECT_EQ(random.falseNegativeRate, rate(3195));
}

TEST(ShardedRuntime, WatchdogIdenticalAcrossThreadsAtFixedShards)
{
    // Watchdog on: the shard count is semantic configuration, but the
    // thread count still must not change anything.
    const StreamRun reference = runDriftedStream(3, 1);
    ASSERT_TRUE(reference.evidence.watchdogEnabled);
    ASSERT_EQ(reference.evidence.shards.size(), 3u);
    // The stream must actually audit and trip.
    EXPECT_GT(totalAudits(reference.evidence), 0u);
    EXPECT_GT(totalTrips(reference.evidence), 0u);
    EXPECT_EQ(reference.evidence.combinedState, watchdog::State::Degraded);
    for (const std::size_t threads : {2u, 8u}) {
        const StreamRun run = runDriftedStream(3, threads);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectSameStream(reference, run);
        EXPECT_EQ(run.evidence.combinedState,
                  reference.evidence.combinedState);
        EXPECT_EQ(run.evidence.violationEnvelope.lower,
                  reference.evidence.violationEnvelope.lower);
        EXPECT_EQ(run.evidence.violationEnvelope.upper,
                  reference.evidence.violationEnvelope.upper);
        for (std::size_t k = 0; k < 3; ++k) {
            const auto &a = reference.evidence.shards[k].watchdog;
            const auto &b = run.evidence.shards[k].watchdog;
            EXPECT_EQ(a.state, b.state);
            EXPECT_EQ(a.audits, b.audits);
            EXPECT_EQ(a.violations, b.violations);
            EXPECT_EQ(a.trips, b.trips);
            EXPECT_EQ(a.firstTripAt, b.firstTripAt);
            EXPECT_EQ(a.violationLowerBound, b.violationLowerBound);
            EXPECT_EQ(a.violationUpperBound, b.violationUpperBound);
        }
    }
}

TEST(ShardedRuntime, MergedEvidenceIsSlotOrderedReduction)
{
    const StreamRun run = runDriftedStream(4, 2);
    const ShardedEvaluation &evidence = run.evidence;
    ASSERT_TRUE(evidence.watchdogEnabled);
    ASSERT_EQ(evidence.shards.size(), 4u);
    EXPECT_EQ(evidence.combinedState, watchdog::State::Degraded);

    std::size_t audits = 0;
    std::size_t invocations = 0;
    stats::ProportionEnvelope expected;
    for (const ShardReport &shard : evidence.shards) {
        audits += shard.watchdog.audits;
        invocations += shard.invocations;
        expected = stats::intersectEnvelopes(
            expected, {shard.watchdog.violationLowerBound,
                       shard.watchdog.violationUpperBound});
    }
    EXPECT_GT(audits, 0u);
    EXPECT_GT(totalTrips(evidence), 0u);
    EXPECT_EQ(invocations, env().validation.totalInvocations());
    EXPECT_EQ(evidence.violationEnvelope.lower, expected.lower);
    EXPECT_EQ(evidence.violationEnvelope.upper, expected.upper);
    EXPECT_TRUE(evidence.violationEnvelope.valid());
}

TEST(AlphaSplit, SplitConfidenceSpendsAlphaOverShards)
{
    EXPECT_NEAR(stats::splitConfidence(0.95, 1), 0.95, 1e-15);
    EXPECT_NEAR(stats::splitConfidence(0.95, 5), 0.99, 1e-15);
    EXPECT_NEAR(1.0 - stats::splitConfidence(0.9, 8), 0.1 / 8.0,
                1e-15);
}

TEST(AlphaSplit, EnvelopeIntersectionTakesTightestSides)
{
    const stats::ProportionEnvelope merged = stats::intersectEnvelopes(
        {0.2, 0.9}, {0.3, 0.95});
    EXPECT_EQ(merged.lower, 0.3);
    EXPECT_EQ(merged.upper, 0.9);
    EXPECT_TRUE(merged.valid());
    EXPECT_FALSE(
        stats::intersectEnvelopes({0.6, 0.9}, {0.1, 0.4}).valid());
}

TEST(AlphaSplit, MergedBoundWithinPredictedGap)
{
    // A deterministic synthetic audit stream: ~97% successes.
    const double confidence = 0.95;
    const std::size_t n = 20000;
    std::vector<bool> stream(n);
    std::size_t successes = 0;
    for (std::size_t i = 0; i < n; ++i) {
        stream[i] = indexedBernoulli(0x5eedULL, i, 0.97);
        successes += stream[i] ? 1 : 0;
    }

    stats::SequentialBinomialBound single(confidence);
    for (std::size_t i = 0; i < n; ++i)
        single.record(stream[i]);
    const double singleLower = single.lowerBound();
    EXPECT_GT(singleLower, 0.9);

    for (const std::size_t shards : {2u, 8u}) {
        const double shardConfidence =
            stats::splitConfidence(confidence, shards);
        const ShardPlan plan(n, shards);
        double mergedLower = 0.0;
        double predictedLower = 0.0;
        for (std::size_t k = 0; k < shards; ++k) {
            stats::SequentialBinomialBound bound(shardConfidence);
            std::size_t shardSuccesses = 0;
            for (std::size_t i = plan.begin(k); i < plan.end(k); ++i) {
                bound.record(stream[i]);
                shardSuccesses += stream[i] ? 1 : 0;
            }
            if (bound.lowerBound() > mergedLower)
                mergedLower = bound.lowerBound();
            // The one-look predictor of what this shard can certify:
            // its own counts at the split confidence.
            const double oneLook = stats::clopperPearsonLower(
                shardSuccesses, plan.size(k), shardConfidence);
            if (oneLook > predictedLower)
                predictedLower = oneLook;
        }

        // The merge pays two predictable prices versus the single
        // stream: the alpha split (confidence 1 - alpha/N per shard)
        // and the sample split (n/N observations per shard). Both are
        // captured by the one-look Clopper–Pearson predictor, so the
        // sequential merge may not be looser than the single-stream
        // bound by more than that predicted gap (small slack for the
        // look schedules).
        const double predictedGap = stats::clopperPearsonLower(
                                        successes, n, confidence)
            - predictedLower;
        SCOPED_TRACE("shards=" + std::to_string(shards));
        EXPECT_GE(predictedGap, 0.0);
        EXPECT_LT(predictedGap, 0.05);
        EXPECT_GE(mergedLower, singleLower - predictedGap - 0.01);
    }
}

TEST(ShardedRuntime, RunShardedDecisionsMatchesSerialReference)
{
    // Direct equivalence on the primitive: sharded decisions over a
    // real trace equal the serial decidePrecise walk.
    Env &e = env();
    const auto &trace = *e.validation.entries.front().trace;
    RandomFilterClassifier sharded(0.4, 0x1234);
    RandomFilterClassifier serial(0.4, 0x1234);
    sharded.beginDataset(trace);
    serial.beginDataset(trace);

    setParallelThreadCount(4);
    const ShardPlan plan(trace.count(), 6);
    std::vector<watchdog::Watchdog> noDogs;
    DecisionLoopOptions loop;
    loop.oracleThreshold = e.threshold;
    std::vector<std::uint8_t> decisions(trace.count(), 0);
    std::vector<ShardTally> tallies;
    runShardedDecisions(sharded, trace, plan, noDogs, loop,
                        decisions.data(), tallies);
    setParallelThreadCount(1);

    ASSERT_EQ(tallies.size(), 6u);
    std::size_t accelerated = 0;
    for (std::size_t i = 0; i < trace.count(); ++i) {
        const bool precise = serial.decidePrecise(trace.inputVec(i), i);
        EXPECT_EQ(decisions[i], precise ? 0 : 1);
        accelerated += precise ? 0 : 1;
    }
    std::size_t shardAccel = 0;
    for (const ShardTally &tally : tallies)
        shardAccel += tally.accelerated;
    EXPECT_EQ(shardAccel, accelerated);

    // Watchdog on, against a threshold tight enough that most audits
    // violate: every shard's audit, violation, forced-precise and
    // first-trip counts equal a serial route()/reportAudit() walk of
    // its subsequence.
    watchdog::WatchdogOptions wd;
    wd.enabled = true;
    wd.baseAuditRate = 0.3;
    const double tight = 0.1 * e.threshold;
    auto makeDogs = [&] {
        std::vector<watchdog::Watchdog> dogs;
        for (std::size_t k = 0; k < plan.shards; ++k) {
            watchdog::WatchdogOptions perShard = wd;
            perShard.seed = shardSeed(wd.seed, k);
            dogs.emplace_back(perShard, tight);
        }
        return dogs;
    };
    std::vector<watchdog::Watchdog> dogs = makeDogs();
    std::vector<watchdog::Watchdog> serialDogs = makeDogs();
    RandomFilterClassifier watched(0.4, 0x1234);
    RandomFilterClassifier serialWatched(0.4, 0x1234);
    watched.beginDataset(trace);
    serialWatched.beginDataset(trace);

    setParallelThreadCount(4);
    runShardedDecisions(watched, trace, plan, dogs, loop,
                        decisions.data(), tallies);
    setParallelThreadCount(1);

    std::size_t trips = 0;
    for (std::size_t k = 0; k < plan.shards; ++k) {
        watchdog::Watchdog &dog = serialDogs[k];
        std::size_t audits = 0;
        std::size_t violations = 0;
        std::size_t forced = 0;
        std::size_t firstTrip = watchdog::noTrip;
        for (std::size_t i = plan.begin(k); i < plan.end(k); ++i) {
            const bool wantAccel =
                !serialWatched.decidePrecise(trace.inputVec(i), i);
            const watchdog::Routing routing = dog.route(wantAccel);
            if (wantAccel && !routing.useAccel)
                ++forced;
            if (routing.audited()) {
                ++audits;
                if (dog.reportAudit(trace.maxAbsError(i)))
                    ++violations;
                if (firstTrip == watchdog::noTrip
                    && dog.snapshot().trips > 0)
                    firstTrip = i;
            }
            EXPECT_EQ(decisions[i], routing.useAccel ? 1 : 0);
        }
        SCOPED_TRACE("shard " + std::to_string(k));
        EXPECT_EQ(tallies[k].audits, audits);
        EXPECT_EQ(tallies[k].violations, violations);
        EXPECT_EQ(tallies[k].forcedPrecise, forced);
        EXPECT_EQ(tallies[k].firstTripAt, firstTrip);
        EXPECT_EQ(dogs[k].snapshot().audits, audits);
        EXPECT_EQ(dogs[k].snapshot().forcedPrecise, forced);
        trips += firstTrip == watchdog::noTrip ? 0 : 1;
    }
    // The input must actually exercise the trip path.
    EXPECT_GT(trips, 0u);
}
