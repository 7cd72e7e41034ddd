/**
 * @file
 * Sharded runtime decision loop tests: shard-plan partition
 * properties, bitwise identity of DesignEvaluation aggregates across
 * MITHRA_SHARDS / MITHRA_THREADS settings (watchdog off), thread-count
 * identity at a fixed shard count (watchdog on), the deterministic
 * evidence merge, and the predicted alpha-split gap of the merged
 * sequential bound. tsan-labeled: the identity tests drive the shard
 * loop at 8 threads.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/pipeline.hh"
#include "core/runtime.hh"
#include "core/shard.hh"
#include "core/table_classifier.hh"
#include "stats/clopper_pearson.hh"
#include "stats/sequential_bound.hh"

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
    std::unique_ptr<TableClassifier> table;
    ValidationSet validation;
};

Env &
env()
{
    static Env *shared = [] {
        const Pipeline pipeline(testOptions());
        auto *e = new Env{pipeline.compile("inversek2j")};
        auto package = pipeline.tune(e->workload, e->spec);
        e->threshold = package.threshold.threshold;
        e->table = std::move(package.table);
        e->validation = makeValidationSet(e->workload, 8);
        return e;
    }();
    return *shared;
}

/**
 * Evaluate a fresh copy of the tuned table classifier (online updates
 * mutate it) under the given shard/thread configuration.
 */
DesignEvaluation
runEval(std::size_t shards, std::size_t threads, bool watchdogOn)
{
    Env &e = env();
    setParallelThreadCount(threads);
    EvaluationOptions options;
    options.shards = shards;
    if (watchdogOn) {
        options.watchdog.enabled = true;
        // Audit densely so the short validation stream still feeds
        // every shard's envelope.
        options.watchdog.baseAuditRate = 0.05;
    }
    const Evaluator evaluator(e.workload, e.spec, e.threshold, options);
    TableClassifier copy = *e.table;
    DesignEvaluation eval = evaluator.evaluate(copy, e.validation);
    setParallelThreadCount(1);
    return eval;
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

TEST(ShardPlan, DefaultShardCountReadsEnvironment)
{
    setenv("MITHRA_SHARDS", "7", 1);
    EXPECT_EQ(defaultShardCount(), 7u);
    unsetenv("MITHRA_SHARDS");
    EXPECT_EQ(defaultShardCount(), parallelThreadCount());
}

TEST(ShardPlan, ShardSeedsAreDistinct)
{
    EXPECT_NE(shardSeed(0xd09ULL, 0), shardSeed(0xd09ULL, 1));
    EXPECT_NE(shardSeed(0xd09ULL, 0), shardSeed(0xd0aULL, 0));
}

TEST(ShardedRuntime, BitwiseIdenticalAcrossShardsAndThreads)
{
    // Watchdog off: the evaluation must be bit-for-bit identical for
    // ANY shard count and ANY thread count (DESIGN.md §12).
    const DesignEvaluation reference = runEval(1, 1, false);
    EXPECT_EQ(reference.sharded.shardCount, 1u);
    for (const std::size_t shards : {1u, 5u}) {
        for (const std::size_t threads : {1u, 2u, 8u}) {
            const DesignEvaluation eval = runEval(shards, threads,
                                                  false);
            SCOPED_TRACE("shards=" + std::to_string(shards)
                         + " threads=" + std::to_string(threads));
            expectIdentical(reference, eval);
            EXPECT_EQ(eval.sharded.shardCount, shards);
        }
    }
}

TEST(ShardedRuntime, WatchdogIdenticalAcrossThreadsAtFixedShards)
{
    // Watchdog on: the shard count is semantic configuration, but the
    // thread count still must not change anything.
    const DesignEvaluation reference = runEval(3, 1, true);
    ASSERT_TRUE(reference.sharded.watchdogEnabled);
    ASSERT_EQ(reference.sharded.shards.size(), 3u);
    for (const std::size_t threads : {2u, 8u}) {
        const DesignEvaluation eval = runEval(3, threads, true);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectIdentical(reference, eval);
        EXPECT_EQ(eval.sharded.combinedState,
                  reference.sharded.combinedState);
        EXPECT_EQ(eval.sharded.violationEnvelope.lower,
                  reference.sharded.violationEnvelope.lower);
        EXPECT_EQ(eval.sharded.violationEnvelope.upper,
                  reference.sharded.violationEnvelope.upper);
        for (std::size_t k = 0; k < 3; ++k) {
            const auto &a = reference.sharded.shards[k].watchdog;
            const auto &b = eval.sharded.shards[k].watchdog;
            EXPECT_EQ(a.state, b.state);
            EXPECT_EQ(a.audits, b.audits);
            EXPECT_EQ(a.violations, b.violations);
            EXPECT_EQ(a.violationLowerBound, b.violationLowerBound);
            EXPECT_EQ(a.violationUpperBound, b.violationUpperBound);
        }
    }
}

TEST(ShardedRuntime, MergedEvidenceIsSlotOrderedReduction)
{
    const DesignEvaluation eval = runEval(4, 2, true);
    ASSERT_TRUE(eval.sharded.watchdogEnabled);
    ASSERT_EQ(eval.sharded.shards.size(), 4u);
    EXPECT_EQ(eval.sharded.shardConfidence,
              stats::splitConfidence(0.95, 4));

    std::size_t audits = 0;
    std::size_t violations = 0;
    std::size_t invocations = 0;
    stats::ProportionEnvelope expected;
    for (const ShardReport &shard : eval.sharded.shards) {
        audits += shard.watchdog.audits;
        violations += shard.watchdog.violations;
        invocations += shard.invocations;
        expected = stats::intersectEnvelopes(
            expected, {shard.watchdog.violationLowerBound,
                       shard.watchdog.violationUpperBound});
    }
    EXPECT_EQ(invocations, env().validation.totalInvocations());
    EXPECT_EQ(eval.sharded.violationEnvelope.lower, expected.lower);
    EXPECT_EQ(eval.sharded.violationEnvelope.upper, expected.upper);
    EXPECT_TRUE(eval.sharded.violationEnvelope.valid());
    // The pooled diagnostic is the one-look interval on the summed
    // per-shard audit counts at the full confidence (vacuous without
    // audits).
    stats::ProportionEnvelope pooled;
    if (audits > 0) {
        const stats::ProportionInterval interval =
            stats::clopperPearsonInterval(violations, audits, 0.95);
        pooled = {interval.lower, interval.upper};
    }
    EXPECT_EQ(eval.sharded.pooledEnvelope.lower, pooled.lower);
    EXPECT_EQ(eval.sharded.pooledEnvelope.upper, pooled.upper);
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
        EXPECT_EQ(tallies[k].audits(), audits);
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
