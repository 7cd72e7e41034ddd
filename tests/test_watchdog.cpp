/**
 * @file
 * Watchdog layer tests: the sequential Clopper–Pearson envelope
 * against brute-force binomial tail sums, the audit schedule's
 * determinism and thread-count independence, the state machine's
 * transitions and hysteresis, and the contract death tests.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "axbench/benchmark.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/shard.hh"
#include "core/watchdog/watchdog.hh"
#include "stats/clopper_pearson.hh"
#include "stats/sequential_bound.hh"

using namespace mithra;
using core::watchdog::noTrip;
using core::watchdog::Routing;
using core::watchdog::State;
using core::watchdog::Watchdog;
using core::watchdog::WatchdogOptions;

namespace
{

/** Exact binomial tail P(X >= k) for X ~ Bin(n, p), brute force. */
double
binomialUpperTail(std::size_t k, std::size_t n, double p)
{
    // Sum C(n, i) p^i (1-p)^(n-i) for i in [k, n], accumulating the
    // binomial coefficient incrementally in doubles (n stays small).
    double tail = 0.0;
    double coeff = 1.0; // C(n, 0)
    for (std::size_t i = 0; i <= n; ++i) {
        if (i >= k) {
            tail += coeff * std::pow(p, static_cast<double>(i))
                * std::pow(1.0 - p,
                           static_cast<double>(n - i));
        }
        coeff *= static_cast<double>(n - i)
            / static_cast<double>(i + 1);
    }
    return tail;
}

/** Exact binomial CDF P(X <= k), brute force. */
double
binomialLowerTail(std::size_t k, std::size_t n, double p)
{
    double cdf = 0.0;
    double coeff = 1.0;
    for (std::size_t i = 0; i <= k; ++i) {
        cdf += coeff * std::pow(p, static_cast<double>(i))
            * std::pow(1.0 - p, static_cast<double>(n - i));
        coeff *= static_cast<double>(n - i)
            / static_cast<double>(i + 1);
    }
    return cdf;
}

} // namespace

TEST(SequentialAlpha, SpendingScheduleSumsToAlpha)
{
    const double alpha = 0.05;
    double spent = 0.0;
    for (std::size_t look = 0; look < 10000; ++look)
        spent += stats::sequentialAlphaAtLook(alpha, look);
    // The Basel series converges to alpha from below.
    EXPECT_LT(spent, alpha);
    EXPECT_GT(spent, 0.999 * alpha);
    // Early looks get the biggest budget.
    EXPECT_GT(stats::sequentialAlphaAtLook(alpha, 0),
              stats::sequentialAlphaAtLook(alpha, 1));
}

TEST(SequentialBound, MatchesBruteForceBinomialTails)
{
    // Feed a fixed Bernoulli stream and verify each look's envelope
    // refinement against the defining tail-sum equations of the
    // Clopper–Pearson interval, evaluated by brute-force summation.
    stats::SequentialBoundOptions opts;
    opts.confidence = 0.95;
    opts.firstLook = 8;
    opts.lookGrowth = 1.5;
    stats::SequentialBinomialBound bound(opts);

    Rng rng(0x5eed5ULL);
    const double alpha = 1.0 - opts.confidence;
    double upperEnvelope = 1.0;
    double lowerEnvelope = 0.0;
    std::size_t looks = 0;
    std::size_t successes = 0;

    for (std::size_t i = 0; i < 200; ++i) {
        const bool success = rng.bernoulli(0.3);
        successes += success ? 1 : 0;
        const std::size_t n = i + 1;

        const bool lookDue = n == bound.nextLookAt();
        bound.record(success);
        ASSERT_EQ(bound.observations(), n);
        ASSERT_EQ(bound.successes(), successes);

        if (!lookDue)
            continue;
        ++looks;
        ASSERT_EQ(bound.looksTaken(), looks);

        const double lookAlpha =
            stats::sequentialAlphaAtLook(alpha, looks - 1);
        const double tailMass = lookAlpha / 2.0;

        // Reference interval straight from the tail-sum definitions.
        const double upper = stats::clopperPearsonUpper(
            successes, n, 1.0 - tailMass);
        const double lower = stats::clopperPearsonLower(
            successes, n, 1.0 - tailMass);

        // Brute-force check of the reference interval itself: at the
        // upper limit, seeing <= k successes is exactly the spent tail
        // mass; at the lower limit, seeing >= k is.
        if (successes < n) {
            EXPECT_NEAR(binomialLowerTail(successes, n, upper),
                        tailMass, 1e-6)
                << "upper tail at look " << looks << " (n=" << n << ")";
        }
        if (successes > 0) {
            EXPECT_NEAR(binomialUpperTail(successes, n, lower),
                        tailMass, 1e-6)
                << "lower tail at look " << looks << " (n=" << n << ")";
        }

        upperEnvelope = std::min(upperEnvelope, upper);
        lowerEnvelope = std::max(lowerEnvelope, lower);
        EXPECT_DOUBLE_EQ(bound.upperBound(), upperEnvelope);
        EXPECT_DOUBLE_EQ(bound.lowerBound(), lowerEnvelope);
    }

    EXPECT_GE(looks, 5u);
    EXPECT_GT(bound.lowerBound(), 0.0);
    EXPECT_LT(bound.upperBound(), 1.0);
    EXPECT_LE(bound.lowerBound(), 0.3);
    EXPECT_GE(bound.upperBound(), 0.3);
}

TEST(SequentialBound, EnvelopeOnlyTightens)
{
    stats::SequentialBinomialBound bound(0.9);
    double upper = 1.0;
    double lower = 0.0;
    Rng rng(0xfeedULL);
    for (std::size_t i = 0; i < 500; ++i) {
        bound.record(rng.bernoulli(0.5));
        EXPECT_LE(bound.upperBound(), upper);
        EXPECT_GE(bound.lowerBound(), lower);
        EXPECT_LE(bound.lowerBound(), bound.upperBound());
        upper = bound.upperBound();
        lower = bound.lowerBound();
    }
}

TEST(SequentialBound, ResetRestartsTheSchedule)
{
    stats::SequentialBinomialBound bound(0.95);
    const std::size_t firstLook = bound.nextLookAt();
    for (int i = 0; i < 50; ++i)
        bound.record(i % 2 == 0);
    ASSERT_GT(bound.looksTaken(), 0u);

    bound.reset();
    EXPECT_EQ(bound.observations(), 0u);
    EXPECT_EQ(bound.successes(), 0u);
    EXPECT_EQ(bound.looksTaken(), 0u);
    EXPECT_EQ(bound.nextLookAt(), firstLook);
    EXPECT_DOUBLE_EQ(bound.upperBound(), 1.0);
    EXPECT_DOUBLE_EQ(bound.lowerBound(), 0.0);
}

TEST(AuditSchedule, DensityTracksRateAndRampsAreSupersets)
{
    const std::uint64_t seed = 0xd09ULL;
    std::size_t base = 0;
    std::size_t ramped = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) {
        const bool atBase = Watchdog::auditScheduled(seed, i, 0.02);
        const bool atRamp = Watchdog::auditScheduled(seed, i, 0.2);
        base += atBase ? 1 : 0;
        ramped += atRamp ? 1 : 0;
        // Monotone in the rate: ramping up never unschedules an audit.
        if (atBase) {
            EXPECT_TRUE(atRamp) << "index " << i;
        }
    }
    EXPECT_NEAR(static_cast<double>(base) / 100000.0, 0.02, 0.005);
    EXPECT_NEAR(static_cast<double>(ramped) / 100000.0, 0.2, 0.01);

    EXPECT_FALSE(Watchdog::auditScheduled(seed, 7, 0.0));
    EXPECT_TRUE(Watchdog::auditScheduled(seed, 7, 1.0));
}

TEST(AuditSchedule, BitwiseIdenticalAcrossThreadCounts)
{
    // The audit schedule and the state machine must not depend on
    // MITHRA_THREADS. Interleave the serial watchdog loop with real
    // parallel work at 1/2/8 threads and require the byte-exact same
    // audit/decision/state sequence every time.
    const double threshold = 0.5;
    WatchdogOptions opts;
    opts.enabled = true;
    opts.suspectMinAudits = 4;

    // Synthetic error stream: mostly clean, violating from index 600.
    std::vector<float> errors;
    {
        Rng rng(0xabcdULL);
        for (std::size_t i = 0; i < 1200; ++i) {
            const bool bad = i >= 600 || rng.bernoulli(0.01);
            errors.push_back(bad ? 1.0f : 0.1f);
        }
    }

    const std::size_t savedThreads = parallelThreadCount();
    std::vector<std::vector<std::uint8_t>> signatures;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        setParallelThreadCount(threads);
        // Engage the pool with unrelated parallel work between
        // watchdog steps so any hidden coupling would surface.
        std::vector<double> scratch(4096);
        parallelFor(0, scratch.size(), 256, [&](std::size_t i) {
            scratch[i] = static_cast<double>(i) * 0.5;
        });

        Watchdog dog(opts, threshold);
        std::vector<std::uint8_t> signature;
        for (std::size_t i = 0; i < errors.size(); ++i) {
            const Routing routing = dog.route(true);
            if (routing.audited())
                dog.reportAudit(errors[i]);
            signature.push_back(static_cast<std::uint8_t>(
                (routing.useAccel ? 1 : 0)
                | (routing.auditPrecise ? 2 : 0)
                | (routing.auditShadowAccel ? 4 : 0)
                | (static_cast<int>(dog.state()) << 3)));
        }
        const auto snap = dog.snapshot();
        signature.push_back(static_cast<std::uint8_t>(snap.audits));
        signature.push_back(static_cast<std::uint8_t>(snap.trips));
        signatures.push_back(std::move(signature));
    }
    setParallelThreadCount(savedThreads);

    ASSERT_EQ(signatures.size(), 3u);
    EXPECT_EQ(signatures[0], signatures[1]);
    EXPECT_EQ(signatures[0], signatures[2]);
}

namespace
{

/** Drive `count` accelerated invocations with a fixed error value. */
std::size_t
feed(Watchdog &dog, std::size_t count, float error)
{
    std::size_t audits = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const Routing routing = dog.route(true);
        if (routing.audited()) {
            dog.reportAudit(error);
            ++audits;
        }
    }
    return audits;
}

/** Options that audit every accelerated invocation (fast tests). */
WatchdogOptions
fullAuditOptions()
{
    WatchdogOptions opts;
    opts.enabled = true;
    opts.baseAuditRate = 1.0;
    opts.suspectAuditRate = 1.0;
    opts.degradedAuditRate = 1.0;
    return opts;
}

} // namespace

TEST(WatchdogStateMachine, CleanStreamStaysHealthy)
{
    Watchdog dog(fullAuditOptions(), 0.5);
    feed(dog, 5000, 0.1f);

    const auto snap = dog.snapshot();
    EXPECT_EQ(snap.state, State::Healthy);
    EXPECT_EQ(snap.trips, 0u);
    EXPECT_EQ(snap.suspectEntries, 0u);
    EXPECT_EQ(snap.forcedPrecise, 0u);
    EXPECT_EQ(snap.firstTripAt, noTrip);
    // The envelope certifies a violation rate far below the contract.
    EXPECT_LT(snap.violationUpperBound, 0.1);
}

TEST(WatchdogStateMachine, RareViolationsBelowContractNeverTrip)
{
    // True violation rate ~2% against a 10% contract: the realistic
    // healthy regime. Sporadic violations must not trip or even raise
    // sustained suspicion.
    WatchdogOptions opts = fullAuditOptions();
    Watchdog dog(opts, 0.5);
    Rng rng(0x11ceULL);
    for (std::size_t i = 0; i < 20000; ++i) {
        const Routing routing = dog.route(true);
        if (routing.audited())
            dog.reportAudit(rng.bernoulli(0.02) ? 1.0f : 0.1f);
    }
    const auto snap = dog.snapshot();
    EXPECT_EQ(snap.state, State::Healthy);
    EXPECT_EQ(snap.trips, 0u);
    EXPECT_LT(snap.violationUpperBound, 0.1);
    EXPECT_GT(snap.violations, 0u);
}

TEST(WatchdogStateMachine, SustainedViolationsTripToDegraded)
{
    Watchdog dog(fullAuditOptions(), 0.5);
    feed(dog, 200, 1.0f);

    const auto snap = dog.snapshot();
    EXPECT_EQ(snap.state, State::Degraded);
    EXPECT_EQ(snap.suspectEntries, 1u);
    EXPECT_EQ(snap.trips, 1u);
    EXPECT_NE(snap.firstTripAt, noTrip);
    EXPECT_LT(snap.firstTripAt, 100u);
    // Degraded forces the precise path but keeps shadow-auditing.
    const Routing routing = dog.route(true);
    EXPECT_FALSE(routing.useAccel);
    EXPECT_FALSE(routing.auditPrecise);
    EXPECT_TRUE(routing.auditShadowAccel);
    dog.reportAudit(1.0f);
    EXPECT_GT(dog.snapshot().forcedPrecise, 0u);
}

TEST(WatchdogStateMachine, SuspicionClearsWithoutConfidentEvidence)
{
    // A short violation burst raises SUSPECT; clean audits afterwards
    // must certify health and return to HEALTHY without a trip.
    WatchdogOptions opts = fullAuditOptions();
    opts.suspectMinAudits = 4;
    Watchdog dog(opts, 0.5);

    feed(dog, 6, 1.0f); // point rate 100% > 10%: SUSPECT
    ASSERT_EQ(dog.state(), State::Suspect);

    feed(dog, 2000, 0.1f);
    const auto snap = dog.snapshot();
    EXPECT_EQ(snap.state, State::Healthy);
    EXPECT_EQ(snap.suspectEntries, 1u);
    EXPECT_EQ(snap.trips, 0u);
}

TEST(WatchdogStateMachine, RecoversThroughProbationAfterFaultClears)
{
    WatchdogOptions opts = fullAuditOptions();
    Watchdog dog(opts, 0.5);

    feed(dog, 200, 1.0f);
    ASSERT_EQ(dog.state(), State::Degraded);

    // Fault clears: shadow audits run clean. The watchdog must demand
    // recoveryMinAudits and a certified margin before re-enabling.
    std::size_t shadowAudits = 0;
    while (dog.state() == State::Degraded && shadowAudits < 10000)
        shadowAudits += feed(dog, 1, 0.1f);
    ASSERT_EQ(dog.state(), State::Recovered);
    EXPECT_GE(shadowAudits, opts.recoveryMinAudits);

    // Recovered accelerates again (on probation, still audited).
    const Routing routing = dog.route(true);
    EXPECT_TRUE(routing.useAccel);
    EXPECT_TRUE(routing.auditPrecise);
    dog.reportAudit(0.1f);

    feed(dog, 2000, 0.1f);
    const auto snap = dog.snapshot();
    EXPECT_EQ(snap.state, State::Healthy);
    EXPECT_EQ(snap.recoveries, 1u);
    EXPECT_EQ(snap.trips, 1u);
}

TEST(WatchdogStateMachine, ProbationRelapseTripsAgain)
{
    WatchdogOptions opts = fullAuditOptions();
    Watchdog dog(opts, 0.5);

    feed(dog, 200, 1.0f);
    ASSERT_EQ(dog.state(), State::Degraded);
    std::size_t guard = 0;
    while (dog.state() == State::Degraded && guard++ < 10000)
        feed(dog, 1, 0.1f);
    ASSERT_EQ(dog.state(), State::Recovered);

    // The fault comes back during probation: straight back to
    // DEGRADED, counting a second trip.
    feed(dog, 200, 1.0f);
    const auto snap = dog.snapshot();
    EXPECT_EQ(snap.state, State::Degraded);
    EXPECT_EQ(snap.trips, 2u);
    EXPECT_EQ(snap.recoveries, 1u);
}

TEST(WatchdogStateMachine, PrecisePathInvocationsAreNotAudited)
{
    Watchdog dog(fullAuditOptions(), 0.5);
    for (std::size_t i = 0; i < 100; ++i) {
        const Routing routing = dog.route(false);
        EXPECT_FALSE(routing.useAccel);
        EXPECT_FALSE(routing.audited());
    }
    EXPECT_EQ(dog.snapshot().audits, 0u);
    EXPECT_EQ(dog.snapshot().invocations, 100u);
}

TEST(WatchdogStream, CleanTraceWithRealClassifierNeverTrips)
{
    // The decision loop over a synthetic trace whose approximations
    // are good: the drift-off invariant (zero DEGRADED transitions)
    // end to end.
    class AcceptAll final : public core::Classifier
    {
      public:
        std::string kind() const override { return "accept-all"; }
        bool decidePrecise(const Vec &, std::size_t) override
        {
            return false;
        }
        sim::ClassifierCost cost() const override { return {}; }
        std::size_t configSizeBytes() const override { return 0; }
    };

    axbench::InvocationTrace trace(1, 1);
    Rng rng(0x70a57ULL);
    for (std::size_t i = 0; i < 4000; ++i) {
        const auto x = static_cast<float>(rng.uniform());
        const bool rare = rng.bernoulli(0.01);
        trace.appendWithApprox({x}, {1.0f},
                               {rare ? 2.0f : 1.05f});
    }

    WatchdogOptions opts;
    opts.enabled = true;
    std::vector<Watchdog> dogs{Watchdog(opts, 0.5)};
    AcceptAll classifier;
    classifier.beginDataset(trace);
    std::vector<std::uint8_t> decisions(trace.count());
    std::vector<core::ShardTally> tallies;
    core::runShardedDecisions(classifier, trace,
                              core::ShardPlan(trace.count(), 1), dogs,
                              core::DecisionLoopOptions{},
                              decisions.data(), tallies);

    const auto snapshot = dogs.front().snapshot();
    EXPECT_EQ(tallies.front().invocations, 4000u);
    EXPECT_EQ(tallies.front().firstTripAt, noTrip);
    EXPECT_EQ(snapshot.trips, 0u);
    EXPECT_EQ(snapshot.state, State::Healthy);
    EXPECT_GT(snapshot.audits, 0u);
}

TEST(WatchdogOptionsEnv, DefaultsAreOffAndSane)
{
    const WatchdogOptions opts;
    EXPECT_FALSE(opts.enabled);
    EXPECT_GT(opts.baseAuditRate, 0.0);
    EXPECT_GT(opts.suspectAuditRate, opts.baseAuditRate);
    EXPECT_GT(opts.maxViolationRate, 0.0);
    EXPECT_LT(opts.maxViolationRate, 1.0);
    EXPECT_GT(opts.recoverMargin, 0.0);
    EXPECT_LE(opts.recoverMargin, 1.0);
}

TEST(WatchdogDeath, SequentialBoundRejectsInvalidConfidence)
{
    EXPECT_DEATH(stats::SequentialBinomialBound bound(1.5),
                 "confidence");
}

TEST(WatchdogDeath, SequentialBoundRejectsZeroConfidence)
{
    EXPECT_DEATH(stats::SequentialBinomialBound bound(0.0),
                 "confidence");
}

TEST(WatchdogDeath, ReportWithoutScheduledAuditIsRejected)
{
    WatchdogOptions opts;
    Watchdog dog(opts, 0.5);
    EXPECT_DEATH(dog.reportAudit(0.1f), "audit");
}

TEST(WatchdogDeath, RouteWithUnreportedAuditIsRejected)
{
    Watchdog dog(fullAuditOptions(), 0.5);
    const Routing routing = dog.route(true);
    ASSERT_TRUE(routing.audited());
    EXPECT_DEATH(dog.route(true), "unreported");
}
