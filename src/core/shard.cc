#include "core/shard.hh"

#include <algorithm>

#include "common/contracts.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"

namespace mithra::core
{

ShardPlan::ShardPlan(std::size_t totalInvocations,
                     std::size_t shardCount)
    : total(totalInvocations), shards(shardCount)
{
    MITHRA_EXPECTS(shards >= 1, "a plan needs at least one shard");
}

std::size_t
ShardPlan::begin(std::size_t k) const
{
    MITHRA_EXPECTS(k <= shards, "shard index out of range: ", k);
    const std::size_t base = total / shards;
    const std::size_t rem = total % shards;
    return k * base + (k < rem ? k : rem);
}

std::uint64_t
shardSeed(std::uint64_t baseSeed, std::size_t shard)
{
    // One SplitMix64 step over (base ^ golden * (shard + 1)): distinct
    // shards land in well-separated schedule streams even when the
    // base seeds are small consecutive integers.
    std::uint64_t state = baseSeed
        ^ (0x9e3779b97f4a7c15ULL
           * (static_cast<std::uint64_t>(shard) + 1));
    return splitMix64(state);
}

namespace
{

/** Invocations per decideBatch() block inside a shard. */
constexpr std::size_t decisionBlock = 512;

/**
 * The serial accounting pass over one decided block: watchdog
 * routing/audits and the online-sampling schedule, in ascending index
 * order. `decisions` holds decideBatch() output on entry (1 = precise)
 * and recompose() routing on exit (1 = accelerate).
 */
void
accountBlock(const DecisionRows &rows, watchdog::Watchdog *dog,
             const DecisionLoopOptions &options, std::size_t blockBegin,
             std::size_t blockEnd, std::uint8_t *decisions,
             ShardTally &tally)
{
    for (std::size_t i = blockBegin; i < blockEnd; ++i) {
        bool precise = decisions[i] != 0;

        if (dog) {
            // The watchdog may overrule the classifier (DEGRADED
            // forces the precise path) and may schedule an audit, the
            // only place the row's true error is asked for.
            const watchdog::Routing routing = dog->route(!precise);
            if (!precise && !routing.useAccel)
                ++tally.forcedPrecise;
            if (routing.audited()) {
                ++tally.audits;
                const bool wasDegraded = dog->degraded();
                if (dog->reportAudit(rows.auditError(i)))
                    ++tally.violations;
                if (!wasDegraded && dog->degraded()
                    && tally.firstTripAt == watchdog::noTrip)
                    tally.firstTripAt = i;
            }
            precise = !routing.useAccel;
        }

        decisions[i] = precise ? 0 : 1;
        tally.accelerated += precise ? 0 : 1;

        // Sporadic online sampling (paper §IV-C.1): the schedule is a
        // pure function of (seed, global stream index), so any shard
        // partition selects the same invocations. The observations
        // themselves are deferred to the dataset boundary.
        if (options.onlineSampleRate > 0.0
            && indexedBernoulli(options.sampleSeed,
                                options.streamOffset + i,
                                options.onlineSampleRate)) {
            tally.sampledIndices.push_back(i);
        }
    }
}

/** Severity order for the combined state (worst wins). */
int
stateSeverity(watchdog::State state)
{
    switch (state) {
    case watchdog::State::Healthy:
        return 0;
    case watchdog::State::Recovered:
        return 1;
    case watchdog::State::Suspect:
        return 2;
    case watchdog::State::Degraded:
        return 3;
    }
    return 3;
}

} // namespace

void
runShardedDecisions(Classifier &classifier, const DecisionRows &rows,
                    const ShardPlan &plan,
                    std::vector<watchdog::Watchdog> &dogs,
                    const DecisionLoopOptions &options,
                    std::uint8_t *decisions,
                    std::vector<ShardTally> &tallies)
{
    MITHRA_EXPECTS(plan.total == rows.count,
                   "plan covers ", plan.total, " invocations, got ",
                   rows.count, " rows");
    MITHRA_EXPECTS(dogs.empty() || dogs.size() == plan.shards,
                   "need one watchdog per shard or none, got ",
                   dogs.size(), " for ", plan.shards, " shards");

    tallies.assign(plan.shards, ShardTally{});
    const bool approximate = classifier.approximationEnabled();

    parallelFor(0, plan.shards, 1, [&](std::size_t k) {
        const std::size_t shardBegin = plan.begin(k);
        const std::size_t shardEnd = plan.end(k);
        watchdog::Watchdog *dog = dogs.empty() ? nullptr : &dogs[k];
        ShardTally &tally = tallies[k];
        tally.invocations = shardEnd - shardBegin;

        for (std::size_t blockBegin = shardBegin;
             blockBegin < shardEnd; blockBegin += decisionBlock) {
            const std::size_t blockEnd =
                std::min(blockBegin + decisionBlock, shardEnd);
            const std::size_t count = blockEnd - blockBegin;

            // Batch-decide straight into the decisions buffer (shards
            // cover disjoint ranges), then run the serial accounting
            // pass which rewrites it into routing convention.
            if (approximate) {
                classifier.decideBatch(rows.inputs + blockBegin * rows.width,
                                       rows.width, count, blockBegin,
                                       decisions + blockBegin);
            } else {
                // Fail closed: every decision is "precise".
                for (std::size_t i = 0; i < count; ++i)
                    decisions[blockBegin + i] = 1;
            }
            accountBlock(rows, dog, options, blockBegin, blockEnd,
                         decisions, tally);
        }
    });
}

void
mergeShardEvidence(const std::vector<watchdog::Watchdog> &dogs,
                   double confidence, ShardedEvaluation &out)
{
    MITHRA_EXPECTS(!dogs.empty(), "no shard evidence to merge");
    MITHRA_EXPECTS(out.shards.size() == dogs.size(),
                   "report has ", out.shards.size(), " shard slots for ",
                   dogs.size(), " watchdogs");

    out.watchdogEnabled = true;
    out.combinedState = watchdog::State::Healthy;
    out.violationEnvelope = stats::ProportionEnvelope{};
    for (std::size_t k = 0; k < dogs.size(); ++k) {
        // The union bound needs every shard at its alpha / N share.
        MITHRA_EXPECTS(dogs[k].bound().confidence()
                           == stats::splitConfidence(confidence, dogs.size()),
                       "shard ", k, " did not run at the split confidence");
        const watchdog::Snapshot snap = dogs[k].snapshot();
        out.shards[k].watchdog = snap;

        if (stateSeverity(snap.state)
            > stateSeverity(out.combinedState))
            out.combinedState = snap.state;

        const stats::ProportionEnvelope shardEnvelope{
            snap.violationLowerBound, snap.violationUpperBound};
        out.violationEnvelope =
            stats::intersectEnvelopes(out.violationEnvelope,
                                      shardEnvelope);
    }
}

DecisionEngine::DecisionEngine(std::size_t shards,
                               const watchdog::WatchdogOptions &watchdog,
                               const DecisionLoopOptions &loopOptions)
    : loop(loopOptions), confidence(watchdog.confidence),
      lifetime(shards)
{
    MITHRA_EXPECTS(shards >= 1, "an engine needs at least one shard");
    if (!watchdog.enabled)
        return;
    // Per-shard watchdogs at the split confidence: the merged
    // envelope then holds at the configured confidence by the union
    // bound.
    dogs.reserve(shards);
    for (std::size_t k = 0; k < shards; ++k) {
        watchdog::WatchdogOptions perShard = watchdog;
        perShard.confidence =
            stats::splitConfidence(watchdog.confidence, shards);
        perShard.seed = shardSeed(watchdog.seed, k);
        dogs.emplace_back(perShard, loop.oracleThreshold);
    }
}

ShardTally
DecisionEngine::decide(Classifier &classifier, const DecisionRows &rows,
                       std::uint8_t *decisions)
{
    runShardedDecisions(classifier, rows,
                        ShardPlan(rows.count, lifetime.size()), dogs,
                        loop, decisions, tallies);
    loop.streamOffset += rows.count;
    ++numCalls;

    // Slot-ordered fold: shard 0, 1, ... regardless of which worker
    // finished first, so every total is independent of thread count.
    ShardTally call;
    for (std::size_t k = 0; k < tallies.size(); ++k) {
        const ShardTally &tally = tallies[k];
        call.invocations += tally.invocations;
        call.accelerated += tally.accelerated;
        call.audits += tally.audits;
        call.violations += tally.violations;
        call.forcedPrecise += tally.forcedPrecise;
        call.firstTripAt = std::min(call.firstTripAt, tally.firstTripAt);
        call.sampledIndices.insert(call.sampledIndices.end(),
                                   tally.sampledIndices.begin(),
                                   tally.sampledIndices.end());

        ShardReport &report = lifetime[k];
        report.invocations += tally.invocations;
        report.accelerated += tally.accelerated;
    }
    return call;
}

ShardedEvaluation
DecisionEngine::evidence() const
{
    ShardedEvaluation out;
    out.shardCount = lifetime.size();
    out.shards = lifetime;
    if (!dogs.empty())
        mergeShardEvidence(dogs, confidence, out);
    return out;
}

} // namespace mithra::core
