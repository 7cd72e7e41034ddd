/**
 * @file
 * The sharded, batch-first runtime decision loop.
 *
 * The runtime's one decision loop. The offline evaluator, served
 * models, compile-time calibration and the drift drills all decide
 * through runShardedDecisions(); DecisionEngine wraps it for streams
 * that keep per-shard watchdogs and totals across datasets or
 * batches. The loop has a two-level structure:
 *
 *  - **Shards.** Each dataset's invocation stream is split into N
 *    deterministic contiguous shards (ShardPlan). Shard boundaries are
 *    a pure function of (trace length, shard count) — never of thread
 *    count — so the partition itself is part of the experiment
 *    configuration, not of the machine it ran on. Shards execute via
 *    parallelFor; MITHRA_THREADS only changes which worker runs which
 *    shard, never what any shard computes.
 *  - **Blocks.** Inside a shard, decisions are produced by
 *    Classifier::decideBatch() over fixed-size blocks, which lets
 *    table designs use their SIMD quantize/hash kernels instead of a
 *    per-row virtual call. A serial per-shard accounting pass then
 *    applies the watchdog and the online-sampling schedule in
 *    ascending index order; only audited rows need their true error.
 *    Oracle false-decision counts are not runtime work: the offline
 *    Evaluator derives them from the final routing.
 *
 * Determinism contract (see DESIGN.md §12):
 *
 *  - With the watchdog off, the evaluation is bitwise identical for
 *    ANY shard count and ANY thread count: decisions are a pure
 *    function of (input, index) between dataset boundaries (see the
 *    sharded-runtime contract in classifier.hh), per-shard tallies are
 *    integers folded in slot order, and online observations are
 *    deferred to the dataset boundary where they are applied serially
 *    in ascending stream order.
 *  - With the watchdog on, each shard owns a watchdog whose state
 *    machine consumes that shard's subsequence, so results are bitwise
 *    identical across thread counts at a FIXED shard count; changing
 *    the shard count changes which invocations each watchdog sees and
 *    is a semantic configuration change. The offline evaluator runs
 *    with the watchdog off; served models take their shard count from
 *    the job spec.
 *
 * Evidence merging: each shard's watchdog runs its sequential
 * envelope at confidence 1 - alpha/N (stats::splitConfidence). By the
 * union bound, the intersection of the N per-shard envelopes is a
 * valid envelope on the common violation rate at the original
 * confidence 1 - alpha — this is the statistical price of sharding,
 * and it is predictable (the tests bound the gap). The merge itself
 * is a slot-ordered reduction: integer counts sum shard 0, 1, ...,
 * the combined state is the worst per-shard state, and the envelope
 * is the intersection — all independent of thread interleaving.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/classifier.hh"
#include "core/watchdog/watchdog.hh"
#include "stats/sequential_bound.hh"

namespace mithra::core
{

/**
 * Deterministic contiguous partition of one dataset's invocation
 * stream: shard k covers [begin(k), end(k)), sizes differ by at most
 * one (the first total % shards shards take the extra invocation).
 */
struct ShardPlan
{
    std::size_t total = 0;
    std::size_t shards = 1;

    ShardPlan(std::size_t totalInvocations, std::size_t shardCount);

    /** First invocation index of shard k (begin(shards) == total). */
    std::size_t begin(std::size_t k) const;
    /** One past the last invocation index of shard k. */
    std::size_t end(std::size_t k) const { return begin(k + 1); }
    /** Invocations in shard k. */
    std::size_t size(std::size_t k) const { return end(k) - begin(k); }
};

/**
 * Per-shard audit-schedule seed: decorrelates the shards' watchdog
 * schedules while keeping each a pure function of (base seed, shard).
 */
std::uint64_t shardSeed(std::uint64_t baseSeed, std::size_t shard);

/**
 * One decision pass's `count` row-major input rows of `width` floats,
 * and the true error of row i (paper Eq. 1), which the loop asks for
 * only when the watchdog audits that row — concurrently from
 * different shards. A trace converts implicitly, with its cached
 * errors; a served model computes them on demand (DESIGN.md §12).
 */
struct DecisionRows
{
    const float *inputs;
    std::size_t width;
    std::size_t count;
    std::function<float(std::size_t)> auditError;

    DecisionRows(const float *rows, std::size_t rowWidth,
                 std::size_t rowCount, std::function<float(std::size_t)> error)
        : inputs(rows), width(rowWidth), count(rowCount),
          auditError(std::move(error))
    {
    }
    DecisionRows(const axbench::InvocationTrace &trace)
        : DecisionRows(trace.inputsFlat().data(), trace.inputWidth(),
                       trace.count(),
                       [&trace](std::size_t i) { return trace.maxAbsError(i); })
    {
    }
};

/** What one shard counted while deciding its index range. */
struct ShardTally
{
    std::size_t invocations = 0;
    /** Invocations finally routed to the accelerator. */
    std::size_t accelerated = 0;
    /** Watchdog audits of either kind (precise re-runs and DEGRADED
     *  shadow runs of the gated accelerator). */
    std::size_t audits = 0;
    /** Audits whose true error exceeded the watchdog's threshold. */
    std::size_t violations = 0;
    /** Would-accelerate invocations a DEGRADED watchdog forced onto
     *  the precise path. */
    std::size_t forcedPrecise = 0;
    /** Trace index of the call's first entry into DEGRADED
     *  (watchdog::noTrip when none). */
    std::size_t firstTripAt = watchdog::noTrip;
    /**
     * Dataset positions picked by the online-sampling schedule, in
     * ascending order. The caller replays them through
     * Classifier::observe() at the dataset boundary — shard order then
     * ascending position reproduces the serial observation order.
     */
    std::vector<std::size_t> sampledIndices;
};

/** Knobs of one runShardedDecisions() pass over one dataset. */
struct DecisionLoopOptions
{
    /**
     * The watchdog's violation threshold: an audited invocation whose
     * true error exceeds it counts as a violation. DecisionEngine
     * builds its watchdogs with it; runShardedDecisions itself does
     * not read it (the watchdogs it is given carry their threshold).
     */
    double oracleThreshold = 0.0;
    /** Fraction of invocations whose true error is sampled online. */
    double onlineSampleRate = 0.0;
    /** Seed of the counter-based online-sampling schedule. */
    std::uint64_t sampleSeed = 0;
    /**
     * Global stream position of this dataset's first invocation: the
     * sampling schedule is indexed by streamOffset + i so it is a pure
     * function of the whole validation stream, independent of how
     * datasets are partitioned into shards.
     */
    std::uint64_t streamOffset = 0;
};

/**
 * Decide one dataset's invocations, sharded and batch-first.
 *
 * @param classifier the design under evaluation; beginDataset() must
 *                   already have been called for this dataset
 * @param rows       the dataset's input rows and their error source
 *                   (an InvocationTrace converts implicitly)
 * @param plan       the shard partition of [0, rows.count)
 * @param dogs       per-shard watchdogs — either empty (watchdog off)
 *                   or exactly plan.shards instances; dogs[k] consumes
 *                   shard k's subsequence in ascending order
 * @param options    loop knobs (see DecisionLoopOptions)
 * @param decisions  out: rows.count entries, 1 = accelerate
 *                   (recompose()'s convention), 0 = precise
 * @param tallies    out: resized to plan.shards, slot k holds shard
 *                   k's counts
 */
void runShardedDecisions(Classifier &classifier, const DecisionRows &rows,
                         const ShardPlan &plan,
                         std::vector<watchdog::Watchdog> &dogs,
                         const DecisionLoopOptions &options,
                         std::uint8_t *decisions,
                         std::vector<ShardTally> &tallies);

/** One shard's totals over the whole validation suite. */
struct ShardReport
{
    std::size_t invocations = 0;
    std::size_t accelerated = 0;
    /** Final watchdog snapshot; meaningful only when the parent
     *  ShardedEvaluation has watchdogEnabled set. */
    watchdog::Snapshot watchdog{};
};

/** The sharded engine's report surface for one evaluation. */
struct ShardedEvaluation
{
    /** Shards each dataset was split into. */
    std::size_t shardCount = 1;
    bool watchdogEnabled = false;
    /** Slot k = shard k, in shard order. */
    std::vector<ShardReport> shards;
    /** Worst per-shard watchdog state (severity Healthy < Recovered
     *  < Suspect < Degraded). */
    watchdog::State combinedState = watchdog::State::Healthy;
    /**
     * Intersection of the per-shard sequential envelopes on the
     * violation rate — valid at the full confidence by the union
     * bound (assuming the shards sample one common rate).
     */
    stats::ProportionEnvelope violationEnvelope{};
};

/**
 * Merge per-shard watchdog evidence into `out`: per-shard snapshots
 * into out.shards[k].watchdog, the worst combined state and the
 * envelope intersection. `confidence` is the FULL (unsplit)
 * confidence; every watchdog must run at splitConfidence(confidence,
 * dogs.size()), and out.shards must already have dogs.size() slots.
 * Deterministic: every reduction runs in shard-slot order.
 */
void mergeShardEvidence(const std::vector<watchdog::Watchdog> &dogs,
                        double confidence, ShardedEvaluation &out);

/**
 * The runtime decision engine behind every decision stream: the
 * offline Evaluator's validation suite (watchdog off) and each served
 * Model's `/invoke` stream.
 *
 * It owns what persists across the datasets or batches of one
 * stream: the per-shard watchdogs (built once, at the split
 * confidence and with per-shard schedule seeds), the stream position
 * that indexes the online-sampling schedule, and each shard's
 * lifetime totals. Not thread-safe: callers serialize decide() calls,
 * because the watchdog evidence stream is strictly ordered.
 */
class DecisionEngine
{
  public:
    /**
     * @param shards   shards each decided stream is split into (>= 1)
     * @param watchdog watchdog knobs; when enabled, shard k owns a
     *                 watchdog at splitConfidence(watchdog.confidence,
     *                 shards) seeded with shardSeed(watchdog.seed, k)
     * @param loop     decision-loop knobs; loop.oracleThreshold is
     *                 the watchdogs' violation threshold, and
     *                 loop.streamOffset the stream's first position
     */
    DecisionEngine(std::size_t shards,
                   const watchdog::WatchdogOptions &watchdog,
                   const DecisionLoopOptions &loop);

    /**
     * Decide one dataset or batch with runShardedDecisions() and
     * advance the stream position past it. beginDataset() must
     * already have been called on the classifier for this dataset.
     *
     * @param decisions out: rows.count entries, 1 = accelerate
     * @return this call's tallies folded in slot order: counts
     *         summed, firstTripAt the earliest trip, sampledIndices
     *         concatenated shard by shard (ascending stream order)
     */
    ShardTally decide(Classifier &classifier, const DecisionRows &rows,
                      std::uint8_t *decisions);

    /**
     * Each shard's lifetime totals and, with the watchdog on, the
     * merged evidence (mergeShardEvidence()).
     */
    ShardedEvaluation evidence() const;

    bool watchdogEnabled() const { return !dogs.empty(); }
    /** decide() calls so far. */
    std::size_t calls() const { return numCalls; }

  private:
    /** streamOffset is the current stream position. */
    DecisionLoopOptions loop;
    /** The full (unsplit) envelope confidence. */
    double confidence;
    std::vector<watchdog::Watchdog> dogs;
    std::vector<ShardReport> lifetime;
    std::vector<ShardTally> tallies;
    std::size_t numCalls = 0;
};

} // namespace mithra::core
