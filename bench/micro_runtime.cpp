/**
 * @file
 * Throughput microbenchmark of the sharded, batch-first runtime
 * decision loop (core/shard.hh): how many routed decisions per second
 * the table classifier sustains through a DecisionEngine, with
 * and without per-shard watchdogs, and how much the deterministic
 * evidence merge costs relative to deciding.
 *
 * Headline metrics (gated by tools/report-check --require in
 * run_benches.sh and the CI perf smoke job):
 *
 *   runtime.decisions_per_sec   routed decisions/sec, watchdog off
 *   runtime.shard_count         shards used (one per worker thread)
 *   runtime.merge_overhead_pct  DecisionEngine::evidence() (the
 *                               evidence merge) as a percentage of
 *                               decision time
 *
 * Host performance only — modeled hardware latency lives in sim/.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/shard.hh"
#include "core/table_classifier.hh"

using namespace mithra;
using namespace mithra::core;
using Clock = std::chrono::steady_clock;

namespace
{

constexpr std::size_t inputWidth = 6;
constexpr std::size_t traceRows = 1u << 20;

double
seconds(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/**
 * A synthetic invocation stream with a learnable precise region: the
 * accelerator's error is large when the first input coordinate is in
 * the top decile, plus a thin random fringe — roughly what a trained
 * table sees in deployment.
 */
axbench::InvocationTrace
makeTrace(Rng &rng)
{
    axbench::InvocationTrace trace(inputWidth, 1);
    Vec input(inputWidth);
    Vec precise(1);
    Vec approx(1);
    for (std::size_t i = 0; i < traceRows; ++i) {
        for (auto &v : input)
            v = static_cast<float>(rng.uniform());
        precise[0] = input[0] + input[1];
        const bool hard = input[0] > 0.9f || rng.bernoulli(0.02);
        approx[0] = precise[0]
            + (hard ? 0.3f : 0.01f)
                * static_cast<float>(rng.uniform());
        trace.appendWithApprox(input, precise, approx);
    }
    return trace;
}

/** Label against the same threshold the loop audits with. */
TableClassifier
trainTable(const axbench::InvocationTrace &trace, double threshold)
{
    TrainingData data;
    data.threshold = threshold;
    const std::size_t tuples = 20000;
    for (std::size_t i = 0; i < tuples; ++i) {
        const std::size_t row = i * (traceRows / tuples);
        data.rawInputs.push_back(trace.inputVec(row));
        data.labels.push_back(
            trace.maxAbsError(row) > static_cast<float>(threshold)
                ? 1
                : 0);
    }
    return TableClassifier::train(data, TableClassifierOptions{});
}

} // namespace

int
main()
{
    setInformEnabled(false);
    Rng rng(0xbe7c5);
    const double threshold = 0.05;
    const axbench::InvocationTrace trace = makeTrace(rng);
    TableClassifier table = trainTable(trace, threshold);

    const std::size_t shardCount = parallelThreadCount();
    DecisionLoopOptions loop;
    loop.oracleThreshold = threshold;
    std::vector<std::uint8_t> decisions(trace.count(), 0);

    // Watchdog-off pass: the headline routed-decision throughput.
    DecisionEngine off(shardCount, watchdog::WatchdogOptions{}, loop);
    const std::size_t repsOff = 32;
    table.beginDataset(trace);
    off.decide(table, trace, decisions.data()); // warm-up
    std::size_t accelerated = 0;
    const auto beginOff = Clock::now();
    for (std::size_t rep = 0; rep < repsOff; ++rep) {
        table.beginDataset(trace);
        accelerated = off.decide(table, trace, decisions.data())
                          .accelerated;
    }
    const double offSeconds = seconds(beginOff, Clock::now());
    const double offDecisions =
        static_cast<double>(repsOff) * static_cast<double>(trace.count());
    const double decisionsPerSec = offDecisions / offSeconds;
    const double accelFraction = static_cast<double>(accelerated)
        / static_cast<double>(trace.count());

    // Watchdog-on pass: per-shard state machines and audits on the
    // same stream, with the slot-ordered merge timed separately.
    watchdog::WatchdogOptions wdOptions;
    wdOptions.enabled = true;
    wdOptions.baseAuditRate = 0.02;
    DecisionEngine on(shardCount, wdOptions, loop);

    const std::size_t repsOn = 8;
    double mergeSeconds = 0.0;
    ShardedEvaluation evidence;
    const auto beginOn = Clock::now();
    for (std::size_t rep = 0; rep < repsOn; ++rep) {
        table.beginDataset(trace);
        on.decide(table, trace, decisions.data());

        const auto beginMerge = Clock::now();
        evidence = on.evidence();
        mergeSeconds += seconds(beginMerge, Clock::now());
    }
    const double onSeconds = seconds(beginOn, Clock::now());
    const double onDecisions =
        static_cast<double>(repsOn) * static_cast<double>(trace.count());
    const double watchdogPerSec = onDecisions / onSeconds;
    const double mergeOverheadPct =
        100.0 * mergeSeconds / (onSeconds - mergeSeconds);

    std::printf("micro_runtime: sharded decision-loop throughput\n");
    std::printf("  shards                 %zu (threads %zu)\n",
                shardCount, parallelThreadCount());
    std::printf("  decisions/sec          %.3e (watchdog off)\n",
                decisionsPerSec);
    std::printf("  decisions/sec          %.3e (watchdog on)\n",
                watchdogPerSec);
    std::printf("  merge overhead         %.4f %%\n", mergeOverheadPct);
    std::printf("  accelerated fraction   %.3f\n", accelFraction);
    std::printf("  merged envelope        [%.4f, %.4f] @ %zu audits\n",
                evidence.violationEnvelope.lower,
                evidence.violationEnvelope.upper,
                evidence.shards.empty()
                    ? std::size_t{0}
                    : [&] {
                          std::size_t audits = 0;
                          for (const auto &shard : evidence.shards)
                              audits += shard.watchdog.audits;
                          return audits;
                      }());

    bench::writeBenchReport(
        "micro_runtime",
        {{"runtime.decisions_per_sec", decisionsPerSec},
         {"runtime.shard_count", static_cast<double>(shardCount)},
         {"runtime.merge_overhead_pct", mergeOverheadPct},
         {"runtime.decisions_per_sec_watchdog", watchdogPerSec},
         {"runtime.accel_fraction", accelFraction}});
    return 0;
}
