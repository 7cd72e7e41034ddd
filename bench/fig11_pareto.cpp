/**
 * @file
 * Figure 11: Pareto analysis of the table-based design at 5% quality
 * loss — number of parallel tables x per-table size against the mean
 * accelerator invocation rate.
 *
 * Shape to match: tiny tables alias destructively and lose benefit;
 * capacity beyond ~4 KB total stops paying; more tables at the same
 * per-table size help (distinct hash functions); 8 tables x 0.5 KB is
 * the (paper's) Pareto-optimal default.
 *
 * Since the DSE rework the figure runs on the surrogate-guided
 * explorer (DESIGN.md §15): by default the sweep is pruned — only
 * seed points and candidates the surrogate cannot rule out are
 * evaluated exactly, and the per-benchmark Pareto fronts are printed
 * from measured points. Pass --exhaustive to brute-force the full
 * grid through the same engine and print the classic aggregate table
 * (byte-for-byte the pre-DSE output), which doubles as the engine's
 * accuracy reference. Pass --bits to run the quantizer-width ablation
 * instead (the other design choice DESIGN.md calls out).
 */

#include <cstdio>
#include <cstring>

#include "bench_common.hh"
#include "axbench/registry.hh"
#include "common/logging.hh"
#include "core/report.hh"
#include "dse/explorer.hh"
#include "stats/summary.hh"

using namespace mithra;

namespace
{

/** The paper's Figure 11 grid. */
dse::DseAxes
fig11Axes()
{
    dse::DseAxes axes;
    axes.tableCounts = {1, 2, 4, 8};
    axes.tableBytes = {128, 512, 2048, 4096};
    axes.quantizerBits = {0};
    return axes;
}

/**
 * Brute force the grid through the explorer's exhaustive mode and
 * print the classic aggregate table. Output is byte-for-byte the
 * pre-DSE harness: same prefetch behaviour, same label format, same
 * aggregation in the same order.
 */
void
runExhaustiveSweep(core::ExperimentRunner &runner)
{
    core::printBanner("Figure 11: Pareto analysis of the table-based "
                      "design (5% quality loss)");

    const dse::DseAxes axes = fig11Axes();
    const auto spec = bench::headlineSpec();

    // Compiles everything in parallel on the first uncached
    // configuration; a no-op afterwards.
    for (std::size_t count : axes.tableCounts) {
        for (std::size_t bytes : axes.tableBytes) {
            core::RunOptions options;
            options.geometry.numTables = count;
            options.geometry.tableBytes = bytes;
            options.skipCalibration = true;
            runner.prefetch(axbench::benchmarkNames(), {spec},
                            {core::Design::Table}, options);
        }
    }

    dse::DseOptions dseOptions;
    dseOptions.exhaustive = true;
    const dse::Explorer explorer(dseOptions);
    std::vector<dse::DseResult> results;
    for (const auto &name : axbench::benchmarkNames())
        results.push_back(explorer.explore(runner, name, spec, axes));

    core::TablePrinter table({"configuration", "total size",
                              "mean invocation rate",
                              "mean quality met"});
    std::size_t candidate = 0;
    for (std::size_t count : axes.tableCounts) {
        for (std::size_t bytes : axes.tableBytes) {
            std::vector<double> rates;
            std::size_t successes = 0, trials = 0;
            for (const dse::DseResult &result : results) {
                const auto &eval =
                    result.candidates[candidate].record.eval;
                rates.push_back(eval.invocationRate);
                successes += eval.successes;
                trials += eval.trials;
            }
            ++candidate;

            char label[64];
            std::snprintf(label, sizeof(label), "%zuT x %.3f KB", count,
                          static_cast<double>(bytes) / 1024.0);
            table.addRow({label,
                          core::fmtKb(static_cast<double>(count * bytes),
                                      3),
                          core::fmtPct(100.0 * stats::mean(rates)),
                          std::to_string(successes) + "/"
                              + std::to_string(trials)});
        }
    }
    table.print();
    std::printf("\nThe paper's Pareto-optimal configuration is 8T x "
                "0.5 KB (4 KB total, uncompressed).\n");
}

/**
 * The surrogate-pruned default: per-benchmark Pareto fronts from
 * exactly evaluated survivors only. Returns the per-benchmark results
 * so main() can report the savings headline.
 */
std::vector<dse::DseResult>
runPrunedSweep(core::ExperimentRunner &runner)
{
    core::printBanner("Figure 11: surrogate-pruned Pareto analysis "
                      "of the table-based design (5% quality loss)");

    const dse::DseAxes axes = fig11Axes();
    const auto spec = bench::headlineSpec();
    const dse::Explorer explorer;

    std::vector<dse::DseResult> results;
    core::TablePrinter table({"benchmark", "configuration",
                              "total size", "invocation rate",
                              "quality met"});
    for (const auto &name : axbench::benchmarkNames()) {
        dse::DseResult result =
            explorer.explore(runner, name, spec, axes);
        for (const std::size_t at : result.front) {
            const dse::DseCandidate &point = result.candidates[at];
            char label[64];
            std::snprintf(label, sizeof(label), "%zuT x %.3f KB",
                          point.options.geometry.numTables,
                          static_cast<double>(
                              point.options.geometry.tableBytes)
                              / 1024.0);
            table.addRow(
                {name, label, core::fmtKb(point.costBytes, 3),
                 core::fmtPct(100.0 * point.record.eval.invocationRate),
                 std::to_string(point.record.eval.successes) + "/"
                     + std::to_string(point.record.eval.trials)});
        }
        std::printf("%s: %zu/%zu exact evals (%.1f%% saved, "
                    "%zu front points)\n",
                    name.c_str(), result.exactEvalsSelected,
                    result.candidates.size(), result.savedPct,
                    result.front.size());
        results.push_back(std::move(result));
    }
    table.print();
    std::printf("\nPass --exhaustive for the brute-force reference "
                "grid (the pre-DSE figure).\n");
    return results;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    core::ExperimentRunner runner;

    bool exhaustive = false;
    bool bitsMode = false;
    for (int arg = 1; arg < argc; ++arg) {
        if (std::strcmp(argv[arg], "--exhaustive") == 0)
            exhaustive = true;
        else if (std::strcmp(argv[arg], "--bits") == 0)
            bitsMode = true;
    }

    if (bitsMode) {
        core::printBanner("Ablation: table-classifier quantizer width "
                          "(5% quality loss, 8T x 0.5 KB)");

        const auto spec = bench::headlineSpec();
        for (unsigned bits = 1; bits <= 8; ++bits) {
            core::RunOptions options;
            options.quantizerBits = bits;
            options.skipCalibration = true;
            runner.prefetch(axbench::benchmarkNames(), {spec},
                            {core::Design::Table}, options);
        }

        core::TablePrinter table({"benchmark", "bits",
                                  "invocation rate", "FP", "FN",
                                  "quality met"});
        for (const auto &name : axbench::benchmarkNames()) {
            for (unsigned bits = 1; bits <= 8; ++bits) {
                // Skip configurations whose pattern space is
                // degenerate for very wide inputs (cost control).
                const auto facts = runner.workloadFacts(name);
                (void)facts;
                core::RunOptions options;
                options.quantizerBits = bits;
                options.skipCalibration = true;
                const auto record = runner.run(
                    name, spec, core::Design::Table, options);
                table.addRow(
                    {name, std::to_string(bits),
                     core::fmtPct(100.0 * record.eval.invocationRate),
                     core::fmtPct(100.0
                                  * record.eval.falsePositiveRate),
                     core::fmtPct(100.0
                                  * record.eval.falseNegativeRate),
                     std::to_string(record.eval.successes) + "/"
                         + std::to_string(record.eval.trials)});
            }
        }
        table.print();
        bench::writeBenchReport("fig11_pareto");
        return 0;
    }

    if (exhaustive) {
        runExhaustiveSweep(runner);
        bench::writeBenchReport("fig11_pareto");
        return 0;
    }

    const std::vector<dse::DseResult> results = runPrunedSweep(runner);
    double savedPct = 0.0, speedup = 0.0;
    for (const dse::DseResult &result : results) {
        savedPct += result.savedPct;
        speedup += result.sweepSpeedup;
    }
    savedPct /= static_cast<double>(results.size());
    speedup /= static_cast<double>(results.size());
    bench::writeBenchReport("fig11_pareto",
                            {{"dse.exact_evals_saved_pct", savedPct},
                             {"dse.sweep_speedup", speedup}});
    return 0;
}
