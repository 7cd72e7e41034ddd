/**
 * @file
 * Microbenchmark for the surrogate-guided design-space exploration
 * engine (DESIGN.md §15). Two phases, three headline metrics:
 *
 *  1. **Savings** — a 315-candidate geometry x quantizer grid on the
 *     cheapest benchmark, explored with pruning on. Headlines
 *     `dse.exact_evals_saved_pct` (fraction of the grid the surrogate
 *     ruled out without exact evaluation) and `dse.sweep_speedup`
 *     (grid size over exact evaluations selected). CI gates the
 *     former at >= 80, i.e. at least 5x fewer exact evaluations.
 *
 *  2. **Accuracy** — the Figure 11 grid on every benchmark, explored
 *     both pruned and brute-force through the same engine. Headlines
 *     `dse.front_hypervolume_err`, the worst absolute difference
 *     between the pruned and exhaustive Pareto-front hypervolumes
 *     (identical fronts give exactly 0, which CI requires). The
 *     pruned front document for each benchmark is written to
 *     $MITHRA_REPORT_DIR as FRONT_<benchmark>.json for report-check
 *     --front and the CI artifact.
 *
 * Everything runs through the shared ExperimentRunner cache, so a
 * warm replay selects the same candidates and executes zero exact
 * evaluations.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench_common.hh"
#include "axbench/registry.hh"
#include "common/env_registry.hh"
#include "common/logging.hh"
#include "core/report.hh"
#include "dse/explorer.hh"

using namespace mithra;

namespace
{

/** Phase 1: the enlarged savings grid (5 x 7 x 9 = 315 candidates). */
dse::DseAxes
savingsAxes()
{
    dse::DseAxes axes;
    axes.tableCounts = {1, 2, 4, 8, 16};
    axes.tableBytes = {128, 256, 512, 1024, 2048, 4096, 8192};
    axes.quantizerBits = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    return axes;
}

/** Phase 2: the paper's Figure 11 grid. */
dse::DseAxes
fig11Axes()
{
    dse::DseAxes axes;
    axes.tableCounts = {1, 2, 4, 8};
    axes.tableBytes = {128, 512, 2048, 4096};
    axes.quantizerBits = {0};
    return axes;
}

/** Candidate label for console tables: "8T x 0.500 KB @4b". */
std::string
candidateLabel(const dse::DseCandidate &point)
{
    char label[64];
    std::snprintf(label, sizeof(label), "%zuT x %.3f KB @%ub",
                  point.options.geometry.numTables,
                  static_cast<double>(point.options.geometry.tableBytes)
                      / 1024.0,
                  point.options.quantizerBits);
    return label;
}

/** True when both results selected the same front designs in order. */
bool
frontsIdentical(const dse::DseResult &a, const dse::DseResult &b)
{
    if (a.front.size() != b.front.size())
        return false;
    for (std::size_t at = 0; at < a.front.size(); ++at) {
        const core::RunOptions &lhs =
            a.candidates[a.front[at]].options;
        const core::RunOptions &rhs =
            b.candidates[b.front[at]].options;
        if (lhs.geometry.numTables != rhs.geometry.numTables
            || lhs.geometry.tableBytes != rhs.geometry.tableBytes
            || lhs.quantizerBits != rhs.quantizerBits)
            return false;
    }
    return true;
}

} // namespace

int
main()
{
    setInformEnabled(false);
    core::ExperimentRunner runner;
    const auto spec = bench::headlineSpec();

    // ------------------------------------------------------ phase 1
    core::printBanner("DSE savings: 315-candidate grid, surrogate "
                      "pruning on (inversek2j, 5% quality loss)");

    const dse::Explorer explorer;
    const dse::DseResult savings =
        explorer.explore(runner, "inversek2j", spec, savingsAxes());

    core::TablePrinter phase1({"candidates", "seeds+survivors",
                               "executed", "saved", "speedup"});
    phase1.addRow({std::to_string(savings.candidates.size()),
                   std::to_string(savings.exactEvalsSelected),
                   std::to_string(savings.exactEvalsExecuted),
                   core::fmtPct(savings.savedPct),
                   std::to_string(savings.sweepSpeedup) + "x"});
    phase1.print();

    core::TablePrinter front1({"front", "total size",
                               "invocation rate", "quality met"});
    for (const std::size_t at : savings.front) {
        const dse::DseCandidate &point = savings.candidates[at];
        front1.addRow({candidateLabel(point),
                       core::fmtKb(point.costBytes, 3),
                       core::fmtPct(100.0
                                    * point.record.eval.invocationRate),
                       std::to_string(point.record.eval.successes) + "/"
                           + std::to_string(point.record.eval.trials)});
    }
    front1.print();

    // ------------------------------------------------------ phase 2
    core::printBanner("DSE accuracy: pruned vs exhaustive Pareto "
                      "fronts on the Figure 11 grid");

    const dse::DseAxes grid = fig11Axes();
    for (std::size_t count : grid.tableCounts) {
        for (std::size_t bytes : grid.tableBytes) {
            core::RunOptions options;
            options.geometry.numTables = count;
            options.geometry.tableBytes = bytes;
            options.skipCalibration = true;
            runner.prefetch(axbench::benchmarkNames(), {spec},
                            {core::Design::Table}, options);
        }
    }

    dse::DseOptions bruteOptions = explorer.options();
    bruteOptions.exhaustive = true;
    const dse::Explorer brute(bruteOptions);

    const std::string reportDir = env::text("MITHRA_REPORT_DIR", ".");
    std::filesystem::create_directories(reportDir);
    double hypervolumeErr = 0.0;
    bool allIdentical = true;
    core::TablePrinter phase2({"benchmark", "front", "exact evals",
                               "hypervolume err", "fronts match"});
    for (const auto &name : axbench::benchmarkNames()) {
        const dse::DseResult pruned =
            explorer.explore(runner, name, spec, grid);
        const dse::DseResult reference =
            brute.explore(runner, name, spec, grid);
        const double err =
            std::fabs(pruned.hypervolume - reference.hypervolume);
        hypervolumeErr = std::max(hypervolumeErr, err);
        const bool identical = frontsIdentical(pruned, reference);
        allIdentical = allIdentical && identical;
        phase2.addRow({name, std::to_string(pruned.front.size()),
                       std::to_string(pruned.exactEvalsSelected) + "/"
                           + std::to_string(pruned.candidates.size()),
                       std::to_string(err),
                       identical ? "yes" : "NO"});

        const telemetry::Json document = pruned.toJson();
        const std::string problem =
            telemetry::validateParetoFront(document);
        if (!problem.empty())
            warn("front document for ", name, ": ", problem);
        const std::string path =
            reportDir + "/FRONT_" + name + ".json";
        std::ofstream out(path);
        out << document.dump(2) << "\n";
        std::fprintf(stderr, "front report: %s\n", path.c_str());
    }
    phase2.print();
    if (!allIdentical)
        std::printf("\nWARNING: a pruned front diverged from its "
                    "exhaustive reference; the surrogate's residual "
                    "bound did not hold for the default pruning "
                    "margins (DESIGN.md §15).\n");

    bench::writeBenchReport(
        "micro_dse",
        {{"dse.exact_evals_saved_pct", savings.savedPct},
         {"dse.sweep_speedup", savings.sweepSpeedup},
         {"dse.front_hypervolume_err", hypervolumeErr}});
    return 0;
}
