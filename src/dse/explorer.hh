/**
 * @file
 * Surrogate-guided design-space exploration (DESIGN.md §15).
 *
 * Exhaustively sweeping the table design space — numTables x
 * tableBytes x quantizerBits — costs one full training + simulation
 * pass per cell. The explorer spends that budget only where it
 * matters:
 *
 *   1. enumerate every candidate over the requested axes;
 *   2. exactly evaluate a small deterministic seed subset;
 *   3. fit closed-form ridge surrogates for the two front objectives
 *      (invocation rate, quality-met probability) on every completed
 *      record;
 *   4. prune candidates a measured point dominates by more than the
 *      surrogate's per-candidate prediction interval minus the
 *      configured tolerated-loss margin, and candidates predicted to
 *      miss the quality contract beyond the equivalent guard;
 *   5. exactly evaluate the most promising survivors (fanned out
 *      across the thread pool by ExperimentRunner::runMany), refit on
 *      the enlarged record set, and repeat from step 4 until no
 *      candidate survives pruning; the measured points' Pareto front
 *      is the result.
 *
 * Determinism contract: enumeration order, seed selection, the
 * surrogate fit and every pruning comparison are pure serial double
 * arithmetic over deterministic evaluation records, so the selected
 * set, the front and the emitted JSON are bitwise identical at any
 * MITHRA_THREADS.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "dse/pareto.hh"
#include "telemetry/json.hh"

namespace mithra::dse
{

/** The candidate axes; enumerated counts-outer, bits-inner. */
struct DseAxes
{
    std::vector<std::size_t> tableCounts{1, 2, 4, 8};
    std::vector<std::size_t> tableBytes{128, 512, 2048, 4096};
    /** Quantizer widths; 0 = the benchmark's own hint. */
    std::vector<unsigned> quantizerBits{0};

    std::size_t candidateCount() const
    {
        return tableCounts.size() * tableBytes.size()
               * quantizerBits.size();
    }
};

/** Explorer knobs; the defaults are the documented operating point. */
struct DseOptions
{
    /**
     * Tolerated invocation-rate loss: a candidate is pruned when a
     * cheaper measured point beats its prediction plus the fit's
     * worst training residual minus this margin. 0 = fully
     * conservative (never lose a true front point while the residual
     * bound holds); larger = fewer exact evals, at the risk of losing
     * front points whose advantage is below the margin.
     */
    double margin = 0.02;
    /**
     * Tolerated quality-met slack: a candidate is pruned as
     * infeasible when its predicted quality-met probability plus the
     * fit's worst residual minus this margin misses the contract.
     */
    double qualityMargin = 0.05;
    /** Exact evaluations spent seeding the surrogate fit. */
    std::size_t seedEvals = 12;
    /** Evaluate everything (reference mode; no surrogate, no prune). */
    bool exhaustive = false;
};

/** What the explorer decided to do with one candidate. */
enum class CandidateState
{
    /** Exactly evaluated to seed the surrogate fit. */
    Seed,
    /** Survived pruning; exactly evaluated. */
    Survivor,
    /** A measured point dominates it beyond the guard band. */
    PrunedDominated,
    /** Predicted to miss the quality contract beyond the guard band. */
    PrunedInfeasible,
};

const char *candidateStateName(CandidateState state);

/** One enumerated design point and everything decided about it. */
struct DseCandidate
{
    core::RunOptions options{};
    /** Front cost objective: total uncompressed table bytes. */
    double costBytes = 0.0;
    CandidateState state = CandidateState::Survivor;
    /** Surrogate view; meaningful for non-seed candidates. */
    double predictedRate = 0.0;
    double predictedQuality = 0.0;
    /** Exact record; valid when `measured`. */
    bool measured = false;
    core::ExperimentRecord record{};
};

/** Everything one explore() call produced. */
struct DseResult
{
    std::string benchmark;
    core::QualitySpec spec{};
    DseOptions options{};
    DseAxes axes{};
    std::vector<DseCandidate> candidates;
    /** Candidate indices on the measured front, cost-ascending. */
    std::vector<std::size_t> front;
    /** Hypervolume of the measured front (see referenceCost()). */
    double hypervolume = 0.0;
    /** Worst training residuals of the final surrogate fits. */
    double rateResidual = 0.0;
    double qualityResidual = 0.0;
    /** Refinement rounds spent after the seed batch. */
    std::size_t rounds = 0;
    /** Exact evaluations the explorer asked for (seeds + survivors). */
    std::size_t exactEvalsSelected = 0;
    /** Of those, how many were not already in the result cache. */
    std::size_t exactEvalsExecuted = 0;
    /** 100 * (1 - selected / candidates). */
    double savedPct = 0.0;
    /** candidates / selected — the exact-evaluation reduction. */
    double sweepSpeedup = 1.0;

    /** Hypervolume reference corner: 9/8 of the dearest candidate. */
    double referenceCost() const;

    /** The mithra-pareto-front v1 document (DESIGN.md §15). */
    telemetry::Json toJson() const;
};

/**
 * Evaluation backend the explorer drives. The production backend
 * wraps ExperimentRunner; tests substitute synthetic landscapes.
 */
class EvalBackend
{
  public:
    virtual ~EvalBackend() = default;

    /** True when this candidate's exact result is already memoized. */
    virtual bool isCached(const core::RunOptions &options) const = 0;

    /** Exactly evaluate a batch, one record per entry, in order. */
    virtual std::vector<core::ExperimentRecord>
    evaluate(const std::vector<core::RunOptions> &batch) = 0;
};

/** The surrogate-guided explorer; stateless between explore() calls. */
class Explorer
{
  public:
    explicit Explorer(const DseOptions &options = DseOptions{})
        : opts(options)
    {
    }

    const DseOptions &options() const { return opts; }

    /** Explore one benchmark's design space through a runner. */
    DseResult explore(core::ExperimentRunner &runner,
                      const std::string &benchmark,
                      const core::QualitySpec &spec,
                      const DseAxes &axes = DseAxes{}) const;

    /** Explore through an arbitrary backend (tests). */
    DseResult exploreWith(EvalBackend &backend,
                          const std::string &benchmark,
                          const core::QualitySpec &spec,
                          const DseAxes &axes) const;

  private:
    DseOptions opts;
};

} // namespace mithra::dse
