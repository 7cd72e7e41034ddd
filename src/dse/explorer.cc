#include "dse/explorer.hh"

#include <algorithm>
#include <cmath>

#include "common/contracts.hh"
#include "dse/surrogate.hh"
#include "telemetry/run_report.hh"
#include "telemetry/telemetry.hh"

namespace mithra::dse
{

namespace
{

/**
 * Basis features of one design point. Log-scale geometry terms track
 * the capacity landscape (rate rises with total bytes and saturates),
 * the interaction term separates many-small from few-large layouts,
 * and the quantizer terms carry the bits axis. The bits x geometry
 * cross terms matter most in practice: both objectives are near-flat
 * within a quantizer width and move sharply where width meets
 * capacity (wide patterns in big tables lift the rate until the
 * quality contract collapses). The hint indicator keeps bits=0
 * ("benchmark default") from reading as "zero-width".
 */
std::vector<double>
designFeatures(const core::RunOptions &options)
{
    const double lt =
        std::log2(static_cast<double>(options.geometry.numTables));
    const double lb =
        std::log2(static_cast<double>(options.geometry.tableBytes));
    const double cap = lt + lb;
    const double bits = static_cast<double>(options.quantizerBits);
    const double hint = options.quantizerBits == 0 ? 1.0 : 0.0;
    return {1.0,
            lt,
            lb,
            lt * lb,
            cap * cap,
            bits,
            bits * bits,
            bits * bits * bits,
            bits * lt,
            bits * lb,
            bits * bits * cap,
            hint};
}

/**
 * Both objectives are probabilities, and both landscapes are
 * plateaus joined by saturating ramps — exactly the shape a linear
 * model fits badly in probability space and well in log-odds space.
 * The surrogates therefore regress logit(p); predictions and interval
 * bounds map back through the sigmoid, which also makes the intervals
 * naturally asymmetric (tight against the 0/1 rails, wide mid-range).
 *
 * The clip bounds the plateau targets at ~±4.6 log-odds. Every
 * pruning decision compares against thresholds well inside (0.01,
 * 0.99) — the quality contract and the dominance margins — so
 * saturated observations beyond the clip carry no decision-relevant
 * information; mapping them further out would only inflate the fitted
 * dynamic range and with it the residual error of every interval.
 */
constexpr double kLogitClip = 1e-2;

double
logit(double p)
{
    const double clipped =
        std::min(1.0 - kLogitClip, std::max(kLogitClip, p));
    return std::log(clipped / (1.0 - clipped));
}

double
sigmoid(double z)
{
    return 1.0 / (1.0 + std::exp(-z));
}

/**
 * Prediction-interval half-width (in log-odds) at one query point:
 * one sigma of the fit's honest standard error, scaled by the query's
 * leverage (wider away from the training data). One sigma per round
 * is enough because no pruning decision is final until the loop
 * exits: every refinement round refits on fresh measurements and
 * re-classifies every unmeasured candidate — including previously
 * pruned ones — so a candidate is only lost if successively better
 * fits all agree it cannot pay its way within the margins. The
 * floor keeps a fit that happens to thread its training points exactly
 * from claiming zero uncertainty — the exact evaluations themselves
 * carry finite-trial noise (the quality-met probability is a
 * proportion over a handful of validation datasets) that the
 * regression cannot see.
 */
double
intervalWidth(const RidgeSurrogate &fit,
              const std::vector<double> &features)
{
    constexpr double kSigma = 1.0;
    constexpr double kNoiseFloor = 0.1;
    return kSigma * std::max(fit.standardError(), kNoiseFloor)
           * fit.leverageScale(features);
}

/** Measured quality-met probability of one record. */
double
qualityOf(const core::ExperimentRecord &record)
{
    if (record.eval.trials == 0)
        return 0.0;
    return static_cast<double>(record.eval.successes)
           / static_cast<double>(record.eval.trials);
}

/**
 * Deterministic seed picks: both ends of the enumeration plus an even
 * stride between them. Pure integer arithmetic — the same axes and
 * budget always select the same candidates.
 */
std::vector<std::size_t>
seedIndices(std::size_t total, std::size_t budget)
{
    const std::size_t want = std::min(budget, total);
    std::vector<std::size_t> picks;
    if (want <= 1 || total == 1) {
        picks.push_back(0);
        return picks;
    }
    for (std::size_t k = 0; k < want; ++k)
        picks.push_back(k * (total - 1) / (want - 1));
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
    return picks;
}

/** The production backend: batch evaluation through the runner. */
class RunnerBackend : public EvalBackend
{
  public:
    RunnerBackend(core::ExperimentRunner &r, std::string bench,
                  const core::QualitySpec &s)
        : runner(r), benchmark(std::move(bench)), spec(s)
    {
    }

    bool isCached(const core::RunOptions &options) const override
    {
        return runner.isCached(benchmark, spec, core::Design::Table,
                               options);
    }

    std::vector<core::ExperimentRecord>
    evaluate(const std::vector<core::RunOptions> &batch) override
    {
        return runner.runMany(benchmark, spec, core::Design::Table,
                              batch);
    }

  private:
    core::ExperimentRunner &runner;
    std::string benchmark;
    core::QualitySpec spec;
};

} // namespace

const char *
candidateStateName(CandidateState state)
{
    switch (state) {
      case CandidateState::Seed: return "seed";
      case CandidateState::Survivor: return "survivor";
      case CandidateState::PrunedDominated: return "pruned-dominated";
      case CandidateState::PrunedInfeasible: return "pruned-infeasible";
    }
    panic("unknown candidate state");
}

double
DseResult::referenceCost() const
{
    double dearest = 0.0;
    for (const DseCandidate &candidate : candidates)
        dearest = std::max(dearest, candidate.costBytes);
    return dearest * 1.125;
}

DseResult
Explorer::explore(core::ExperimentRunner &runner,
                  const std::string &benchmark,
                  const core::QualitySpec &spec,
                  const DseAxes &axes) const
{
    RunnerBackend backend(runner, benchmark, spec);
    return exploreWith(backend, benchmark, spec, axes);
}

DseResult
Explorer::exploreWith(EvalBackend &backend, const std::string &benchmark,
                      const core::QualitySpec &spec,
                      const DseAxes &axes) const
{
    MITHRA_SPAN("dse.explore");
    MITHRA_EXPECTS(axes.candidateCount() > 0,
                   "empty design space: every axis needs values");

    DseResult result;
    result.benchmark = benchmark;
    result.spec = spec;
    result.options = opts;
    result.axes = axes;

    for (const std::size_t count : axes.tableCounts) {
        for (const std::size_t bytes : axes.tableBytes) {
            for (const unsigned bits : axes.quantizerBits) {
                DseCandidate candidate;
                candidate.options.geometry.numTables = count;
                candidate.options.geometry.tableBytes = bytes;
                candidate.options.quantizerBits = bits;
                candidate.options.skipCalibration = true;
                candidate.costBytes = static_cast<double>(count * bytes);
                result.candidates.push_back(std::move(candidate));
            }
        }
    }
    const std::size_t total = result.candidates.size();
    MITHRA_COUNT("dse.candidates", total);

    // Batch-evaluate the given candidates, tallying how many are cold.
    auto evaluateBatch = [&](const std::vector<std::size_t> &picks) {
        if (picks.empty())
            return;
        std::vector<core::RunOptions> batch;
        batch.reserve(picks.size());
        for (const std::size_t i : picks) {
            if (!backend.isCached(result.candidates[i].options))
                ++result.exactEvalsExecuted;
            batch.push_back(result.candidates[i].options);
        }
        const std::vector<core::ExperimentRecord> records =
            backend.evaluate(batch);
        MITHRA_ASSERT(records.size() == picks.size(),
                      "backend returned ", records.size(),
                      " records for ", picks.size(), " candidates");
        for (std::size_t at = 0; at < picks.size(); ++at) {
            result.candidates[picks[at]].record = records[at];
            result.candidates[picks[at]].measured = true;
        }
    };

    if (opts.exhaustive) {
        std::vector<std::size_t> everything(total);
        for (std::size_t i = 0; i < total; ++i)
            everything[i] = i;
        evaluateBatch(everything);
    } else {
        const std::vector<std::size_t> seeds =
            seedIndices(total, opts.seedEvals);
        for (const std::size_t i : seeds)
            result.candidates[i].state = CandidateState::Seed;
        evaluateBatch(seeds);

        // Refinement loop: fit both objective surrogates on
        // everything measured so far, classify the unmeasured
        // candidates with per-candidate prediction intervals, exactly
        // evaluate the most promising survivors, and repeat with the
        // tighter fit until no candidate survives pruning. Every
        // pruning decision stands on the final (best-informed) fit.
        for (;;) {
            std::vector<std::vector<double>> rows;
            std::vector<double> rates, qualities;
            std::vector<ParetoPoint> measured;
            for (std::size_t i = 0; i < total; ++i) {
                const DseCandidate &candidate = result.candidates[i];
                if (!candidate.measured)
                    continue;
                rows.push_back(designFeatures(candidate.options));
                rates.push_back(
                    logit(candidate.record.eval.invocationRate));
                qualities.push_back(logit(qualityOf(candidate.record)));
                measured.push_back(
                    {candidate.costBytes,
                     candidate.record.eval.invocationRate,
                     qualityOf(candidate.record) >= spec.successRate,
                     i});
            }
            const RidgeSurrogate rateFit =
                RidgeSurrogate::fit(rows, rates);
            const RidgeSurrogate qualityFit =
                RidgeSurrogate::fit(rows, qualities);
            result.rateResidual = rateFit.maxResidual();
            result.qualityResidual = qualityFit.maxResidual();

            // A candidate is pruned only when a cheaper measured
            // point beats its prediction by more than the prediction
            // interval minus the tolerated-loss margin: while the
            // interval holds, a dominance-pruned candidate's true
            // rate exceeds the best cheaper measured rate by at most
            // `margin`, and an infeasibility-pruned candidate misses
            // the quality contract by all but at most
            // `qualityMargin`. margin = 0 is fully conservative;
            // larger margins trade marginal front points for fewer
            // exact evaluations (in particular, near-flat plateaus
            // collapse onto one measured point).
            std::vector<std::pair<double, std::size_t>> ranked;
            for (std::size_t i = 0; i < total; ++i) {
                DseCandidate &candidate = result.candidates[i];
                const std::vector<double> features =
                    designFeatures(candidate.options);
                const double zRate = rateFit.predict(features);
                const double zQuality = qualityFit.predict(features);
                candidate.predictedRate = sigmoid(zRate);
                candidate.predictedQuality = sigmoid(zQuality);
                if (candidate.measured)
                    continue;

                const double rateUpper = sigmoid(
                    zRate + intervalWidth(rateFit, features));
                const double qualityUpper = sigmoid(
                    zQuality + intervalWidth(qualityFit, features));
                if (qualityUpper
                    < spec.successRate + opts.qualityMargin) {
                    candidate.state = CandidateState::PrunedInfeasible;
                    continue;
                }
                const ParetoPoint claimed{candidate.costBytes,
                                          rateUpper, true, i};
                double bestCheaper = 0.0;
                bool beaten = false;
                for (const ParetoPoint &point : measured) {
                    if (!point.feasible)
                        continue;
                    if (point.cost <= claimed.cost)
                        bestCheaper =
                            std::max(bestCheaper, point.benefit);
                    beaten = beaten
                             || dominates(point, claimed, -opts.margin);
                }
                if (beaten) {
                    candidate.state = CandidateState::PrunedDominated;
                    continue;
                }
                candidate.state = CandidateState::Survivor;
                // Evaluate by expected improvement: the optimistic
                // rate gain over the incumbent, discounted by the
                // predicted odds of actually meeting the quality
                // contract. Quality-suspect candidates sink to the
                // back of the queue, where a later round's tighter
                // fit often prunes them before they cost an exact
                // evaluation.
                const double feasibleOdds = std::min(
                    1.0, candidate.predictedQuality
                             / std::max(spec.successRate, 1e-9));
                ranked.emplace_back(
                    (rateUpper - bestCheaper) * feasibleOdds, i);
            }
            if (ranked.empty())
                break;
            std::sort(ranked.begin(), ranked.end(),
                      [](const auto &a, const auto &b) {
                          if (a.first != b.first)
                              return a.first > b.first;
                          return a.second < b.second;
                      });
            // Small rounds: right after seeding the fit is at its
            // least trustworthy (every upper bound saturates), so
            // committing a whole seed-sized batch to it wastes evals
            // on noise. A few evaluations per round keep the blind
            // spend bounded while each refit sharpens the next pick.
            const std::size_t roundBudget =
                std::max<std::size_t>(2, opts.seedEvals / 3);
            std::vector<std::size_t> round;
            for (std::size_t at = 0;
                 at < ranked.size() && at < roundBudget; ++at)
                round.push_back(ranked[at].second);
            std::sort(round.begin(), round.end());
            evaluateBatch(round);
            ++result.rounds;
        }
    }

    for (const DseCandidate &candidate : result.candidates) {
        if (candidate.state == CandidateState::Seed
            || candidate.state == CandidateState::Survivor)
            ++result.exactEvalsSelected;
    }
    MITHRA_COUNT("dse.exact_evals_selected", result.exactEvalsSelected);
    MITHRA_COUNT("dse.exact_evals_executed", result.exactEvalsExecuted);
    MITHRA_COUNT("dse.pruned", total - result.exactEvalsSelected);
    result.savedPct =
        100.0
        * (1.0
           - static_cast<double>(result.exactEvalsSelected)
                 / static_cast<double>(total));
    result.sweepSpeedup =
        static_cast<double>(total)
        / static_cast<double>(result.exactEvalsSelected);

    // The front of everything measured, on measured feasibility.
    std::vector<ParetoPoint> points;
    for (std::size_t i = 0; i < total; ++i) {
        const DseCandidate &candidate = result.candidates[i];
        if (!candidate.measured)
            continue;
        points.push_back({candidate.costBytes,
                          candidate.record.eval.invocationRate,
                          qualityOf(candidate.record)
                              >= spec.successRate,
                          i});
    }
    std::vector<ParetoPoint> frontPoints;
    for (const std::size_t at : paretoFront(points)) {
        result.front.push_back(points[at].index);
        frontPoints.push_back(points[at]);
    }
    result.hypervolume =
        hypervolume(frontPoints, result.referenceCost(), 0.0);
    return result;
}

telemetry::Json
DseResult::toJson() const
{
    using telemetry::Json;

    Json doc;
    doc["schema"] = Json(telemetry::paretoFrontSchemaName);
    doc["schemaVersion"] = Json(telemetry::paretoFrontSchemaVersion);
    doc["gitDescribe"] = Json(telemetry::gitDescribe());
    doc["benchmark"] = Json(benchmark);

    Json::Object specObj;
    specObj.emplace("maxQualityLossPct", Json(spec.maxQualityLossPct));
    specObj.emplace("confidence", Json(spec.confidence));
    specObj.emplace("successRate", Json(spec.successRate));
    doc["spec"] = Json(std::move(specObj));

    auto sizeArray = [](const std::vector<std::size_t> &values) {
        Json::Array out;
        for (const std::size_t v : values)
            out.emplace_back(v);
        return Json(std::move(out));
    };
    Json::Object axesObj;
    axesObj.emplace("tableCounts", sizeArray(axes.tableCounts));
    axesObj.emplace("tableBytes", sizeArray(axes.tableBytes));
    Json::Array bitsArray;
    for (const unsigned bits : axes.quantizerBits)
        bitsArray.emplace_back(static_cast<std::int64_t>(bits));
    axesObj.emplace("quantizerBits", Json(std::move(bitsArray)));
    doc["axes"] = Json(std::move(axesObj));

    Json::Object optionsObj;
    optionsObj.emplace("margin", Json(options.margin));
    optionsObj.emplace("qualityMargin", Json(options.qualityMargin));
    optionsObj.emplace("seedEvals", Json(options.seedEvals));
    optionsObj.emplace("exhaustive", Json(options.exhaustive));
    doc["options"] = Json(std::move(optionsObj));

    Json::Object summary;
    summary.emplace("candidates", Json(candidates.size()));
    summary.emplace("exactEvalsSelected", Json(exactEvalsSelected));
    summary.emplace("exactEvalsExecuted", Json(exactEvalsExecuted));
    summary.emplace("savedPct", Json(savedPct));
    summary.emplace("sweepSpeedup", Json(sweepSpeedup));
    summary.emplace("rateResidual", Json(rateResidual));
    summary.emplace("qualityResidual", Json(qualityResidual));
    summary.emplace("rounds", Json(rounds));
    summary.emplace("hypervolume", Json(hypervolume));
    summary.emplace("referenceCost", Json(referenceCost()));
    doc["summary"] = Json(std::move(summary));

    auto designObj = [](const DseCandidate &candidate) {
        Json::Object out;
        out.emplace("numTables",
                    Json(candidate.options.geometry.numTables));
        out.emplace("tableBytes",
                    Json(candidate.options.geometry.tableBytes));
        out.emplace("quantizerBits",
                    Json(static_cast<std::int64_t>(
                        candidate.options.quantizerBits)));
        out.emplace("costBytes", Json(candidate.costBytes));
        return out;
    };

    Json::Array frontArray;
    for (const std::size_t i : front) {
        const DseCandidate &candidate = candidates[i];
        Json::Object entry = designObj(candidate);
        entry.emplace("invocationRate",
                      Json(candidate.record.eval.invocationRate));
        entry.emplace("qualityMet",
                      Json(candidate.record.eval.trials == 0
                               ? 0.0
                               : static_cast<double>(
                                     candidate.record.eval.successes)
                                     / static_cast<double>(
                                         candidate.record.eval.trials)));
        entry.emplace("successes",
                      Json(candidate.record.eval.successes));
        entry.emplace("trials", Json(candidate.record.eval.trials));
        entry.emplace("speedup", Json(candidate.record.eval.speedup));
        entry.emplace("energyReduction",
                      Json(candidate.record.eval.energyReduction));
        entry.emplace("compressedBytes",
                      Json(candidate.record.compressedBytes));
        entry.emplace("threshold", Json(candidate.record.threshold));
        frontArray.emplace_back(std::move(entry));
    }
    doc["front"] = Json(std::move(frontArray));

    Json::Array candidateArray;
    for (const DseCandidate &candidate : candidates) {
        Json::Object entry = designObj(candidate);
        entry.emplace("state", Json(candidateStateName(candidate.state)));
        entry.emplace("measured", Json(candidate.measured));
        entry.emplace("predictedRate", Json(candidate.predictedRate));
        entry.emplace("predictedQuality",
                      Json(candidate.predictedQuality));
        if (candidate.measured) {
            entry.emplace("invocationRate",
                          Json(candidate.record.eval.invocationRate));
            entry.emplace(
                "qualityMet",
                Json(candidate.record.eval.trials == 0
                         ? 0.0
                         : static_cast<double>(
                               candidate.record.eval.successes)
                               / static_cast<double>(
                                   candidate.record.eval.trials)));
        }
        candidateArray.emplace_back(std::move(entry));
    }
    doc["candidates"] = Json(std::move(candidateArray));
    return doc;
}

} // namespace mithra::dse
