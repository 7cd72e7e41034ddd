#include "service/model.hh"

#include <utility>

#include "common/contracts.hh"
#include "stats/sequential_bound.hh"
#include "telemetry/telemetry.hh"

namespace mithra::service
{

namespace
{

telemetry::Json
envelopeJson(const stats::ProportionEnvelope &envelope,
             double confidence)
{
    telemetry::Json::Object out;
    out.emplace("confidence", telemetry::Json(confidence));
    out.emplace("lower", telemetry::Json(envelope.lower));
    out.emplace("upper", telemetry::Json(envelope.upper));
    return telemetry::Json(std::move(out));
}

/** The certificate's watchdog section from the merged evidence. */
telemetry::Json
watchdogJson(const core::ShardedEvaluation &merged, double confidence)
{
    telemetry::Json::Object evidence;
    evidence.emplace(
        "state",
        telemetry::Json(core::watchdog::stateName(merged.combinedState)));
    evidence.emplace("envelope",
                     envelopeJson(merged.violationEnvelope, confidence));
    telemetry::Json::Array perShard;
    std::size_t audits = 0;
    std::size_t violations = 0;
    for (const core::ShardReport &shard : merged.shards) {
        const core::watchdog::Snapshot &snap = shard.watchdog;
        audits += snap.audits;
        violations += snap.violations;
        telemetry::Json::Object one;
        one.emplace("state", telemetry::Json(
                                 core::watchdog::stateName(snap.state)));
        one.emplace("invocations", telemetry::Json(snap.invocations));
        one.emplace("audits", telemetry::Json(snap.audits));
        one.emplace("violations", telemetry::Json(snap.violations));
        one.emplace("lower",
                    telemetry::Json(snap.violationLowerBound));
        one.emplace("upper",
                    telemetry::Json(snap.violationUpperBound));
        perShard.push_back(telemetry::Json(std::move(one)));
    }
    evidence.emplace("audits", telemetry::Json(audits));
    evidence.emplace("violations", telemetry::Json(violations));
    evidence.emplace("perShard",
                     telemetry::Json(std::move(perShard)));
    return telemetry::Json(std::move(evidence));
}

/** Sum of the per-shard lifetime totals, in slot order. */
core::ShardReport
streamTotals(const core::ShardedEvaluation &merged)
{
    core::ShardReport total;
    for (const core::ShardReport &shard : merged.shards) {
        total.invocations += shard.invocations;
        total.accelerated += shard.accelerated;
    }
    return total;
}

} // namespace

Model::Model(std::string modelId, core::CompiledWorkload compiled,
             std::unique_ptr<core::Classifier> decider,
             core::ThresholdResult tunedThreshold,
             const ModelConfig &modelConfig)
    : name(std::move(modelId)),
      workload(std::move(compiled)),
      classifier(std::move(decider)),
      threshold(tunedThreshold),
      configuration(modelConfig),
      // Online sampling stays off: decisions are pure over a batch.
      engine(modelConfig.shards, modelConfig.watchdog,
             {.oracleThreshold = tunedThreshold.threshold})
{
    MITHRA_EXPECTS(workload.benchmark != nullptr,
                   "model needs a compiled benchmark");
    MITHRA_EXPECTS(classifier != nullptr, "model needs a classifier");
    benchmarkName = workload.benchmark->name();
    width = workload.benchmark->npuTopology().front();
}

InvokeOutcome
Model::invoke(const float *rows, std::size_t count)
{
    MITHRA_EXPECTS(count > 0, "invoke batch must not be empty");
    std::lock_guard<std::mutex> hold(mutex);

    const axbench::InvocationTrace trace =
        core::traceFromInputs(workload, rows, width, count);
    classifier->beginDataset(trace);

    InvokeOutcome outcome;
    outcome.decisions.resize(count);
    const core::ShardTally tally =
        engine.decide(*classifier, trace, outcome.decisions.data());
    const core::ShardedEvaluation merged = engine.evidence();
    const core::ShardReport total = streamTotals(merged);

    MITHRA_COUNT("service.invocations", count);
    MITHRA_COUNT("service.accelerated", tally.accelerated);

    telemetry::Json::Object certificate;
    certificate.emplace("model", telemetry::Json(name));
    certificate.emplace("benchmark", telemetry::Json(benchmarkName));
    certificate.emplace("design",
                        telemetry::Json(configuration.design));
    certificate.emplace("shards",
                        telemetry::Json(configuration.shards));
    certificate.emplace("threshold",
                        telemetry::Json(threshold.threshold));
    certificate.emplace("watchdogEnabled",
                        telemetry::Json(engine.watchdogEnabled()));

    telemetry::Json::Object batch;
    batch.emplace("invocations", telemetry::Json(count));
    batch.emplace("accelerated", telemetry::Json(tally.accelerated));
    batch.emplace("audits", telemetry::Json(tally.audits));
    batch.emplace("violations", telemetry::Json(tally.violations));
    batch.emplace("forcedPrecise",
                  telemetry::Json(tally.forcedPrecise));
    certificate.emplace("batch", telemetry::Json(std::move(batch)));

    telemetry::Json::Object totals;
    totals.emplace("batches", telemetry::Json(engine.calls()));
    totals.emplace("invocations", telemetry::Json(total.invocations));
    totals.emplace("accelerated", telemetry::Json(total.accelerated));
    certificate.emplace("total", telemetry::Json(std::move(totals)));

    if (engine.watchdogEnabled())
        certificate.emplace(
            "watchdog",
            watchdogJson(merged, configuration.watchdog.confidence));

    outcome.certificate = telemetry::Json(std::move(certificate));
    return outcome;
}

telemetry::Json
Model::describe() const
{
    std::lock_guard<std::mutex> hold(mutex);
    telemetry::Json::Object out;
    out.emplace("id", telemetry::Json(name));
    out.emplace("benchmark", telemetry::Json(benchmarkName));
    out.emplace("design", telemetry::Json(configuration.design));
    out.emplace("shards", telemetry::Json(configuration.shards));
    out.emplace("inputWidth", telemetry::Json(width));
    out.emplace("threshold", telemetry::Json(threshold.threshold));
    out.emplace("successLowerBound",
                telemetry::Json(threshold.successLowerBound));
    out.emplace("approximationEnabled",
                telemetry::Json(classifier->approximationEnabled()));
    const core::ShardedEvaluation merged = engine.evidence();
    const core::ShardReport total = streamTotals(merged);
    out.emplace("batches", telemetry::Json(engine.calls()));
    out.emplace("invocations", telemetry::Json(total.invocations));
    out.emplace("accelerated", telemetry::Json(total.accelerated));
    out.emplace("watchdogEnabled",
                telemetry::Json(engine.watchdogEnabled()));
    if (engine.watchdogEnabled())
        out.emplace("watchdog",
                    watchdogJson(merged,
                                 configuration.watchdog.confidence));
    return telemetry::Json(std::move(out));
}

void
ModelRegistry::add(std::shared_ptr<Model> model)
{
    MITHRA_EXPECTS(model != nullptr, "cannot register a null model");
    std::lock_guard<std::mutex> hold(mutex);
    models[model->id()] = std::move(model);
    MITHRA_GAUGE_SET("service.models", models.size());
}

std::shared_ptr<Model>
ModelRegistry::find(const std::string &id) const
{
    std::lock_guard<std::mutex> hold(mutex);
    const auto it = models.find(id);
    return it == models.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Model>>
ModelRegistry::list() const
{
    std::lock_guard<std::mutex> hold(mutex);
    std::vector<std::shared_ptr<Model>> out;
    out.reserve(models.size());
    for (const auto &entry : models)
        out.push_back(entry.second);
    return out;
}

} // namespace mithra::service
