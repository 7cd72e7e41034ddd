/**
 * @file
 * Loaded models and the certified batch-invoke engine of the MITHRA
 * service (DESIGN.md §14).
 *
 * A Model is what a completed compile/train job publishes: the
 * compiled workload (benchmark + trained accelerator), the calibrated
 * classifier, the tuned threshold, and the runtime guarantee state —
 * one watchdog per shard, persistent across `/invoke` batches so the
 * sequential envelope keeps accumulating evidence over the model's
 * whole served stream.
 *
 * Determinism: the shard count is pinned in the model configuration
 * (it ships in the job spec) — so the decision sequence and every
 * certificate are a pure function of the request sequence, bitwise
 * identical at any MITHRA_THREADS setting of the serving process.
 * The serial accounting inside runShardedDecisions consumes each
 * shard's subsequence in order, exactly as in offline evaluation.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "core/runtime.hh"
#include "core/shard.hh"
#include "core/watchdog/watchdog.hh"
#include "telemetry/json.hh"

namespace mithra::service
{

/** Per-model runtime configuration, fixed at job submission. */
struct ModelConfig
{
    /** Classifier design: "table" or "neural". */
    std::string design = "table";
    /** Decision-loop shards; semantic configuration (see above). */
    std::size_t shards = 4;
    /** The quality contract the job certified against. */
    core::QualitySpec spec{};
    /** Watchdog knobs; `enabled` defaults on for served models. */
    core::watchdog::WatchdogOptions watchdog{};

    ModelConfig() { watchdog.enabled = true; }
};

/** One `/invoke` batch's results. */
struct InvokeOutcome
{
    /** Per-invocation route decision, 1 = accelerate. */
    std::vector<std::uint8_t> decisions;
    /** The batch's quality certificate (see DESIGN.md §14). */
    telemetry::Json certificate;
};

/** A published model serving certified batch invocations. */
class Model
{
  public:
    Model(std::string modelId, core::CompiledWorkload compiled,
          std::unique_ptr<core::Classifier> decider,
          core::ThresholdResult tunedThreshold,
          const ModelConfig &modelConfig);

    const std::string &id() const { return name; }
    const std::string &benchmark() const { return benchmarkName; }
    const ModelConfig &config() const { return configuration; }
    std::size_t inputWidth() const { return width; }

    /**
     * Decide one batch of `count` row-major input rows of
     * inputWidth() floats each: ground-truth + accelerator outputs
     * via core::traceFromInputs, decisions and certificate evidence
     * via the model's core::DecisionEngine. Serializes concurrent
     * callers — the watchdog evidence stream is strictly ordered.
     */
    InvokeOutcome invoke(const float *rows, std::size_t count);

    /** The `GET /models/<id>` document: config + lifetime totals +
     *  current watchdog evidence. */
    telemetry::Json describe() const;

  private:
    mutable std::mutex mutex;
    std::string name;
    std::string benchmarkName;
    core::CompiledWorkload workload;
    std::unique_ptr<core::Classifier> classifier;
    core::ThresholdResult threshold;
    ModelConfig configuration;
    std::size_t width = 0;
    /** The served stream: per-shard watchdogs and lifetime totals. */
    core::DecisionEngine engine;
};

/** Thread-safe id -> model map shared by jobs and the router. */
class ModelRegistry
{
  public:
    void add(std::shared_ptr<Model> model);
    std::shared_ptr<Model> find(const std::string &id) const;
    /** All models in id order. */
    std::vector<std::shared_ptr<Model>> list() const;

  private:
    mutable std::mutex mutex;
    std::map<std::string, std::shared_ptr<Model>> models;
};

} // namespace mithra::service
