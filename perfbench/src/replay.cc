#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "axbench/registry.hh"
#include "core/pipeline.hh"
#include "core/runtime.hh"
#include "core/shard.hh"
#include "service/http.hh"
#include "service/model.hh"
#include "service/server.hh"
#include "stats/sequential_bound.hh"
#include "telemetry/span.hh"

namespace perfbench
{

namespace
{

namespace core = mithra::core;
namespace service = mithra::service;
using mithra::telemetry::Json;
using Kind = mithra::telemetry::Json::Kind;
using Clock = std::chrono::steady_clock;

/** Rows of the prefix replayed through Server::handle and
 *  Model::invoke (64 serve-bulk batches). */
constexpr std::size_t prefixRows = std::size_t{1} << 18;
/** Rows timed through the standalone per-row entry points. */
constexpr std::size_t sampleRows = 65536;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

const Json *
lookup(const Json &root, std::initializer_list<const char *> keys)
{
    const Json *at = &root;
    for (const char *key : keys) {
        at = at->find(key);
        if (!at)
            return nullptr;
    }
    return at;
}

bool
readCount(const Json *value, std::size_t &out)
{
    if (!value || value->kind() != Kind::Int || value->asInt() < 0)
        return false;
    out = static_cast<std::size_t>(value->asInt());
    return true;
}

/** The decisions array of an `/invoke` response; false when it is not
 *  exactly `rows` integers in {0, 1}. */
bool
readDecisions(const Json &response, std::size_t rows,
              std::vector<std::uint8_t> &out)
{
    const Json *decisions = response.find("decisions");
    if (!decisions || decisions->kind() != Kind::Array
        || decisions->asArray().size() != rows)
        return false;
    out.clear();
    for (const Json &decision : decisions->asArray()) {
        if (decision.kind() != Kind::Int
            || (decision.asInt() != 0 && decision.asInt() != 1))
            return false;
        out.push_back(static_cast<std::uint8_t>(decision.asInt()));
    }
    return true;
}

/**
 * Span recorder: one span per timed call, nested through the open
 * span, kept in memory. A disabled recorder only runs the calls.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::int64_t begin;
        std::int64_t end;
        std::int32_t parent;
        /** Shared by the spans of one request; 0 outside requests. */
        std::uint32_t request;
    };

    explicit Tracer(bool on) : enabled(on) {}

    template <typename Body>
    decltype(auto) operator()(const char *name, std::uint32_t request,
                              Body &&body)
    {
        if (!enabled)
            return body();
        const std::size_t index = spans.size();
        spans.push_back({name, nowNs(), 0, open, request});
        struct Close
        {
            Tracer &tracer;
            std::size_t index;
            ~Close()
            {
                tracer.spans[index].end = nowNs();
                tracer.open = tracer.spans[index].parent;
            }
        } close{*this, index};
        open = static_cast<std::int32_t>(index);
        return body();
    }

    /** Duration minus the time covered by direct children, per span. */
    std::vector<std::int64_t> selfTimes() const
    {
        std::vector<std::int64_t> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[i] = spans[i].end - spans[i].begin;
        for (const Span &span : spans) {
            if (span.parent >= 0)
                self[static_cast<std::size_t>(span.parent)] -=
                    span.end - span.begin;
        }
        return self;
    }

    /** Chrome trace-event JSON; opens in chrome://tracing. */
    void write(const std::string &path) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (!out)
            throw std::runtime_error("cannot write " + path);
        const std::int64_t origin = spans.empty() ? 0 : spans[0].begin;
        std::fprintf(out, "{\"traceEvents\": [\n");
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &span = spans[i];
            std::fprintf(out,
                         "%s{\"name\": \"%s\", \"ph\": \"X\", "
                         "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                         "\"dur\": %.3f, \"args\": {\"id\": %zu, "
                         "\"parent\": %d, \"request\": %u}}\n",
                         i ? "," : "", span.name,
                         static_cast<double>(span.begin - origin) / 1e3,
                         static_cast<double>(span.end - span.begin) / 1e3,
                         i, span.parent, span.request);
        }
        std::fprintf(out, "]}\n");
        std::fclose(out);
    }

    std::vector<Span> spans;

  private:
    bool enabled;
    std::int32_t open = -1;
};

/** What a compile job produces, before it is published. */
struct Compiled
{
    JobRequest job;
    core::CompiledWorkload workload;
    std::unique_ptr<core::Classifier> classifier;
    core::ThresholdResult threshold;
};

/** The in-process twin of the service's compile job (jobs.cc). */
Compiled
compileJob(const JobRequest &job, Tracer &trace)
{
    core::PipelineOptions options;
    options.compileDatasetCount = compileDatasets;
    options.npuTrainSamples = npuTrainSamples;
    options.classifierTuples = classifierTuples;
    options.seed = jobSeed;
    const core::Pipeline pipeline(options);
    const core::QualitySpec spec = qualitySpec();

    Compiled out;
    out.job = job;
    out.workload = trace("core.compile", 0,
                         [&] { return pipeline.compile(job.benchmark); });
    out.threshold = trace("core.tune_threshold", 0, [&] {
        return pipeline.tuneThreshold(out.workload, spec);
    });
    if (job.design == "neural") {
        out.classifier = trace("core.tune_neural", 0, [&] {
            return pipeline.tuneNeural(out.workload, spec, out.threshold)
                .classifier;
        });
    } else {
        out.classifier = trace("core.tune_table", 0, [&] {
            return pipeline.tuneTable(out.workload, spec, out.threshold)
                .classifier;
        });
    }
    return out;
}

service::ModelConfig
modelConfig(const JobRequest &job)
{
    service::ModelConfig config;
    config.design = job.design;
    config.shards = modelShards;
    config.spec = qualitySpec();
    return config;
}

std::shared_ptr<service::Model>
publish(const std::string &id, Compiled &compiled)
{
    return std::make_shared<service::Model>(
        id, std::move(compiled.workload), std::move(compiled.classifier),
        compiled.threshold, modelConfig(compiled.job));
}

/** The exact request bytes service::HttpClient::post sends. */
std::string
rawRequest(const std::string &body)
{
    return "POST /invoke HTTP/1.1\r\nHost: 127.0.0.1\r\n"
           "Content-Type: application/json\r\nContent-Length: "
        + std::to_string(body.size()) + "\r\n\r\n" + body;
}

/** The /invoke body decode of the service router. */
std::vector<float>
decodeRows(const Json &body, std::size_t width)
{
    const Json *inputs = body.find("inputs");
    if (!inputs || inputs->kind() != Kind::Array)
        throw std::runtime_error("replayed body has no inputs");
    std::vector<float> flat;
    flat.reserve(inputs->asArray().size() * width);
    for (const Json &row : inputs->asArray()) {
        if (row.kind() != Kind::Array || row.asArray().size() != width)
            throw std::runtime_error("replayed row has the wrong width");
        for (const Json &cell : row.asArray())
            flat.push_back(static_cast<float>(cell.asNumber()));
    }
    return flat;
}

/**
 * One model's stages, driven call by call: the compiled artifacts,
 * and per-shard watchdogs built exactly as service::Model builds them.
 */
struct StageModel
{
    Compiled compiled;
    std::vector<core::watchdog::Watchdog> dogs;
    std::uint64_t streamPosition = 0;

    explicit StageModel(Compiled from) : compiled(std::move(from))
    {
        const service::ModelConfig config = modelConfig(compiled.job);
        const double shardConfidence = mithra::stats::splitConfidence(
            config.watchdog.confidence, config.shards);
        for (std::size_t k = 0; k < config.shards; ++k) {
            core::watchdog::WatchdogOptions options = config.watchdog;
            options.confidence = shardConfidence;
            options.seed = core::shardSeed(config.watchdog.seed, k);
            dogs.emplace_back(options, compiled.threshold.threshold);
        }
    }

    /** Replay one request through every stage; returns the digest of
     *  its decisions and the merged watchdog state after it. */
    std::pair<std::uint64_t, std::string>
    request(Tracer &trace, std::uint32_t id, const std::string &raw,
            std::size_t width)
    {
        return trace("request", id, [&] {
            service::RequestParser parser;
            trace("service.http_parse", id,
                  [&] { return parser.feed(raw.data(), raw.size()); });
            if (parser.status() != service::RequestParser::Status::Complete)
                throw std::runtime_error("replayed request did not parse");
            const mithra::telemetry::ParseResult parsed =
                trace("telemetry.json_parse", id, [&] {
                    return mithra::telemetry::parseJson(
                        parser.request().body);
                });
            if (!parsed.ok)
                throw std::runtime_error("replayed body is not JSON");
            const std::vector<float> rows = trace(
                "service.decode", id,
                [&] { return decodeRows(parsed.value, width); });
            const std::size_t count = rows.size() / width;

            const mithra::axbench::InvocationTrace invocations =
                trace("core.trace_build", id, [&] {
                    return core::traceFromInputs(compiled.workload,
                                                 rows.data(), width,
                                                 count);
                });
            std::vector<std::uint8_t> decisions(count);
            trace("core.decide", id, [&] {
                compiled.classifier->beginDataset(invocations);
                core::DecisionLoopOptions loop;
                loop.oracleThreshold = compiled.threshold.threshold;
                loop.onlineSampleRate = 0.0;
                loop.streamOffset = streamPosition;
                std::vector<core::ShardTally> tallies;
                core::runShardedDecisions(
                    *compiled.classifier, invocations,
                    core::ShardPlan(count, dogs.size()), dogs, loop,
                    decisions.data(), tallies);
            });
            streamPosition += count;

            core::ShardedEvaluation merged;
            trace("core.evidence_merge", id, [&] {
                merged.shardCount = dogs.size();
                merged.watchdogEnabled = true;
                merged.shards.resize(dogs.size());
                core::mergeShardEvidence(
                    dogs, modelConfig(compiled.job).watchdog.confidence,
                    merged);
            });
            trace("service.encode", id, [&] {
                Json::Array list;
                list.reserve(count);
                for (const std::uint8_t decision : decisions)
                    list.push_back(Json(static_cast<std::int64_t>(decision)));
                Json::Object evidence;
                evidence.emplace("state", Json(core::watchdog::stateName(
                                              merged.combinedState)));
                evidence.emplace("lower",
                                 Json(merged.violationEnvelope.lower));
                evidence.emplace("upper",
                                 Json(merged.violationEnvelope.upper));
                Json::Object out;
                out.emplace("decisions", Json(std::move(list)));
                out.emplace("watchdog", Json(std::move(evidence)));
                service::HttpResponse response;
                response.body = Json(std::move(out)).dump(1) + "\n";
                return service::serializeResponse(response, true).size();
            });
            return std::make_pair(
                decisionDigest(decisions.data(), count),
                std::string(
                    core::watchdog::stateName(merged.combinedState)));
        });
    }
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const auto middle = values.begin()
        + static_cast<std::ptrdiff_t>(values.size() / 2);
    std::nth_element(values.begin(), middle, values.end());
    return *middle;
}

/** Per-name self time and call count over a set of spans. */
struct Totals
{
    std::int64_t ns = 0;
    std::size_t calls = 0;

    double us() const { return static_cast<double>(ns) / 1e3; }
    double seconds() const { return static_cast<double>(ns) / 1e9; }
};

std::map<std::string, Totals>
totalsByName(const Tracer &trace)
{
    const std::vector<std::int64_t> self = trace.selfTimes();
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < trace.spans.size(); ++i) {
        Totals &totals = out[trace.spans[i].name];
        totals.ns += self[i];
        ++totals.calls;
    }
    return out;
}

void
compareReplay(const Served &served, std::uint64_t replayed,
              const std::string &state, bool corrupt, Checked &checked)
{
    const std::uint64_t expected = corrupt ? replayed ^ 1 : replayed;
    if (expected != served.digest)
        checked.failures.push_back(
            "request " + std::to_string(served.record)
            + ": decisions differ from the in-process replay");
    if (state != served.state)
        checked.failures.push_back(
            "request " + std::to_string(served.record) + ": watchdog "
            + served.state + " where the replay is " + state);
}

/** Compile jobs the traced run times besides the served models: the
 *  compile-mix jobs, or a neural design where none is served. */
std::vector<JobRequest>
profileJobs(const Workload &workload)
{
    if (!workload.mixJobs.empty())
        return workload.mixJobs;
    for (const JobRequest &job : workload.setupJobs) {
        if (job.design == "neural")
            return {};
    }
    return {{workload.setupJobs.front().benchmark, "neural"}};
}

/** Time the per-row entry points inside trace build and decide on
 *  the first rows of `inputs`. */
void
timePerRow(Tracer &trace, const Compiled &compiled,
           const ModelInputs &inputs, bool withTarget,
           std::map<std::string, std::size_t> &rowsTimed)
{
    const std::size_t width = inputs.width;
    const std::size_t rows = std::min(sampleRows,
                                      inputs.rows.size() / width);
    const float *data = inputs.rows.data();
    if (withTarget) {
        rowsTimed["axbench.target"] += rows;
        rowsTimed["npu.forward"] += rows;
        const mithra::axbench::Benchmark &bench =
            *compiled.workload.benchmark;
        trace("axbench.target", 0, [&] {
            mithra::Vec row(width);
            for (std::size_t i = 0; i < rows; ++i) {
                std::copy(data + i * width, data + (i + 1) * width,
                          row.begin());
                (void)bench.targetFunction(row);
            }
        });
        trace("npu.forward", 0, [&] {
            mithra::Vec row(width);
            for (std::size_t i = 0; i < rows; ++i) {
                std::copy(data + i * width, data + (i + 1) * width,
                          row.begin());
                (void)(compiled.workload.backend
                           ? compiled.workload.backend->invoke(row)
                           : compiled.workload.accel.invoke(row));
            }
        });
    }
    std::vector<std::uint8_t> out(rows);
    const char *decide = compiled.job.design == "neural"
        ? "core.neural_decide"
        : "hw.table_decide";
    rowsTimed[decide] += rows;
    trace(decide, 0, [&] {
              for (std::size_t begin = 0; begin < rows; begin += 512) {
                  const std::size_t count = std::min<std::size_t>(
                      512, rows - begin);
                  compiled.classifier->decideBatch(
                      data + begin * width, width, count, begin,
                      out.data() + begin);
              }
          });
}

} // namespace

std::uint64_t
decisionDigest(const std::uint8_t *decisions, std::size_t count)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < count; ++i) {
        hash ^= decisions[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

Checked
checkResponses(const Workload &workload,
               const std::vector<ModelInputs> &inputs, const LoadRun &run)
{
    Checked checked;
    checked.perModel.resize(inputs.size());
    std::vector<std::uint8_t> decisions;
    for (std::size_t i = 0; i < run.records.size(); ++i) {
        const Record &record = run.records[i];
        const auto fail = [&](const std::string &why) {
            checked.failures.push_back("request " + std::to_string(i)
                                       + ": " + why);
        };
        if (!record.ok || record.status != 200) {
            ++checked.failedRequests;
            fail("status " + std::to_string(record.status) + " "
                 + record.response.substr(0, 200));
            continue;
        }
        const mithra::telemetry::ParseResult parsed =
            mithra::telemetry::parseJson(record.response);
        if (!parsed.ok) {
            fail("response is not JSON: " + parsed.error);
            continue;
        }
        const Json &response = parsed.value;
        const Json *model = response.find("model");
        if (!model || model->kind() != Kind::String
            || model->asString() != inputs[record.model].modelId) {
            fail("response names the wrong model");
            continue;
        }
        if (!readDecisions(response, workload.batchRows, decisions)) {
            fail("response lacks one 0/1 decision per row");
            continue;
        }
        Served served;
        served.record = i;
        served.digest = decisionDigest(decisions.data(), decisions.size());
        std::size_t ordinal = 0;
        if (!readCount(lookup(response, {"certificate", "total", "batches"}),
                       ordinal)
            || !readCount(lookup(response,
                                 {"certificate", "batch", "accelerated"}),
                          served.accelerated)
            || !readCount(lookup(response, {"certificate", "batch", "audits"}),
                          served.audits)
            || !readCount(lookup(response,
                                 {"certificate", "batch", "forcedPrecise"}),
                          served.forcedPrecise)) {
            fail("certificate lacks its batch counts");
            continue;
        }
        served.ordinal = ordinal;
        const Json *state =
            lookup(response, {"certificate", "watchdog", "state"});
        if (!state || state->kind() != Kind::String) {
            fail("certificate lacks the watchdog state");
            continue;
        }
        served.state = state->asString();
        ++checked.statesServed[served.state];
        checked.perModel[record.model].push_back(served);
    }
    for (std::size_t m = 0; m < checked.perModel.size(); ++m) {
        std::vector<Served> &stream = checked.perModel[m];
        std::sort(stream.begin(), stream.end(),
                  [](const Served &a, const Served &b) {
                      return a.ordinal < b.ordinal;
                  });
        for (std::size_t k = 0; k < stream.size(); ++k) {
            if (stream[k].ordinal != k + 1) {
                checked.failures.push_back(
                    "model " + inputs[m].modelId
                    + ": served batches are not one gap-free stream");
                break;
            }
        }
    }
    return checked;
}

void
checkJobDocument(const std::string &document, const std::string &what,
                 std::vector<std::string> &failures)
{
    const mithra::telemetry::ParseResult parsed =
        mithra::telemetry::parseJson(document);
    const Json *state = parsed.ok ? parsed.value.find("state") : nullptr;
    if (!state || state->kind() != Kind::String
        || state->asString() != "done") {
        failures.push_back(what + " did not finish: " + document);
        return;
    }
    const Json *bound = lookup(parsed.value, {"result", "successLowerBound"});
    const Json *enabled =
        lookup(parsed.value, {"result", "approximationEnabled"});
    if (!bound || !enabled || enabled->kind() != Kind::Bool
        || (bound->kind() != Kind::Double && bound->kind() != Kind::Int)) {
        failures.push_back(what + " has no certified result");
        return;
    }
    if (enabled->asBool() && bound->asNumber() < qualitySpec().successRate)
        failures.push_back(what + " certified " + std::to_string(
                               bound->asNumber())
                           + " below the success rate");
}

void
replayDigests(const Workload &workload,
              const std::vector<ModelInputs> &inputs, const LoadRun &run,
              Checked &checked, bool corruptExpected)
{
    Tracer untraced(false);
    for (std::size_t m = 0; m < inputs.size(); ++m) {
        Compiled compiled = compileJob(workload.setupJobs[m], untraced);
        const std::shared_ptr<service::Model> model =
            publish(inputs[m].modelId, compiled);
        for (const Served &served : checked.perModel[m]) {
            const Record &record = run.records[served.record];
            const service::InvokeOutcome outcome = model->invoke(
                inputs[m].batch(record.body, workload.batchRows),
                workload.batchRows);
            const Json *state = lookup(outcome.certificate,
                                       {"watchdog", "state"});
            compareReplay(served,
                          decisionDigest(outcome.decisions.data(),
                                         outcome.decisions.size()),
                          state && state->kind() == Kind::String
                              ? state->asString()
                              : "",
                          corruptExpected && served.record == 0, checked);
        }
    }
}

std::map<std::string, double>
tracedReplay(const Workload &workload,
             const std::vector<ModelInputs> &inputs, const LoadRun &run,
             Checked &checked, bool corruptExpected,
             const std::string &spansPath)
{
    Tracer trace(true);
    Tracer untraced(false);
    mithra::telemetry::SpanRegistry &registry =
        mithra::telemetry::SpanRegistry::global();
    const auto programNs = [&] {
        return std::make_pair(
            registry.site("core.pipeline.dataset_gen").wallNs(),
            registry.site("core.pipeline.npu_train").wallNs());
    };
    const auto programBefore = programNs();

    std::vector<JobRequest> jobs = workload.setupJobs;
    const std::vector<JobRequest> profile = profileJobs(workload);
    jobs.insert(jobs.end(), profile.begin(), profile.end());
    std::vector<Compiled> compiled;
    for (const JobRequest &job : jobs)
        compiled.push_back(compileJob(job, trace));
    const auto programAfter = programNs();
    const double compiles = static_cast<double>(jobs.size());

    std::map<std::string, std::size_t> rowsTimed;
    // Served models first; the profile-only classifiers just time
    // their decide path on a served benchmark's rows.
    for (std::size_t j = inputs.size(); j < compiled.size(); ++j) {
        for (const ModelInputs &model : inputs) {
            if (model.benchmark == compiled[j].job.benchmark) {
                timePerRow(trace, compiled[j], model, false, rowsTimed);
                break;
            }
        }
    }

    // Every other request runs with no spans recorded, timed only as a
    // whole: the tracing overhead, under the same conditions.
    std::size_t rowsTraced = 0;
    std::size_t rowsAll = 0;
    std::size_t requestBytes = 0;
    std::size_t responseBytes = 0;
    std::int64_t tracedNs = 0;
    std::int64_t untracedNs = 0;
    std::size_t untracedCount = 0;
    std::vector<std::vector<const Served *>> prefix(inputs.size());
    std::vector<std::shared_ptr<service::Model>> models;
    for (std::size_t m = 0; m < inputs.size(); ++m) {
        timePerRow(trace, compiled[m], inputs[m], true, rowsTimed);
        StageModel stages(std::move(compiled[m]));
        std::size_t rowsPrefix = 0;
        for (const Served &served : checked.perModel[m]) {
            const Record &record = run.records[served.record];
            const std::string raw =
                rawRequest(inputs[m].bodies[record.body]);
            const bool traced = served.ordinal % 2 == 1;
            const std::int64_t begin = nowNs();
            const auto [digest, state] = stages.request(
                traced ? trace : untraced,
                static_cast<std::uint32_t>(served.record + 1), raw,
                inputs[m].width);
            (traced ? tracedNs : untracedNs) += nowNs() - begin;
            untracedCount += traced ? 0 : 1;
            compareReplay(served, digest, state,
                          corruptExpected && served.record == 0, checked);
            rowsTraced += traced ? workload.batchRows : 0;
            rowsAll += workload.batchRows;
            requestBytes += raw.size();
            responseBytes += record.response.size();
            if (rowsPrefix < prefixRows / inputs.size()) {
                rowsPrefix += workload.batchRows;
                prefix[m].push_back(&served);
            }
        }
        models.push_back(publish(inputs[m].modelId, stages.compiled));
    }

    // The served path as one call: Server::handle on fresh models
    // (digest-checked), the response encode, then Model::invoke on the
    // models' continued streams.
    service::Server server; // never started: no sockets, no workers
    for (const std::shared_ptr<service::Model> &model : models)
        server.models().add(model);
    // Medians: the served round trip and the in-process handle are
    // timed minutes apart, so a stall in either would swamp a mean.
    std::vector<double> rttUs;
    std::vector<double> handleUs;
    std::size_t prefixCount = 0;
    std::size_t prefixRowCount = 0;
    for (std::size_t m = 0; m < inputs.size(); ++m) {
        std::vector<std::uint8_t> decisions;
        for (const Served *served : prefix[m]) {
            const Record &record = run.records[served->record];
            const auto id = static_cast<std::uint32_t>(served->record + 1);
            service::RequestParser parser;
            const std::string raw = rawRequest(inputs[m].bodies[record.body]);
            parser.feed(raw.data(), raw.size());
            const std::size_t at = trace.spans.size();
            const service::HttpResponse response = trace(
                "service.handle", id,
                [&] { return server.handle(parser.request()); });
            handleUs.push_back(static_cast<double>(
                trace.spans[at].end - trace.spans[at].begin) / 1e3);
            rttUs.push_back((record.done - record.sent) * 1e6);
            const mithra::telemetry::ParseResult parsed =
                mithra::telemetry::parseJson(response.body);
            if (response.status != 200 || !parsed.ok
                || !readDecisions(parsed.value, workload.batchRows,
                                  decisions)) {
                checked.failures.push_back("in-process handle failed");
                continue;
            }
            const Json *state = lookup(parsed.value,
                                       {"certificate", "watchdog", "state"});
            compareReplay(*served,
                          decisionDigest(decisions.data(), decisions.size()),
                          state && state->kind() == Kind::String
                              ? state->asString()
                              : "",
                          false, checked);
            trace("telemetry.json_dump", id,
                  [&] { return parsed.value.dump(1).size(); });
            ++prefixCount;
            prefixRowCount += workload.batchRows;
        }
        for (const Served *served : prefix[m]) {
            const Record &record = run.records[served->record];
            trace("core.model_invoke",
                  static_cast<std::uint32_t>(served->record + 1), [&] {
                      return models[m]->invoke(
                          inputs[m].batch(record.body, workload.batchRows),
                          workload.batchRows);
                  });
        }
    }
    trace.write(spansPath);

    // Per-request and per-row figures. The stage spans cover every
    // other request; handle, invoke and dump cover the prefix.
    std::map<std::string, Totals> totals = totalsByName(trace);
    std::map<std::string, double> out;
    const double requests =
        static_cast<double>(totals["request"].calls);
    const double rows = static_cast<double>(rowsTraced);
    const double prefixRequests = static_cast<double>(prefixCount);
    const auto perRequest = [&](const char *name) {
        return requests > 0 ? totals[name].us() / requests : 0.0;
    };
    const auto perRow = [&](const char *name) {
        return rows > 0 ? totals[name].us() / rows : 0.0;
    };
    const auto perPrefix = [&](const char *name) {
        return prefixRequests > 0 ? totals[name].us() / prefixRequests
                                  : 0.0;
    };
    const auto perSampleRow = [&](const char *name) {
        const std::size_t timed = rowsTimed[name];
        return timed ? totals[name].us() / static_cast<double>(timed) : 0.0;
    };
    const auto perCall = [&](const char *name) {
        const Totals &t = totals[name];
        return t.calls ? t.seconds() / static_cast<double>(t.calls) : 0.0;
    };

    out["service.http_parse_us"] = perRequest("service.http_parse");
    out["service.handle_us"] = perPrefix("service.handle");
    out["service.rtt_minus_handle_us"] =
        median(rttUs) - median(handleUs);
    out["core.model_invoke_us"] = perPrefix("core.model_invoke");
    // handle = body parse + decode + invoke + encode; what the parts
    // timed separately leave over is the router and the body decode.
    out["service.decode_residual_us"] = out["service.handle_us"]
        - perRequest("telemetry.json_parse") - out["core.model_invoke_us"]
        - perPrefix("telemetry.json_dump");
    out["service.request_bytes_per_row"] =
        static_cast<double>(requestBytes)
        / static_cast<double>(std::max<std::size_t>(rowsAll, 1));
    out["service.response_bytes_per_row"] =
        static_cast<double>(responseBytes)
        / static_cast<double>(std::max<std::size_t>(rowsAll, 1));
    out["telemetry.json_parse_us_per_row"] = perRow("telemetry.json_parse");
    out["telemetry.json_dump_us_per_row"] =
        prefixRowCount ? totals["telemetry.json_dump"].us()
                / static_cast<double>(prefixRowCount)
                       : 0.0;
    out["core.trace_build_us_per_row"] = perRow("core.trace_build");
    out["core.decide_us_per_row"] = perRow("core.decide");
    out["core.evidence_merge_us"] = perRequest("core.evidence_merge");
    out["axbench.target_us_per_row"] = perSampleRow("axbench.target");
    out["npu.forward_us_per_row"] = perSampleRow("npu.forward");
    out["hw.table_decide_us_per_row"] = perSampleRow("hw.table_decide");
    out["core.neural_decide_us_per_row"] =
        perSampleRow("core.neural_decide");
    out["core.compile_s"] = perCall("core.compile");
    out["core.tune_threshold_s"] = perCall("core.tune_threshold");
    out["core.tune_table_s"] = perCall("core.tune_table");
    out["core.tune_neural_s"] = perCall("core.tune_neural");
    out["axbench.dataset_gen_s"] =
        static_cast<double>(programAfter.first - programBefore.first)
        / 1e9 / compiles;
    out["npu.train_s"] =
        static_cast<double>(programAfter.second - programBefore.second)
        / 1e9 / compiles;

    // A request's self time is the part no stage span covers.
    std::int64_t requestNs = 0;
    for (const Tracer::Span &span : trace.spans) {
        if (std::string(span.name) == "request")
            requestNs += span.end - span.begin;
    }
    out["trace.unattributed_pct"] = requestNs > 0
        ? 100.0 * static_cast<double>(totals["request"].ns)
            / static_cast<double>(requestNs)
        : 0.0;
    const double tracedMean = requests > 0
        ? static_cast<double>(tracedNs) / requests
        : 0.0;
    const double untracedMean = untracedCount
        ? static_cast<double>(untracedNs) / static_cast<double>(untracedCount)
        : 0.0;
    out["trace.overhead_pct"] = untracedMean > 0.0
        ? 100.0 * (tracedMean - untracedMean) / untracedMean
        : 0.0;
    return out;
}

} // namespace perfbench
