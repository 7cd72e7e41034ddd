/**
 * @file
 * mithra-perfbench: the load generator and in-process replay behind
 * perfbench/run.py. run.py starts mithra-serve and calls:
 *
 *   mithra-perfbench plan  --workload W
 *       the server settings of W, as JSON
 *   mithra-perfbench setup --workload W --port P
 *       publish W's models through POST /jobs and wait for them
 *   mithra-perfbench drive --workload W --port P --seed S
 *                          --seconds T --trace 0|1 --spans FILE
 *                          [--corrupt-expected]
 *       run W's measured phase, check every output, replay it
 *       in-process and print the figures as one JSON line
 *
 * Every command exits 0 only when all of its checks passed.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/kernels/kernels.hh"
#include "common/logging.hh"
#include "loadgen.hh"
#include "replay.hh"
#include "service/client.hh"
#include "telemetry/json.hh"
#include "workload.hh"

using namespace perfbench;
using mithra::telemetry::Json;

namespace
{

struct Args
{
    std::string command;
    std::string workload;
    std::uint16_t port = 0;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
    bool corruptExpected = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "mithra-perfbench: %s\nusage: mithra-perfbench "
                 "plan|setup|drive --workload W [--port P] [--seed S] "
                 "[--seconds T] [--trace 0|1] [--spans FILE] "
                 "[--corrupt-expected]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing command");
    Args args;
    args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--corrupt-expected") {
            args.corruptExpected = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--port")
            args.port = static_cast<std::uint16_t>(std::stoul(value));
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--spans")
            args.spans = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (args.command != "plan" && args.port == 0)
        usage("--port is required");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

Json
stringList(const std::vector<std::string> &lines, std::size_t limit)
{
    Json::Array out;
    for (std::size_t i = 0; i < lines.size() && i < limit; ++i)
        out.push_back(Json(lines[i]));
    return Json(std::move(out));
}

int
plan(const Workload &workload)
{
    Json::Object out;
    out.emplace("threads", Json(workload.threads));
    out.emplace("workers", Json(serveWorkers));
    out.emplace("connections", Json(workload.connections));
    out.emplace("shards", Json(modelShards));
    out.emplace("one_cpu", Json(workload.oneCpu));
    std::printf("%s\n", Json(std::move(out)).dump().c_str());
    return 0;
}

/** Publish the set-up models; prints the polled job run times. */
int
setup(const Workload &workload, std::uint16_t port)
{
    using Clock = std::chrono::steady_clock;
    mithra::service::HttpClient client(port);
    std::vector<std::string> failures;
    Json::Array runSeconds;
    for (std::size_t m = 0; m < workload.setupJobs.size(); ++m) {
        const JobRequest &job = workload.setupJobs[m];
        const std::string what = job.benchmark + "/" + job.design;
        const auto reply = client.post("/jobs", jobSpecBody(job));
        if (!reply.ok || reply.status != 202
            || reply.body.find("\"" + jobId(m) + "\"")
                == std::string::npos) {
            failures.push_back("POST /jobs " + what + " was not accepted "
                               "as " + jobId(m) + ": " + reply.body
                               + reply.error);
            break;
        }
        // The single job worker runs jobs in order, so polling one job
        // at a time sees each one's whole run.
        double started = -1.0;
        const Clock::time_point origin = Clock::now();
        for (;;) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            const auto poll = client.get("/jobs/" + jobId(m));
            const double now =
                std::chrono::duration<double>(Clock::now() - origin)
                    .count();
            const auto parsed = mithra::telemetry::parseJson(poll.body);
            const Json *state =
                parsed.ok ? parsed.value.find("state") : nullptr;
            if (!poll.ok || !state || state->kind() != Json::Kind::String) {
                failures.push_back("GET /jobs/" + jobId(m) + " failed");
                break;
            }
            if (state->asString() != "queued" && started < 0.0)
                started = now;
            if (state->asString() == "done"
                || state->asString() == "failed") {
                checkJobDocument(poll.body, what, failures);
                runSeconds.push_back(Json(now - started));
                break;
            }
            if (now > 150.0) {
                failures.push_back(what + " did not finish in time");
                break;
            }
        }
        if (!failures.empty())
            break;
    }
    Json::Object out;
    out.emplace("ok", Json(failures.empty()));
    out.emplace("failures", stringList(failures, 20));
    out.emplace("job_run_s", Json(std::move(runSeconds)));
    std::printf("%s\n", Json(std::move(out)).dump().c_str());
    return failures.empty() ? 0 : 1;
}

/** A sample of latencies in ms (failed requests as +infinity), or of
 *  any other durations. */
struct Sample
{
    std::vector<double> ms;

    void add(const Record &record, double from)
    {
        ms.push_back(record.ok && record.status == 200
                         ? (record.done - from) * 1e3
                         : std::numeric_limits<double>::infinity());
    }

    /** Nearest-rank quantile. */
    double at(double q)
    {
        if (ms.empty())
            return 0.0;
        std::sort(ms.begin(), ms.end());
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(ms.size())));
        return ms[std::min(ms.size(), std::max<std::size_t>(rank, 1)) - 1];
    }

    /** The highest percentile up to p99 with at least ten samples
     *  beyond it. */
    double tailQ() const
    {
        const double n = static_cast<double>(ms.size());
        return std::max(0.5, std::min(0.99, 1.0 - 10.0 / n));
    }
};

/** "p99 (n=2345)" style label of a tail quantile. */
std::string
tailLabel(Sample &sample)
{
    char text[64];
    std::snprintf(text, sizeof(text), "p%.4g of n=%zu",
                  sample.tailQ() * 100.0, sample.ms.size());
    return text;
}

double
finite(double value)
{
    return std::isfinite(value) ? value : 1e9;
}

struct Figures
{
    /** The end-to-end slots (see perfbench/README.md). */
    Json::Object e2e;
    /** The workload's own names, for the report. */
    Json::Object report;
    /** Lines printed before the result. */
    std::vector<std::string> notes;
};

void
note(Figures &figures, const std::string &name, double value,
     const char *unit, const std::string &detail = "")
{
    figures.report.emplace(name, Json(value));
    char text[256];
    std::snprintf(text, sizeof(text), "%-26s %14.6g %-6s %s",
                  name.c_str(), value, unit, detail.c_str());
    figures.notes.push_back(text);
}

Figures
bulkFigures(const Workload &workload, const LoadRun &run)
{
    Figures out;
    Sample batches;
    std::size_t okRows = 0;
    for (const Record &record : run.records) {
        if (record.rung < 0)
            continue;
        batches.add(record, record.sent);
        if (record.ok && record.status == 200)
            okRows += workload.batchRows;
    }
    const double rowsPerS =
        static_cast<double>(okRows) / (run.windowEnd - run.windowStart);
    // A batch does the same work every time and the host slows a vCPU
    // for seconds at a time, so the fastest hundredth of the batches
    // ran at the program's own speed.
    const double p1 = batches.at(0.01);
    const double p1RowsPerS = static_cast<double>(workload.batchRows)
        / (finite(p1) * 1e-3);
    const double p50 = batches.at(0.5);
    const std::string tail = tailLabel(batches);
    const double p99 = batches.at(batches.tailQ());
    const std::string n = "n=" + std::to_string(batches.ms.size());
    note(out, "bulk.rows_per_s", rowsPerS, "rows/s", "over the window");
    note(out, "bulk.p1_rows_per_s", p1RowsPerS, "rows/s",
         "one batch at the p1 round trip");
    note(out, "bulk.batch_p1_ms", p1, "ms", n);
    note(out, "bulk.batch_p50_ms", p50, "ms", n);
    note(out, "bulk.batch_p99_ms", finite(p99), "ms", tail);
    out.e2e.emplace("work_per_s", Json(p1RowsPerS));
    return out;
}

Figures
smallFigures(const Workload &workload, const LoadRun &run,
             double seconds)
{
    Figures out;
    const double rungSeconds =
        seconds / static_cast<double>(workload.rungs.size());
    double maxRps = 0.0;
    for (std::size_t r = 0; r < workload.rungs.size(); ++r) {
        const Rung &rung = workload.rungs[r];
        const double begin = run.windowStart
            + static_cast<double>(r) * rungSeconds;
        const double end = begin + rungSeconds;
        Sample latency;
        std::size_t ok = 0;
        std::size_t failed = 0;
        std::size_t backlog = 0;
        double lastDone = begin;
        for (const Record &record : run.records) {
            if (record.rung != static_cast<std::int32_t>(r))
                continue;
            latency.add(record, record.due);
            const bool good = record.ok && record.status == 200;
            ok += good ? 1 : 0;
            failed += good ? 0 : 1;
            backlog += record.sent > end ? 1 : 0;
            lastDone = std::max(lastDone, record.done);
        }
        const double achieved =
            static_cast<double>(ok) / (lastDone - begin);
        const double p50 = latency.at(0.5);
        const std::string tail = tailLabel(latency);
        const double p99 = latency.at(latency.tailQ());
        // Backlog left at the rung's end beyond 1% of its requests
        // means the queue was growing.
        const bool growing = backlog * 100 > latency.ms.size();
        const bool meets = failed == 0 && !growing
            && p99 <= workload.latencyLimitMs;
        // A stall can sink one lower rung; the highest rung that
        // meets the limit still marks what the server sustains.
        if (meets)
            maxRps = achieved;
        char detail[200];
        std::snprintf(detail, sizeof(detail),
                      "offered %.0f/s achieved %.1f/s p50 %.4g ms "
                      "%s %.4g ms backlog %zu failed %zu -> %s",
                      rung.rate, achieved, p50, tail.c_str(), finite(p99),
                      backlog, failed, meets ? "meets" : "misses");
        out.notes.push_back("rung " + std::string(rung.name) + ": "
                            + detail);
        const std::string name = rung.name;
        if (name == "lo" || name == "hi") {
            note(out, "small." + name + ".p50_ms", p50, "ms",
                 "n=" + std::to_string(latency.ms.size()));
            note(out, "small." + name + ".p99_ms", finite(p99), "ms", tail);
        }
    }
    char limit[96];
    std::snprintf(limit, sizeof(limit),
                  "highest rung meeting tail <= %.3g ms",
                  workload.latencyLimitMs);
    note(out, "small.max_rps", maxRps, "req/s", limit);
    out.e2e.emplace("work_per_s", Json(maxRps));
    return out;
}

Figures
mixFigures(const Workload &workload, const LoadRun &run)
{
    Figures out;
    Sample latency;
    for (const Record &record : run.records) {
        if (record.due >= run.windowStart && record.due < run.windowEnd)
            latency.add(record, record.due);
    }
    // One mix is mixJobs.size() consecutive jobs; its time runs from
    // its first submission to its last job's end.
    Sample mixes;
    const std::size_t perMix = workload.mixJobs.size();
    for (std::size_t first = 0; first + perMix <= run.jobs.size();
         first += perMix) {
        double end = 0.0;
        for (std::size_t j = first; j < first + perMix; ++j)
            end = std::max(end, run.jobs[j].finished);
        mixes.ms.push_back(end - run.jobs[first].submitted);
    }
    const double jobsPerS = static_cast<double>(run.jobs.size())
        / (run.windowEnd - run.windowStart);
    const double p50 = latency.at(0.5);
    const std::string tail = tailLabel(latency);
    const double p99 = latency.at(latency.tailQ());
    note(out, "compile.mix_s", mixes.at(0.5), "s",
         "median of " + std::to_string(mixes.ms.size()) + " mixes");
    note(out, "compile.jobs_per_s", jobsPerS, "jobs/s",
         std::to_string(run.jobs.size()) + " jobs");
    note(out, "compile.invoke_p50_ms", p50, "ms",
         "n=" + std::to_string(latency.ms.size()));
    note(out, "compile.invoke_p99_ms", finite(p99), "ms", tail);
    out.e2e.emplace("work_per_s", Json(jobsPerS));
    return out;
}

/** `kernels.backend` from the server's GET /metrics, as a name. */
std::string
serverBackend(std::uint16_t port)
{
    mithra::service::HttpClient client(port);
    const auto reply = client.get("/metrics");
    const auto parsed = mithra::telemetry::parseJson(reply.body);
    if (!parsed.ok)
        return "unknown";
    const Json *stats = parsed.value.find("stats");
    const Json *gauges = stats ? stats->find("gauges") : nullptr;
    const Json *backend = gauges ? gauges->find("kernels.backend") : nullptr;
    if (!backend || (backend->kind() != Json::Kind::Double
                     && backend->kind() != Json::Kind::Int))
        return "unknown";
    return mithra::kernels::backendName(static_cast<mithra::kernels::Backend>(
        static_cast<int>(backend->asNumber())));
}

int
drive(const Workload &workload, const Args &args)
{
    const std::vector<ModelInputs> inputs = makeInputs(workload, args.seed);
    const LoadRun run =
        runLoad(args.port, workload, inputs, args.seed, args.seconds);
    const std::string backend = serverBackend(args.port);

    Checked checked = checkResponses(workload, inputs, run);
    for (const std::string &error : run.errors)
        checked.failures.push_back(error);
    std::size_t failedJobs = 0;
    for (const JobTiming &job : run.jobs) {
        const std::size_t before = checked.failures.size();
        checkJobDocument(job.document,
                         job.id + " (" + job.job.benchmark + "/"
                             + job.job.design + ")",
                         checked.failures);
        failedJobs += checked.failures.size() > before ? 1 : 0;
    }

    Json::Object layers;
    if (args.trace) {
        for (const auto &[name, value] :
             tracedReplay(workload, inputs, run, checked,
                          args.corruptExpected, args.spans))
            layers.emplace(name, Json(value));
    } else {
        replayDigests(workload, inputs, run, checked,
                      args.corruptExpected);
    }

    Figures figures = workload.closedLoop ? bulkFigures(workload, run)
        : workload.mixJobs.empty()
        ? smallFigures(workload, run, args.seconds)
        : mixFigures(workload, run);
    std::string states = "batches served per watchdog state:";
    for (const auto &[state, count] : checked.statesServed)
        states += " " + state + " " + std::to_string(count);
    figures.notes.push_back(states);

    const std::size_t attempted = run.records.size() + run.jobs.size();
    const std::size_t failed = checked.failedRequests + failedJobs;
    figures.e2e.emplace("ok_pct",
                        Json(100.0
                             * static_cast<double>(attempted - failed)
                             / static_cast<double>(attempted)));

    // Generator and served-count figures (per layer).
    Sample lag;
    double previousDone = 0.0;
    std::size_t ok = 0;
    for (const Record &record : run.records) {
        const bool good = record.ok && record.status == 200;
        ok += good ? 1 : 0;
        if (record.rung >= 0) {
            // A closed loop's lag is its own turnaround between a
            // reply and the next send.
            const double due =
                workload.closedLoop ? previousDone : record.due;
            lag.ms.push_back((record.sent - due) * 1e3);
        }
        previousDone = record.done;
    }
    std::size_t rows = 0;
    std::size_t accelerated = 0;
    std::size_t audits = 0;
    std::size_t forced = 0;
    for (const auto &stream : checked.perModel) {
        for (const Served &served : stream) {
            rows += workload.batchRows;
            accelerated += served.accelerated;
            audits += served.audits;
            forced += served.forcedPrecise;
        }
    }
    layers.emplace("gen.lag_p99_ms", Json(lag.at(lag.tailQ())));
    layers.emplace("gen.sent", Json(run.records.size()));
    layers.emplace("gen.ok", Json(ok));
    layers.emplace("gen.failed", Json(run.records.size() - ok));
    const double rowCount = static_cast<double>(std::max<std::size_t>(rows, 1));
    layers.emplace("core.accel_fraction",
                   Json(static_cast<double>(accelerated) / rowCount));
    layers.emplace("core.audited_row_ratio",
                   Json(static_cast<double>(audits) / rowCount));
    layers.emplace("core.watchdog.audits", Json(audits));
    layers.emplace("core.watchdog.forced_precise", Json(forced));
    if (!run.jobs.empty()) {
        double total = 0.0;
        for (const JobTiming &job : run.jobs)
            total += job.finished - job.started;
        layers.emplace("service.job_run_s",
                       Json(total / static_cast<double>(run.jobs.size())));
    }

    Json::Object out;
    out.emplace("correct", Json(checked.failures.empty()));
    out.emplace("attempted", Json(attempted));
    out.emplace("failed", Json(failed));
    out.emplace("failures", stringList(checked.failures, 20));
    out.emplace("e2e", Json(std::move(figures.e2e)));
    out.emplace("layers", Json(std::move(layers)));
    out.emplace("report", Json(std::move(figures.report)));
    out.emplace("notes", stringList(figures.notes, 64));
    out.emplace("backend", Json(backend));
    std::printf("%s\n", Json(std::move(out)).dump().c_str());
    return checked.failures.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    mithra::setInformEnabled(false);
    const Workload &workload = findWorkload(args.workload);
    try {
        if (args.command == "plan")
            return plan(workload);
        if (args.command == "setup")
            return setup(workload, args.port);
        if (args.command == "drive")
            return drive(workload, args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mithra-perfbench: %s\n", e.what());
        return 1;
    }
    usage(("unknown command " + args.command).c_str());
}
