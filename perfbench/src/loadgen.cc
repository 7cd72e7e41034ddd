#include "loadgen.hh"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "service/client.hh"
#include "telemetry/json.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;
using mithra::service::ClientResult;
using mithra::service::HttpClient;

/** compile-mix gives up on its last mix this long after `seconds`. */
constexpr double maxMixSeconds = 60.0;
/** Poll interval of the compile-mix job states. */
constexpr auto jobPollInterval = std::chrono::milliseconds(20);

double
since(Clock::time_point origin)
{
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

Clock::time_point
after(Clock::time_point origin, double seconds)
{
    return origin
        + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
}

void
exchange(HttpClient &client, const std::string &body, Record &record,
         Clock::time_point origin)
{
    record.sent = since(origin);
    ClientResult reply = client.post("/invoke", body);
    record.done = since(origin);
    record.ok = reply.ok;
    record.status = reply.status;
    record.response = std::move(reply.body);
}

LoadRun
closedLoop(std::uint16_t port, const Workload &workload,
           const std::vector<ModelInputs> &inputs, double seconds)
{
    LoadRun run;
    HttpClient client(port);
    const Clock::time_point origin = Clock::now();
    std::size_t sent = 0;
    const auto send = [&](std::int32_t rung) {
        Record record;
        record.model = static_cast<std::uint32_t>(sent % inputs.size());
        const ModelInputs &model = inputs[record.model];
        record.body = static_cast<std::uint32_t>(
            (sent / inputs.size()) % workload.bodiesPerModel);
        record.rung = rung;
        exchange(client, model.bodies[record.body], record, origin);
        record.due = record.sent; // closed loop: due when sent
        run.records.push_back(std::move(record));
        ++sent;
    };
    while (since(origin) < warmupSeconds)
        send(-1);
    run.windowStart = since(origin);
    while (since(origin) < run.windowStart + seconds)
        send(0);
    run.windowEnd = since(origin);
    return run;
}

/** Submit one job; false (with an error recorded) when refused. */
bool
submitJob(HttpClient &client, const JobRequest &job,
          Clock::time_point origin, LoadRun &run)
{
    JobTiming timing;
    timing.job = job;
    timing.submitted = since(origin);
    const ClientResult reply = client.post("/jobs", jobSpecBody(job));
    const mithra::telemetry::ParseResult parsed =
        mithra::telemetry::parseJson(reply.body);
    const mithra::telemetry::Json *id =
        parsed.ok ? parsed.value.find("id") : nullptr;
    if (!reply.ok || reply.status != 202 || !id
        || id->kind() != mithra::telemetry::Json::Kind::String) {
        run.errors.push_back("POST /jobs " + job.benchmark + "/"
                             + job.design + " was refused: "
                             + std::to_string(reply.status) + " "
                             + reply.body + reply.error);
        return false;
    }
    timing.id = id->asString();
    run.jobs.push_back(std::move(timing));
    return true;
}

/**
 * The compile-mix job loop: submit the mix, poll until each of its
 * jobs ends, and submit it again until `seconds` have passed.
 */
void
driveJobs(std::uint16_t port, const Workload &workload, double seconds,
          Clock::time_point origin, LoadRun &run)
{
    HttpClient client(port);
    const double start = since(origin);
    do {
        const std::size_t first = run.jobs.size();
        for (const JobRequest &job : workload.mixJobs) {
            if (!submitJob(client, job, origin, run))
                return;
        }
        std::size_t open = run.jobs.size() - first;
        while (open > 0) {
            if (since(origin) > start + seconds + maxMixSeconds) {
                run.errors.push_back("compile mix did not finish in time");
                return;
            }
            std::this_thread::sleep_for(jobPollInterval);
            for (std::size_t j = first; j < run.jobs.size(); ++j) {
                JobTiming &job = run.jobs[j];
                if (job.finished >= 0.0)
                    continue;
                const ClientResult reply = client.get("/jobs/" + job.id);
                const double now = since(origin);
                const mithra::telemetry::ParseResult parsed =
                    mithra::telemetry::parseJson(reply.body);
                const mithra::telemetry::Json *state =
                    parsed.ok ? parsed.value.find("state") : nullptr;
                if (!reply.ok || reply.status != 200 || !state
                    || state->kind()
                        != mithra::telemetry::Json::Kind::String) {
                    run.errors.push_back("GET /jobs/" + job.id + " failed");
                    return;
                }
                const std::string &name = state->asString();
                if (name != "queued" && job.started < 0.0)
                    job.started = now;
                if (name == "done" || name == "failed") {
                    job.finished = now;
                    job.document = reply.body;
                    --open;
                }
            }
        }
    } while (since(origin) < start + seconds);
}

LoadRun
openLoop(std::uint16_t port, const Workload &workload,
         const std::vector<ModelInputs> &inputs, std::uint64_t seed,
         double seconds)
{
    const bool mix = !workload.mixJobs.empty();
    const std::vector<Planned> schedule =
        makeSchedule(workload, seed, seconds,
                     mix ? seconds + maxMixSeconds : seconds,
                     inputs.size());

    LoadRun run;
    run.records.resize(schedule.size());
    std::vector<char> issued(schedule.size(), 0);
    std::atomic<std::size_t> next{0};
    // Requests due at or after this many seconds are not sent.
    std::atomic<double> stopAt{warmupSeconds + seconds
                               + (mix ? maxMixSeconds : 0.0)};
    // A short lead lets every connection open before the first due.
    const Clock::time_point origin =
        Clock::now() + std::chrono::milliseconds(50);

    std::vector<std::thread> senders;
    for (std::size_t c = 0; c < workload.connections; ++c) {
        senders.emplace_back([&] {
            // Default timer slack (50us) would add to every wait.
            prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
            HttpClient client(port);
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= schedule.size())
                    return;
                const Planned &plan = schedule[i];
                if (plan.due >= stopAt.load())
                    return;
                std::this_thread::sleep_until(after(origin, plan.due));
                Record &record = run.records[i];
                record.model = plan.model;
                record.body = plan.body;
                record.rung = plan.rung;
                record.due = plan.due;
                exchange(client, inputs[plan.model].bodies[plan.body],
                         record, origin);
                issued[i] = 1;
            }
        });
    }

    run.windowStart = warmupSeconds;
    run.windowEnd = warmupSeconds + seconds;
    if (mix) {
        std::this_thread::sleep_until(after(origin, warmupSeconds));
        driveJobs(port, workload, seconds, origin, run);
        double finished = since(origin);
        for (const JobTiming &job : run.jobs)
            finished = std::max(finished, job.finished);
        run.windowStart = run.jobs.empty() ? warmupSeconds
                                           : run.jobs.front().submitted;
        run.windowEnd = finished;
        stopAt.store(std::max(finished, warmupSeconds + seconds));
    }
    for (std::thread &sender : senders)
        sender.join();

    std::vector<Record> sent;
    sent.reserve(schedule.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        if (issued[i])
            sent.push_back(std::move(run.records[i]));
    }
    run.records = std::move(sent);
    return run;
}

} // namespace

LoadRun
runLoad(std::uint16_t port, const Workload &workload,
        const std::vector<ModelInputs> &inputs, std::uint64_t seed,
        double seconds)
{
    return workload.closedLoop
        ? closedLoop(port, workload, inputs, seconds)
        : openLoop(port, workload, inputs, seed, seconds);
}

} // namespace perfbench
