/**
 * @file
 * The load generator: drives a running mithra-serve over loopback
 * keep-alive connections with the workload's pre-serialized bodies,
 * closed loop or on a seeded open-loop schedule, and records every
 * request's due, send and completion times and its raw response.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hh"

namespace perfbench
{

/** One `/invoke` request as sent. Times are seconds after the start
 *  of the load phase. */
struct Record
{
    std::uint32_t model = 0;
    std::uint32_t body = 0;
    /** Index into Workload::rungs; -1 marks warm-up traffic. */
    std::int32_t rung = -1;
    double due = 0.0;
    double sent = 0.0;
    double done = 0.0;
    /** False on a transport failure. */
    bool ok = false;
    int status = 0;
    std::string response;
};

/** One compile job of the measured phase, as polled. */
struct JobTiming
{
    std::string id;
    JobRequest job;
    double submitted = 0.0;
    /** First poll that saw it running (or done); -1 when never. */
    double started = -1.0;
    double finished = -1.0;
    /** The final `GET /jobs/<id>` document. */
    std::string document;
};

struct LoadRun
{
    /** In send order for a closed loop, schedule order otherwise. */
    std::vector<Record> records;
    /** The measured window, seconds after the start. */
    double windowStart = 0.0;
    double windowEnd = 0.0;
    /** compile-mix: the jobs submitted in the window. */
    std::vector<JobTiming> jobs;
    /** Problems that make the run invalid (refused jobs, ...). */
    std::vector<std::string> errors;
};

/**
 * Run the workload's measured phase against 127.0.0.1:`port` for
 * `seconds` (compile-mix: until its jobs finish, at least `seconds`).
 */
LoadRun runLoad(std::uint16_t port, const Workload &workload,
                const std::vector<ModelInputs> &inputs,
                std::uint64_t seed, double seconds);

} // namespace perfbench
