/**
 * @file
 * The three benchmark workloads: which models they publish, how their
 * traffic is shaped, and the seeded inputs and arrival schedules they
 * send. Everything here is a pure function of the workload name and
 * the workload seed; the server only ever sees the generated bodies.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/threshold_optimizer.hh"

namespace perfbench
{

/** One compile job submitted through `POST /jobs`. */
struct JobRequest
{
    std::string benchmark;
    std::string design;
};

/** Sizes every job uses (the ones bench/micro_service uses). */
inline constexpr std::size_t compileDatasets = 60;
inline constexpr std::size_t npuTrainSamples = 4000;
inline constexpr std::size_t classifierTuples = 50000;
/** Decision-loop shards of every published model. */
inline constexpr std::size_t modelShards = 4;
/** MITHRA_SERVE_WORKERS of every server. */
inline constexpr std::size_t serveWorkers = 4;
/** The pipeline seed of every job (the service default). */
inline constexpr std::uint64_t jobSeed = 0x5eed;

/** One open-loop load level; rungs share the window equally. */
struct Rung
{
    const char *name;
    /** Mean Poisson arrival rate, requests per second. */
    double rate;
};

struct Workload
{
    std::string name;
    /** Published during set-up; the server names them job-1, job-2,
     *  ... in this order, and every model gets a share of traffic. */
    std::vector<JobRequest> setupJobs;
    /** Submitted at the start of the measured phase (compile-mix). */
    std::vector<JobRequest> mixJobs;
    std::size_t batchRows = 16;
    /** Keep-alive connections; never above serveWorkers, because a
     *  keep-alive connection pins one server worker for its life. */
    std::size_t connections = 1;
    /** MITHRA_THREADS of the server (and of the in-process replay).
     *  Two pool threads, not four: on a 4-vCPU guest every parallel
     *  region waits for its slowest thread, and with four the
     *  compile-time set-up took 5-26 s from run to run under host CPU
     *  steal, against 2.3-2.7 s with two. */
    std::size_t threads = 2;
    /** Run the server and mithra-perfbench on one vCPU (run.py picks
     *  the highest-numbered one it may use). */
    bool oneCpu = false;
    /** Closed loop (next request after the reply) or open loop. */
    bool closedLoop = false;
    /** Open-loop load levels, in the order they run. */
    std::vector<Rung> rungs;
    /** Latency limit on the tail percentile of a rung, ms. */
    double latencyLimitMs = 0.0;
    /** Distinct pre-serialized bodies per model. */
    std::size_t bodiesPerModel = 0;
};

/** The named workload; exits with a message on an unknown name. */
const Workload &findWorkload(const std::string &name);

/** The quality contract every job certifies against. */
mithra::core::QualitySpec qualitySpec();

/** The `POST /jobs` body of one job. */
std::string jobSpecBody(const JobRequest &job);

/** Model id the server gives the n-th submitted job (0-based). */
std::string jobId(std::size_t ordinal);

/** Seeded inputs of one published model. */
struct ModelInputs
{
    std::string modelId;
    std::string benchmark;
    std::size_t width = 0;
    /** bodies.size() batches of batchRows row-major rows each. */
    std::vector<float> rows;
    /** The exact `POST /invoke` bodies, pre-serialized. */
    std::vector<std::string> bodies;

    const float *batch(std::size_t body, std::size_t batchRows) const
    {
        return rows.data() + body * batchRows * width;
    }
};

/**
 * Inputs for every set-up model of `workload`: rows of seeded axbench
 * datasets whose seeds are outside the models' compile seeds.
 */
std::vector<ModelInputs> makeInputs(const Workload &workload,
                                    std::uint64_t seed);

/** One request of an open-loop schedule. */
struct Planned
{
    /** When it is due, seconds after the schedule starts. */
    double due = 0.0;
    std::uint32_t model = 0;
    std::uint32_t body = 0;
    /** Index into Workload::rungs; -1 marks warm-up traffic. */
    std::int32_t rung = -1;
};

/** Warm-up before every measured window, seconds. */
inline constexpr double warmupSeconds = 0.5;

/**
 * The seeded open-loop schedule: a warm-up at the first rung's rate,
 * then each rung for an equal share of `seconds`, with Poisson
 * arrivals and seeded model and body choices. `horizon` > `seconds`
 * extends the last rung (compile-mix runs until its jobs finish).
 */
std::vector<Planned> makeSchedule(const Workload &workload,
                                  std::uint64_t seed, double seconds,
                                  double horizon, std::size_t models);

} // namespace perfbench
