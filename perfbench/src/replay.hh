/**
 * @file
 * Output checks and the in-process replay.
 *
 * Every served response is validated, and the decisions of every
 * request are compared, by digest, with an in-process replay of the
 * same job specs and rows in the order the model served them (the
 * certificate's batch count names that order). The determinism
 * contract makes the replayed models bitwise-identical to the served
 * ones, so any difference is a defect.
 *
 * The traced replay also times each layer's public entry points and
 * records one span per call, in memory, written out at the end.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "loadgen.hh"
#include "workload.hh"

namespace perfbench
{

/** One validated `/invoke` response. */
struct Served
{
    /** Index into LoadRun::records. */
    std::size_t record = 0;
    /** 1-based position of the batch in its model's stream. */
    std::uint64_t ordinal = 0;
    /** FNV-1a over the decision bytes (1 = accelerate). */
    std::uint64_t digest = 0;
    std::size_t accelerated = 0;
    std::size_t audits = 0;
    std::size_t forcedPrecise = 0;
    /** The certificate's merged watchdog state. */
    std::string state;
};

/** Everything the checks found. */
struct Checked
{
    /** One line per failed check; empty when the run is correct. */
    std::vector<std::string> failures;
    /** Requests that failed in transport or were not answered 200. */
    std::size_t failedRequests = 0;
    /** Batches served per merged watchdog state. */
    std::map<std::string, std::size_t> statesServed;
    /** Per model, the served batches in stream order. */
    std::vector<std::vector<Served>> perModel;
};

/** FNV-1a over a decision vector. */
std::uint64_t decisionDigest(const std::uint8_t *decisions,
                             std::size_t count);

/**
 * Validate every response: status 200, one 0/1 decision per row, the
 * certificate's counts and watchdog state, and a gap-free stream order
 * per model. The state is checked against the replay, not required to
 * be HEALTHY: the jmeint models' audited violation rate on unseen
 * datasets is above the watchdog's 10% limit, so long streams turn
 * them SUSPECT and then DEGRADED (perfbench/README.md).
 */
Checked checkResponses(const Workload &workload,
                       const std::vector<ModelInputs> &inputs,
                       const LoadRun &run);

/** A compile job's `GET /jobs/<id>` document must say done and carry
 *  a certified bound, or report approximation disabled. */
void checkJobDocument(const std::string &document,
                      const std::string &what,
                      std::vector<std::string> &failures);

/** Replay every served batch through service::Model::invoke and
 *  compare digests. `corruptExpected` flips one expected digest: the
 *  benchmark's self-test uses it to show a mismatch fails the run. */
void replayDigests(const Workload &workload,
                   const std::vector<ModelInputs> &inputs,
                   const LoadRun &run, Checked &checked,
                   bool corruptExpected);

/**
 * The traced replay: the same checks as replayDigests, plus the
 * per-layer metrics (name -> value) and the span file at `spansPath`.
 */
std::map<std::string, double>
tracedReplay(const Workload &workload,
             const std::vector<ModelInputs> &inputs, const LoadRun &run,
             Checked &checked, bool corruptExpected,
             const std::string &spansPath);

} // namespace perfbench
