/**
 * @file
 * The runtime guarantee watchdog (graceful degradation layer).
 *
 * MITHRA's contract — quality loss <= q on at least a fraction S of
 * datasets, with confidence beta — is certified *offline*, on
 * representative compile datasets. Nothing in the deployed system
 * re-checks it: if the serving input distribution drifts away from
 * the compile-time distribution, or the accelerator itself decays
 * (bit flips in NPU weights, corrupted decision tables), the
 * certificate silently stops describing reality. The watchdog closes
 * that loop at runtime:
 *
 *  - **Audit sampling.** A deterministic pseudo-random subsample of
 *    accelerated invocations also runs the precise function (exactly
 *    like the paper's sporadic online observation, §IV-C.1) and
 *    compares the two. An audited invocation *violates* when the
 *    accelerator's local error exceeds the compile-time threshold —
 *    the event the classifier was trained to prevent.
 *  - **Sequential statistics.** Violations feed a
 *    stats::SequentialBinomialBound, an anytime-valid Clopper–Pearson
 *    envelope on the true violation rate. Because the envelope is
 *    valid at every audit simultaneously, the watchdog can act on it
 *    continuously without the repeated-peeking fallacy.
 *  - **Graceful degradation.** A four-state machine gates the
 *    accelerator:
 *
 *        HEALTHY --(observed rate > allowed)--> SUSPECT
 *        SUSPECT --(lower bound > allowed)----> DEGRADED
 *        SUSPECT --(upper bound <= allowed)---> HEALTHY
 *        DEGRADED --(shadow audits certify)---> RECOVERED
 *        RECOVERED --(probation clean)--------> HEALTHY
 *        RECOVERED --(lower bound > allowed)--> DEGRADED
 *
 *    SUSPECT ramps the audit rate (cheap: more double-runs). DEGRADED
 *    forces every invocation down the precise path — the system loses
 *    speedup, never quality — while *shadow* audits keep running the
 *    accelerator on a sample of the stream to detect recovery.
 *
 * Determinism: the audit schedule is a pure function of
 * (seed, invocation index, state audit rate) through SplitMix64, and
 * the state machine advances only on audited invocations of the
 * serial runtime loop — so enabling the watchdog preserves the
 * repository-wide bitwise-reproducibility guarantee at any
 * MITHRA_THREADS (see DESIGN.md §11).
 */

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "stats/sequential_bound.hh"

namespace mithra::core::watchdog
{

/** The watchdog's view of the deployment. */
enum class State
{
    /** Bound certifies the contract; audit at the base rate. */
    Healthy,
    /** Point estimate above the allowed rate; audits ramped up. */
    Suspect,
    /** Confident violation: approximation forced off (fail closed). */
    Degraded,
    /** Shadow audits look clean again; approximation re-enabled on
     *  probation at the elevated audit rate. */
    Recovered,
};

/** "healthy", "suspect", "degraded", "recovered". */
const char *stateName(State state);

/** Sentinel for "no trip happened". */
inline constexpr std::size_t noTrip =
    std::numeric_limits<std::size_t>::max();

/** Runtime knobs; defaults follow DESIGN.md §11. */
struct WatchdogOptions
{
    /** Master switch (default off: bit-for-bit legacy behaviour). */
    bool enabled = false;
    /** Fraction of accelerated invocations audited while HEALTHY. */
    double baseAuditRate = 0.02;
    /** Audit fraction while SUSPECT or RECOVERED (the ramp). */
    double suspectAuditRate = 0.2;
    /** Fraction of would-accelerate invocations shadow-audited while
     *  DEGRADED (runs the idle accelerator alongside the precise
     *  path to detect recovery). */
    double degradedAuditRate = 0.1;
    /** Allowed violation rate among accelerated invocations. The
     *  compile-time calibration drives the classifier's conditional
     *  false-negative rate well below this; the margin is what the
     *  watchdog patrols. */
    double maxViolationRate = 0.1;
    /** Confidence of the sequential envelope per monitoring epoch. */
    double confidence = 0.95;
    /** Audits before a point estimate alone may raise SUSPECT. */
    std::size_t suspectMinAudits = 8;
    /** HEALTHY's screen watches the violation rate over the most
     *  recent suspectWindowAudits audits rather than the whole epoch:
     *  a long clean history must not dilute a fresh regime change.
     *  Must be >= suspectMinAudits. */
    std::size_t suspectWindowAudits = 32;
    /** Shadow audits required before DEGRADED may lift. */
    std::size_t recoveryMinAudits = 48;
    /** RECOVERED must certify health below
     *  recoverMargin * maxViolationRate to re-enter HEALTHY —
     *  the hysteresis that prevents flapping. */
    double recoverMargin = 0.5;
    /** Clean audits required to leave RECOVERED. */
    std::size_t probationMinAudits = 32;
    /** Audit-schedule seed (shared SplitMix64 stream family). */
    std::uint64_t seed = 0xd09ULL;
};

/** What the runtime must do for one invocation (see Watchdog::route). */
struct Routing
{
    /** Final decision: invoke the accelerator for the real output. */
    bool useAccel = false;
    /** Also run the precise function and report the true error. */
    bool auditPrecise = false;
    /** DEGRADED shadow audit: also run the (gated) accelerator and
     *  report the true error. */
    bool auditShadowAccel = false;

    /** True when either kind of audit was scheduled. */
    bool audited() const { return auditPrecise || auditShadowAccel; }
};

/** Everything a harness wants to know after (or during) a run. */
struct Snapshot
{
    State state = State::Healthy;
    std::size_t invocations = 0;
    /** Audits across all epochs (both kinds). */
    std::size_t audits = 0;
    std::size_t violations = 0;
    /** Entries into SUSPECT. */
    std::size_t suspectEntries = 0;
    /** Entries into DEGRADED. */
    std::size_t trips = 0;
    /** Entries into RECOVERED. */
    std::size_t recoveries = 0;
    /** Invocations the state machine forced down the precise path. */
    std::size_t forcedPrecise = 0;
    /** Invocation index of the first trip (noTrip when none). */
    std::size_t firstTripAt = noTrip;
    /** Current epoch's anytime-valid envelope. */
    double violationUpperBound = 1.0;
    double violationLowerBound = 0.0;
    /** Audits and violations inside the current epoch. */
    std::size_t epochAudits = 0;
    std::size_t epochViolations = 0;
};

/**
 * The per-benchmark watchdog instance. Drive it with route() once per
 * invocation (in stream order) and reportAudit() whenever route()
 * scheduled an audit. Not thread-safe by design: the runtime decision
 * loop is serial (see DESIGN.md §11 on why this preserves the bitwise
 * guarantee).
 */
class Watchdog
{
  public:
    /**
     * @param options        runtime knobs (enabled is ignored here —
     *                       constructing a Watchdog means using it)
     * @param errorThreshold the compile-time local-error threshold; an
     *                       audited error above it is a violation
     */
    Watchdog(const WatchdogOptions &options, double errorThreshold);

    /**
     * The deterministic audit schedule: a pure function of
     * (seed, invocation index, rate). For a fixed seed and index the
     * schedule is monotone in the rate, so ramping the rate only adds
     * audits — it never unschedules one.
     */
    static bool auditScheduled(std::uint64_t seed, std::uint64_t index,
                               double rate);

    /**
     * Route one invocation. `wantAccel` is the classifier's decision
     * (true = accelerate); the watchdog may overrule it (DEGRADED
     * forces the precise path) and may schedule an audit. When the
     * returned Routing has audited() set, the caller must run the
     * second path and call reportAudit() with the measured local
     * error before the next route() call.
     */
    Routing route(bool wantAccel);

    /**
     * Report the audited invocation's true local error. Returns true
     * when the audit violated (the error exceeded the threshold).
     */
    bool reportAudit(float trueError);

    State state() const { return currentState; }

    /** True while the accelerator is administratively disabled. */
    bool degraded() const { return currentState == State::Degraded; }

    /** The current epoch's sequential envelope. */
    const stats::SequentialBinomialBound &bound() const
    {
        return violationBound;
    }

    double errorThreshold() const { return threshold; }

    Snapshot snapshot() const;

  private:
    void enter(State next);
    double auditRate() const;
    void recordRecent(bool violated);

    WatchdogOptions opts;
    double threshold;
    State currentState = State::Healthy;
    stats::SequentialBinomialBound violationBound;
    bool auditPending = false;
    bool pendingWantAccel = false;

    /** Sliding window over the epoch's most recent audit outcomes
     *  (HEALTHY's change screen; cleared on every transition). */
    std::vector<bool> recentAudits;
    std::size_t recentHead = 0;
    std::size_t recentViolations = 0;

    std::size_t numInvocations = 0;
    std::size_t numAudits = 0;
    std::size_t numViolations = 0;
    std::size_t numSuspectEntries = 0;
    std::size_t numTrips = 0;
    std::size_t numRecoveries = 0;
    std::size_t numForcedPrecise = 0;
    std::size_t firstTrip = noTrip;
};

} // namespace mithra::core::watchdog
