#include "core/watchdog/watchdog.hh"

#include "common/contracts.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "telemetry/telemetry.hh"

namespace mithra::core::watchdog
{

const char *
stateName(State state)
{
    switch (state) {
      case State::Healthy:
        return "healthy";
      case State::Suspect:
        return "suspect";
      case State::Degraded:
        return "degraded";
      case State::Recovered:
        return "recovered";
    }
    MITHRA_ASSERT(false, "unreachable watchdog state");
    return "?";
}

namespace
{

stats::SequentialBoundOptions
boundOptions(const WatchdogOptions &opts)
{
    stats::SequentialBoundOptions bound;
    bound.confidence = opts.confidence;
    return bound;
}

} // namespace

Watchdog::Watchdog(const WatchdogOptions &options, double errorThreshold)
    : opts(options), threshold(errorThreshold),
      violationBound(boundOptions(options))
{
    MITHRA_EXPECTS(threshold >= 0.0,
                   "error threshold must be non-negative, got ",
                   threshold);
    MITHRA_EXPECTS(opts.maxViolationRate > 0.0
                       && opts.maxViolationRate < 1.0,
                   "maxViolationRate must be in (0, 1), got ",
                   opts.maxViolationRate);
    MITHRA_EXPECTS(opts.recoverMargin > 0.0 && opts.recoverMargin <= 1.0,
                   "recoverMargin must be in (0, 1], got ",
                   opts.recoverMargin);
    MITHRA_EXPECTS(opts.baseAuditRate > 0.0,
                   "a watchdog without audits cannot watch anything");
    MITHRA_EXPECTS(opts.suspectWindowAudits >= opts.suspectMinAudits,
                   "the suspicion window (", opts.suspectWindowAudits,
                   ") cannot be smaller than suspectMinAudits (",
                   opts.suspectMinAudits, ")");
}

void
Watchdog::recordRecent(bool violated)
{
    if (recentAudits.size() < opts.suspectWindowAudits) {
        recentAudits.push_back(violated);
    } else {
        recentViolations -= recentAudits[recentHead] ? 1 : 0;
        recentAudits[recentHead] = violated;
        recentHead = (recentHead + 1) % recentAudits.size();
    }
    recentViolations += violated ? 1 : 0;
}

bool
Watchdog::auditScheduled(std::uint64_t seed, std::uint64_t index,
                         double rate)
{
    // The counter-based draw depends only on (seed, index), never on
    // call order or thread count, and its event set is monotone in the
    // rate — a higher rate's audit set is a superset of a lower one's.
    return indexedBernoulli(seed, index, rate);
}

double
Watchdog::auditRate() const
{
    switch (currentState) {
      case State::Healthy:
        return opts.baseAuditRate;
      case State::Suspect:
      case State::Recovered:
        return opts.suspectAuditRate;
      case State::Degraded:
        return opts.degradedAuditRate;
    }
    MITHRA_ASSERT(false, "unreachable watchdog state");
    return opts.baseAuditRate;
}

Routing
Watchdog::route(bool wantAccel)
{
    MITHRA_EXPECTS(!auditPending,
                   "route() called with an audit still unreported");

    const std::uint64_t index = numInvocations++;
    Routing routing;

    if (!wantAccel) {
        // The classifier already chose the precise path; there is no
        // approximation to audit and nothing for the watchdog to gate.
        return routing;
    }

    const bool scheduled = auditScheduled(opts.seed, index, auditRate());

    if (currentState == State::Degraded) {
        // Fail closed: precise path for the real output. A scheduled
        // audit becomes a shadow run of the gated accelerator so the
        // recovery bound keeps accumulating evidence.
        ++numForcedPrecise;
        MITHRA_COUNT("watchdog.forced_precise", 1);
        routing.useAccel = false;
        routing.auditShadowAccel = scheduled;
    } else {
        routing.useAccel = true;
        routing.auditPrecise = scheduled;
    }

    if (scheduled) {
        auditPending = true;
        pendingWantAccel = wantAccel;
    }
    return routing;
}

bool
Watchdog::reportAudit(float trueError)
{
    MITHRA_EXPECTS(auditPending,
                   "reportAudit() without a scheduled audit");
    auditPending = false;

    const bool violated = static_cast<double>(trueError) > threshold;
    ++numAudits;
    if (violated)
        ++numViolations;
    MITHRA_COUNT("watchdog.audits", 1);
    if (violated)
        MITHRA_COUNT("watchdog.violations", 1);

    violationBound.record(violated);
    recordRecent(violated);
    MITHRA_GAUGE_SET("watchdog.violation_upper_bound",
                     violationBound.upperBound());

    const double allowed = opts.maxViolationRate;
    const std::size_t n = violationBound.observations();

    switch (currentState) {
      case State::Healthy: {
        // The screen is a windowed point estimate: noisy, so it only
        // raises suspicion — and only once enough audits accumulated
        // that a single unlucky violation cannot trip the ramp from
        // rate ~0. Windowed rather than epoch-cumulative because a
        // long clean history would otherwise dilute a fresh regime
        // change and delay the ramp far beyond the look schedule.
        const std::size_t window = recentAudits.size();
        const double windowRate = window == 0
            ? 0.0
            : static_cast<double>(recentViolations)
                / static_cast<double>(window);
        if (window >= opts.suspectMinAudits && windowRate > allowed)
            enter(State::Suspect);
        break;
      }

      case State::Suspect:
        if (violationBound.lowerBound() > allowed) {
            // Even the optimistic end of the envelope violates the
            // contract: degrade with confidence >= opts.confidence.
            enter(State::Degraded);
        } else if (violationBound.upperBound() <= allowed) {
            // The envelope certifies the contract: false alarm.
            enter(State::Healthy);
        }
        break;

      case State::Degraded:
        // Shadow audits only: wait for a certified-clean stretch.
        if (n >= opts.recoveryMinAudits
            && violationBound.upperBound() < opts.recoverMargin * allowed)
            enter(State::Recovered);
        break;

      case State::Recovered:
        if (violationBound.lowerBound() > allowed) {
            enter(State::Degraded);
        } else if (n >= opts.probationMinAudits
                   && violationBound.upperBound()
                       < opts.recoverMargin * allowed) {
            enter(State::Healthy);
        }
        break;
    }
    return violated;
}

void
Watchdog::enter(State next)
{
    MITHRA_ASSERT(next != currentState,
                  "state transition to the current state");
    currentState = next;

    // Each state change opens a fresh monitoring epoch: the old
    // envelope described the old regime (and the old audit rate), so
    // its evidence must not leak across the transition. The per-epoch
    // confidence budget restarts with it — false-trip probability is
    // bounded per epoch, not over the process lifetime.
    violationBound.reset();
    recentAudits.clear();
    recentHead = 0;
    recentViolations = 0;

    switch (next) {
      case State::Healthy:
        break;
      case State::Suspect:
        ++numSuspectEntries;
        MITHRA_COUNT("watchdog.suspects", 1);
        break;
      case State::Degraded:
        ++numTrips;
        if (firstTrip == noTrip)
            firstTrip = numInvocations == 0 ? 0 : numInvocations - 1;
        MITHRA_COUNT("watchdog.trips", 1);
        break;
      case State::Recovered:
        ++numRecoveries;
        MITHRA_COUNT("watchdog.recoveries", 1);
        break;
    }
}

Snapshot
Watchdog::snapshot() const
{
    Snapshot snap;
    snap.state = currentState;
    snap.invocations = numInvocations;
    snap.audits = numAudits;
    snap.violations = numViolations;
    snap.suspectEntries = numSuspectEntries;
    snap.trips = numTrips;
    snap.recoveries = numRecoveries;
    snap.forcedPrecise = numForcedPrecise;
    snap.firstTripAt = firstTrip;
    snap.violationUpperBound = violationBound.upperBound();
    snap.violationLowerBound = violationBound.lowerBound();
    snap.epochAudits = violationBound.observations();
    snap.epochViolations = violationBound.successes();
    return snap;
}

} // namespace mithra::core::watchdog
