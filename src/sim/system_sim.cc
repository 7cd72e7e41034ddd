#include "sim/system_sim.hh"

#include "common/contracts.hh"
#include "telemetry/telemetry.hh"

namespace mithra::sim
{

double
speedup(const RunTotals &baseline, const RunTotals &other)
{
    MITHRA_EXPECTS(other.cycles > 0.0, "speedup versus zero cycles");
    return baseline.cycles / other.cycles;
}

double
energyReduction(const RunTotals &baseline, const RunTotals &other)
{
    MITHRA_EXPECTS(other.energyPj > 0.0, "energy reduction versus zero");
    return baseline.energyPj / other.energyPj;
}

double
edpImprovement(const RunTotals &baseline, const RunTotals &other)
{
    MITHRA_EXPECTS(other.edp() > 0.0, "EDP improvement versus zero");
    return baseline.edp() / other.edp();
}

SystemSimulator::SystemSimulator(const CoreModel &core,
                                 const SystemParams &params)
    : coreModel(core), sysParams(params)
{
}

RunTotals
SystemSimulator::baseline(const RegionProfile &profile) const
{
    MITHRA_COUNT("sim.runs.baseline", 1);
    const auto n = static_cast<double>(profile.invocationsPerDataset);
    RunTotals totals;
    totals.cycles = profile.otherCyclesPerDataset
        + n * profile.preciseCycles;
    totals.energyPj = profile.otherEnergyPjPerDataset
        + n * profile.preciseEnergyPj;
    return totals;
}

RunTotals
SystemSimulator::fullApprox(const RegionProfile &profile) const
{
    MITHRA_COUNT("sim.runs.full_approx", 1);
    MITHRA_COUNT("sim.invocations.approximated",
                 profile.invocationsPerDataset);
    const auto n = static_cast<double>(profile.invocationsPerDataset);
    const double idlePj = coreModel.params().picoJoulesPerCycle
        * sysParams.coreIdleEnergyFraction;

    RunTotals totals;
    totals.cycles = profile.otherCyclesPerDataset + n * profile.accelCycles;
    totals.energyPj = profile.otherEnergyPjPerDataset
        + n * (profile.accelEnergyPj + profile.accelCycles * idlePj);
    return totals;
}

RunTotals
SystemSimulator::run(const RegionProfile &profile,
                     const ClassifierCost &classifier, std::size_t numAccel,
                     std::size_t numPrecise) const
{
    MITHRA_ASSERT(numAccel + numPrecise == profile.invocationsPerDataset,
                  "decision counts (", numAccel, "+", numPrecise,
                  ") do not cover the dataset's ",
                  profile.invocationsPerDataset, " invocations");

    MITHRA_COUNT("sim.runs.classified", 1);
    MITHRA_COUNT("sim.invocations.approximated", numAccel);
    MITHRA_COUNT("sim.invocations.fallback", numPrecise);

    const auto accel = static_cast<double>(numAccel);
    const auto precise = static_cast<double>(numPrecise);
    const double idlePj = coreModel.params().picoJoulesPerCycle
        * sysParams.coreIdleEnergyFraction;

    RunTotals totals;
    totals.cycles = profile.otherCyclesPerDataset;
    totals.energyPj = profile.otherEnergyPjPerDataset;

    // Accelerated path: NPU invocation plus branch plus any classifier
    // cycles that could not hide behind the input enqueue.
    const double accelPathCycles = profile.accelCycles
        + sysParams.branchCycles + classifier.extraCyclesAccel;
    totals.cycles += accel * accelPathCycles;
    totals.energyPj += accel
        * (profile.accelEnergyPj + accelPathCycles * idlePj);

    // Precise path: the inputs were already enqueued when the
    // classifier redirected execution, so the fallback pays the
    // classifier latency, the branch, and the original function.
    const double precisePathCycles = profile.preciseCycles
        + sysParams.branchCycles + classifier.extraCyclesPrecise;
    totals.cycles += precise * precisePathCycles;
    totals.energyPj += precise
        * (profile.preciseEnergyPj
           + (sysParams.branchCycles + classifier.extraCyclesPrecise)
               * coreModel.params().picoJoulesPerCycle);

    // The classifier itself examines every invocation.
    totals.energyPj += (accel + precise)
        * classifier.energyPjPerInvocation;

    return totals;
}

} // namespace mithra::sim
