/**
 * @file
 * Whole-system cost composition.
 *
 * Combines the core model, the NPU cost model and a classifier's
 * overheads into end-to-end cycles/energy for the three execution
 * modes the paper compares:
 *
 *   baseline   — the benchmark runs entirely on the precise core;
 *   fullApprox — every target invocation goes to the accelerator
 *                (the conventional always-invoke scheme);
 *   run        — MITHRA: a classifier routes each invocation either
 *                to the NPU or back to the precise function via the
 *                special branch instruction (paper §IV-D).
 *
 * The core idles (clock-gated) while the NPU computes; the branch
 * instruction and the classifier's own cycles/energy are charged per
 * invocation.
 */

#pragma once

#include <cstddef>

#include "sim/core_model.hh"

namespace mithra::sim
{

/** Modeled per-invocation and per-dataset costs of one benchmark. */
struct RegionProfile
{
    /** Cycles to run the original function once on the core. */
    double preciseCycles = 0.0;
    /** Core energy (pJ) of one precise execution. */
    double preciseEnergyPj = 0.0;
    /** Cycles of one NPU invocation (enqueue, compute, dequeue). */
    double accelCycles = 0.0;
    /** NPU energy (pJ) of one invocation (core idle energy separate). */
    double accelEnergyPj = 0.0;
    /** Target-function invocations per dataset. */
    std::size_t invocationsPerDataset = 0;
    /** Core cycles of the non-target region per dataset. */
    double otherCyclesPerDataset = 0.0;
    /** Core energy (pJ) of the non-target region per dataset. */
    double otherEnergyPjPerDataset = 0.0;
};

/** Per-invocation overheads a hardware classifier adds. */
struct ClassifierCost
{
    /** Extra cycles on the accelerated path (decision overlaps the
     *  input enqueue, so this is usually small). */
    double extraCyclesAccel = 0.0;
    /** Extra cycles before falling back to the precise function. */
    double extraCyclesPrecise = 0.0;
    /** Classifier energy per invocation (pJ), charged on every call. */
    double energyPjPerInvocation = 0.0;
    /** Classifier state that must live on chip (bytes). */
    double sizeBytes = 0.0;
};

/** Totals of one modeled execution. */
struct RunTotals
{
    double cycles = 0.0;
    double energyPj = 0.0;

    /** Energy-delay product (pJ * cycles). */
    double edp() const { return cycles * energyPj; }

    /**
     * Accumulate another total. Callers that fold per-shard or
     * per-dataset partials must do so in slot order (shard 0, 1, ...)
     * so the floating-point association — and therefore the result —
     * is independent of thread count.
     */
    RunTotals &operator+=(const RunTotals &other)
    {
        cycles += other.cycles;
        energyPj += other.energyPj;
        return *this;
    }
};

/** Ratio helpers used throughout the evaluation. */
double speedup(const RunTotals &baseline, const RunTotals &other);
double energyReduction(const RunTotals &baseline, const RunTotals &other);
double edpImprovement(const RunTotals &baseline, const RunTotals &other);

/** System-level knobs that are not per-benchmark. */
struct SystemParams
{
    /** The special MITHRA branch instruction (paper §IV-D). */
    double branchCycles = 1.0;
    /** Fraction of active core energy burned while waiting on the NPU
     *  (clock gating is imperfect). */
    double coreIdleEnergyFraction = 0.3;
};

/** Composes core, NPU and classifier costs into run totals. */
class SystemSimulator
{
  public:
    SystemSimulator(const CoreModel &core,
                    const SystemParams &params = SystemParams{});

    /** All invocations precise, no accelerator, no classifier. */
    RunTotals baseline(const RegionProfile &profile) const;

    /** Conventional approximate acceleration: always invoke the NPU. */
    RunTotals fullApprox(const RegionProfile &profile) const;

    /**
     * MITHRA execution with a classifier.
     *
     * @param numAccel   invocations routed to the accelerator
     * @param numPrecise invocations that fell back to the core
     */
    RunTotals run(const RegionProfile &profile,
                  const ClassifierCost &classifier, std::size_t numAccel,
                  std::size_t numPrecise) const;

    const CoreModel &core() const { return coreModel; }
    const SystemParams &params() const { return sysParams; }

  private:
    CoreModel coreModel;
    SystemParams sysParams;
};

} // namespace mithra::sim

