/**
 * @file
 * Negative contract tests: one per src/ subsystem, each driving a
 * documented precondition or postcondition to failure and expecting
 * the contract machinery to abort with the right kind in the message.
 * Contracts are compiled into every build, so the death tests run in
 * the default Release (NDEBUG) build too.
 */

#include <gtest/gtest.h>

#include "common/contracts.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "compress/bdi.hh"
#include "core/threshold_optimizer.hh"
#include "hw/decision_table.hh"
#include "hw/quantizer.hh"
#include "npu/mlp.hh"
#include "npu/trainer.hh"
#include "sim/core_model.hh"
#include "stats/clopper_pearson.hh"
#include "stats/special_functions.hh"

namespace
{

using namespace mithra;

TEST(Contracts, ChecksEnabledMatchesBuildConfiguration)
{
    // Contracts are compiled in whatever the build type: the default
    // Release build defines NDEBUG, and a failed contract still aborts.
    const volatile bool holds = false;
    EXPECT_DEATH(MITHRA_ASSERT(holds, "checked under NDEBUG"),
                 "invariant.*checked under NDEBUG");
}

TEST(Contracts, MacrosAreSilentOnValidInput)
{
    const int value = 3;
    MITHRA_EXPECTS(value > 0, "positive input required, got ", value);
    MITHRA_ASSERT(value * 2 == 6, "arithmetic invariant broke");
    MITHRA_ENSURES(value < 10, "result escaped its range: ", value);
    SUCCEED();
}

using ContractsDeath = ::testing::Test;

// stats: successes > trials violates the Clopper–Pearson domain.
TEST(ContractsDeath, StatsRejectsImpossibleSuccessCount)
{
    EXPECT_DEATH(stats::clopperPearsonLower(5, 4, 0.95),
                 "precondition.*successes");
}

TEST(ContractsDeath, StatsRejectsConfidenceOutsideUnitInterval)
{
    EXPECT_DEATH(stats::clopperPearsonUpper(1, 4, 1.5),
                 "precondition.*confidence");
}

TEST(ContractsDeath, StatsRejectsNegativeBetaParameters)
{
    EXPECT_DEATH(stats::regIncompleteBeta(-1.0, 2.0, 0.5),
                 "precondition.*beta parameters");
}

// hw: table index width and quantizer input width are bounded.
TEST(ContractsDeath, HwRejectsUnreasonableTableWidth)
{
    EXPECT_DEATH(hw::DecisionTable table(2),
                 "precondition.*table index width");
}

TEST(ContractsDeath, HwRejectsOutOfRangeTableIndex)
{
    hw::DecisionTable table(4);
    EXPECT_DEATH(table.setBit(1u << 20),
                 "precondition.*out of range");
}

TEST(ContractsDeath, HwRejectsMismatchedQuantizerInput)
{
    hw::InputQuantizer quantizer({0.0f, 0.0f}, {1.0f, 1.0f}, 4);
    EXPECT_DEATH(quantizer.quantize({0.5f}),
                 "precondition.*input width");
}

// npu: topology consistency and training-set sanity.
TEST(ContractsDeath, NpuRejectsSingleLayerTopology)
{
    EXPECT_DEATH(npu::Mlp mlp({7}), "precondition.*two layers");
}

TEST(ContractsDeath, NpuRejectsNonPositiveLearningRate)
{
    npu::Mlp mlp({2, 2, 1});
    npu::TrainerOptions options;
    options.learningRate = 0.0f;
    const VecBatch inputs = {{0.0f, 1.0f}};
    const VecBatch targets = {{1.0f}};
    EXPECT_DEATH(npu::train(mlp, inputs, targets, options),
                 "precondition.*learning rate");
}

// common: the parallel substrate requires a positive grain, and the
// RNG rejects an empty sampling interval.
TEST(ContractsDeath, ParallelRejectsZeroGrain)
{
    EXPECT_DEATH(parallelFor(0, 8, 0, [](std::size_t) {}),
                 "precondition.*grain");
}

TEST(ContractsDeath, RngRejectsZeroBound)
{
    Rng rng(1);
    EXPECT_DEATH(rng.nextBelow(0), "precondition.*positive bound");
}

// compress: payload metadata must match the claimed encoding.
TEST(ContractsDeath, BdiRejectsCorruptRepeatedPayload)
{
    compress::BdiLine corrupt{compress::BdiEncoding::Repeated,
                              {1, 2, 3}};
    EXPECT_DEATH(compress::decompressLine(corrupt),
                 "precondition.*repeated payload");
}

// core: the quality spec is validated before any optimization runs.
TEST(ContractsDeath, CoreRejectsConfidenceOfOne)
{
    core::QualitySpec spec;
    spec.confidence = 1.0;
    EXPECT_DEATH(core::ThresholdOptimizer optimizer(spec),
                 "precondition.*confidence");
}

// sim: the core model needs a positive ILP factor.
TEST(ContractsDeath, SimRejectsZeroIlpFactor)
{
    sim::CoreParams params;
    params.ilpFactor = 0.0;
    EXPECT_DEATH(sim::CoreModel model(params),
                 "precondition.*ILP factor");
}

} // namespace
