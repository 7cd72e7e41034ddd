/**
 * @file
 * Unit tests for the classifier hardware models: MISR hashing,
 * the input quantizer, decision tables and the multi-table ensemble.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "hw/decision_table.hh"
#include "hw/misr.hh"
#include "hw/quantizer.hh"

using namespace mithra;
using namespace mithra::hw;

namespace
{

std::vector<std::uint8_t>
randomCodes(std::size_t n, Rng &rng)
{
    std::vector<std::uint8_t> codes(n);
    for (auto &c : codes)
        c = static_cast<std::uint8_t>(rng.nextBelow(256));
    return codes;
}

} // namespace

TEST(Misr, DeterministicHashing)
{
    Misr misr(misrConfigPool()[0], 12);
    const std::vector<std::uint8_t> codes = {1, 2, 3, 4};
    EXPECT_EQ(misr.hash(codes), misr.hash(codes));
}

TEST(Misr, SignatureWithinIndexRange)
{
    Rng rng(1);
    for (unsigned bits : {10u, 12u, 14u, 16u}) {
        Misr misr(misrConfigPool()[5], bits);
        for (int i = 0; i < 200; ++i) {
            const auto codes = randomCodes(1 + rng.nextBelow(20), rng);
            EXPECT_LT(misr.hash(codes), 1u << bits);
        }
    }
}

TEST(Misr, AcceptsVaryingInputCounts)
{
    // The paper requires the hash to accept any number of elements.
    Misr misr(misrConfigPool()[2], 12);
    Rng rng(2);
    for (std::size_t n : {1u, 2u, 6u, 9u, 18u, 64u}) {
        const auto codes = randomCodes(n, rng);
        EXPECT_LT(misr.hash(codes), 4096u);
    }
}

TEST(Misr, ResetRestoresSeedState)
{
    Misr misr(misrConfigPool()[1], 12);
    misr.shiftIn(0xab);
    const auto first = misr.signature();
    misr.reset();
    misr.shiftIn(0xab);
    EXPECT_EQ(misr.signature(), first);
}

TEST(Misr, PoolConfigurationsMapInputsDifferently)
{
    // The 16 pool configurations must map the same input to mostly
    // different indices (paper: "least similarity").
    Rng rng(3);
    const auto codes = randomCodes(9, rng);
    std::set<std::uint32_t> signatures;
    for (const auto &config : misrConfigPool()) {
        Misr misr(config, 12);
        signatures.insert(misr.hash(codes));
    }
    EXPECT_GE(signatures.size(), 14u);
}

TEST(Misr, InputPerturbationChangesIndex)
{
    // Flipping one input element should change the signature nearly
    // always (low destructive aliasing).
    Rng rng(4);
    Misr misr(misrConfigPool()[7], 12);
    int collisions = 0;
    for (int trial = 0; trial < 500; ++trial) {
        auto codes = randomCodes(6, rng);
        const auto base = misr.hash(codes);
        codes[rng.nextBelow(codes.size())] ^= 1u
            << rng.nextBelow(8);
        collisions += misr.hash(codes) == base;
    }
    EXPECT_LT(collisions, 10);
}

TEST(Quantizer, CalibratedRangesCoverInputs)
{
    InputQuantizer quantizer;
    quantizer.calibrate({{0.0f, 10.0f}, {5.0f, 20.0f}, {2.5f, 15.0f}},
                        8);
    EXPECT_EQ(quantizer.width(), 2u);
    EXPECT_FLOAT_EQ(quantizer.lowerBounds()[0], 0.0f);
    EXPECT_FLOAT_EQ(quantizer.highBounds()[0], 5.0f);
    EXPECT_FLOAT_EQ(quantizer.lowerBounds()[1], 10.0f);
    EXPECT_FLOAT_EQ(quantizer.highBounds()[1], 20.0f);
}

TEST(Quantizer, EndpointsMapToExtremes)
{
    InputQuantizer quantizer({0.0f}, {1.0f}, 8);
    EXPECT_EQ(quantizer.quantize({0.0f})[0], 0);
    EXPECT_EQ(quantizer.quantize({1.0f})[0], 255);
    EXPECT_EQ(quantizer.quantize({0.5f})[0], 128);
}

TEST(Quantizer, OutOfRangeInputsClamp)
{
    InputQuantizer quantizer({0.0f}, {1.0f}, 8);
    EXPECT_EQ(quantizer.quantize({-5.0f})[0], 0);
    EXPECT_EQ(quantizer.quantize({42.0f})[0], 255);
}

TEST(Quantizer, NarrowCodesStayInRange)
{
    InputQuantizer quantizer({0.0f, 0.0f}, {1.0f, 1.0f}, 3);
    for (float v : {0.0f, 0.2f, 0.5f, 0.9f, 1.0f}) {
        const auto codes = quantizer.quantize({v, v});
        EXPECT_LT(codes[0], 8);
        EXPECT_LT(codes[1], 8);
    }
}

TEST(Quantizer, DegenerateRangeHandled)
{
    InputQuantizer quantizer;
    quantizer.calibrate({{3.0f}, {3.0f}, {3.0f}}, 8);
    EXPECT_EQ(quantizer.quantize({3.0f})[0], 0);
}

TEST(Quantizer, DefaultBitsPolicy)
{
    EXPECT_EQ(InputQuantizer::defaultBits(1), 8u);
    EXPECT_EQ(InputQuantizer::defaultBits(2), 4u);
    EXPECT_EQ(InputQuantizer::defaultBits(6), 2u);
    EXPECT_EQ(InputQuantizer::defaultBits(18), 1u);
    EXPECT_EQ(InputQuantizer::defaultBits(64), 1u);
}

TEST(DecisionTable, SetAndReadBits)
{
    DecisionTable table(12);
    EXPECT_EQ(table.entries(), 4096u);
    EXPECT_EQ(table.sizeBytes(), 512u);
    EXPECT_FALSE(table.bit(100));
    table.setBit(100);
    EXPECT_TRUE(table.bit(100));
    table.clearBit(100);
    EXPECT_FALSE(table.bit(100));
}

TEST(DecisionTable, OnesCount)
{
    DecisionTable table(10);
    table.setBit(0);
    table.setBit(63);
    table.setBit(64);
    table.setBit(1023);
    EXPECT_EQ(table.onesCount(), 4u);
}

TEST(DecisionTable, BytesRoundTrip)
{
    Rng rng(5);
    DecisionTable table(12);
    std::vector<std::uint32_t> set;
    for (int i = 0; i < 100; ++i) {
        const auto idx = static_cast<std::uint32_t>(rng.nextBelow(4096));
        table.setBit(idx);
        set.push_back(idx);
    }
    const auto restored = DecisionTable::fromBytes(table.toBytes());
    EXPECT_EQ(restored.entries(), table.entries());
    for (auto idx : set)
        EXPECT_TRUE(restored.bit(idx));
    EXPECT_EQ(restored.onesCount(), table.onesCount());
}

TEST(TableGeometry, IndexBits)
{
    TableGeometry geometry;
    geometry.tableBytes = 512;
    EXPECT_EQ(geometry.indexBits(), 12u); // 4096 single-bit entries
    geometry.tableBytes = 128;
    EXPECT_EQ(geometry.indexBits(), 10u);
    geometry.tableBytes = 4096;
    EXPECT_EQ(geometry.indexBits(), 15u);
}

TEST(TableEnsemble, TrainedPrecisePatternsAlwaysRedirect)
{
    // Unanimity invariant: a pattern marked precise during training is
    // marked in every table, so it must always read precise.
    Rng rng(6);
    TableGeometry geometry;
    TableEnsemble ensemble(geometry, {0, 1, 2, 3, 4, 5, 6, 7});

    std::vector<TrainingTuple> tuples;
    for (int i = 0; i < 500; ++i)
        tuples.push_back({randomCodes(6, rng), true});
    for (int i = 0; i < 5000; ++i)
        tuples.push_back({randomCodes(6, rng), false});
    ensemble.train(tuples);

    for (const auto &tuple : tuples) {
        if (tuple.precise) {
            EXPECT_TRUE(ensemble.decidePrecise(tuple.codes));
        }
    }
}

TEST(TableEnsemble, UnseenPatternsMostlyAccelerate)
{
    Rng rng(7);
    TableGeometry geometry;
    TableEnsemble ensemble(geometry, {0, 1, 2, 3, 4, 5, 6, 7});

    std::vector<TrainingTuple> tuples;
    for (int i = 0; i < 300; ++i)
        tuples.push_back({randomCodes(9, rng), true});
    ensemble.train(tuples);

    int precise = 0;
    for (int i = 0; i < 2000; ++i)
        precise += ensemble.decidePrecise(randomCodes(9, rng));
    // With 300 patterns in 8 x 4096-entry tables the unanimity vote
    // almost never misroutes an unseen pattern.
    EXPECT_LT(precise, 20);
}

TEST(TableEnsemble, MarkPreciseIsOnlineUpdate)
{
    Rng rng(8);
    TableGeometry geometry;
    TableEnsemble ensemble(geometry, {3, 7, 11, 2, 5, 9, 13, 1});
    const auto codes = randomCodes(6, rng);
    EXPECT_FALSE(ensemble.decidePrecise(codes));
    ensemble.markPrecise(codes);
    EXPECT_TRUE(ensemble.decidePrecise(codes));
}

TEST(TableEnsemble, DensityReflectsTraining)
{
    Rng rng(9);
    TableGeometry geometry;
    TableEnsemble ensemble(geometry, {0, 1, 2, 3, 4, 5, 6, 7});
    EXPECT_DOUBLE_EQ(ensemble.density(), 0.0);
    std::vector<TrainingTuple> tuples;
    for (int i = 0; i < 1000; ++i)
        tuples.push_back({randomCodes(6, rng), true});
    ensemble.train(tuples);
    EXPECT_GT(ensemble.density(), 0.0);
    EXPECT_LT(ensemble.density(), 0.5);
}

TEST(TableEnsemble, ToBytesHasGeometrySize)
{
    TableGeometry geometry;
    geometry.numTables = 4;
    geometry.tableBytes = 128;
    TableEnsemble ensemble(geometry, {0, 1, 2, 3});
    EXPECT_EQ(ensemble.toBytes().size(), 512u);
}

TEST(TableEnsemble, CountFalseDecisions)
{
    Rng rng(10);
    TableGeometry geometry;
    TableEnsemble ensemble(geometry, {0, 1, 2, 3, 4, 5, 6, 7});
    std::vector<TrainingTuple> tuples;
    for (int i = 0; i < 1000; ++i)
        tuples.push_back({randomCodes(6, rng), rng.bernoulli(0.1)});
    ensemble.train(tuples);
    const auto count = countFalseDecisions(ensemble, tuples);
    EXPECT_EQ(count.total, tuples.size());
    // Training tuples are memorized; only aliasing causes errors.
    EXPECT_EQ(count.falseNegatives, 0u);
}

TEST(GreedyEnsemble, UsesDistinctConfigurations)
{
    Rng rng(11);
    std::vector<TrainingTuple> tuples;
    for (int i = 0; i < 2000; ++i)
        tuples.push_back({randomCodes(6, rng), rng.bernoulli(0.15)});

    TableGeometry geometry;
    const auto ensemble = trainGreedyEnsemble(geometry, tuples);
    std::set<std::size_t> ids(ensemble.misrConfigIds().begin(),
                              ensemble.misrConfigIds().end());
    EXPECT_EQ(ids.size(), geometry.numTables);
}

TEST(GreedyEnsemble, NoFalseNegativesOnTrainingData)
{
    Rng rng(12);
    std::vector<TrainingTuple> tuples;
    for (int i = 0; i < 3000; ++i)
        tuples.push_back({randomCodes(4, rng), rng.bernoulli(0.1)});
    TableGeometry geometry;
    const auto ensemble = trainGreedyEnsemble(geometry, tuples);
    const auto count = countFalseDecisions(ensemble, tuples);
    EXPECT_EQ(count.falseNegatives, 0u);
}

TEST(GreedyEnsemble, ClusteredLabelsAreSeparable)
{
    // When all precise tuples share a code region (clustered errors),
    // the ensemble should separate them nearly perfectly.
    Rng rng(13);
    std::vector<TrainingTuple> tuples;
    for (int i = 0; i < 4000; ++i) {
        auto codes = randomCodes(2, rng);
        const bool precise = codes[0] < 32; // cluster in one corner
        tuples.push_back({std::move(codes), precise});
    }
    TableGeometry geometry;
    const auto ensemble = trainGreedyEnsemble(geometry, tuples);
    const auto count = countFalseDecisions(ensemble, tuples);
    EXPECT_LT(static_cast<double>(count.errors())
                  / static_cast<double>(count.total),
              0.02);
}

/** Parameterized sweep: the ensemble invariants hold at every
 *  geometry the Figure 11 Pareto analysis visits. */
class GeometrySweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(GeometrySweep, TrainedPatternsAlwaysRedirect)
{
    const auto [numTables, tableBytes] = GetParam();
    Rng rng(101);
    TableGeometry geometry;
    geometry.numTables = numTables;
    geometry.tableBytes = tableBytes;

    std::vector<TrainingTuple> tuples;
    for (int i = 0; i < 600; ++i)
        tuples.push_back({randomCodes(6, rng), rng.bernoulli(0.1)});
    const auto ensemble = trainGreedyEnsemble(geometry, tuples);

    for (const auto &tuple : tuples) {
        if (tuple.precise) {
            EXPECT_TRUE(ensemble.decidePrecise(tuple.codes));
        }
    }
    EXPECT_EQ(ensemble.toBytes().size(), geometry.totalBytes());
}

INSTANTIATE_TEST_SUITE_P(
    ParetoGrid, GeometrySweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 128},
                      std::pair<std::size_t, std::size_t>{1, 4096},
                      std::pair<std::size_t, std::size_t>{2, 512},
                      std::pair<std::size_t, std::size_t>{4, 2048},
                      std::pair<std::size_t, std::size_t>{8, 128},
                      std::pair<std::size_t, std::size_t>{8, 512},
                      std::pair<std::size_t, std::size_t>{8, 4096}));

/** Parameterized sweep: MISR signatures stay in range and reset
 *  correctly at every width a table geometry can request. */
class MisrWidthSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MisrWidthSweep, SignaturesInRangeAndDeterministic)
{
    const unsigned bits = GetParam();
    Rng rng(202);
    for (std::size_t id = 0; id < misrPoolSize; ++id) {
        Misr misr(misrConfigPool()[id], bits);
        const auto codes = randomCodes(1 + rng.nextBelow(32), rng);
        const auto first = misr.hash(codes);
        EXPECT_LT(first, 1u << bits);
        EXPECT_EQ(misr.hash(codes), first);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, MisrWidthSweep,
                         ::testing::Values(10u, 12u, 14u, 15u, 16u));
