/**
 * @file
 * Unit tests for the hardware module: wafer geometry arithmetic,
 * parameter derivations against the paper's stated numbers, and the
 * Murphy yield model.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "hw/geometry.hh"
#include "hw/params.hh"
#include "hw/yield.hh"

namespace ouro
{
namespace
{

TEST(Geometry, PaperDefaults)
{
    const WaferGeometry geom;
    EXPECT_EQ(geom.dieRows(), 9u);
    EXPECT_EQ(geom.dieCols(), 7u);
    EXPECT_EQ(geom.numDies(), 63u);
    EXPECT_EQ(geom.rows(), 117u);
    EXPECT_EQ(geom.cols(), 119u);
    EXPECT_EQ(geom.numCores(), 13923u);
}

TEST(Geometry, CoreIndexRoundTrip)
{
    const WaferGeometry geom;
    for (std::uint64_t idx : {0ull, 1ull, 118ull, 119ull, 13922ull}) {
        EXPECT_EQ(geom.coreIndex(geom.coreAt(idx)), idx);
    }
}

TEST(Geometry, DieMembership)
{
    const WaferGeometry geom;
    EXPECT_EQ(geom.dieOf({0, 0}), (DieCoord{0, 0}));
    EXPECT_EQ(geom.dieOf({12, 16}), (DieCoord{0, 0}));
    EXPECT_EQ(geom.dieOf({13, 17}), (DieCoord{1, 1}));
    EXPECT_EQ(geom.dieOf({116, 118}), (DieCoord{8, 6}));
    EXPECT_TRUE(geom.sameDie({0, 0}, {12, 16}));
    EXPECT_FALSE(geom.sameDie({12, 16}, {13, 16}));
}

TEST(Geometry, ManhattanDistance)
{
    const WaferGeometry geom;
    EXPECT_EQ(geom.manhattan({0, 0}, {0, 0}), 0u);
    EXPECT_EQ(geom.manhattan({0, 0}, {3, 4}), 7u);
    EXPECT_EQ(geom.manhattan({3, 4}, {0, 0}), 7u);
}

TEST(Geometry, SShapedOrderVisitsAllExactlyOnce)
{
    const WaferGeometry geom(2, 2, 3, 3);
    const auto order = geom.sShapedOrder();
    EXPECT_EQ(order.size(), geom.numCores());
    std::set<std::uint64_t> seen;
    for (const auto &coord : order)
        seen.insert(geom.coreIndex(coord));
    EXPECT_EQ(seen.size(), geom.numCores());
}

TEST(Geometry, SShapedOrderIsLocal)
{
    // Consecutive cores in the S-order should be close: the whole
    // point of the boustrophedon walk is pipeline locality.
    const WaferGeometry geom;
    const auto order = geom.sShapedOrder();
    double total_hops = 0.0;
    std::uint32_t max_hop = 0;
    for (std::size_t i = 1; i < order.size(); ++i) {
        const auto d = geom.manhattan(order[i - 1], order[i]);
        total_hops += d;
        max_hop = std::max(max_hop, d);
    }
    EXPECT_LT(total_hops / static_cast<double>(order.size() - 1), 2.5);
    // A jump should never span more than one die in each axis.
    EXPECT_LE(max_hop, geom.coresPerDieRow() + geom.coresPerDieCol());
}

TEST(Params, WaferCapacityIs54GB)
{
    const OuroborosParams params;
    const WaferGeometry geom;
    const double gb = static_cast<double>(
            params.waferSramBytes(geom.numCores())) / 1e9;
    // 13923 cores x 4 MiB = 58.4 GB decimal, 54.4 GiB binary - the
    // paper's "54 GB" is the binary reading.
    EXPECT_NEAR(static_cast<double>(
            params.waferSramBytes(geom.numCores())) /
            static_cast<double>(GiB), 54.4, 0.5);
    EXPECT_GT(gb, 50.0);
}

TEST(Params, CrossbarCapacity)
{
    const CrossbarParams xp;
    EXPECT_EQ(xp.capacityBytes(), 128 * KiB);
    EXPECT_EQ(xp.weightCapacity(), 1024u * 128u);
    const CoreParams cp;
    EXPECT_EQ(cp.sramBytes(), 4 * MiB);
}

TEST(Params, GemvCyclesAtPaperRatio)
{
    const CrossbarParams xp;
    EXPECT_EQ(xp.rowsPerCycle(), 32u);
    // Full 1024-row GEMV: 32 cycles per input bit x 8 bits.
    EXPECT_EQ(xp.gemvCycles(1024), 256u);
    // Partial occupancy rounds up to the bank granularity.
    EXPECT_EQ(xp.gemvCycles(33), 2u * 8u);
    EXPECT_EQ(xp.gemvCycles(1), 8u);
    EXPECT_EQ(xp.gemvCycles(0), 0u);
}

TEST(Params, MacsPerCycle)
{
    const CrossbarParams xp;
    // 1024 x 128 MACs in 256 cycles = 512 MACs/cycle.
    EXPECT_DOUBLE_EQ(xp.macsPerCycle(), 512.0);
}

TEST(Params, RowRatioTradesThroughput)
{
    CrossbarParams quarter;
    quarter.rowActiveRatio = 1.0 / 4.0;
    CrossbarParams thirtysecond;
    EXPECT_GT(quarter.macsPerCycle(), thirtysecond.macsPerCycle());
    EXPECT_EQ(quarter.gemvCycles(1024), 4u * 8u);
}

TEST(Params, EnergyPerMacInPlausibleRange)
{
    const CrossbarParams xp;
    const double pj = xp.energyPerMac() / pJ;
    // Section 5 component powers imply order 0.1 pJ/MAC for the
    // crossbar proper (core overheads push system TOPS/W to ~11).
    EXPECT_GT(pj, 0.01);
    EXPECT_LT(pj, 1.0);
}

TEST(Params, CorePeakTops)
{
    const CoreParams cp;
    // 32 xbars x 512 MACs/cycle x 300 MHz x 2 ops ~ 9.8 TOPS.
    EXPECT_NEAR(cp.peakTops(), 9.83, 0.2);
}

TEST(Yield, MurphyMatchesClosedForm)
{
    const YieldParams params;
    const double y = murphyYield(params);
    // A*D0 = 0.002673 -> Y ~ 0.99733.
    EXPECT_NEAR(y, 0.99733, 0.0005);
    EXPECT_NEAR(coreDefectProbability(params), 1.0 - y, 1e-12);
}

TEST(Yield, DefectCountNearExpectation)
{
    const WaferGeometry geom;
    const YieldParams params;
    Rng rng(99);
    const DefectMap map(geom, params, rng);
    const double expected =
        coreDefectProbability(params) *
        static_cast<double>(geom.numCores());
    EXPECT_GT(map.numDefects(), expected * 0.4);
    EXPECT_LT(map.numDefects(), expected * 2.0);
}

TEST(Yield, DefectMapDeterministic)
{
    const WaferGeometry geom;
    const YieldParams params;
    Rng rng_a(7), rng_b(7);
    const DefectMap a(geom, params, rng_a);
    const DefectMap b(geom, params, rng_b);
    ASSERT_EQ(a.numDefects(), b.numDefects());
    for (std::uint64_t i = 0; i < geom.numCores(); ++i)
        EXPECT_EQ(a.defective(i), b.defective(i));
}

TEST(Yield, InjectIsIdempotent)
{
    const WaferGeometry geom;
    DefectMap map(geom);
    EXPECT_EQ(map.numDefects(), 0u);
    map.inject({5, 5});
    map.inject({5, 5});
    EXPECT_EQ(map.numDefects(), 1u);
    EXPECT_TRUE(map.defective(CoreCoord{5, 5}));
    EXPECT_FALSE(map.defective(CoreCoord{5, 6}));
}

/** Property sweep: gemvCycles is monotone in active rows. */
class GemvMonotoneTest
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(GemvMonotoneTest, CyclesMonotone)
{
    const CrossbarParams xp;
    const std::uint32_t rows = GetParam();
    EXPECT_LE(xp.gemvCycles(rows), xp.gemvCycles(rows + 1));
}

INSTANTIATE_TEST_SUITE_P(RowSweep, GemvMonotoneTest,
                         ::testing::Values(0, 1, 31, 32, 33, 511, 1023));

} // namespace
} // namespace ouro
