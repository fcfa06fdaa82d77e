/**
 * @file
 * Unit tests for the common infrastructure: RNG determinism and
 * distribution sanity, energy ledger arithmetic, unit helpers and the
 * table printer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace ouro
{
namespace
{

TEST(Rng, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u); // all values hit
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.uniformInt(4, 4), 4u);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalShifted)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, LogNormalPositive)
{
    Rng rng(23);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GT(rng.logNormal(3.0, 1.0), 0.0);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(29);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(EnergyLedger, StartsEmpty)
{
    EnergyLedger ledger;
    EXPECT_DOUBLE_EQ(ledger.total(), 0.0);
    for (std::size_t i = 0; i < kNumEnergyCategories; ++i)
        EXPECT_DOUBLE_EQ(
                ledger.get(static_cast<EnergyCategory>(i)), 0.0);
}

TEST(EnergyLedger, AddAndTotal)
{
    EnergyLedger ledger;
    ledger.add(EnergyCategory::Compute, 1.0);
    ledger.add(EnergyCategory::Communication, 2.0);
    ledger.add(EnergyCategory::OnChipMemory, 3.0);
    ledger.add(EnergyCategory::OffChipMemory, 4.0);
    EXPECT_DOUBLE_EQ(ledger.total(), 10.0);
    EXPECT_DOUBLE_EQ(ledger.get(EnergyCategory::OnChipMemory), 3.0);
}

TEST(EnergyLedger, MergeAccumulates)
{
    EnergyLedger a, b;
    a.add(EnergyCategory::Compute, 1.5);
    b.add(EnergyCategory::Compute, 2.5);
    b.add(EnergyCategory::Communication, 1.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get(EnergyCategory::Compute), 4.0);
    EXPECT_DOUBLE_EQ(a.get(EnergyCategory::Communication), 1.0);
}

TEST(EnergyLedger, ScaledProducesCopy)
{
    EnergyLedger a;
    a.add(EnergyCategory::OffChipMemory, 8.0);
    const EnergyLedger half = a.scaled(0.5);
    EXPECT_DOUBLE_EQ(half.get(EnergyCategory::OffChipMemory), 4.0);
    EXPECT_DOUBLE_EQ(a.get(EnergyCategory::OffChipMemory), 8.0);
}

TEST(EnergyLedger, ClearZeroes)
{
    EnergyLedger a;
    a.add(EnergyCategory::Compute, 5.0);
    a.clear();
    EXPECT_DOUBLE_EQ(a.total(), 0.0);
}

TEST(EnergyLedger, CategoryNames)
{
    EXPECT_STREQ(energyCategoryName(EnergyCategory::Compute),
                 "compute");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::OffChipMemory),
                 "off-chip-memory");
}

TEST(Units, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4u);
    EXPECT_EQ(ceilDiv(9, 3), 3u);
    EXPECT_EQ(ceilDiv(1, 1024), 1u);
    EXPECT_EQ(ceilDiv(0, 7), 0u);
}

TEST(Units, CyclesToSeconds)
{
    EXPECT_DOUBLE_EQ(cyclesToSeconds(300, 300 * MHz), 1e-6);
}

TEST(Units, SizeConstants)
{
    EXPECT_EQ(4 * MiB, 4ull * 1024 * 1024);
    EXPECT_EQ(54 * GiB, 54ull * 1024 * 1024 * 1024);
}

TEST(Table, AlignedOutput)
{
    Table t({"model", "speedup"});
    t.row().cell("LLaMA-13B").cell(5.4, 1);
    t.row().cell("Qwen-32B").cell(2.8, 1);
    std::ostringstream os;
    t.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("LLaMA-13B"), std::string::npos);
    EXPECT_NE(text.find("5.4"), std::string::npos);
    EXPECT_NE(text.find("speedup"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, NumericCells)
{
    Table t({"a", "b", "c"});
    t.row().cell(std::uint64_t{12345}).cell(7).cell(0.125, 3);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("12345"), std::string::npos);
    EXPECT_NE(os.str().find("0.125"), std::string::npos);
}

TEST(Format, FormatDouble)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
}

} // namespace
} // namespace ouro
