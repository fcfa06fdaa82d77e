/**
 * @file
 * Cross-module integration and property tests: whole-system
 * invariants that single-module unit tests cannot see - placement
 * routability, KV conservation through full pipeline runs, ablation
 * monotonicity, fault injection end-to-end, and parameterised sweeps
 * over the model presets.
 */

#include <gtest/gtest.h>

#include <set>

#include "baselines/analytic.hh"
#include "kvcache/manager.hh"
#include "mapping/remap.hh"
#include "noc/mesh.hh"
#include "pipeline/engine.hh"
#include "sim/system.hh"
#include "workload/requests.hh"

#include "fixtures.hh"

namespace ouro
{
namespace
{

TEST(Integration, PlacementsAreRoutable)
{
    // Every flow the stage model will price must be routable on the
    // defected mesh: weight->weight neighbours and weight->KV pairs.
    const ModelConfig model = llama13b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    const auto &placement = sys->mapping(0).placement(0);
    for (std::size_t i = 1; i < placement.weightCores.size(); ++i) {
        const auto path = noc.routeCached(placement.weightCores[i - 1],
                                    placement.weightCores[i]);
        EXPECT_FALSE(path.empty());
    }
    ASSERT_FALSE(placement.scoreCores.empty());
    const auto path = noc.routeCached(placement.weightCores.front(),
                                placement.scoreCores.front());
    EXPECT_FALSE(path.empty());
}

TEST(Integration, PlacementCoresAreDisjoint)
{
    const ModelConfig model = llama13b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    const WaferGeometry geom;
    std::set<std::uint64_t> seen;
    const auto &wafer = sys->mapping(0);
    for (std::uint64_t b = 0; b < wafer.numBlocks(); ++b) {
        const auto &p = wafer.placement(b);
        for (const auto *pool :
             {&p.weightCores, &p.scoreCores, &p.contextCores}) {
            for (const auto &c : *pool) {
                const auto idx = geom.coreIndex(c);
                EXPECT_EQ(seen.count(idx), 0u)
                    << "core reused across placements";
                seen.insert(idx);
            }
        }
    }
}

TEST(Integration, KvConservedThroughFullRun)
{
    const ModelConfig model = llama13b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    BlockKvManager kv(model, sys->scorePool(), sys->contextPool());
    const Workload w = wikiText2Like(40, 1024, 17);
    const auto stats =
        runPipeline(w, model, sys->stageTiming(), kv, {});
    EXPECT_EQ(stats.outputTokens, w.totalOutputTokens());
    EXPECT_EQ(kv.numResident(), 0u);
    EXPECT_EQ(kv.usedBlocks(), 0u); // no leaked blocks
}

TEST(Integration, RecomputeOnlyUnderPressure)
{
    const ModelConfig model = llama13b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    // Light load: no evictions, no recompute.
    const auto light = sys->run(wikiText2Like(10, 256, 3));
    EXPECT_EQ(light.pipeline.evictions, 0u);
    EXPECT_EQ(light.pipeline.recomputedTokens, 0u);
}

TEST(Integration, DefectSeedChangesMappingNotCorrectness)
{
    const ModelConfig model = llama13b();
    const Workload w = wikiText2Like(20, 512, 9);
    double first_tps = -1.0;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const auto sys =
            OuroborosSystem::build(model, {}, fastOpts(seed));
        ASSERT_TRUE(sys.has_value());
        const auto rep = sys->run(w);
        EXPECT_EQ(rep.pipeline.outputTokens, w.totalOutputTokens());
        if (first_tps < 0.0)
            first_tps = rep.result.outputTokensPerSecond;
        // Different defect maps perturb throughput only mildly.
        EXPECT_NEAR(rep.result.outputTokensPerSecond, first_tps,
                    first_tps * 0.25);
    }
}

TEST(Integration, RemapThenKvDropConsistent)
{
    // A core failure handled by both layers: the placement remaps
    // and the KV manager drops the absorbed core.
    const ModelConfig model = llama13b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    BlockPlacement placement = sys->mapping(0).placement(0);
    BlockKvManager kv(model, sys->scorePool(), sys->contextPool());
    ASSERT_TRUE(kv.admit(1, 512));

    const MeshNoc noc(WaferGeometry{}, NocParams{});
    const CoreCoord failed = placement.weightCores[3];
    const auto result = recoverCoreFailure(placement, failed, noc,
                                           CoreParams{}.sramBytes());
    ASSERT_TRUE(result.has_value());
    // The absorbed KV core leaves the manager's pool too.
    kv.dropCore(result->absorbedKvCore);
    // Whatever remains must still admit and grow sequences.
    EXPECT_TRUE(kv.admit(2, 256));
    EXPECT_TRUE(kv.grow(2).ok);
}

TEST(Integration, AblationLadderMonotone)
{
    // Cumulative feature enablement should not reduce throughput.
    const ModelConfig model = llama13b();
    const Workload w = wikiText2Like(30, 1024, 13);

    OuroborosOptions cfg;
    cfg.waferScale = false;
    cfg.useCim = false;
    cfg.tokenGrained = false;
    cfg.smartMapping = false;
    cfg.dynamicKv = false;
    cfg.seed = 5;
    cfg.annealIterations = 800;

    double prev_tps = 0.0;
    const auto step = [&](const char *name) {
        const auto sys = OuroborosSystem::build(model, {}, cfg);
        ASSERT_TRUE(sys.has_value()) << name;
        const auto rep = sys->run(w);
        const double tps = rep.result.outputTokensPerSecond;
        EXPECT_GE(tps, prev_tps * 0.95) << name;
        prev_tps = std::max(prev_tps, tps);
    };
    step("baseline");
    cfg.waferScale = true;
    step("+wafer");
    cfg.useCim = true;
    step("+cim");
    cfg.tokenGrained = true;
    step("+tgp");
    cfg.smartMapping = true;
    step("+mapping");
    cfg.dynamicKv = true;
    step("+kv");
}

TEST(Integration, EnergyLedgerCategoriesConsistent)
{
    const ModelConfig model = llama13b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    const auto rep = sys->run(wikiText2Like(20, 512, 19));
    const auto &e = rep.result.energyPerToken;
    // Ouroboros structure: no off-chip, all categories non-negative.
    EXPECT_DOUBLE_EQ(e.get(EnergyCategory::OffChipMemory), 0.0);
    EXPECT_GT(e.get(EnergyCategory::Compute), 0.0);
    EXPECT_GT(e.get(EnergyCategory::OnChipMemory), 0.0);
    EXPECT_GT(e.get(EnergyCategory::Communication), 0.0);
    EXPECT_NEAR(e.total(),
                e.get(EnergyCategory::Compute) +
                e.get(EnergyCategory::Communication) +
                e.get(EnergyCategory::OnChipMemory), 1e-12);
}

TEST(Integration, MultiWaferCoversAllBlocks)
{
    OuroborosOptions opts = fastOpts();
    opts.numWafers = 2;
    const auto sys = OuroborosSystem::build(llama65b(), {}, opts);
    ASSERT_TRUE(sys.has_value());
    std::set<std::uint64_t> blocks;
    for (std::uint32_t w = 0; w < 2; ++w) {
        const auto &mapping = sys->mapping(w);
        for (std::uint64_t b = mapping.firstBlock();
             b < mapping.firstBlock() + mapping.numBlocks(); ++b) {
            EXPECT_EQ(blocks.count(b), 0u);
            blocks.insert(b);
        }
    }
    EXPECT_EQ(blocks.size(), llama65b().numBlocks);
}

/** Property sweep: the full system works for every decoder preset. */
class AllModelsSystemTest : public ::testing::TestWithParam<int>
{
  public:
    static ModelConfig modelFor(int idx)
    {
        switch (idx) {
          case 0: return llama13b();
          case 1: return baichuan13b();
          case 2: return qwen32b();
          default: return llama32b();
        }
    }
};

TEST_P(AllModelsSystemTest, BuildsAndRuns)
{
    const ModelConfig model = modelFor(GetParam());
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value()) << model.name;
    const Workload w = wikiText2Like(15, 512, 23);
    const auto rep = sys->run(w);
    EXPECT_EQ(rep.pipeline.outputTokens, w.totalOutputTokens())
        << model.name;
    EXPECT_GT(rep.result.outputTokensPerSecond, 0.0) << model.name;
    // Beats the DGX baseline on every preset (Fig. 13 direction).
    const auto dgx = evalAccelerator(dgxA100(), model, w);
    ASSERT_TRUE(dgx.has_value());
    EXPECT_GT(rep.result.outputTokensPerSecond,
              dgx->outputTokensPerSecond)
        << model.name;
}

INSTANTIATE_TEST_SUITE_P(DecoderPresets, AllModelsSystemTest,
                         ::testing::Range(0, 4));

/** Property sweep: encoder presets run under blocking TGP. */
class EncoderSystemTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EncoderSystemTest, BuildsAndRuns)
{
    const ModelConfig model =
        GetParam() == 0 ? bertLarge() : t5_11b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value()) << model.name;
    Workload w = wikiText2Like(15, model.maxContext / 2, 29);
    if (model.attention == AttentionKind::Bidirectional) {
        for (auto &r : w.requests)
            r.decodeLen = 1;
    }
    const auto rep = sys->run(w);
    // Small models replicate data-parallel; the pipeline report then
    // covers one replica's shard (every R-th request).
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < w.requests.size();
         i += sys->replicas()) {
        expected += w.requests[i].decodeLen;
    }
    EXPECT_EQ(rep.pipeline.outputTokens, expected);
    EXPECT_GT(rep.result.outputTokensPerSecond, 0.0);
}

INSTANTIATE_TEST_SUITE_P(EncoderPresets, EncoderSystemTest,
                         ::testing::Range(0, 2));

/** Property sweep: seeds never break determinism of a single build. */
class SeedDeterminismTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedDeterminismTest, RunTwiceIdentical)
{
    const auto sys = OuroborosSystem::build(
            llama13b(), {}, fastOpts(GetParam()));
    ASSERT_TRUE(sys.has_value());
    const Workload w = wikiText2Like(10, 256, GetParam());
    const auto a = sys->run(w);
    const auto b = sys->run(w);
    EXPECT_DOUBLE_EQ(a.result.outputTokensPerSecond,
                     b.result.outputTokensPerSecond);
    EXPECT_DOUBLE_EQ(a.result.energyPerTokenTotal(),
                     b.result.energyPerTokenTotal());
    EXPECT_EQ(a.kvEvictions, b.kvEvictions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedDeterminismTest,
                         ::testing::Values(1, 7, 42, 20260311));

} // namespace
} // namespace ouro
