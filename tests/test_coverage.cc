/**
 * @file
 * Coverage tests for API surface the other suites touch only in
 * passing: wafer-mapping helpers, replication, engine option
 * combinations, mapper-name plumbing, workload clipping edges, and
 * cross-checks between the derived stage timing and the raw hardware
 * parameters.
 */

#include <gtest/gtest.h>

#include "mapping/wafer_mapping.hh"
#include "pipeline/engine.hh"
#include "sim/system.hh"
#include "workload/requests.hh"

namespace ouro
{
namespace
{

TEST(WaferHelpers, EmbeddingCoreCount)
{
    // LLaMA-13B: 2 x 32000 x 5120 bytes = 327.7 MB -> 79 cores of
    // 4 MiB.
    const auto n = embeddingCoreCount(llama13b(), CoreParams{});
    EXPECT_EQ(n, ceilDiv(2ull * 32000 * 5120,
                         CoreParams{}.sramBytes()));
    EXPECT_GT(n, 70u);
    EXPECT_LT(n, 90u);
}

TEST(WaferHelpers, ReplicasShrinkRegions)
{
    const WaferGeometry geom;
    const ModelConfig model = bertLarge();
    WaferMappingOptions one;
    one.mapper = MapperKind::Greedy;
    WaferMappingOptions four = one;
    four.replicas = 4;
    const auto a = WaferMapping::build(model, CoreParams{}, geom,
                                       nullptr, 0, model.numBlocks,
                                       one);
    const auto b = WaferMapping::build(model, CoreParams{}, geom,
                                       nullptr, 0, model.numBlocks,
                                       four);
    ASSERT_TRUE(a && b);
    // Same weights, fewer KV cores per replica.
    EXPECT_GT(a->totalKvCores(), b->totalKvCores());
    EXPECT_EQ(a->tilesPerBlock(), b->tilesPerBlock());
}

TEST(WaferHelpers, TooManyReplicasRejected)
{
    const WaferGeometry geom;
    const ModelConfig model = llama13b();
    WaferMappingOptions opts;
    opts.mapper = MapperKind::Greedy;
    opts.replicas = 16; // 16 x 13B cannot share one wafer
    EXPECT_FALSE(WaferMapping::build(model, CoreParams{}, geom,
                                     nullptr, 0, model.numBlocks,
                                     opts)
                         .has_value());
}

TEST(SystemReplication, SmallModelReplicates)
{
    OuroborosOptions opts;
    opts.smartMapping = false;
    const auto bert = OuroborosSystem::build(bertLarge(), {}, opts);
    ASSERT_TRUE(bert.has_value());
    EXPECT_GT(bert->replicas(), 1u);

    const auto llama = OuroborosSystem::build(llama13b(), {}, opts);
    ASSERT_TRUE(llama.has_value());
    EXPECT_EQ(llama->replicas(), 1u);
}

TEST(SystemReplication, ThroughputScalesWithReplicas)
{
    // The replicated small model should beat a hypothetical single
    // pipeline by roughly the replica count on parallel traffic.
    OuroborosOptions opts;
    opts.smartMapping = false;
    const auto sys = OuroborosSystem::build(bertLarge(), {}, opts);
    ASSERT_TRUE(sys.has_value());
    Workload w = wikiText2Like(64, 256, 31);
    for (auto &r : w.requests)
        r.decodeLen = 1;
    const auto rep = sys->run(w);
    EXPECT_GT(rep.result.outputTokensPerSecond, 0.0);
    // All requests' outputs are counted despite sharding.
    EXPECT_GT(rep.result.outputTokensPerSecond *
                      rep.result.makespanSeconds,
              0.9 * static_cast<double>(w.totalOutputTokens()));
}

TEST(EngineOptions, StaticSequenceGrainedCombo)
{
    // The full ablation baseline: SGP + static KV together.
    const ModelConfig cfg = llama13b();
    OuroborosOptions opts;
    opts.smartMapping = false;
    opts.tokenGrained = false;
    opts.dynamicKv = false;
    const auto sys = OuroborosSystem::build(cfg, {}, opts);
    ASSERT_TRUE(sys.has_value());
    const Workload w = wikiText2Like(15, 512, 37);
    const auto rep = sys->run(w);
    EXPECT_EQ(rep.pipeline.outputTokens, w.totalOutputTokens());
}

TEST(EngineOptions, AttentionParallelismSpeedsBulk)
{
    // Bulk attention with more parallelism finishes sooner on an
    // encoder workload.
    const ModelConfig cfg = bertLarge();
    StageTiming timing;
    for (unsigned s = 0; s < kStagesPerBlock; ++s) {
        timing.fixedSeconds[s] = 1e-6;
        timing.perContextSeconds[s] =
            stageIsAttention(static_cast<StageKind>(s)) ? 1e-8 : 0.0;
    }
    std::vector<KvCoreInfo> pool_a, pool_b;
    for (std::uint32_t i = 0; i < 32; ++i) {
        pool_a.push_back({{0, i}, 32, 8});
        pool_b.push_back({{1, i}, 32, 8});
    }
    Workload w = fixedWorkload(256, 1, 40);

    PipelineOptions serial;
    serial.attentionParallelism = 1.0;
    BlockKvManager kv1(cfg, pool_a, pool_b);
    const auto slow = runPipeline(w, cfg, timing, kv1, serial);

    PipelineOptions parallel;
    parallel.attentionParallelism = 16.0;
    BlockKvManager kv2(cfg, pool_a, pool_b);
    const auto fast = runPipeline(w, cfg, timing, kv2, parallel);

    EXPECT_LT(fast.makespanSeconds, slow.makespanSeconds);
}

TEST(WorkloadEdges, ClippingKeepsBounds)
{
    const Workload w = wikiText2Like(500, 128, 41);
    for (const auto &r : w.requests) {
        EXPECT_GE(r.prefillLen, 16u);
        EXPECT_LE(r.prefillLen, 128u);
        EXPECT_GE(r.decodeLen, 16u);
    }
}

TEST(WorkloadEdges, SingleRequestWorkload)
{
    const Workload w = fixedWorkload(32, 8, 1);
    EXPECT_EQ(w.totalTokens(), 40u);
    const ModelConfig cfg = llama13b();
    OuroborosOptions opts;
    opts.smartMapping = false;
    const auto sys = OuroborosSystem::build(cfg, {}, opts);
    ASSERT_TRUE(sys.has_value());
    const auto rep = sys->run(w);
    EXPECT_EQ(rep.pipeline.outputTokens, 8u);
}

TEST(TimingCrossCheck, DenseStageAtLeastOneGemv)
{
    // The derived dense-stage times can never undercut the raw
    // crossbar GEMV latency - a guard against unit slips in the
    // stage model.
    OuroborosOptions opts;
    opts.smartMapping = false;
    const auto sys = OuroborosSystem::build(llama13b(), {}, opts);
    ASSERT_TRUE(sys.has_value());
    const auto &xbar = sys->params().core.crossbar;
    const double gemv_s =
        static_cast<double>(xbar.gemvCycles(xbar.rows)) /
        xbar.clockHz;
    for (StageKind kind : {StageKind::QkvGen, StageKind::Projection,
                           StageKind::Ffn}) {
        EXPECT_GE(sys->stageTiming().tokenTime(kind, 0),
                  gemv_s * 0.999)
            << stageKindName(kind);
    }
}

TEST(TimingCrossCheck, MakespanBoundedByWorkConservation)
{
    // The pipeline can never finish faster than the bottleneck
    // stage's total dense service demand.
    const ModelConfig cfg = llama13b();
    OuroborosOptions opts;
    opts.smartMapping = false;
    const auto sys = OuroborosSystem::build(cfg, {}, opts);
    ASSERT_TRUE(sys.has_value());
    const Workload w = fixedWorkload(128, 32, 20);
    const auto rep = sys->run(w);
    double worst_dense = 0.0;
    for (StageKind kind : {StageKind::QkvGen, StageKind::Projection,
                           StageKind::Ffn}) {
        worst_dense = std::max(
                worst_dense, sys->stageTiming().tokenTime(kind, 0));
    }
    const double lower_bound =
        worst_dense * static_cast<double>(w.totalTokens());
    EXPECT_GE(rep.pipeline.makespanSeconds, lower_bound * 0.999);
}

} // namespace
} // namespace ouro
