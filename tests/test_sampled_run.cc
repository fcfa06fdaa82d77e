/**
 * @file
 * Tests for the sampled-window day-trace simulator, pinning its
 * accuracy contract: fraction 1.0 with zero warmup collapses
 * BIT-IDENTICALLY to the retained full event-stepped run, the
 * parallel window fan-out equals the serial loop exactly, warmup
 * windows are measurement-neutral at ctxBucketShift 0, and at real
 * fractions the estimate lands inside its own reported confidence
 * interval of the full-run value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "pipeline/timing_cache.hh"
#include "sim/sampled_run.hh"
#include "workload/trace.hh"

namespace ouro
{
namespace
{

ModelConfig
simModel()
{
    ModelConfig cfg;
    cfg.name = "sampled-test";
    cfg.numBlocks = 8;
    cfg.hiddenDim = 512;
    cfg.numHeads = 4;
    cfg.numKvHeads = 4;
    cfg.headDim = 128;
    cfg.ffnDim = 1024;
    cfg.ffnMatrices = 2;
    cfg.vocabSize = 100;
    cfg.bytesPerParam = 1;
    cfg.attention = AttentionKind::Causal;
    cfg.maxContext = 4096;
    return cfg;
}

StageTiming
simTiming()
{
    StageTiming timing;
    for (unsigned s = 0; s < kStagesPerBlock; ++s) {
        timing.fixedSeconds[s] = 1e-6;
        const auto kind = static_cast<StageKind>(s);
        timing.perContextSeconds[s] =
            stageIsAttention(kind) ? 1e-9 : 0.0;
    }
    return timing;
}

std::vector<KvCoreInfo>
pool(std::uint32_t base)
{
    std::vector<KvCoreInfo> infos;
    for (std::uint32_t i = 0; i < 64; ++i)
        infos.push_back({{base, i}, 32, 8});
    return infos;
}

SampledSimulator
makeSim(SampledSimOptions opts, std::uint64_t requests = 1000,
        std::uint64_t seed = 20260808)
{
    DayTraceParams p;
    p.requests = requests;
    p.seed = seed;
    return SampledSimulator(DayTrace(p), simModel(), simTiming(),
                            pool(0), pool(1), opts);
}

TEST(SampledRun, FractionOneZeroWarmupCollapsesToFullRun)
{
    SampledSimOptions opts;
    opts.numWindows = 16;
    opts.strata = 4;
    opts.fraction = 1.0;
    opts.warmupWindows = 0;
    const SampledSimulator sim = makeSim(opts);

    const PipelineStats full = sim.fullRun();
    const SampledEstimate est = sim.run();

    EXPECT_EQ(est.measuredWindows, 16u);
    EXPECT_EQ(est.warmupWindowsSimulated, 0u);
    EXPECT_EQ(est.coverage, 1.0);
    EXPECT_EQ(est.measured, full);

    // The expansions are exactly 1.0, so the estimate IS the full
    // total, bit for bit - including the throughput ratio.
    EXPECT_EQ(est.estOutputTokens,
              static_cast<double>(full.outputTokens));
    EXPECT_EQ(est.estMakespanSeconds, full.makespanSeconds);
    EXPECT_EQ(est.estTokensPerSecond, full.outputTokensPerSecond());

    // A census has zero sampling variance: the finite-population
    // correction zeroes every stratum term exactly.
    EXPECT_TRUE(est.ciValid);
    EXPECT_EQ(est.ciTokensPerSecond, 0.0);
    EXPECT_EQ(est.ciOutputTokens, 0.0);
}

TEST(SampledRun, ParallelEqualsSerialBitIdentically)
{
    SampledSimOptions opts;
    opts.numWindows = 12;
    opts.strata = 3;
    opts.fraction = 0.5;
    opts.warmupWindows = 1;
    auto serial = opts;
    serial.serialExecution = true;

    const SampledEstimate ep = makeSim(opts).run();
    const SampledEstimate es = makeSim(serial).run();
    EXPECT_EQ(ep.measured, es.measured);
    EXPECT_EQ(ep.estTokensPerSecond, es.estTokensPerSecond);
    EXPECT_EQ(ep.estOutputTokens, es.estOutputTokens);
    EXPECT_EQ(ep.ciTokensPerSecond, es.ciTokensPerSecond);
    EXPECT_EQ(ep.ciOutputTokens, es.ciOutputTokens);

    EXPECT_EQ(makeSim(opts).fullRun(), makeSim(serial).fullRun());
}

TEST(SampledRun, WarmupIsMeasurementNeutralAtExactContexts)
{
    // Warmup windows only touch the chain's TimingCache; at
    // ctxBucketShift 0 a cache hit is bit-identical to a fresh
    // computation, so the measured stats cannot depend on warmup
    // depth (only the cache hit/miss counters do).
    SampledSimOptions opts;
    opts.numWindows = 12;
    opts.strata = 3;
    opts.fraction = 0.5;
    opts.warmupWindows = 0;
    auto warm = opts;
    warm.warmupWindows = 2;

    const SampledEstimate cold = makeSim(opts).run();
    const SampledEstimate warmed = makeSim(warm).run();
    EXPECT_EQ(cold.warmupWindowsSimulated, 0u);
    EXPECT_GT(warmed.warmupWindowsSimulated, 0u);

    PipelineStats a = cold.measured;
    PipelineStats b = warmed.measured;
    // Warmup legitimately shifts traffic from misses to hits; the
    // MEASUREMENTS must be untouched.
    EXPECT_GT(b.timingCacheHits, a.timingCacheHits);
    a.timingCacheHits = b.timingCacheHits = 0;
    a.timingCacheMisses = b.timingCacheMisses = 0;
    EXPECT_EQ(a, b);
    EXPECT_EQ(cold.estTokensPerSecond, warmed.estTokensPerSecond);
}

TEST(SampledRun, EstimateWithinItsOwnConfidenceInterval)
{
    // Deterministic accuracy regression (everything is seeded): on a
    // mid-size trace the sampled estimate must cover the full-run
    // value with its own reported 95% CI and sit within 10%.
    SampledSimOptions opts;
    opts.numWindows = 60;
    opts.strata = 5;
    opts.fraction = 0.25; // 3 of 12 windows per stratum
    opts.warmupWindows = 1;
    const SampledSimulator sim = makeSim(opts, 4000);

    const PipelineStats full = sim.fullRun();
    const SampledEstimate est = sim.run();
    const double full_tps = full.outputTokensPerSecond();

    ASSERT_TRUE(est.ciValid);
    EXPECT_GT(est.ciTokensPerSecond, 0.0);
    EXPECT_LE(std::fabs(est.estTokensPerSecond - full_tps),
              est.ciTokensPerSecond);
    EXPECT_LE(std::fabs(est.estTokensPerSecond - full_tps) /
                  full_tps,
              0.10);
    EXPECT_LE(std::fabs(est.estOutputTokens -
                        static_cast<double>(full.outputTokens)),
              est.ciOutputTokens);
}

TEST(SampledRun, MeasuredSelectionIsStratifiedAndDeterministic)
{
    SampledSimOptions opts;
    opts.numWindows = 40;
    opts.strata = 4;
    opts.fraction = 0.3; // 3 of 10 per stratum
    const SampledSimulator sim = makeSim(opts);

    const auto sel = sim.measuredWindowIndices();
    EXPECT_EQ(sel, makeSim(opts).measuredWindowIndices());
    ASSERT_EQ(sel.size(), 12u);
    EXPECT_TRUE(std::is_sorted(sel.begin(), sel.end()));
    EXPECT_EQ(std::adjacent_find(sel.begin(), sel.end()), sel.end());
    for (std::uint32_t s = 0; s < sim.numStrata(); ++s) {
        const auto [first, last] = sim.stratumBounds(s);
        const auto in_stratum = std::count_if(
            sel.begin(), sel.end(), [&, lo = first, hi = last](
                                        std::uint64_t j) {
                return j >= lo && j < hi;
            });
        EXPECT_EQ(in_stratum, 3);
    }

    // A different selection seed picks different windows (with 10
    // choose 3 per stratum, a collision across all 4 is effectively
    // impossible).
    auto reseeded = opts;
    reseeded.selectionSeed = 99;
    EXPECT_NE(sel, makeSim(reseeded).measuredWindowIndices());
}

TEST(SampledRun, WindowsPartitionTheTrace)
{
    SampledSimOptions opts;
    opts.numWindows = 24;
    opts.strata = 4;
    const SampledSimulator sim = makeSim(opts, 500);

    std::uint64_t covered = 0;
    double prev_t1 = 0.0;
    for (std::uint64_t i = 0; i < sim.numWindows(); ++i) {
        const auto [t0, t1] = sim.windowBounds(i);
        if (i == 0)
            EXPECT_EQ(t0, 0.0);
        else
            EXPECT_EQ(t0, prev_t1); // shared boundary, same value
        prev_t1 = t1;
        covered += sim.trace().windowRange(t0, t1).count();
    }
    EXPECT_EQ(prev_t1, sim.trace().daySeconds());
    EXPECT_EQ(covered, sim.trace().size());

    std::uint64_t stratum_windows = 0;
    for (std::uint32_t s = 0; s < sim.numStrata(); ++s) {
        const auto [first, last] = sim.stratumBounds(s);
        EXPECT_LT(first, last);
        stratum_windows += last - first;
    }
    EXPECT_EQ(stratum_windows, sim.numWindows());
}

TEST(SampledRun, MergedAggregateMatchesManualMerge)
{
    // The estimator's merged stats are exactly the per-stratum
    // ascending merge of its per-window runs - no hidden reordering.
    SampledSimOptions opts;
    opts.numWindows = 8;
    opts.strata = 2;
    opts.fraction = 0.5;
    opts.warmupWindows = 0;
    opts.serialExecution = true;
    const SampledSimulator sim = makeSim(opts, 400);

    const auto sel = sim.measuredWindowIndices();
    ASSERT_EQ(sel.size(), 4u);
    std::vector<PipelineStats> runs;
    for (const std::uint64_t j : sel) {
        TimingCache cache(0);
        runs.push_back(sim.runWindow(j, &cache));
    }
    PipelineStats manual;
    bool started = false;
    std::size_t i = 0;
    for (std::uint32_t s = 0; s < sim.numStrata(); ++s) {
        const auto [first, last] = sim.stratumBounds(s);
        PipelineStats stratum;
        bool stratum_started = false;
        for (; i < sel.size() && sel[i] < last; ++i) {
            if (!stratum_started) {
                stratum = runs[i];
                stratum_started = true;
            } else {
                stratum.merge(runs[i]);
            }
        }
        if (!started) {
            manual = stratum;
            started = true;
        } else {
            manual.merge(stratum);
        }
    }
    EXPECT_EQ(sim.run().measured, manual);
}

} // namespace
} // namespace ouro
