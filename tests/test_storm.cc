/**
 * @file
 * PR 9 serving-through-failures tests: FailureInjector purity and
 * monotonicity, engine-level KvPoolEvent handling (storm evictions,
 * mid-run adopts, the throughput histogram), and whole-run storm
 * replay determinism through a one-wafer fleet (the zero-failure
 * oracle is FleetServing.SingleWaferCollapsesToPlainServing).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "pipeline/engine.hh"
#include "sim/failure_injector.hh"
#include "sim/fleet.hh"
#include "sim/storm_run.hh"
#include "sim/system.hh"
#include "workload/requests.hh"

#include "fixtures.hh"

namespace ouro
{
namespace
{

TEST(FailureInjector, TimesStrictlyIncreasingWithinWindow)
{
    FailureInjectorParams p;
    p.failures = 200;
    p.stormStart = 3.5;
    p.stormDuration = 2.0;
    p.seed = 77;
    const FailureInjector inj(p);
    double prev = -1.0;
    for (std::uint64_t k = 0; k < p.failures; ++k) {
        const double t = inj.failureTime(k);
        EXPECT_GT(t, prev);
        EXPECT_GE(t, p.stormStart);
        EXPECT_LT(t, p.stormStart + p.stormDuration);
        prev = t;
    }
}

TEST(FailureInjector, AccessorsArePureAndOrderIndependent)
{
    // Counter-seeded purity: two injectors with identical params
    // yield identical draws no matter which accessor is called
    // first, how often, or in what k order.
    FailureInjectorParams p;
    p.failures = 64;
    p.stormDuration = 5.0;
    p.seed = 12345;
    const FailureInjector a(p);
    const FailureInjector b(p);
    // Warm b in a scrambled order first.
    for (std::uint64_t k = p.failures; k-- > 0;) {
        (void)b.pick(k, 17);
        (void)b.weightDuty(k);
        (void)b.failureTime(k);
    }
    for (std::uint64_t k = 0; k < p.failures; ++k) {
        EXPECT_EQ(a.failureTime(k), b.failureTime(k));
        EXPECT_EQ(a.weightDuty(k), b.weightDuty(k));
        EXPECT_EQ(a.pick(k, 17), b.pick(k, 17));
        EXPECT_LT(a.pick(k, 17), 17u);
        // Repeated calls are stable too (no hidden stream state).
        EXPECT_EQ(a.failureTime(k), a.failureTime(k));
    }
}

TEST(FailureInjector, DutyCoinFollowsFraction)
{
    FailureInjectorParams p;
    p.failures = 400;
    p.seed = 9;
    p.weightFailureFraction = 0.0;
    const FailureInjector never(p);
    p.weightFailureFraction = 1.0;
    const FailureInjector always(p);
    std::uint64_t mixed_hits = 0;
    p.weightFailureFraction = 0.5;
    const FailureInjector mixed(p);
    for (std::uint64_t k = 0; k < p.failures; ++k) {
        EXPECT_FALSE(never.weightDuty(k));
        EXPECT_TRUE(always.weightDuty(k));
        mixed_hits += mixed.weightDuty(k) ? 1 : 0;
    }
    // Law of large numbers, loose bounds.
    EXPECT_GT(mixed_hits, 120u);
    EXPECT_LT(mixed_hits, 280u);
}

TEST(FailureInjector, SeedChangesSchedule)
{
    FailureInjectorParams p;
    p.failures = 32;
    p.seed = 1;
    const FailureInjector a(p);
    p.seed = 2;
    const FailureInjector b(p);
    bool any_diff = false;
    for (std::uint64_t k = 0; k < p.failures; ++k)
        any_diff = any_diff || a.failureTime(k) != b.failureTime(k);
    EXPECT_TRUE(any_diff);
}

TEST(FailureInjector, BadParamsDieNamingTheField)
{
    // Bad parameters are user errors: fatal() with the field's name
    // and value, not an assert. Threadsafe death tests re-run this
    // test alone in a fresh process, as the fleet and sampled-run
    // suites do.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    FailureInjectorParams p;
    p.stormDuration = 0.0;
    EXPECT_DEATH({ FailureInjector inj(p); },
                 "FailureInjectorParams::stormDuration = 0 is not "
                 "positive");
    p.stormDuration = -2.0;
    EXPECT_DEATH({ FailureInjector inj(p); },
                 "FailureInjectorParams::stormDuration = -2 is not "
                 "positive");

    p = FailureInjectorParams{};
    p.weightFailureFraction = -0.25;
    EXPECT_DEATH({ FailureInjector inj(p); },
                 "FailureInjectorParams::weightFailureFraction = "
                 "-0\\.25 is outside \\[0, 1\\]");
    p.weightFailureFraction = 1.5;
    EXPECT_DEATH({ FailureInjector inj(p); },
                 "FailureInjectorParams::weightFailureFraction = "
                 "1\\.5 is outside \\[0, 1\\]");
    p.weightFailureFraction = std::nan("");
    EXPECT_DEATH({ FailureInjector inj(p); },
                 "FailureInjectorParams::weightFailureFraction = "
                 "-?nan is outside \\[0, 1\\]");

    p = FailureInjectorParams{};
    p.failures = 1ULL << 52;
    EXPECT_DEATH({ FailureInjector inj(p); },
                 "FailureInjectorParams::failures = 4503599627370496 "
                 "is not below 2\\^52");
}

TEST(StormEngine, NullAndEmptyScheduleBitIdentical)
{
    // The zero-failure oracle at the engine level: a null schedule,
    // an empty schedule, and the pre-PR-9 default must all produce
    // bit-identical stats - with decode runs on and off.
    const ModelConfig cfg = pipeModel();
    const Workload w = fixedWorkload(64, 48, 40);
    const std::vector<KvPoolEvent> empty_schedule;
    for (const bool cohort : {true, false}) {
        PipelineOptions base;
        base.cohortFastPath = cohort;
        auto kv_a = bigKv(cfg);
        const auto plain =
            runPipeline(w, cfg, uniformTiming(), kv_a, base);

        PipelineOptions with_null = base;
        with_null.stormSchedule = nullptr;
        auto kv_b = bigKv(cfg);
        const auto null_run =
            runPipeline(w, cfg, uniformTiming(), kv_b, with_null);

        PipelineOptions with_empty = base;
        with_empty.stormSchedule = &empty_schedule;
        auto kv_c = bigKv(cfg);
        const auto empty_run =
            runPipeline(w, cfg, uniformTiming(), kv_c, with_empty);

        EXPECT_EQ(plain, null_run);
        EXPECT_EQ(plain, empty_run);
        EXPECT_EQ(plain.stormEvictions, 0u);
        EXPECT_EQ(plain.stormReprefilledTokens, 0u);
    }
}

TEST(StormEngine, DropEvictsAndWorkStillCompletes)
{
    // A mid-run drop storm-evicts the residents on the dropped
    // cores; they re-enter the queue, re-prefill, and the run still
    // finishes every request (nothing silently lost).
    const ModelConfig cfg = pipeModel();
    const Workload w = fixedWorkload(64, 48, 40);
    auto kv_plain = bigKv(cfg);
    const auto plain =
        runPipeline(w, cfg, uniformTiming(), kv_plain, {});
    ASSERT_EQ(plain.outputTokens, w.totalOutputTokens());

    std::vector<KvPoolEvent> schedule(1);
    schedule[0].time = plain.makespanSeconds * 0.5;
    for (std::uint32_t i = 0; i < 8; ++i)
        schedule[0].dropCores.push_back({0, i});
    PipelineOptions opts;
    opts.stormSchedule = &schedule;
    auto kv = bigKv(cfg);
    const auto storm = runPipeline(w, cfg, uniformTiming(), kv, opts);

    EXPECT_GT(storm.stormEvictions, 0u);
    EXPECT_GT(storm.stormReprefilledTokens, 0u);
    EXPECT_GE(storm.recomputedTokens, storm.stormReprefilledTokens);
    // Every request still completes; re-prefill inflates the token
    // count and the makespan, never deflates output.
    EXPECT_EQ(storm.outputTokens, w.totalOutputTokens());
    EXPECT_EQ(storm.skippedRequests, 0u);
    EXPECT_GT(storm.makespanSeconds, plain.makespanSeconds);
    EXPECT_EQ(kv.numResident(), 0u);
    EXPECT_EQ(kv.usedBlocks(), 0u);
}

TEST(StormEngine, AdoptGrowsPoolMidRun)
{
    const ModelConfig cfg = pipeModel();
    const Workload w = fixedWorkload(64, 32, 24);
    auto kv_plain = bigKv(cfg);
    const auto plain =
        runPipeline(w, cfg, uniformTiming(), kv_plain, {});

    std::vector<KvPoolEvent> schedule(1);
    schedule[0].time = plain.makespanSeconds * 0.5;
    schedule[0].adopts.push_back({{{7, 0}, 32, 8}, true});
    schedule[0].adopts.push_back({{{7, 1}, 32, 8}, false});
    PipelineOptions opts;
    opts.stormSchedule = &schedule;
    auto kv = bigKv(cfg);
    const auto total_before = kv.totalBlocks();
    const auto storm = runPipeline(w, cfg, uniformTiming(), kv, opts);

    EXPECT_EQ(storm.outputTokens, w.totalOutputTokens());
    EXPECT_EQ(storm.stormEvictions, 0u);
    EXPECT_EQ(kv.totalBlocks(), total_before + 2u * 32u * 8u);
}

TEST(StormEngine, CohortAndSlowPathAgreeUnderStorm)
{
    // The storm path itself must keep the decode-run bit-identity
    // contract: same schedule, runs on vs off, identical stats.
    const ModelConfig cfg = pipeModel();
    const Workload w = fixedWorkload(32, 64, 48);
    auto kv_plain = bigKv(cfg);
    const auto plain =
        runPipeline(w, cfg, uniformTiming(), kv_plain, {});

    std::vector<KvPoolEvent> schedule(2);
    schedule[0].time = plain.makespanSeconds * 0.4;
    for (std::uint32_t i = 0; i < 6; ++i)
        schedule[0].dropCores.push_back({1, i});
    schedule[1].time = plain.makespanSeconds * 0.6;
    schedule[1].adopts.push_back({{{7, 0}, 32, 8}, false});

    PipelineStats runs[2];
    for (const bool cohort : {false, true}) {
        PipelineOptions opts;
        opts.cohortFastPath = cohort;
        opts.stormSchedule = &schedule;
        auto kv = bigKv(cfg);
        runs[cohort ? 1 : 0] =
            runPipeline(w, cfg, uniformTiming(), kv, opts);
    }
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_GT(runs[0].stormEvictions, 0u);
}

TEST(StormEngine, OutputTokenBinsSumToOutput)
{
    const ModelConfig cfg = pipeModel();
    const Workload w = fixedWorkload(64, 48, 40);
    auto kv_off = bigKv(cfg);
    const auto unbinned =
        runPipeline(w, cfg, uniformTiming(), kv_off, {});
    EXPECT_TRUE(unbinned.outputTokenBins.empty());

    PipelineOptions opts;
    opts.throughputBinSeconds = unbinned.makespanSeconds / 16.0;
    auto kv_on = bigKv(cfg);
    const auto binned =
        runPipeline(w, cfg, uniformTiming(), kv_on, opts);
    std::uint64_t sum = 0;
    for (const auto b : binned.outputTokenBins)
        sum += b;
    EXPECT_EQ(sum, binned.outputTokens);
    EXPECT_GE(binned.outputTokenBins.size(), 16u);
    // Binning must not perturb the simulation itself.
    // The bin width is stamped from the options, not simulated.
    PipelineStats stripped = binned;
    stripped.outputTokenBins.clear();
    stripped.throughputBinSeconds = 0.0;
    EXPECT_EQ(stripped, unbinned);
}

TEST(StormEngine, MergeAccumulatesStormFields)
{
    PipelineStats a;
    a.stormEvictions = 3;
    a.stormReprefilledTokens = 700;
    a.outputTokenBins = {1, 2};
    PipelineStats b;
    b.stormEvictions = 4;
    b.stormReprefilledTokens = 50;
    b.outputTokenBins = {9};
    a.merge(b);
    EXPECT_EQ(a.stormEvictions, 7u);
    EXPECT_EQ(a.stormReprefilledTokens, 750u);
    EXPECT_EQ(a.outputTokenBins,
              (std::vector<std::uint64_t>{1, 2, 9}));
}

TEST(StormRun, ReplayIsBitwiseDeterministic)
{
    // Acceptance oracle (b): same (workload, schedule seed, options)
    // -> bit-identical stats AND bit-identical resolved events. A
    // storm run is a one-wafer fleet with the storm on wafer 0; its
    // zero-failure oracle (a) lives in
    // FleetServing.SingleWaferCollapsesToPlainServing.
    const ModelConfig model = llama13b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    const Workload w = fixedWorkload(16, 48, 96);

    // Pin the storm window inside the run with a no-storm probe.
    FleetOptions opts;
    opts.numWafers = 1;
    const FleetResult probe = runFleetServing(*sys, w, opts);
    FleetOptions sopts = opts;
    sopts.stormWafer = 0;
    sopts.injector.failures = 6;
    sopts.injector.stormStart = probe.fleet.makespanSeconds * 0.3;
    sopts.injector.stormDuration = probe.fleet.makespanSeconds * 0.2;
    sopts.injector.seed = 42;

    const FleetResult first = runFleetServing(*sys, w, sopts);
    const FleetResult second = runFleetServing(*sys, w, sopts);
    EXPECT_EQ(first.failuresInjected, 6u);
    EXPECT_EQ(first.failuresInjected, second.failuresInjected);
    EXPECT_EQ(first.failuresHandled, second.failuresHandled);
    EXPECT_EQ(first.failuresSkipped, second.failuresSkipped);
    EXPECT_EQ(first.kvCoresLost, second.kvCoresLost);
    EXPECT_EQ(first.kvCoresAdopted, second.kvCoresAdopted);
    EXPECT_EQ(first.borrows, second.borrows);
    EXPECT_EQ(first.events, second.events);
    EXPECT_EQ(first.fleet, second.fleet);
    EXPECT_EQ(first, second);
    // Resolution alone is pure too, and is what the run served.
    const ResolvedStorm resolved =
        resolveStormSchedule(*sys, sopts.injector, sopts.recovery);
    EXPECT_EQ(resolved, resolveStormSchedule(*sys, sopts.injector,
                                             sopts.recovery));
    EXPECT_EQ(resolved.events, first.events);
    // The schedule actually resolved into pool events on the clock.
    EXPECT_GT(first.failuresHandled, 0u);
    EXPECT_FALSE(first.events.empty());
    // All admitted work still completes through the storm.
    EXPECT_EQ(first.fleet.outputTokens, w.totalOutputTokens());
}

TEST(StormRun, KvOnlyStormDropsEachVictimOnce)
{
    // A KV-core failure shrinks the pool by exactly its victim: the
    // resolved event lists the core once and the storm counts one
    // lost core per handled failure. Mixed-duty storms list every
    // coordinate of an event once too.
    const auto sys = OuroborosSystem::build(llama13b(), {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    const auto no_repeats = [](const KvPoolEvent &ev) {
        for (std::size_t i = 0; i < ev.dropCores.size(); ++i) {
            for (std::size_t j = i + 1; j < ev.dropCores.size(); ++j) {
                if (ev.dropCores[i] == ev.dropCores[j])
                    return false;
            }
        }
        return true;
    };

    FailureInjectorParams kv_only;
    kv_only.failures = 16;
    kv_only.weightFailureFraction = 0.0;
    const ResolvedStorm storm = resolveStormSchedule(*sys, kv_only);
    EXPECT_GT(storm.failuresHandled, 0u);
    EXPECT_EQ(storm.kvCoresLost, storm.failuresHandled);
    for (const KvPoolEvent &ev : storm.events) {
        EXPECT_EQ(ev.dropCores.size(), 1u);
        EXPECT_TRUE(no_repeats(ev));
    }

    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        FailureInjectorParams mixed;
        mixed.failures = 16;
        mixed.seed = seed;
        const ResolvedStorm m = resolveStormSchedule(*sys, mixed);
        std::uint64_t listed = 0;
        for (const KvPoolEvent &ev : m.events) {
            EXPECT_TRUE(no_repeats(ev)) << "seed " << seed;
            listed += ev.dropCores.size();
        }
        EXPECT_EQ(m.kvCoresLost, listed) << "seed " << seed;
    }
}

} // namespace
} // namespace ouro
