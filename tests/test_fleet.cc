/**
 * @file
 * PR 10 fleet-serving tests: the dispatch policy as a pure function
 * (least-outstanding reference semantics, tie-breaks, weights,
 * affinity pins), the two-phase router purity contract (result
 * invariant under any serial visit order AND parallel == serial),
 * the N=1 collapse oracle, and storm integration (zero-failure
 * bit-identity, weight derating, replay determinism).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "sim/fleet.hh"
#include "sim/system.hh"
#include "workload/requests.hh"
#include "workload/trace.hh"

#include "fixtures.hh"

namespace ouro
{
namespace
{

TEST(FleetDispatch, LeastOutstandingReference)
{
    // Hand-checkable trace of the policy: equal-length requests over
    // 3 unweighted wafers round-robin BY CONSTRUCTION of join-least-
    // outstanding-work with the lowest-index tie-break (all counters
    // tie at every multiple of 3).
    FleetDispatchConfig cfg;
    cfg.numWafers = 3;
    const Workload w = fixedWorkload(64, 16, 9);
    const auto a = fleetDispatch(w, cfg);
    const std::vector<std::uint32_t> expect = {0, 1, 2, 0, 1, 2,
                                               0, 1, 2};
    EXPECT_EQ(a, expect);

    // Variable lengths: every request joins the least-loaded wafer
    // at its dispatch instant. Replay the counters by hand.
    const Workload v = wikiText2Like(40, 256, 7);
    const auto av = fleetDispatch(v, cfg);
    std::vector<std::uint64_t> committed(cfg.numWafers, 0);
    for (std::size_t i = 0; i < v.requests.size(); ++i) {
        std::uint32_t best = 0;
        for (std::uint32_t k = 1; k < cfg.numWafers; ++k) {
            if (committed[k] < committed[best])
                best = k;
        }
        EXPECT_EQ(av[i], best) << "request " << i;
        committed[best] += v.requests[i].totalTokens();
    }
}

TEST(FleetDispatch, CapacityWeightShiftsLoad)
{
    // A half-weight wafer looks twice as loaded per committed token,
    // so it is offered about half the work.
    FleetDispatchConfig cfg;
    cfg.numWafers = 2;
    cfg.capacityWeight = {0.5, 1.0};
    const Workload w = fixedWorkload(64, 64, 300);
    const auto a = fleetDispatch(w, cfg);
    const auto on0 = std::count(a.begin(), a.end(), 0u);
    EXPECT_GT(on0, 80);
    EXPECT_LT(on0, 120); // ~1/3 of 300 at weight ratio 1:2
}

TEST(FleetDispatch, AffinityPinsAndStillChargesCounters)
{
    FleetDispatchConfig cfg;
    cfg.numWafers = 3;
    cfg.affinity = [](const Request &r) {
        return r.id % 4 == 0 ? std::int64_t{2} : std::int64_t{-1};
    };
    const Workload w = fixedWorkload(64, 64, 120);
    const auto a = fleetDispatch(w, cfg);
    std::vector<std::uint64_t> count(3, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (i % 4 == 0) {
            EXPECT_EQ(a[i], 2u) << "request " << i;
        }
        ++count[a[i]];
    }
    // Pinned work charges wafer 2's counter, so the load policy
    // steers free requests away: wafer 2 ends with its pinned 30
    // plus at most a catch-up share, not 30 + a third of the rest.
    EXPECT_EQ(count[2], 40u); // 120/3: pins charged -> totals even out
    EXPECT_EQ(count[0] + count[1], 80u);
}

TEST(FleetServing, ParallelEqualsSerialUnderAnyVisitOrder)
{
    // The two-phase contract: dispatch never reads simulation
    // results, wafers write only their own slot, so the fleet result
    // is invariant under ANY execution order of phase 2 - parallel,
    // serial ascending, or any serial permutation.
    const ModelConfig model = llama13b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    const Workload w = wikiText2Like(96, 512, 5);

    FleetOptions opts;
    opts.numWafers = 3;
    const FleetResult parallel = runFleetServing(*sys, w, opts);

    // Sanity: the router split the work and nothing was lost.
    const std::uint64_t total = std::accumulate(
            parallel.requestsPerWafer.begin(),
            parallel.requestsPerWafer.end(), std::uint64_t{0});
    EXPECT_EQ(total, w.requests.size());
    EXPECT_GT(*std::min_element(parallel.requestsPerWafer.begin(),
                                parallel.requestsPerWafer.end()),
              0u);
    EXPECT_EQ(parallel.fleet.outputTokens, w.totalOutputTokens());

    FleetOptions serial = opts;
    serial.serialExecution = true;
    EXPECT_EQ(parallel, runFleetServing(*sys, w, serial));
    for (const std::vector<std::uint32_t> &order :
         {std::vector<std::uint32_t>{2, 0, 1},
          std::vector<std::uint32_t>{1, 2, 0},
          std::vector<std::uint32_t>{2, 1, 0}}) {
        serial.serialOrder = order;
        EXPECT_EQ(parallel, runFleetServing(*sys, w, serial));
    }

    // Replay determinism: same inputs, bit-identical result.
    EXPECT_EQ(parallel, runFleetServing(*sys, w, opts));
}

TEST(FleetServing, SingleWaferCollapsesToPlainServing)
{
    // N=1 collapse oracle: the whole fleet layer must vanish - one
    // wafer is bit-identical to a direct runPipeline over the
    // system's pool and serving options, cohort ring on AND off, and
    // with or without an armed zero-failure storm on the wafer (a
    // zero-failure storm run is the plain serving path).
    const ModelConfig model = llama13b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    const std::pair<Workload, double> cases[] = {
        {wikiText2Like(64, 512, 9), 0.01},
        {fixedWorkload(16, 48, 96), 0.0},
    };

    for (const auto &[w, bin_w] : cases) {
        for (const bool cohort : {true, false}) {
            for (const bool armed : {false, true}) {
                FleetOptions opts;
                opts.numWafers = 1;
                opts.throughputBinSeconds = bin_w;
                opts.cohortFastPath = cohort;
                if (armed) {
                    opts.stormWafer = 0;
                    opts.injector.failures = 0;
                }
                const FleetResult fleet =
                    runFleetServing(*sys, w, opts);
                EXPECT_TRUE(std::all_of(
                        fleet.assignment.begin(),
                        fleet.assignment.end(),
                        [](std::uint32_t a) { return a == 0; }));
                EXPECT_TRUE(fleet.events.empty());
                EXPECT_EQ(fleet.failuresInjected, 0u);

                BlockKvManager kv = sys->makeKvManager();
                PipelineOptions popts = sys->servingOptions();
                popts.cohortFastPath = cohort;
                popts.throughputBinSeconds = bin_w;
                const PipelineStats plain = runPipeline(
                        w, model, sys->stageTiming(), kv, popts);
                EXPECT_EQ(fleet.fleet, plain);
                EXPECT_EQ(fleet.wafers[0], plain);
            }
        }
    }
}

TEST(FleetServing, SequenceGrainedSystemServesSgp)
{
    // The system owns the serving configuration: servingOptions()
    // follows the deployment's options field by field, and a fleet
    // of a sequence-grained system serves SGP, not TGP.
    const ModelConfig model = llama13b();
    const auto tgp = OuroborosSystem::build(model, {}, fastOpts());
    OuroborosOptions sgp_opts = fastOpts();
    sgp_opts.tokenGrained = false;
    const auto sgp = OuroborosSystem::build(model, {}, sgp_opts);
    OuroborosOptions static_opts = sgp_opts;
    static_opts.dynamicKv = false;
    const auto sgp_static =
        OuroborosSystem::build(model, {}, static_opts);
    ASSERT_TRUE(tgp && sgp && sgp_static);

    PipelineOptions expect;
    expect.maxContext = model.maxContext;
    expect.attentionParallelism = 16.0;
    EXPECT_EQ(tgp->servingOptions(), expect);
    expect.kind = PipelineKind::SequenceGrained;
    expect.staticKvAllocation = true;
    EXPECT_EQ(sgp_static->servingOptions(), expect);

    // The references take the pinned fields, not servingOptions(),
    // so a fleet that ignored the system's kind could not pass.
    const Workload w = wikiText2Like(64, 512, 17);
    expect.staticKvAllocation = false;
    const auto direct = [&](PipelineKind kind) {
        BlockKvManager kv = sgp->makeKvManager();
        PipelineOptions popts = expect;
        popts.kind = kind;
        return runPipeline(w, model, sgp->stageTiming(), kv, popts);
    };
    FleetOptions opts;
    opts.numWafers = 1;
    const FleetResult fleet = runFleetServing(*sgp, w, opts);
    EXPECT_EQ(fleet.fleet, direct(PipelineKind::SequenceGrained));
    EXPECT_NE(fleet.fleet, direct(PipelineKind::TokenGrained));
}

TEST(FleetServing, BadOptionsDieNamingTheField)
{
    // A bad configuration is a user error: fatal() with the field's
    // name and value, not an assert. Earlier tests start the worker
    // pool, and fatal()'s exit in a forked child would wait on
    // workers the fork did not copy, so each death check re-runs
    // this test alone in a fresh process.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const ModelConfig model = llama13b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    const Workload w = fixedWorkload(16, 16, 8);

    FleetOptions bad;
    bad.numWafers = 0;
    EXPECT_DEATH(runFleetServing(*sys, w, bad),
                 "FleetOptions::numWafers = 0");
    bad.numWafers = 2;
    bad.stormWafer = 2;
    EXPECT_DEATH(runFleetServing(*sys, w, bad),
                 "FleetOptions::stormWafer = 2 with "
                 "FleetOptions::numWafers = 2");
    bad.numWafers = 3;
    bad.stormWafer = FleetOptions::kNoStormWafer;
    bad.serialOrder = {0, 2, 0};
    EXPECT_DEATH(runFleetServing(*sys, w, bad),
                 "FleetOptions::serialOrder = \\{0, 2, 0\\} is not a "
                 "permutation");
    bad.serialOrder = {1, 0};
    EXPECT_DEATH(runFleetServing(*sys, w, bad),
                 "FleetOptions::serialOrder = \\{1, 0\\} is not a "
                 "permutation");

    OuroborosOptions static_opts = fastOpts();
    static_opts.dynamicKv = false;
    const auto static_sys =
        OuroborosSystem::build(model, {}, static_opts);
    ASSERT_TRUE(static_sys.has_value());
    EXPECT_DEATH(runFleetServing(*static_sys, w, FleetOptions{}),
                 "OuroborosOptions::dynamicKv = false");
}

TEST(FleetServing, DayTraceWindowOverloadMatchesWorkload)
{
    const ModelConfig model = llama13b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    DayTraceParams params;
    params.requests = 80;
    params.maxLen = 256;
    params.seed = 3;
    const DayTrace trace(params);

    FleetOptions opts;
    opts.numWafers = 2;
    const FleetResult via_trace = runFleetServing(
            *sys, trace, 0.0, trace.daySeconds(), opts);
    const FleetResult via_workload = runFleetServing(
            *sys, trace.window(0.0, trace.daySeconds()), opts);
    EXPECT_EQ(via_trace, via_workload);
}

TEST(FleetServing, ZeroFailureStormEqualsNoStormFleet)
{
    // Storm oracle: arming the injector with zero failures resolves
    // to an empty schedule, an un-derated weight, and a fleet run
    // bit-identical to the no-storm one.
    const ModelConfig model = llama13b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    const Workload w = wikiText2Like(64, 512, 13);

    FleetOptions opts;
    opts.numWafers = 2;
    opts.throughputBinSeconds = 0.005;
    const FleetResult nostorm = runFleetServing(*sys, w, opts);

    FleetOptions zero = opts;
    zero.stormWafer = 1;
    zero.injector.failures = 0;
    const FleetResult armed = runFleetServing(*sys, w, zero);
    EXPECT_EQ(nostorm, armed);
    EXPECT_TRUE(armed.events.empty());
    EXPECT_EQ(armed.dispatchWeight[1], 1.0);
}

TEST(FleetServing, StormDeratesWeightAndReplaysBitwise)
{
    const ModelConfig model = llama13b();
    const auto sys = OuroborosSystem::build(model, {}, fastOpts());
    ASSERT_TRUE(sys.has_value());
    const Workload w = wikiText2Like(96, 512, 21);

    FleetOptions opts;
    opts.numWafers = 2;
    const FleetResult nostorm = runFleetServing(*sys, w, opts);

    FleetOptions storm_opts = opts;
    storm_opts.stormWafer = 1;
    storm_opts.injector.failures = 12;
    storm_opts.injector.seed = 42;
    storm_opts.injector.stormStart =
        0.3 * nostorm.wafers[1].makespanSeconds;
    storm_opts.injector.stormDuration =
        0.2 * nostorm.wafers[1].makespanSeconds;
    const FleetResult storm = runFleetServing(*sys, w, storm_opts);

    // The schedule resolved, the router saw the degraded pool, and
    // load shifted off the storm wafer.
    EXPECT_GT(storm.failuresHandled, 0u);
    EXPECT_FALSE(storm.events.empty());
    EXPECT_GT(storm.kvCoresLost, 0u);
    EXPECT_LT(storm.dispatchWeight[1], 1.0);
    EXPECT_GE(storm.dispatchWeight[1], FleetOptions::kMinDispatchWeight);
    EXPECT_EQ(storm.dispatchWeight[0], 1.0);
    EXPECT_LT(storm.requestsPerWafer[1],
              nostorm.requestsPerWafer[1]);
    EXPECT_EQ(storm.requestsPerWafer[0] + storm.requestsPerWafer[1],
              w.requests.size());

    // Only the storm wafer's simulation sees the schedule; the
    // healthy wafer differs from its no-storm self ONLY through the
    // dispatch shift, never through hidden storm state.
    EXPECT_EQ(storm.wafers[0].stormEvictions, 0u);

    // Whole-run replay determinism (stats, assignment AND events).
    EXPECT_EQ(storm, runFleetServing(*sys, w, storm_opts));

    // Parallel == serial holds under a storm too.
    FleetOptions serial = storm_opts;
    serial.serialExecution = true;
    serial.serialOrder = {1, 0};
    EXPECT_EQ(storm, runFleetServing(*sys, w, serial));
}

} // namespace
} // namespace ouro
