/**
 * @file
 * Storm-serving bench (PR 9): serve a >= 64-way concurrent decode
 * cohort through a deterministic failure storm and record the
 * degradation/recovery trajectory - the end-to-end closure of the
 * paper's two headline claims (serving throughput, Section 6.2;
 * graceful fault tolerance, Section 4.3.3). A storm run is a
 * one-wafer fleet (sim/fleet.hh) with the storm on wafer 0.
 *
 * Asserted on EVERY run:
 *  - the zero-failure storm scenario is bit-identical to the
 *    retained plain serving path (the system's KV manager and
 *    serving options, no schedule) - the no-storm oracle;
 *  - the storm run replayed from the same (workload, schedule seed,
 *    options) is bit-identical: the whole FleetResult, stats,
 *    mirrored pool events and resolution counters - the
 *    determinism contract;
 *  - the storm run with decode runs OFF (cohortFastPath false) is
 *    bit-identical to the run with them ON (a run stops before a due
 *    storm event, so runs compose with the bit-identity oracle);
 *  - goodput recovers: after the schedule drains, some throughput
 *    bin (before the drain tail) reaches >= 90% of the pre-storm
 *    rate.
 *
 * BENCH_storm_serving.json records storm_goodput_ratio,
 * storm_degradation_depth, storm_recovery_seconds and the
 * evicted/re-prefilled counters, so degradation behaviour lives in
 * the recorded perf trajectory, not a one-off demo.
 *
 * Pass a request count as argv[1] (default 384, the fig13 serving
 * cohort size).
 */

#include <algorithm>

#include "bench_util.hh"

#include "sim/fleet.hh"

using namespace ouro;
using namespace ouro::bench;

namespace
{

/** Decode-heavy serving cohort with STAGGERED decode lengths (112,
 *  96, 80, 64, 48 cycling) so completions - and therefore the
 *  throughput curve - spread through the whole run instead of
 *  cliffing at one instant. Max context stays 16 + 112 = 128 tokens
 *  (one logical block per head), the same thrash-free operating
 *  point as the fig13 serving record. */
Workload
stormCohort(std::size_t count)
{
    Workload w;
    w.name = "storm-cohort";
    w.requests.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Request r;
        r.id = i;
        r.prefillLen = 16;
        r.decodeLen = 112 - 16 * (i % 5);
        w.requests.push_back(r);
    }
    return w;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const std::size_t n = requestCount(argc, argv, 384);
    const WallTimer total_timer;

    std::cout << "=== Storm serving: " << n
              << " decode streams through a failure storm ===\n";

    const ModelConfig model = llama13b();
    const auto sys = buildOuroboros(model);
    const Workload cohort = stormCohort(n);

    // --- Clean reference: the retained plain serving path. ---
    constexpr double kBins = 64.0;
    auto plain_run = [&](double bin_w) {
        BlockKvManager kv = sys.makeKvManager();
        PipelineOptions popts = sys.servingOptions();
        popts.throughputBinSeconds = bin_w;
        return runPipeline(cohort, model, sys.stageTiming(), kv,
                           popts);
    };
    // Pass 1 sizes the bins off the clean makespan; pass 2 is the
    // binned clean reference every storm metric normalises against.
    const double clean_makespan =
        plain_run(0.0).makespanSeconds;
    ouroAssert(clean_makespan > 0.0,
               "storm_serving: empty clean run");
    const double bin_w = clean_makespan / kBins;
    const WallTimer clean_timer;
    const PipelineStats clean = plain_run(bin_w);
    const double clean_wall = clean_timer.seconds();
    ouroAssert(clean.evictions == 0 && clean.skippedRequests == 0,
               "storm_serving: clean run must be thrash-free");
    ouroAssert(clean.peakConcurrency >= 64.0,
               "storm_serving: cohort below 64 concurrent streams");

    // --- Oracle (a): zero failures == the plain path, bit for bit,
    // decode runs on AND off. ---
    FleetOptions zopts;
    zopts.numWafers = 1;
    zopts.stormWafer = 0;
    zopts.injector.failures = 0;
    zopts.throughputBinSeconds = bin_w;
    const FleetResult zero = runFleetServing(sys, cohort, zopts);
    ouroAssert(zero.fleet == clean && zero.events.empty(),
               "storm_serving: zero-failure storm diverged from the "
               "plain serving path");
    zopts.cohortFastPath = false;
    ouroAssert(runFleetServing(sys, cohort, zopts).fleet == clean,
               "storm_serving: zero-failure storm (slow path) "
               "diverged from the plain serving path");

    // --- The storm: 24 failures across [30%, 50%] of the clean
    // run's makespan, weight-core failures mixed in (their
    // replacement chains absorb KV cores and, on a dry pool, borrow
    // across blocks). ---
    FleetOptions sopts = zopts;
    sopts.cohortFastPath = true;
    sopts.injector.failures = 24;
    sopts.injector.stormStart = 0.30 * clean_makespan;
    sopts.injector.stormDuration = 0.20 * clean_makespan;
    sopts.injector.seed = 20260808;
    sopts.injector.weightFailureFraction = 0.25;

    const WallTimer storm_timer;
    const FleetResult storm = runFleetServing(sys, cohort, sopts);
    const double storm_wall = storm_timer.seconds();
    const PipelineStats &stats = storm.fleet;

    // --- Oracle (b): replay determinism, the whole result bitwise.
    ouroAssert(runFleetServing(sys, cohort, sopts) == storm,
               "storm_serving: storm replay diverged");

    // --- Oracle (c): the storm run is bit-identical with decode runs
    // disabled (runs stop before a due storm event). ---
    FleetOptions slow_opts = sopts;
    slow_opts.cohortFastPath = false;
    ouroAssert(runFleetServing(sys, cohort, slow_opts).fleet == stats,
               "storm_serving: storm run diverged between decode "
               "runs and the slow path");

    ouroAssert(stats.stormEvictions > 0,
               "storm_serving: storm never evicted a resident");
    ouroAssert(!storm.events.empty(),
               "storm_serving: storm produced no pool events");

    // --- Degradation / recovery off the throughput histogram; the
    // >= 90% goodput-recovery acceptance bar is asserted. ---
    const StormTrajectory traj =
        stormTrajectory(stats.outputTokenBins, bin_w,
                        sopts.injector.stormStart,
                        storm.events.back().time);
    ouroAssert(traj.preRate > 0.0,
               "storm_serving: no pre-storm throughput");
    ouroAssert(traj.recoverySeconds >= 0.0,
               "storm_serving: throughput never recovered to 90% of "
               "the pre-storm rate");

    // Goodput: useful output per second over the whole run, storm vs
    // clean (re-prefilled tokens are pure overhead - they inflate
    // tokensProcessed but never outputTokens, so this ratio charges
    // the storm for its recompute work automatically).
    const double goodput_ratio =
        stats.outputTokensPerSecond() /
        clean.outputTokensPerSecond();

    std::cout << "\nStorm: " << storm.failuresInjected
              << " failures injected, " << storm.failuresHandled
              << " recovered, " << storm.borrows
              << " cross-block KV borrows\n"
              << "  pool: " << storm.kvCoresLost << " cores lost, "
              << storm.kvCoresAdopted << " adopted; "
              << stats.stormEvictions
              << " residents storm-evicted, "
              << stats.stormReprefilledTokens
              << " tokens re-prefilled\n"
              << "  degradation depth: "
              << formatDouble(traj.depth, 3)
              << " (min/pre rate)   time-to-recover: "
              << formatDouble(traj.recoverySeconds, 4)
              << " s   goodput ratio: "
              << formatDouble(goodput_ratio, 3) << "\n"
              << "  zero-failure path, replay and slow path all "
                 "bit-identical (asserted).\n";

    BenchReport("storm_serving")
        .metric("wall_seconds", total_timer.seconds())
        .metric("events_per_sec",
                static_cast<double>(stats.tokensProcessed) /
                        storm_wall)
        .metric("clean_events_per_sec",
                static_cast<double>(clean.tokensProcessed) /
                        clean_wall)
        .metric("storm_goodput_ratio", goodput_ratio)
        .metric("storm_degradation_depth", traj.depth)
        .metric("storm_recovery_seconds", traj.recoverySeconds)
        .metric("storm_failures_injected", storm.failuresInjected)
        .metric("storm_failures_handled", storm.failuresHandled)
        .metric("storm_kv_cores_lost", storm.kvCoresLost)
        .metric("storm_kv_cores_adopted", storm.kvCoresAdopted)
        .metric("storm_borrows", storm.borrows)
        .metric("storm_evicted_requests",
                stats.stormEvictions)
        .metric("storm_reprefilled_tokens",
                stats.stormReprefilledTokens)
        .metric("storm_recomputed_tokens",
                stats.recomputedTokens)
        .metric("storm_skipped_requests",
                stats.skippedRequests)
        .metric("pre_storm_tokens_per_bin", traj.preRate)
        .metric("throughput_bin_seconds", bin_w)
        .percentiles("storm_ttft_seconds", stats.ttftSamples)
        .percentiles("storm_inter_token_seconds",
                     stats.interTokenSamples)
        .text("determinism",
              "zero-failure == plain path; replay bitwise; decode "
              "runs == slow path (all asserted)")
        .write();
    return 0;
}
