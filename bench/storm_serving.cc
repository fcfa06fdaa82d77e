/**
 * @file
 * Storm-serving bench (PR 9): serve a >= 64-way concurrent decode
 * cohort through a deterministic failure storm and record the
 * degradation/recovery trajectory - the end-to-end closure of the
 * paper's two headline claims (serving throughput, Section 6.2;
 * graceful fault tolerance, Section 4.3.3).
 *
 * Asserted on EVERY run:
 *  - the zero-failure storm scenario is bit-identical to the
 *    retained plain serving path (same pool, same options, no
 *    schedule) - the no-storm oracle;
 *  - the storm run replayed from the same (workload, schedule seed,
 *    options) is bit-identical, stats and mirrored pool events both
 *    - the determinism contract;
 *  - the storm run with the cohort fast path OFF is bit-identical to
 *    the run with it ON (the engine's storm bail-out rule composes
 *    with the existing bit-identity oracle);
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

#include "sim/storm_run.hh"

using namespace ouro;
using namespace ouro::bench;

namespace
{

bool
sameEvents(const std::vector<KvPoolEvent> &a,
           const std::vector<KvPoolEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].time != b[i].time ||
            a[i].dropCores.size() != b[i].dropCores.size() ||
            a[i].adopts.size() != b[i].adopts.size())
            return false;
        for (std::size_t j = 0; j < a[i].dropCores.size(); ++j) {
            if (!(a[i].dropCores[j] == b[i].dropCores[j]))
                return false;
        }
        for (std::size_t j = 0; j < a[i].adopts.size(); ++j) {
            const auto &x = a[i].adopts[j];
            const auto &y = b[i].adopts[j];
            if (!(x.info.coord == y.info.coord) ||
                x.info.crossbars != y.info.crossbars ||
                x.info.blocksPerCrossbar != y.info.blocksPerCrossbar ||
                x.scoreDuty != y.scoreDuty)
                return false;
        }
    }
    return true;
}

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
        BlockKvManager kv(model, sys.scorePool(), sys.contextPool(),
                          128, sys.options().kvThreshold);
        PipelineOptions popts;
        popts.attentionParallelism = 16.0;
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
    // cohort fast path on AND off. ---
    StormServingOptions zopts;
    zopts.injector.failures = 0;
    zopts.throughputBinSeconds = bin_w;
    const StormServingResult zero = runStormServing(sys, cohort,
                                                    zopts);
    ouroAssert(zero.stats == clean,
               "storm_serving: zero-failure storm diverged from the "
               "plain serving path");
    zopts.cohortFastPath = false;
    ouroAssert(runStormServing(sys, cohort, zopts).stats == clean,
               "storm_serving: zero-failure storm (slow path) "
               "diverged from the plain serving path");

    // --- The storm: 24 failures across [30%, 50%] of the clean
    // run's makespan, weight-core failures mixed in (their
    // replacement chains absorb KV cores and, on a dry pool, borrow
    // across blocks). ---
    StormServingOptions sopts;
    sopts.injector.failures = 24;
    sopts.injector.stormStart = 0.30 * clean_makespan;
    sopts.injector.stormDuration = 0.20 * clean_makespan;
    sopts.injector.seed = 20260808;
    sopts.injector.weightFailureFraction = 0.25;
    sopts.throughputBinSeconds = bin_w;

    const WallTimer storm_timer;
    const StormServingResult storm = runStormServing(sys, cohort,
                                                     sopts);
    const double storm_wall = storm_timer.seconds();

    // --- Oracle (b): replay determinism, stats and events bitwise.
    const StormServingResult replay = runStormServing(sys, cohort,
                                                      sopts);
    ouroAssert(storm.stats == replay.stats,
               "storm_serving: storm replay diverged (stats)");
    ouroAssert(sameEvents(storm.events, replay.events),
               "storm_serving: storm replay diverged (events)");

    // --- Oracle (c): the storm run is bit-identical with the cohort
    // fast path disabled (the bail-out rule composes with the
    // existing fast-path contract). ---
    StormServingOptions slow_opts = sopts;
    slow_opts.cohortFastPath = false;
    ouroAssert(runStormServing(sys, cohort, slow_opts).stats ==
                       storm.stats,
               "storm_serving: storm run diverged between cohort "
               "and slow paths");

    ouroAssert(storm.stats.stormEvictions > 0,
               "storm_serving: storm never evicted a resident");
    ouroAssert(!storm.events.empty(),
               "storm_serving: storm produced no pool events");

    // --- Degradation / recovery off the throughput histogram. ---
    const auto &bins = storm.stats.outputTokenBins;
    const double storm_start = sopts.injector.stormStart;
    const double storm_end = storm.events.back().time;
    auto bin_of = [&](double t) {
        return static_cast<std::size_t>(t / bin_w);
    };
    // Pre-storm rate: the steady half of the pre-storm window
    // (skipping the prefill ramp at the start of the run).
    const std::size_t pre_hi = bin_of(storm_start);
    const std::size_t pre_lo = pre_hi / 2;
    ouroAssert(pre_hi > pre_lo && pre_hi <= bins.size(),
               "storm_serving: pre-storm window too small");
    double pre_rate = 0.0;
    for (std::size_t b = pre_lo; b < pre_hi; ++b)
        pre_rate += static_cast<double>(bins[b]);
    pre_rate /= static_cast<double>(pre_hi - pre_lo);
    ouroAssert(pre_rate > 0.0,
               "storm_serving: no pre-storm throughput");

    // Degradation depth: the worst bin while the storm is live.
    double depth_rate = pre_rate;
    for (std::size_t b = bin_of(storm_start);
         b <= bin_of(storm_end) && b < bins.size(); ++b)
        depth_rate = std::min(depth_rate,
                              static_cast<double>(bins[b]));
    const double degradation_depth = depth_rate / pre_rate;

    // Time-to-recover: first bin at/after the last storm event that
    // reaches 90% of the pre-storm rate, excluding the final two
    // bins (the drain tail, where throughput falls because requests
    // RUN OUT, not because the storm hurt). Asserted to exist - the
    // >= 90% goodput-recovery acceptance bar.
    std::size_t recovered_bin = bins.size();
    const std::size_t tail =
        bins.size() >= 2 ? bins.size() - 2 : bins.size();
    for (std::size_t b = bin_of(storm_end) + 1; b < tail; ++b) {
        if (static_cast<double>(bins[b]) >= 0.9 * pre_rate) {
            recovered_bin = b;
            break;
        }
    }
    ouroAssert(recovered_bin < bins.size(),
               "storm_serving: throughput never recovered to 90% of "
               "the pre-storm rate");
    const double recovery_seconds = std::max(
            0.0, static_cast<double>(recovered_bin) * bin_w -
                         storm_end);

    // Goodput: useful output per second over the whole run, storm vs
    // clean (re-prefilled tokens are pure overhead - they inflate
    // tokensProcessed but never outputTokens, so this ratio charges
    // the storm for its recompute work automatically).
    const double goodput_ratio =
        storm.stats.outputTokensPerSecond() /
        clean.outputTokensPerSecond();

    std::cout << "\nStorm: " << storm.failuresInjected
              << " failures injected, " << storm.failuresHandled
              << " recovered, " << storm.borrows
              << " cross-block KV borrows\n"
              << "  pool: " << storm.kvCoresLost << " cores lost, "
              << storm.kvCoresAdopted << " adopted; "
              << storm.stats.stormEvictions
              << " residents storm-evicted, "
              << storm.stats.stormReprefilledTokens
              << " tokens re-prefilled\n"
              << "  degradation depth: "
              << formatDouble(degradation_depth, 3)
              << " (min/pre rate)   time-to-recover: "
              << formatDouble(recovery_seconds, 4)
              << " s   goodput ratio: "
              << formatDouble(goodput_ratio, 3) << "\n"
              << "  zero-failure path, replay and slow path all "
                 "bit-identical (asserted).\n";

    BenchReport("storm_serving")
        .metric("wall_seconds", total_timer.seconds())
        .metric("events_per_sec",
                static_cast<double>(storm.stats.tokensProcessed) /
                        storm_wall)
        .metric("clean_events_per_sec",
                static_cast<double>(clean.tokensProcessed) /
                        clean_wall)
        .metric("storm_goodput_ratio", goodput_ratio)
        .metric("storm_degradation_depth", degradation_depth)
        .metric("storm_recovery_seconds", recovery_seconds)
        .metric("storm_failures_injected", storm.failuresInjected)
        .metric("storm_failures_handled", storm.failuresHandled)
        .metric("storm_kv_cores_lost", storm.kvCoresLost)
        .metric("storm_kv_cores_adopted", storm.kvCoresAdopted)
        .metric("storm_borrows", storm.borrows)
        .metric("storm_evicted_requests",
                storm.stats.stormEvictions)
        .metric("storm_reprefilled_tokens",
                storm.stats.stormReprefilledTokens)
        .metric("storm_recomputed_tokens",
                storm.stats.recomputedTokens)
        .metric("storm_skipped_requests",
                storm.stats.skippedRequests)
        .metric("pre_storm_tokens_per_bin", pre_rate)
        .metric("throughput_bin_seconds", bin_w)
        .percentiles("storm_ttft_seconds", storm.stats.ttftSamples)
        .percentiles("storm_inter_token_seconds",
                     storm.stats.interTokenSamples)
        .text("determinism",
              "zero-failure == plain path; replay bitwise; cohort == "
              "slow path (all asserted)")
        .write();
    return 0;
}
