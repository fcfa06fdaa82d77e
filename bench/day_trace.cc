/**
 * @file
 * Sampled-window day-trace harness: simulate a day of fleet traffic
 * in seconds (ROADMAP "Sampled simulation for day-long traces").
 *
 * Two tiers, both asserted on every run:
 *
 *  1. CONTRACT (small validation trace): sampling fraction 1.0
 *     collapses BIT-IDENTICALLY to the retained full event-stepped
 *     run; the window fan-out (both run() and fullRun()) is
 *     bit-identical parallel vs serial.
 *
 *  2. HEADLINE (day-scale trace): the sampled estimate of full-trace
 *     decode tokens/sec must fall within its own reported 95%
 *     confidence interval of the full-run value, the relative error
 *     must be <= 5%, and the serial-vs-serial wall speedup must be
 *     >= 10x. Everything is seeded, so these are deterministic
 *     regressions, not flaky statistics: a violation means the
 *     estimator or the trace generator changed.
 *
 * The speedup is measured serial-vs-serial (algorithmic event-count
 * reduction, stable on any core count); the parallel sampled wall is
 * reported as an extra metric. Results land in BENCH_day_trace.json
 * for run-over-run tracking.
 */

#include <cmath>

#include "bench_util.hh"
#include "sim/sampled_run.hh"
#include "workload/trace.hh"

using namespace ouro;
using namespace ouro::bench;

namespace
{

SampledSimulator
makeSimulator(const OuroborosSystem &sys, const ModelConfig &model,
              const DayTraceParams &trace, SampledSimOptions opts)
{
    opts.pipeline = sys.servingOptions();
    opts.kvThreshold = sys.options().kvThreshold;
    return SampledSimulator(DayTrace(trace), model,
                            sys.stageTiming(), sys.scorePool(),
                            sys.contextPool(), opts);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    // argv[1] scales the day-scale trace's request count.
    const auto n = static_cast<std::uint64_t>(
        requestCount(argc, argv, 60000));
    const WallTimer total_timer;

    const ModelConfig model = llama13b();
    const auto sys = buildOuroboros(model);

    // ---- Tier 1: contracts on a small validation trace ----------
    DayTraceParams small_trace;
    small_trace.requests = 4000;

    {
        // Fraction 1.0 IS the full run, bit for bit.
        SampledSimOptions collapse;
        collapse.numWindows = 48;
        collapse.strata = 4;
        collapse.fraction = 1.0;
        const auto sim = makeSimulator(sys, model, small_trace,
                                       collapse);
        const PipelineStats full = sim.fullRun();
        const SampledEstimate est = sim.run();
        ouroAssert(est.measured == full,
                   "day_trace: stats diverged: fraction-1.0 collapse");
        ouroAssert(est.estOutputTokens ==
                       static_cast<double>(full.outputTokens) &&
                   est.estMakespanSeconds == full.makespanSeconds &&
                   est.estTokensPerSecond ==
                       full.outputTokensPerSecond(),
                   "day_trace: fraction-1.0 estimate is not the "
                   "full-run value bit for bit");
        ouroAssert(est.ciValid && est.ciTokensPerSecond == 0.0 &&
                   est.ciOutputTokens == 0.0,
                   "day_trace: census CI must be exactly zero");
    }

    {
        // Window fan-out: parallel == serial, for the estimator and
        // for the full-run oracle (the PR 1 sweep contract).
        SampledSimOptions contract;
        contract.numWindows = 48;
        contract.strata = 4;
        contract.fraction = 0.25;
        auto serial = contract;
        serial.serialExecution = true;
        const auto sim_p = makeSimulator(sys, model, small_trace,
                                         contract);
        const auto sim_s = makeSimulator(sys, model, small_trace,
                                         serial);
        const SampledEstimate ep = sim_p.run();
        const SampledEstimate es = sim_s.run();
        ouroAssert(ep.measured == es.measured,
                   "day_trace: stats diverged: run() parallel vs "
                   "serial fan-out");
        ouroAssert(ep.estTokensPerSecond == es.estTokensPerSecond &&
                   ep.ciTokensPerSecond == es.ciTokensPerSecond &&
                   ep.estOutputTokens == es.estOutputTokens,
                   "day_trace: parallel estimate diverged");
        ouroAssert(sim_p.fullRun() == sim_s.fullRun(),
                   "day_trace: stats diverged: fullRun() parallel vs "
                   "serial fan-out");
    }
    std::cout << "contract tier passed (collapse, parallel==serial)\n";

    // ---- Tier 2: day-scale headline -----------------------------
    // ~n requests over a diurnal day, 480 windows in 6 strata; the
    // sampled run measures 2 windows per stratum = 12 of 480
    // windows simulated, a 40x event-count reduction. Serial-vs-
    // serial walls keep the speedup a property of the algorithm, not
    // of the runner's core count.
    DayTraceParams day;
    day.requests = n;

    SampledSimOptions day_opts;
    day_opts.numWindows = 480;
    day_opts.strata = 6;
    day_opts.fraction = 0.03; // floor(0.03 * 80) = 2 per stratum
    day_opts.serialExecution = true;

    const auto sim = makeSimulator(sys, model, day, day_opts);

    const WallTimer full_timer;
    const PipelineStats full = sim.fullRun();
    const double full_wall = full_timer.seconds();

    const WallTimer sampled_timer;
    const SampledEstimate est = sim.run();
    const double sampled_wall = sampled_timer.seconds();

    auto par_opts = day_opts;
    par_opts.serialExecution = false;
    const WallTimer par_timer;
    const SampledEstimate est_par =
        makeSimulator(sys, model, day, par_opts).run();
    const double sampled_par_wall = par_timer.seconds();
    ouroAssert(est.measured == est_par.measured,
               "day_trace: stats diverged: day-scale parallel vs "
               "serial");

    const double full_tps = full.outputTokensPerSecond();
    const double rel_error =
        std::fabs(est.estTokensPerSecond - full_tps) / full_tps;
    const double speedup = full_wall / sampled_wall;

    std::cout << "\n=== Day-scale sampled simulation (" << n
              << " requests, " << day_opts.numWindows
              << " windows) ===\n"
              << "  full run:    " << formatDouble(full_tps, 1)
              << " tok/s in " << formatDouble(full_wall, 2)
              << " s wall\n"
              << "  sampled:     "
              << formatDouble(est.estTokensPerSecond, 1)
              << " +- " << formatDouble(est.ciTokensPerSecond, 1)
              << " tok/s (95% CI) in "
              << formatDouble(sampled_wall, 2) << " s wall\n"
              << "  rel. error:  "
              << formatDouble(rel_error * 100.0, 2) << "%\n"
              << "  coverage:    "
              << formatDouble(est.coverage * 100.0, 1)
              << "% of windows\n"
              << "  speedup:     " << formatDouble(speedup, 1)
              << "x (serial vs serial)\n";

    ouroAssert(est.ciValid,
               "day_trace: day-scale CI must be valid (needs >= 2 "
               "measured windows in some stratum)");
    ouroAssert(std::fabs(est.estTokensPerSecond - full_tps) <=
                   est.ciTokensPerSecond,
               "day_trace: full-run tokens/sec ", full_tps,
               " outside the sampled 95% CI ",
               est.estTokensPerSecond, " +- ",
               est.ciTokensPerSecond);
    ouroAssert(rel_error <= 0.05,
               "day_trace: sampled estimate off by ",
               rel_error * 100.0, "% (> 5%)");
    ouroAssert(speedup >= 10.0,
               "day_trace: sampled speedup ", speedup,
               "x below the 10x floor");

    BenchReport("day_trace")
        .metric("wall_seconds", total_timer.seconds())
        .metric("sampled_sim_speedup", speedup)
        .metric("sampled_estimate_rel_error", rel_error)
        .metric("coverage", est.coverage)
        .metric("trace_requests", day.requests)
        .metric("total_windows", est.totalWindows)
        .metric("measured_windows", est.measuredWindows)
        .metric("full_wall_seconds", full_wall)
        .metric("sampled_wall_seconds", sampled_wall)
        .metric("sampled_parallel_wall_seconds", sampled_par_wall)
        .metric("full_tokens_per_second", full_tps)
        .metric("est_tokens_per_second", est.estTokensPerSecond)
        .metric("ci_tokens_per_second", est.ciTokensPerSecond)
        .metric("est_prefill_tokens_per_second",
                est.estPrefillTokensPerSecond)
        .metric("est_output_tokens", est.estOutputTokens)
        .metric("ci_output_tokens", est.ciOutputTokens)
        .metric("ttft_seconds_p50", est.p50TtftSeconds)
        .metric("ttft_seconds_p99", est.p99TtftSeconds)
        .metric("inter_token_seconds_p50", est.p50InterTokenSeconds)
        .metric("inter_token_seconds_p99", est.p99InterTokenSeconds)
        .text("determinism",
              "f=1.0 == fullRun, parallel == serial (all asserted)")
        .write();
    return 0;
}
