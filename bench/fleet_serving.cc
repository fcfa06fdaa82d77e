/**
 * @file
 * Fleet-serving bench (PR 10): a deterministic cluster router over N
 * wafers with parallel per-wafer simulation - the ROADMAP's "heavy
 * traffic from millions of users" scale axis, served rather than
 * analytically swept.
 *
 * Asserted on EVERY run:
 *  - the parallel fleet run is bit-identical to the serial one
 *    (per-wafer stats, fleet fold AND the dispatch assignment) - the
 *    PR 1 sweep contract extended to serving;
 *  - an N=1 fleet is bit-identical to a direct runPipeline over the
 *    system's KV manager and serving options - the plain-serving
 *    collapse oracle;
 *  - replaying the fleet run is bitwise deterministic (the whole
 *    FleetResult: stats, assignment, KV probe counters AND resolved
 *    storm events);
 *  - a storm configuration with a ZERO-failure schedule is
 *    bit-identical to the no-storm fleet.
 *
 * BENCH_fleet_serving.json records fleet_tokens_per_sec (simulated
 * serving throughput over the slowest wafer's makespan),
 * fleet_parallel_speedup (read together with detected_cores - ~1x on
 * 1-core runners by design), per-wafer and fleet-wide TTFT/ITL
 * percentiles, and the storm wafer's goodput ratio vs the no-storm
 * fleet.
 *
 * argv[1] = request count (default 1024), argv[2] = wafers (4).
 */

#include <algorithm>
#include <string>

#include "bench_util.hh"

#include "sim/fleet.hh"
#include "workload/trace.hh"

using namespace ouro;
using namespace ouro::bench;

int
main(int argc, char **argv)
{
    setQuiet(true);
    const std::size_t n = requestCount(argc, argv, 1024);
    const std::uint32_t wafers =
        argc > 2 && std::atol(argv[2]) > 0
            ? static_cast<std::uint32_t>(std::atol(argv[2]))
            : 4;
    const WallTimer total_timer;

    std::cout << "=== Fleet serving: " << n << " requests over "
              << wafers << " wafers ===\n";

    const ModelConfig model = llama13b();
    const auto sys = buildOuroboros(model);

    // A diurnal-day trace stands in for fleet traffic; the fleet
    // layer serves the materialized window (bit-identical to slicing
    // a whole-day generation - the DayTrace purity contract).
    DayTraceParams tparams;
    tparams.requests = n;
    tparams.seed = 20260808;
    tparams.maxLen = 512;
    const DayTrace trace(tparams);
    const Workload day = trace.window(0.0, trace.daySeconds());
    ouroAssert(day.requests.size() == n,
               "fleet_serving: trace window dropped requests");

    FleetOptions fopts;
    fopts.numWafers = wafers;

    // --- Oracle (a): parallel == serial, bit for bit. ---
    FleetOptions serial_opts = fopts;
    serial_opts.serialExecution = true;
    const WallTimer serial_timer;
    const FleetResult serial = runFleetServing(sys, day,
                                               serial_opts);
    const double serial_wall = serial_timer.seconds();

    const WallTimer parallel_timer;
    const FleetResult fleet = runFleetServing(sys, trace, 0.0,
                                              trace.daySeconds(),
                                              fopts);
    const double parallel_wall = parallel_timer.seconds();
    ouroAssert(serial == fleet,
               "fleet_serving: parallel fleet diverged from serial");

    // --- Oracle (b): replay determinism. ---
    ouroAssert(runFleetServing(sys, day, fopts) == fleet,
               "fleet_serving: fleet replay diverged");

    // --- Oracle (c): N=1 collapses to the plain serving path. ---
    {
        FleetOptions one = fopts;
        one.numWafers = 1;
        const FleetResult single = runFleetServing(sys, day, one);
        BlockKvManager kv = sys.makeKvManager();
        const PipelineStats plain = runPipeline(
                day, model, sys.stageTiming(), kv, sys.servingOptions());
        ouroAssert(single.fleet == plain && single.wafers[0] == plain,
                   "fleet_serving: N=1 fleet diverged from the plain "
                   "serving path");
    }

    // --- Storm tier: wafer 1 (or 0 when N=1) takes a failure storm;
    // the router derates its weight off the resolved pool loss. ---
    const std::uint32_t storm_wafer = wafers > 1 ? 1 : 0;
    constexpr double kBins = 64.0;
    const double bin_w = fleet.fleet.makespanSeconds / kBins;
    ouroAssert(bin_w > 0.0, "fleet_serving: empty fleet run");

    FleetOptions binned = fopts;
    binned.throughputBinSeconds = bin_w;
    const FleetResult nostorm = runFleetServing(sys, day, binned);

    // Oracle (d): a zero-failure schedule is bit-identical to the
    // no-storm fleet.
    FleetOptions zero = binned;
    zero.stormWafer = storm_wafer;
    zero.injector.failures = 0;
    ouroAssert(runFleetServing(sys, day, zero) == nostorm,
               "fleet_serving: zero-failure storm fleet diverged "
               "from the no-storm fleet");

    // The real storm: failures across [30%, 50%] of the storm
    // wafer's clean makespan.
    const double wafer_makespan =
        nostorm.wafers[storm_wafer].makespanSeconds;
    FleetOptions storm_opts = binned;
    storm_opts.stormWafer = storm_wafer;
    storm_opts.injector.failures = 16;
    storm_opts.injector.stormStart = 0.30 * wafer_makespan;
    storm_opts.injector.stormDuration = 0.20 * wafer_makespan;
    storm_opts.injector.seed = 20260808;
    storm_opts.injector.weightFailureFraction = 0.25;
    const FleetResult storm = runFleetServing(sys, day, storm_opts);
    ouroAssert(runFleetServing(sys, day, storm_opts) == storm,
               "fleet_serving: storm fleet replay diverged");
    ouroAssert(storm.failuresHandled > 0 && !storm.events.empty(),
               "fleet_serving: storm resolved no failures");
    ouroAssert(storm.dispatchWeight[storm_wafer] <= 1.0,
               "fleet_serving: storm wafer weight not derated");
    ouroAssert(storm.requestsPerWafer[storm_wafer] <=
                       nostorm.requestsPerWafer[storm_wafer],
               "fleet_serving: router did not drain the degraded "
               "wafer");

    // Degradation / recovery off the fleet-wide aligned histogram.
    // Recovery is recorded, not asserted (-1 when the run ends
    // first): the router's load shift makes the storm wafer drain
    // early by design.
    const StormTrajectory traj =
        stormTrajectory(storm.fleet.outputTokenBins, bin_w,
                        storm_opts.injector.stormStart,
                        storm.events.back().time);

    const double storm_goodput_ratio =
        nostorm.wafers[storm_wafer].outputTokensPerSecond() > 0.0
            ? storm.wafers[storm_wafer].outputTokensPerSecond() /
                  nostorm.wafers[storm_wafer]
                      .outputTokensPerSecond()
            : 0.0;
    const double fleet_goodput_ratio =
        nostorm.fleet.outputTokensPerSecond() > 0.0
            ? storm.fleet.outputTokensPerSecond() /
                  nostorm.fleet.outputTokensPerSecond()
            : 0.0;

    const double fleet_tps = fleet.fleet.outputTokensPerSecond();
    const double speedup =
        parallel_wall > 0.0 ? serial_wall / parallel_wall : 1.0;

    Table table({"wafer", "requests", "tokens", "weight",
                 "makespan_s", "out_tok/s", "ttft_p50_s"});
    for (std::uint32_t w = 0; w < wafers; ++w) {
        table.row()
            .cell(std::to_string(w))
            .cell(std::to_string(fleet.requestsPerWafer[w]))
            .cell(std::to_string(fleet.tokensCommitted[w]))
            .cell(fleet.dispatchWeight[w], 2)
            .cell(fleet.wafers[w].makespanSeconds, 3)
            .cell(fleet.wafers[w].outputTokensPerSecond(), 1)
            .cell(percentileOf(fleet.wafers[w].ttftSamples, 50.0),
                  4);
    }
    table.print(std::cout);
    std::cout << "\nFleet: "
              << formatDouble(fleet_tps, 1)
              << " output tokens/s over "
              << formatDouble(fleet.fleet.makespanSeconds, 3)
              << " s (slowest wafer); parallel speedup "
              << formatDouble(speedup, 2) << "x\nStorm (wafer "
              << storm_wafer << "): " << storm.failuresHandled
              << " failures recovered, weight derated to "
              << formatDouble(storm.dispatchWeight[storm_wafer], 3)
              << ", goodput ratio "
              << formatDouble(storm_goodput_ratio, 3)
              << " (fleet " << formatDouble(fleet_goodput_ratio, 3)
              << "), degradation depth "
              << formatDouble(traj.depth, 3) << "\n"
              << "parallel==serial, N=1 collapse, replay and "
                 "zero-failure==no-storm all bit-identical "
                 "(asserted).\n";

    BenchReport report("fleet_serving");
    report.metric("wall_seconds", total_timer.seconds())
        .metric("num_wafers", static_cast<std::uint64_t>(wafers))
        .metric("requests", static_cast<std::uint64_t>(n))
        .metric("fleet_tokens_per_sec", fleet_tps)
        .metric("fleet_parallel_speedup", speedup)
        .metric("fleet_serial_wall_seconds", serial_wall)
        .metric("fleet_parallel_wall_seconds", parallel_wall)
        .metric("events_per_sec",
                parallel_wall > 0.0
                    ? static_cast<double>(
                              fleet.fleet.tokensProcessed) /
                          parallel_wall
                    : 0.0)
        .metric("fleet_makespan_seconds",
                fleet.fleet.makespanSeconds)
        .metric("fleet_skipped_requests",
                fleet.fleet.skippedRequests)
        .metric("storm_wafer",
                static_cast<std::uint64_t>(storm_wafer))
        .metric("storm_wafer_goodput_ratio", storm_goodput_ratio)
        .metric("storm_fleet_goodput_ratio", fleet_goodput_ratio)
        .metric("storm_degradation_depth", traj.depth)
        .metric("storm_recovery_seconds", traj.recoverySeconds)
        .metric("storm_wafer_weight",
                storm.dispatchWeight[storm_wafer])
        .metric("storm_failures_handled", storm.failuresHandled)
        .metric("storm_kv_cores_lost", storm.kvCoresLost)
        .metric("storm_kv_cores_adopted", storm.kvCoresAdopted)
        .metric("storm_borrows", storm.borrows)
        .metric("storm_evicted_requests",
                storm.fleet.stormEvictions)
        // Storm run, all wafers: admissions that walked the KV rings,
        // the failed ones, and failed ones answered from the epoch.
        .metric("storm_admission_probes", storm.kvAdmissionProbes)
        .metric("storm_admission_probe_failures", storm.kvProbeFailures)
        .metric("storm_admission_probes_skipped", storm.kvProbesSkipped)
        .metric("throughput_bin_seconds", bin_w)
        .percentiles("fleet_ttft_seconds", fleet.fleet.ttftSamples)
        .percentiles("fleet_inter_token_seconds",
                     fleet.fleet.interTokenSamples);
    // Per-wafer latency percentiles (capped at 8 wafers to keep the
    // record schema bounded at large N).
    for (std::uint32_t w = 0; w < std::min(wafers, 8u); ++w) {
        const std::string prefix = "wafer" + std::to_string(w);
        report
            .percentiles(prefix + "_ttft_seconds",
                         fleet.wafers[w].ttftSamples)
            .percentiles(prefix + "_inter_token_seconds",
                         fleet.wafers[w].interTokenSamples)
            .metric(prefix + "_requests", fleet.requestsPerWafer[w]);
    }
    report
        .text("determinism",
              "parallel==serial; N=1 collapse; replay bitwise; "
              "zero-failure storm==no-storm (all asserted)")
        .write();
    return 0;
}
