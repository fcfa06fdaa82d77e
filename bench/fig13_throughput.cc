/**
 * @file
 * Fig. 13 - normalized throughput of Ouroboros vs DGX A100, TPUv4,
 * AttAcc and Cerebras WSE-2 across four decoder models and four
 * sequence-length regimes. Also prints the Section 6.2 aggregate
 * (13B-class and 32B-class mean speedups).
 *
 * The harness doubles as the serving-scale perf record for the
 * SIMULATOR itself: a >= 64-way concurrent decode-heavy run is
 * executed once through the per-event slow path and once through the
 * cohort decode fast path; the two must agree bit for bit, and the
 * events/sec of both land in BENCH_fig13_throughput.json so the
 * fast-path speedup is tracked run over run.
 */

#include <algorithm>

#include "bench_util.hh"

using namespace ouro;
using namespace ouro::bench;

int
main(int argc, char **argv)
{
    setQuiet(true);
    const std::size_t n = requestCount(argc, argv);
    const WallTimer total_timer;

    std::cout << "=== Fig. 13: normalized throughput vs baselines ("
              << n << " requests) ===\n";
    Table table({"model", "workload", "DGX A100", "TPUv4", "AttAcc",
                 "Cerebras", "Ours", "ours/dgx"});

    double gain_13b = 0.0, gain_32b = 0.0, gain_all = 0.0;
    int n_13b = 0, n_32b = 0, n_all = 0;
    // KV admission attempts over every figure run (exact counts).
    std::uint64_t probes = 0, probe_failures = 0, probes_skipped = 0;

    for (const ModelConfig &model : decoderModels()) {
        const auto sys = buildOuroboros(model);
        for (const Workload &w : paperWorkloads(n)) {
            const auto ours = sys.run(w);
            const auto gpu = evalAccelerator(dgxA100(), model, w);
            const auto tpu = evalAccelerator(tpuV4x8(), model, w);
            const auto att = evalAccelerator(attAcc(), model, w);
            const auto wse = evalWse(wse2(), model, w);
            ouroAssert(gpu.has_value(), "DGX must fit ", model.name);

            const double base = gpu->outputTokensPerSecond;
            auto norm = [&](double v) { return v / base; };
            const double ours_tps =
                ours.result.outputTokensPerSecond;

            table.row()
                .cell(model.name)
                .cell(w.name)
                .cell(1.0, 2)
                .cell(norm(tpu ? tpu->outputTokensPerSecond : 0.0), 2)
                .cell(norm(att ? att->outputTokensPerSecond : 0.0), 2)
                .cell(norm(wse ? wse->outputTokensPerSecond : 0.0), 2)
                .cell(norm(ours_tps), 2)
                .cell(norm(ours_tps), 2);

            probes += ours.kvAdmissionProbes;
            probe_failures += ours.kvProbeFailures;
            probes_skipped += ours.kvProbesSkipped;

            const double gain = norm(ours_tps);
            gain_all += gain;
            ++n_all;
            if (model.name.find("13B") != std::string::npos) {
                gain_13b += gain;
                ++n_13b;
            } else {
                gain_32b += gain;
                ++n_32b;
            }
        }
    }
    table.print(std::cout);
    std::cout << "\nSection 6.2 aggregates (paper: 13B avg 5.4x, 32B "
                 "avg 2.8x, overall 4.1x):\n"
              << "  13B-class mean speedup vs DGX: "
              << formatDouble(gain_13b / n_13b, 2) << "x\n"
              << "  32B-class mean speedup vs DGX: "
              << formatDouble(gain_32b / n_32b, 2) << "x\n"
              << "  overall mean speedup vs DGX:   "
              << formatDouble(gain_all / n_all, 2) << "x\n";

    // --- Serving fast-path record (PR 2) ---
    // 384 decode-heavy chat-like sequences (16-token prompts, 112
    // output tokens) resident at once on the llama-13B deployment.
    // The pool admits the whole cohort at t=0 and decode stays in
    // steady state (no thrashing - the operating point a production
    // admission controller targets), which is exactly the regime the
    // cohort fast path accelerates. The slow-path run pops every
    // decode token from the engine's decode lane and grows its KV
    // per token (cohortFastPath off); both runs must produce
    // bit-identical PipelineStats. Best-of-3 timing on each side
    // keeps the record stable on noisy shared runners.
    const ModelConfig serve_model = llama13b();
    const auto serve_sys = buildOuroboros(serve_model);
    Workload serving = fixedWorkload(16, 112, 384);
    serving.name = "decode-heavy-384";

    auto engine_run = [&](bool cohort, double &best_wall) {
        PipelineStats stats;
        best_wall = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            BlockKvManager kv = serve_sys.makeKvManager();
            PipelineOptions popts = serve_sys.servingOptions();
            popts.cohortFastPath = cohort;
            const WallTimer timer;
            const PipelineStats rep_stats =
                runPipeline(serving, serve_model,
                            serve_sys.stageTiming(), kv, popts);
            best_wall = std::min(best_wall, timer.seconds());
            if (rep > 0)
                ouroAssert(stats == rep_stats,
                           "fig13: repeated serving run diverged");
            stats = rep_stats;
        }
        return stats;
    };
    double slow_wall = 0.0;
    double fast_wall = 0.0;
    const PipelineStats slow_stats = engine_run(false, slow_wall);
    const PipelineStats fast_stats = engine_run(true, fast_wall);
    ouroAssert(slow_stats == fast_stats,
               "fig13: cohort fast path diverged from slow path");
    ouroAssert(fast_stats.peakConcurrency >= 64.0,
               "fig13: serving cohort below 64 concurrent streams");
    ouroAssert(fast_stats.evictions == 0 &&
               fast_stats.skippedRequests == 0,
               "fig13: serving run must be thrash-free");

    const auto events =
        static_cast<double>(fast_stats.tokensProcessed);
    std::cout << "\nServing fast path (384 concurrent decode "
                 "streams, bit-identical stats):\n"
              << "  slow path: "
              << formatDouble(events / slow_wall, 0)
              << " events/s   cohort: "
              << formatDouble(events / fast_wall, 0)
              << " events/s   speedup: "
              << formatDouble(slow_wall / fast_wall, 2) << "x\n";

    BenchReport("fig13_throughput")
        .metric("wall_seconds", total_timer.seconds())
        .metric("events_per_sec", events / fast_wall)
        .metric("events_per_sec_slow_path", events / slow_wall)
        .metric("fastpath_speedup", slow_wall / fast_wall)
        .metric("serving_events", fast_stats.tokensProcessed)
        .metric("serving_peak_concurrency",
                fast_stats.peakConcurrency)
        // Dropped or redone work is never silent: the serving run
        // asserts all three are zero today, and the record pins that
        // so any future nonzero shows up as a trajectory change (the
        // storm-serving bench records the nonzero counterparts).
        .metric("serving_skipped_requests",
                fast_stats.skippedRequests)
        .metric("serving_storm_evicted_requests",
                fast_stats.stormEvictions)
        .metric("serving_storm_reprefilled_tokens",
                fast_stats.stormReprefilledTokens)
        // Figure runs: admissions that walked the KV rings, the failed
        // ones, and failed ones answered from the capacity epoch.
        .metric("admission_probes", probes)
        .metric("admission_probe_failures", probe_failures)
        .metric("admission_probes_skipped", probes_skipped)
        .percentiles("serving_ttft_seconds", fast_stats.ttftSamples)
        .percentiles("serving_inter_token_seconds",
                     fast_stats.interTokenSamples)
        .text("determinism", "cohort == slow path (asserted)")
        .write();
    return 0;
}
