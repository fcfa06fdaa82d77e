/**
 * @file
 * Sampled-window simulation of day-long traces (ROADMAP "Sampled
 * simulation for day-long traces").
 *
 * A diurnal day of fleet traffic is ~10^9 pipeline events; nobody
 * event-steps that. Borrowing the sampled-measurement discipline of
 * the gem5 world (checkpoint / measured-window workflows)
 * and the longitudinal rigor of the SPEC CPU suites, the simulator
 *
 *   1. splits a DayTrace into equal-width windows, grouped into
 *      contiguous STRATA (each stratum covers one slice of the
 *      diurnal curve, so the rate trend lives BETWEEN strata and the
 *      estimator only has to average noise WITHIN them);
 *   2. deterministically picks measured windows per stratum
 *      (systematic sampling with a counter-seeded offset - the same
 *      selection on every run and thread count);
 *   3. event-steps the measured windows through the existing
 *      PipelineEngine (decode runs untouched), fanning chains
 *      out over parallelFor with per-index result slots, so the
 *      parallel run is bit-identical to the serial one (the PR 1
 *      sweep contract);
 *   4. aggregates per-window PipelineStats via PipelineStats::merge
 *      and extrapolates full-trace totals, tokens/sec and latency
 *      percentiles with CLT (stratified Student-t) confidence
 *      intervals.
 *
 * Window model: each window is a CLOSED batch - its requests are
 * admitted FCFS from an empty pipeline and run to drain, exactly one
 * runPipeline call - so the boundary between windows is an idle
 * boundary and merging window runs is exact, not approximate. The
 * retained full event-stepped run (fullRun()) is the oracle: it
 * event-steps EVERY window and merges per stratum, then across
 * strata.
 *
 * Accuracy-contract tier (the PR 7 discipline, relaxed from
 * bit-identity to bounded error): at sampling fraction 1.0 the
 * sampled run degenerates to the full run and its totals
 * and throughput estimate are BIT-IDENTICAL to fullRun() (every
 * expansion factor is exactly 1.0 and the merge association is
 * shared); at real fractions the estimate must fall within its own
 * reported confidence interval of the full-run value on mid-size
 * validation traces (bench_day_trace asserts this on every run).
 */

#ifndef OURO_SIM_SAMPLED_RUN_HH
#define OURO_SIM_SAMPLED_RUN_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "kvcache/manager.hh"
#include "model/llm.hh"
#include "pipeline/engine.hh"
#include "pipeline/timing.hh"
#include "workload/trace.hh"

namespace ouro
{

/** Configuration of one sampled run. */
struct SampledSimOptions
{
    /** Equal-width trace windows over the day. */
    std::uint64_t numWindows = 96;

    /** Contiguous strata (window groups); clamped to numWindows. */
    std::uint32_t strata = 4;

    /**
     * Fraction of each stratum's windows to measure. At least one
     * window per stratum is always measured; 1.0 measures all of
     * them (and collapses bit-identically to fullRun()).
     * Confidence intervals need >= 2 measured windows in at least
     * one stratum.
     */
    double fraction = 0.0625;

    /** Counter-based seed of the per-stratum systematic-sampling
     *  offset (selection is a pure function of (seed, stratum)). */
    std::uint64_t selectionSeed = 1;

    /** Force the plain serial loop instead of parallelFor (the two
     *  are bit-identical; the flag exists so benches can assert
     *  exactly that). */
    bool serialExecution = false;

    /** Engine options for every window run. */
    PipelineOptions pipeline;

    /** Anti-thrashing threshold of the per-window KV managers
     *  (constructed fresh over kKvBlockTokens-token blocks; windows
     *  drain, nothing carries). */
    double kvThreshold = 0.1;
};

/** Extrapolated full-trace estimate of one sampled run. */
struct SampledEstimate
{
    /** Merged stats of the measured windows only (per stratum, then
     *  across strata - the shared merge association). */
    PipelineStats measured;

    std::uint64_t totalWindows = 0;
    std::uint64_t measuredWindows = 0;
    /** measuredWindows / totalWindows. */
    double coverage = 0.0;

    /** Stratified expansions of the measured totals. */
    double estOutputTokens = 0.0;
    double estPrefillTokens = 0.0;
    double estMakespanSeconds = 0.0;

    /** Full-trace throughput estimates (per phase). */
    double estTokensPerSecond = 0.0;        ///< decode tokens/sec
    double estPrefillTokensPerSecond = 0.0; ///< prefill tokens/sec

    /**
     * 95% CLT half-widths (stratified Student-t, finite-population
     * corrected; the throughput interval linearises the ratio
     * estimator). Valid only when some stratum measured >= 2
     * windows; at fraction 1.0 the correction zeroes them.
     */
    bool ciValid = false;
    double ciTokensPerSecond = 0.0;
    double ciOutputTokens = 0.0;

    /** Pooled latency percentiles over the measured windows (equal-
     *  size strata at equal fractions make pooling unbiased). */
    double p50TtftSeconds = 0.0;
    double p99TtftSeconds = 0.0;
    double p50InterTokenSeconds = 0.0;
    double p99InterTokenSeconds = 0.0;
};

/**
 * Sampled-window simulator over one DayTrace and one deployment
 * (model + stage timing + representative-block KV pool geometry).
 * Everything is deterministic: run() and fullRun() are pure in the
 * constructor arguments, whatever the thread count.
 */
class SampledSimulator
{
  public:
    SampledSimulator(DayTrace trace, ModelConfig model,
                     StageTiming timing,
                     std::vector<KvCoreInfo> score_pool,
                     std::vector<KvCoreInfo> context_pool,
                     SampledSimOptions opts = {});

    /** The sampled run: measured windows only. */
    SampledEstimate run() const;

    /**
     * The retained full event-stepped oracle: every window, merged
     * per stratum and then across strata (the same association the
     * estimator uses, so the fraction-1.0 collapse is bitwise).
     */
    PipelineStats fullRun() const;

    /** One window's run on a fresh KV manager. */
    PipelineStats runWindow(std::uint64_t window) const;

    std::uint64_t numWindows() const { return opts_.numWindows; }

    /** [t0, t1) bounds of window @p i (shared by every code path so
     *  windows partition the day exactly). */
    std::pair<double, double> windowBounds(std::uint64_t i) const;

    /** Window range [first, last) of stratum @p s. */
    std::pair<std::uint64_t, std::uint64_t>
    stratumBounds(std::uint32_t s) const;

    std::uint32_t numStrata() const;

    /** The deterministic measured-window selection, ascending. */
    std::vector<std::uint64_t> measuredWindowIndices() const;

    const DayTrace &trace() const { return trace_; }
    const SampledSimOptions &options() const { return opts_; }

  private:
    DayTrace trace_;
    ModelConfig model_;
    StageTiming timing_;
    std::vector<KvCoreInfo> scorePool_;
    std::vector<KvCoreInfo> contextPool_;
    SampledSimOptions opts_;
};

} // namespace ouro

#endif // OURO_SIM_SAMPLED_RUN_HH
