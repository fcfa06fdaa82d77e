/**
 * @file
 * Fleet-scale serving: a deterministic cluster front-end over N
 * wafers. "Millions of users" means many wafers behind a router, not
 * one PipelineEngine - this layer promotes the multi-wafer story
 * from a static cost sweep to served traffic. It serves a Workload;
 * a day-trace window is served as trace.window(t0, t1).
 *
 * TWO-PHASE ROUTER PURITY CONTRACT. A fleet run is split into two
 * strictly ordered phases so the request->wafer assignment is a pure
 * function of (workload, fleet config) and NEVER of thread schedule:
 *
 *  - Phase 1 (dispatch): requests are routed IN REQUEST ORDER
 *    through a seed-free policy - weighted join-least-outstanding-
 *    work over per-wafer committed-work counters (sum of assigned
 *    requests' total tokens, divided by the wafer's capacity
 *    weight), lowest-wafer-index tie-break. Nothing in this phase
 *    reads simulation results.
 *
 *  - Phase 2 (simulation): the N per-wafer PipelineEngine instances
 *    run independently through parallelFor with PER-WAFER RESULT
 *    SLOTS (the design-space sweep's contract), so the
 *    fleet run is bit-identical parallel vs serial, and invariant
 *    under ANY completed-wafer reordering of the simulation phase
 *    (tests permute the serial visit order to prove it).
 *
 * N=1 COLLAPSE ORACLE: with one wafer and no storm, every request
 * lands on wafer 0 in order, so the fleet stats are bit-identical to
 * a direct runPipeline over sys.makeKvManager() and
 * sys.servingOptions() - the plain serving path is the retained
 * oracle (bench_fleet_serving asserts it on every run). A storm run
 * is the one-wafer fleet with stormWafer = 0.
 *
 * STORM INTEGRATION (per wafer): one wafer may take
 * a FailureInjector schedule mid-run. The schedule is resolved FIRST
 * (resolveStormSchedule - pure in the seed), the storm wafer's
 * dispatch weight is derated by the resolved net KV-pool loss (so
 * the router drains a degraded wafer), and the resolved events drive
 * the wafer's mid-run dropCore/adoptCore pool mutations during phase
 * 2. A zero-failure schedule is bit-identical to the no-storm fleet.
 *
 * Fleet totals fold per-wafer PipelineStats through
 * PipelineStats::mergeConcurrent (side-by-side semantics: max
 * makespan, elementwise-summed aligned outputTokenBins), so the
 * fleet-wide throughput curve, goodput, degradation depth and
 * recovery are well-defined.
 */

#ifndef OURO_SIM_FLEET_HH
#define OURO_SIM_FLEET_HH

#include <cstdint>
#include <vector>

#include "pipeline/engine.hh"
#include "sim/storm_run.hh"
#include "sim/system.hh"

namespace ouro
{

/** Inputs of the pure dispatch function. */
struct FleetDispatchConfig
{
    std::uint32_t numWafers = 1;

    /**
     * Per-wafer capacity weight (each > 0); empty = all 1.0. The
     * policy minimizes committedTokens[w] / weight[w], so a wafer at
     * weight 0.5 is offered half the work of a healthy one - this is
     * how the router accounts for a storm-degraded KV pool.
     */
    std::vector<double> capacityWeight;
};

/**
 * The dispatch policy as a pure function: assignment[i] is the wafer
 * of request i. Weighted join-least-outstanding-work over committed-
 * work counters updated in request order; ties go to the lowest
 * wafer index. Each request scans the wafers' committed/weight keys
 * (O(N) per request; at fleet sizes the flat scan measured faster
 * than an ordered-set argmin).
 */
std::vector<std::uint32_t>
fleetDispatch(const Workload &workload,
              const FleetDispatchConfig &config);

/** Configuration of one fleet run. */
struct FleetOptions
{
    static constexpr std::uint32_t kNoStormWafer = 0xffffffffu;

    /** Floor on the storm wafer's derated dispatch weight (a fully
     *  drained pool must not zero the weight - the wafer still
     *  serves what it can). */
    static constexpr double kMinDispatchWeight = 0.05;

    /** Wafers behind the router (>= 1). Every wafer serves the same
     *  deployment (model, mapping, pools, timing) with the system's
     *  servingOptions(), overridden only by the fields below. */
    std::uint32_t numWafers = 4;

    /** Wafer taking the failure storm (kNoStormWafer = none). */
    std::uint32_t stormWafer = kNoStormWafer;

    /** Storm schedule for the storm wafer (resolved only when
     *  stormWafer is set AND failures > 0). */
    FailureInjectorParams injector;

    /** Options for the rebuilt-per-run recovery service. */
    RecoveryServiceOptions recovery;

    /** Forwarded to PipelineOptions::cohortFastPath (decode runs;
     *  false sends every decode token through the lane loop). */
    bool cohortFastPath = true;

    /** Forwarded to PipelineOptions::throughputBinSeconds on EVERY
     *  wafer (one width fleet-wide - mergeConcurrent asserts it);
     *  runPipeline rejects NaN, infinite and negative widths. */
    double throughputBinSeconds = 0.0;

    /** Forwarded to PipelineOptions::attentionParallelism; the
     *  default is servingOptions()'s. */
    double attentionParallelism = 16.0;

    /** Force the plain serial wafer loop instead of parallelFor (the
     *  two are bit-identical; the flag exists so benches can assert
     *  exactly that). */
    bool serialExecution = false;

    /**
     * Test hook: the wafer visit order of the serial loop (empty =
     * ascending; must be a permutation of [0, numWafers)). Per-wafer
     * slots make the result invariant under ANY order - tests
     * permute this to prove the two-phase contract.
     */
    std::vector<std::uint32_t> serialOrder;
};

/** Everything one fleet run produced. */
struct FleetResult
{
    /** Request i -> wafer assignment[i] (phase 1 output; a pure
     *  function of (workload, fleet config)). */
    std::vector<std::uint32_t> assignment;

    /** Per-wafer dispatch state at the end of phase 1. */
    std::vector<std::uint64_t> requestsPerWafer;
    std::vector<std::uint64_t> tokensCommitted;
    std::vector<double> dispatchWeight;

    /** Per-wafer slot results of phase 2 (index = wafer). */
    std::vector<PipelineStats> wafers;

    /** mergeConcurrent fold of `wafers` in ascending wafer order
     *  (fixed association - part of the determinism contract).
     *  fleet.makespanSeconds is the slowest wafer's; fleet
     *  tokens/sec = fleet.outputTokensPerSecond(). */
    PipelineStats fleet;

    /** KV admission attempts summed over the wafers' pools (see
     *  BlockKvManager::admissionProbes and friends). */
    std::uint64_t kvAdmissionProbes = 0;
    std::uint64_t kvProbeFailures = 0;
    std::uint64_t kvProbesSkipped = 0;

    /** Storm resolution (all zero / empty without a storm). */
    std::vector<KvPoolEvent> events;
    std::uint64_t failuresInjected = 0;
    std::uint64_t failuresHandled = 0;
    std::uint64_t failuresSkipped = 0;
    std::uint64_t kvCoresLost = 0;
    std::uint64_t kvCoresAdopted = 0;
    std::uint64_t borrows = 0;

    bool operator==(const FleetResult &) const = default;
};

/**
 * Serve @p workload through a fleet of @p opts.numWafers copies of
 * @p sys behind the deterministic router. Requires dynamic KV (the
 * pool-based serving mode). Pure in (workload, opts): calling twice
 * is bit-identical, whatever the thread count. A bad configuration
 * is a fatal() user error naming the field.
 */
FleetResult runFleetServing(const OuroborosSystem &sys,
                            const Workload &workload,
                            const FleetOptions &opts);

} // namespace ouro

#endif // OURO_SIM_FLEET_HH
