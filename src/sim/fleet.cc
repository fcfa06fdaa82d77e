#include "fleet.hh"

#include <algorithm>
#include <array>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace ouro
{

std::vector<std::uint32_t>
fleetDispatch(const Workload &workload,
              const FleetDispatchConfig &config)
{
    ouroAssert(config.numWafers > 0, "fleetDispatch: zero wafers");
    std::vector<double> weight(config.numWafers, 1.0);
    if (!config.capacityWeight.empty()) {
        ouroAssert(config.capacityWeight.size() == config.numWafers,
                   "fleetDispatch: ", config.capacityWeight.size(),
                   " capacity weights for ", config.numWafers,
                   " wafers");
        weight = config.capacityWeight;
        for (const double w : weight)
            ouroAssert(w > 0.0,
                       "fleetDispatch: capacity weights must be "
                       "positive, got ", w);
    }
    std::vector<std::uint64_t> committed(config.numWafers, 0);
    // The policy's ordering key: outstanding work normalised by
    // capacity, so a half-weight wafer looks twice as loaded. Weight
    // 1.0 divides exactly, so the unweighted policy compares
    // integer-valued doubles.
    auto key = [&](std::uint32_t w) {
        return static_cast<double>(committed[w]) / weight[w];
    };

    std::vector<std::uint32_t> assignment;
    assignment.reserve(workload.requests.size());
    for (const Request &r : workload.requests) {
        // Strict < keeps the lowest-index tie-break: a later wafer
        // replaces the incumbent only when strictly less loaded.
        std::uint32_t best = 0;
        double best_key = key(0);
        for (std::uint32_t w = 1; w < config.numWafers; ++w) {
            const double k = key(w);
            if (k < best_key) {
                best_key = k;
                best = w;
            }
        }
        assignment.push_back(best);
        committed[best] += r.totalTokens();
    }
    return assignment;
}

namespace
{

/**
 * Fraction of the representative-block KV pool the resolved storm
 * leaves standing: |pool after all events| / |pool before|. Pure in
 * (system pools, events). Drives the storm wafer's derated dispatch
 * weight, so the router offers a degraded wafer less work.
 */
double
stormCapacityFraction(const OuroborosSystem &sys,
                      const std::vector<KvPoolEvent> &events)
{
    const WaferGeometry geom = sys.mapping(0).geometry();
    std::unordered_set<std::uint64_t> pool;
    for (const KvCoreInfo &info : sys.scorePool())
        pool.insert(geom.coreIndex(info.coord));
    for (const KvCoreInfo &info : sys.contextPool())
        pool.insert(geom.coreIndex(info.coord));
    const double initial = static_cast<double>(pool.size());
    if (initial == 0.0)
        return 1.0;
    for (const KvPoolEvent &ev : events) {
        for (const CoreCoord &c : ev.dropCores)
            pool.erase(geom.coreIndex(c));
        for (const KvPoolEvent::Adopt &a : ev.adopts)
            pool.insert(geom.coreIndex(a.info.coord));
    }
    return static_cast<double>(pool.size()) / initial;
}

/** Bad configurations are user errors: fatal(), naming the field
 *  and its value, before any phase runs. */
void
checkFleetOptions(const OuroborosSystem &sys, const FleetOptions &opts)
{
    if (opts.numWafers == 0)
        fatal("runFleetServing: FleetOptions::numWafers = 0");
    if (!sys.options().dynamicKv)
        fatal("runFleetServing: OuroborosOptions::dynamicKv = false; "
              "fleet serving needs the dynamic KV pool");
    if (opts.stormWafer != FleetOptions::kNoStormWafer &&
        opts.stormWafer >= opts.numWafers)
        fatal("runFleetServing: FleetOptions::stormWafer = ",
              opts.stormWafer, " with FleetOptions::numWafers = ",
              opts.numWafers);
    if (opts.serialOrder.empty())
        return;
    std::vector<bool> seen(opts.numWafers, false);
    bool permutation = opts.serialOrder.size() == opts.numWafers;
    for (const std::uint32_t w : opts.serialOrder) {
        if (w >= opts.numWafers || seen[w]) {
            permutation = false;
            break;
        }
        seen[w] = true;
    }
    if (!permutation) {
        std::string order;
        for (const std::uint32_t w : opts.serialOrder)
            order += (order.empty() ? "" : ", ") + std::to_string(w);
        fatal("runFleetServing: FleetOptions::serialOrder = {", order,
              "} is not a permutation of [0, ", opts.numWafers, ")");
    }
}

} // namespace

FleetResult
runFleetServing(const OuroborosSystem &sys, const Workload &workload,
                const FleetOptions &opts)
{
    checkFleetOptions(sys, opts);
    const bool has_storm_wafer =
        opts.stormWafer != FleetOptions::kNoStormWafer;
    FleetResult result;

    // Phase 0: resolve the storm schedule (pure in the schedule
    // seed / recovery options; rebuilt per call, so replay is
    // bitwise). Zero failures resolve to an empty schedule, leaving
    // the run bit-identical to the no-storm fleet.
    if (has_storm_wafer && opts.injector.failures > 0) {
        ResolvedStorm resolved = resolveStormSchedule(
                sys, opts.injector, opts.recovery);
        result.events = std::move(resolved.events);
        result.failuresInjected = resolved.failuresInjected;
        result.failuresHandled = resolved.failuresHandled;
        result.failuresSkipped = resolved.failuresSkipped;
        result.kvCoresLost = resolved.kvCoresLost;
        result.kvCoresAdopted = resolved.kvCoresAdopted;
        result.borrows = resolved.borrows;
    }

    // Phase 1: dispatch, decided entirely from the per-wafer
    // committed-work counters in request order - a pure function of
    // (workload, fleet config), never of thread schedule. The storm
    // wafer's weight is derated by the resolved net pool loss.
    FleetDispatchConfig dispatch;
    dispatch.numWafers = opts.numWafers;
    dispatch.capacityWeight.assign(opts.numWafers, 1.0);
    if (!result.events.empty()) {
        dispatch.capacityWeight[opts.stormWafer] =
            std::max(stormCapacityFraction(sys, result.events),
                     FleetOptions::kMinDispatchWeight);
    }
    result.dispatchWeight = dispatch.capacityWeight;
    result.assignment = fleetDispatch(workload, dispatch);
    const std::vector<Workload> shards = splitByAssignment(
            workload, result.assignment, opts.numWafers);
    result.requestsPerWafer.resize(opts.numWafers);
    result.tokensCommitted.resize(opts.numWafers);
    for (std::uint32_t w = 0; w < opts.numWafers; ++w) {
        result.requestsPerWafer[w] = shards[w].requests.size();
        result.tokensCommitted[w] = shards[w].totalTokens();
    }

    // Phase 2: independent per-wafer simulation into per-wafer
    // result slots (the PR 1 sweep contract: no shared accumulators,
    // so parallel == serial bit-identical and the result is
    // invariant under any wafer completion order).
    result.wafers.resize(opts.numWafers);
    std::vector<std::array<std::uint64_t, 3>> probes(opts.numWafers);
    const auto simulate = [&](std::size_t w) {
        BlockKvManager kv = sys.makeKvManager();
        PipelineOptions popts = sys.servingOptions();
        popts.attentionParallelism = opts.attentionParallelism;
        popts.cohortFastPath = opts.cohortFastPath;
        popts.throughputBinSeconds = opts.throughputBinSeconds;
        if (w == opts.stormWafer && !result.events.empty())
            popts.stormSchedule = &result.events;
        result.wafers[w] = runPipeline(shards[w], sys.model(),
                                       sys.stageTiming(), kv, popts);
        probes[w] = {kv.admissionProbes(), kv.probeFailures(),
                     kv.probesSkipped()};
    };
    if (opts.serialExecution) {
        if (opts.serialOrder.empty()) {
            for (std::uint32_t w = 0; w < opts.numWafers; ++w)
                simulate(w);
        } else {
            for (const std::uint32_t w : opts.serialOrder)
                simulate(w);
        }
    } else {
        parallelFor(opts.numWafers, simulate);
    }

    // Fleet totals: fold per-wafer slots in ascending wafer order
    // (one fixed association, so the fold is replay- and thread-
    // count-invariant). N=1 copies wafer 0 verbatim - the collapse
    // oracle's other half.
    result.fleet = result.wafers[0];
    for (std::uint32_t w = 1; w < opts.numWafers; ++w)
        result.fleet.mergeConcurrent(result.wafers[w]);
    for (const auto &[walks, failures, skips] : probes) {
        result.kvAdmissionProbes += walks;
        result.kvProbeFailures += failures;
        result.kvProbesSkipped += skips;
    }
    return result;
}

} // namespace ouro
