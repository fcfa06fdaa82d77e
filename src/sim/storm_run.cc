#include "storm_run.hh"

#include <algorithm>
#include <unordered_set>

namespace ouro
{

namespace
{

/** Coordinates in @p a but not in @p b (order of @p a preserved). */
std::vector<CoreCoord>
coordsMinus(const std::vector<CoreCoord> &a,
            const std::vector<CoreCoord> &b,
            const WaferGeometry &geom)
{
    std::unordered_set<std::uint64_t> in_b;
    in_b.reserve(b.size());
    for (const CoreCoord &c : b)
        in_b.insert(geom.coreIndex(c));
    std::vector<CoreCoord> out;
    for (const CoreCoord &c : a) {
        if (in_b.count(geom.coreIndex(c)) == 0)
            out.push_back(c);
    }
    return out;
}

} // namespace

ResolvedStorm
resolveStormSchedule(const OuroborosSystem &sys,
                     const FailureInjectorParams &injector_params,
                     const RecoveryServiceOptions &recovery)
{
    ResolvedStorm result;

    // Resolve the counter-seeded schedule against the recovery
    // service's evolving serving-region state, mirroring every
    // placement change into a pool event on the run clock. The
    // service is rebuilt from the immutable mapping on every call,
    // so the resolved sequence is a pure function of (schedule seed,
    // options) - the replay-determinism contract.
    const FailureInjector injector(injector_params);
    if (injector.numFailures() > 0) {
        RecoveryService service = sys.makeRecoveryService(0, recovery);
        const WaferGeometry geom = sys.mapping(0).geometry();
        const std::uint64_t block = service.firstBlock();

        for (std::uint64_t k = 0; k < injector.numFailures(); ++k) {
            // Victim selection against the CURRENT placement: the
            // duty coin picks the pool, the pick draw the core.
            // Score-then-context concatenation fixes the KV-duty
            // candidate order.
            std::vector<CoreCoord> candidates;
            {
                const BlockPlacement &p = service.placement(block, 0);
                if (injector.weightDuty(k)) {
                    candidates = p.weightCores;
                } else {
                    candidates = p.scoreCores;
                    candidates.insert(candidates.end(),
                                      p.contextCores.begin(),
                                      p.contextCores.end());
                }
            }
            if (candidates.empty()) {
                ++result.failuresSkipped;
                continue;
            }
            const CoreCoord victim =
                candidates[injector.pick(k, candidates.size())];
            ++result.failuresInjected;

            const std::vector<CoreCoord> score_before =
                service.placement(block, 0).scoreCores;
            const std::vector<CoreCoord> context_before =
                service.placement(block, 0).contextCores;
            const auto outcome = service.handleCoreFailure(victim);
            if (!outcome) {
                ++result.failuresSkipped;
                continue;
            }
            ++result.failuresHandled;
            result.borrows += outcome->borrows.size();

            // Mirror the region's KV delta into a pool event. Lost
            // KV-duty cores (the failed KV core, a replacement
            // chain's absorbed KV core) shrink the pool; the failed
            // core itself is always dropped too, once - a dead weight
            // core takes its spare KV crossbars with it (dropCore is
            // a no-op for coordinates the pool never held). Gained
            // cores (cross-block borrows) are adopted with the
            // dedicated-KV-core shape and the duty they kept across
            // the graft.
            const BlockPlacement &after =
                service.placement(block, 0);
            KvPoolEvent ev;
            ev.time = injector.failureTime(k);
            for (const CoreCoord &c : coordsMinus(
                         score_before, after.scoreCores, geom))
                ev.dropCores.push_back(c);
            for (const CoreCoord &c : coordsMinus(
                         context_before, after.contextCores, geom))
                ev.dropCores.push_back(c);
            if (std::find(ev.dropCores.begin(), ev.dropCores.end(),
                          victim) == ev.dropCores.end())
                ev.dropCores.push_back(victim);

            const CoreParams &core = sys.params().core;
            for (const CoreCoord &c : coordsMinus(
                         after.scoreCores, score_before, geom)) {
                ev.adopts.push_back(
                        {{c, core.numCrossbars,
                          core.crossbar.logicalBlocks},
                         true});
            }
            for (const CoreCoord &c : coordsMinus(
                         after.contextCores, context_before, geom)) {
                ev.adopts.push_back(
                        {{c, core.numCrossbars,
                          core.crossbar.logicalBlocks},
                         false});
            }
            result.kvCoresLost += ev.dropCores.size();
            result.kvCoresAdopted += ev.adopts.size();
            result.events.push_back(std::move(ev));
        }
    }
    return result;
}

} // namespace ouro
