/**
 * @file
 * Resolving a failure storm against the serving region: the one path
 * from a FailureInjector schedule to the KvPoolEvents the pipeline
 * engine replays. Each failure goes through
 * RecoveryService::handleCoreFailure against the placement the engine
 * serves on (representative block, replica 0), and the service's
 * placement change is mirrored into a pool event on the run clock:
 * lost KV cores (the failed core, a replacement chain's absorbed KV
 * core) become dropCore()s, whose residents are storm-evicted and
 * re-prefilled under the Section 4.4.4 admission backpressure;
 * gained cores (cross-block borrows) become adoptCore()s.
 *
 * Serving through a storm is a fleet run (sim/fleet.hh): one wafer,
 * stormWafer = 0, the schedule in FleetOptions::injector. The fleet
 * resolves it here first and hands the events to the wafer's
 * PipelineOptions::stormSchedule.
 *
 * Determinism: resolution is a pure function of (system mapping,
 * injector params, recovery options) - the service is rebuilt from
 * the immutable mapping on every call and the injector is
 * counter-seeded - so a storm run replays bit-identically, stats AND
 * events. A zero-failure schedule resolves to no events, leaving the
 * engine bit-identical to a plain runPipeline over the same pool.
 */

#ifndef OURO_SIM_STORM_RUN_HH
#define OURO_SIM_STORM_RUN_HH

#include <cstdint>
#include <vector>

#include "pipeline/engine.hh"
#include "sim/failure_injector.hh"
#include "sim/system.hh"

namespace ouro
{

/**
 * A counter-seeded failure schedule resolved against the serving
 * region: the mirrored pool events plus the resolution counters. A
 * pure function of (system mapping, injector params, recovery
 * options) - the recovery service is rebuilt from the immutable
 * mapping on every resolution, so resolving twice is bit-identical
 * (events AND counters).
 */
struct ResolvedStorm
{
    /** The mirrored pool schedule (sorted by nondecreasing time;
     *  replay input for determinism checks). */
    std::vector<KvPoolEvent> events;

    std::uint64_t failuresInjected = 0; ///< schedule entries resolved
    std::uint64_t failuresHandled = 0;  ///< service recoveries
    std::uint64_t failuresSkipped = 0;  ///< empty pool / unrecoverable
    std::uint64_t kvCoresLost = 0;      ///< pool cores dropped (once per event)
    std::uint64_t kvCoresAdopted = 0;   ///< adoptCore events issued
    std::uint64_t borrows = 0;          ///< cross-block KV borrows

    bool operator==(const ResolvedStorm &) const = default;
};

/**
 * Resolve @p injector's schedule against @p sys's serving region
 * (representative block, replica 0) through a recovery service
 * rebuilt from the immutable mapping, mirroring every placement
 * change into a KvPoolEvent. The fleet layer (sim/fleet.hh) serves
 * the events and also prices the storm wafer's dispatch weight off
 * the resolved pool delta.
 */
ResolvedStorm
resolveStormSchedule(const OuroborosSystem &sys,
                     const FailureInjectorParams &injector,
                     const RecoveryServiceOptions &recovery = {});

} // namespace ouro

#endif // OURO_SIM_STORM_RUN_HH
