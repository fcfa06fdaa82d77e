/**
 * @file
 * Fault-tolerance sweep + failure-storm harness (paper Section
 * 4.3.3): N random core failures over a mapped LLaMA-13B wafer,
 * recovered with the replacement-chain remapper, across several
 * defect-map sweep points - and a whole-wafer failure storm driven
 * through the wafer-level RecoveryService.
 *
 * Sweep section: every sweep point owns its mesh (with its own route
 * cache) and mutable placements. The points fan out on parallelFor
 * with per-point meshes and result slots (the PR 1 sweep contract),
 * and the parallel sweep is asserted bit-identical to the serial loop
 * on every run: every RemapResult (moves, absorbed cores, latency
 * bits) and every post-recovery inter-block price - the bottleneck
 * time and the effective byte-hop volume. The volume differs between
 * points (asserted), so the comparison can see a recovery or a
 * detour that went astray; the bottleneck link alone reads the same
 * at every point.
 *
 * Storm section: a replicated mapping's replica-0/1 chains take a
 * whole-wafer failure sequence through RecoveryService - KV pools
 * drained dry, weight failures forcing deterministic cross-block KV
 * borrows. The service is asserted bit-identical to direct
 * per-placement recoverCoreFailure calls over mirror placements for
 * the whole no-borrow prefix. The recorded schedule is then replayed
 * through a fresh service (recoveries asserted bit-identical); the
 * inter-block edges its weight moves touched are sorted, deduped and
 * priced once with priceEdges(), and that total is asserted
 * bit-identical on every run to the per-link TrafficAccumulator
 * oracle over the same edges on a fresh mesh.
 * BENCH_fault_tolerance.json records the sweep volume range, storm
 * recoveries/sec, the borrow rate and storm_reprice_volume.
 *
 * Pass a count as argv[1] to scale the per-sweep-point failure
 * injections (default 100).
 */

#include "bench_util.hh"

#include "common/parallel.hh"
#include "common/rng.hh"
#include "hw/yield.hh"
#include "mapping/remap.hh"
#include "mapping/wafer_mapping.hh"
#include "noc/mesh.hh"
#include "oracles/traffic.hh"
#include "runtime/recovery_service.hh"

using namespace ouro;
using namespace ouro::bench;

namespace
{

constexpr std::size_t kSweepPoints = 6;

/** One sweep point's mutable recovery state. */
struct SweepState
{
    std::vector<BlockPlacement> blocks;

    explicit SweepState(const WaferMapping &mapping)
    {
        for (std::uint64_t b = 0; b < mapping.numBlocks(); ++b)
            blocks.push_back(mapping.placement(b));
    }
};

/** The failure schedule is derived from the placements' current
 *  state, which both paths mutate identically - so resolving a pick
 *  against either path's state yields the same core. */
CoreCoord
resolveFailure(const BlockPlacement &p, std::size_t pick)
{
    if (pick < p.weightCores.size())
        return p.weightCores[pick];
    pick -= p.weightCores.size();
    if (pick < p.scoreCores.size())
        return p.scoreCores[pick];
    return p.contextCores[pick - p.scoreCores.size()];
}

std::size_t
aliveCores(const BlockPlacement &p)
{
    return p.weightCores.size() + p.scoreCores.size() +
           p.contextCores.size();
}

/** One sweep point's post-recovery inter-block price. */
struct InterBlockPrice
{
    /** Bottleneck-link time. */
    double bottleneck = 0.0;
    /** Effective byte-hop volume (die crossings weighted). */
    double volume = 0.0;
};

/**
 * Re-price the wafer's steady-state inter-block activation traffic
 * over the (post-recovery) placements on one sweep point's mesh -
 * the long-haul flows a defect sweep re-evaluates per point. Loads
 * the forEachInterBlockFlow flows WaferMapping::build prices onto the
 * per-link TrafficAccumulator oracle, so the bench can never drift
 * from the product flow model.
 */
InterBlockPrice
interBlockTraffic(const std::vector<BlockPlacement> &blocks,
                  const std::vector<LayerSpec> &specs,
                  std::uint32_t tiles_per_block, const MeshNoc &noc)
{
    TrafficAccumulator traffic(noc);
    for (std::size_t b = 0; b + 1 < blocks.size(); ++b) {
        const bool routable = accumulateInterBlockFlows(
                specs, tiles_per_block, blocks[b].weightCores,
                blocks[b + 1].weightCores, traffic);
        ouroAssert(routable, "fault_tolerance: sweep defect map "
                             "fenced an inter-block flow");
    }
    return {traffic.bottleneckSeconds(),
            traffic.totalEffectiveByteHops()};
}

/** One sweep point's full result (per-index slot of the parallel
 *  fan-out). */
struct PointResult
{
    std::uint64_t recoveries = 0;
    std::vector<RemapResult> results;
    /** Post-recovery inter-block price of this point. */
    InterBlockPrice traffic;
};

struct PathResult
{
    double seconds = 0.0;
    std::vector<PointResult> points;

    std::uint64_t recoveries() const
    {
        std::uint64_t n = 0;
        for (const auto &p : points)
            n += p.recoveries;
        return n;
    }
};

bool
sameResult(const RemapResult &a, const RemapResult &b)
{
    return a.moves == b.moves &&
           a.absorbedKvCore == b.absorbedKvCore &&
           a.movedBytes == b.movedBytes &&
           a.latencySeconds == b.latencySeconds &&
           a.chainLength == b.chainLength;
}

/**
 * Run ONE defect-map sweep point: its own mesh and mutable state
 * (per-index slots only - the parallel contract), recoveries plus
 * the post-recovery traffic re-pricing.
 */
PointResult
runPoint(std::size_t point, const WaferMapping &mapping,
         const WaferGeometry &geom, std::size_t injections)
{
    const Bytes tile_bytes = CoreParams{}.sramBytes();
    PointResult out;
    // Per-point defect map: routes detour differently at every sweep
    // point.
    YieldParams yield;
    Rng defect_rng(1000 + point);
    const DefectMap defects(geom, yield, defect_rng);
    const MeshNoc noc(geom, NocParams{}, &defects);

    SweepState state(mapping);
    Rng rng(77 + point);
    for (std::size_t k = 0; k < injections; ++k) {
        const std::size_t b = static_cast<std::size_t>(
                rng.uniformInt(0, state.blocks.size() - 1));
        BlockPlacement &placement = state.blocks[b];
        const std::size_t alive = aliveCores(placement);
        if (alive == 0)
            continue;
        const std::size_t pick = static_cast<std::size_t>(
                rng.uniformInt(0, alive - 1));
        const CoreCoord failed = resolveFailure(placement, pick);
        const auto result = recoverCoreFailure(
                placement, failed, noc, tile_bytes);
        if (!result)
            continue; // chain exhausted this block's KV pool
        ++out.recoveries;
        out.results.push_back(*result);
    }
    // With the failures absorbed, re-price the wafer's inter-block
    // traffic under this point's defect map - the long-haul route
    // workload a sweep repeats per point.
    out.traffic = interBlockTraffic(state.blocks, mapping.layerSpecs(),
                                    mapping.tilesPerBlock(), noc);
    return out;
}

/** Run all sweep points, serially or fanned out on parallelFor. */
PathResult
runSweep(const WaferMapping &mapping, const WaferGeometry &geom,
         std::size_t injections, bool parallel)
{
    PathResult out;
    out.points.resize(kSweepPoints);
    const WallTimer timer;
    if (parallel) {
        parallelFor(kSweepPoints, [&](std::size_t i) {
            out.points[i] = runPoint(i, mapping, geom, injections);
        });
    } else {
        for (std::size_t i = 0; i < kSweepPoints; ++i)
            out.points[i] = runPoint(i, mapping, geom, injections);
    }
    out.seconds = timer.seconds();
    return out;
}

void
assertSweepsIdentical(const PathResult &a, const PathResult &b,
                      const char *what)
{
    ouroAssert(a.points.size() == b.points.size(),
               "fault_tolerance: ", what, ": point count differs");
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const PointResult &pa = a.points[i];
        const PointResult &pb = b.points[i];
        ouroAssert(pa.recoveries == pb.recoveries &&
                           pa.results.size() == pb.results.size(),
                   "fault_tolerance: ", what,
                   ": recovery counts differ at point ", i);
        for (std::size_t k = 0; k < pa.results.size(); ++k) {
            ouroAssert(sameResult(pa.results[k], pb.results[k]),
                       "fault_tolerance: ", what,
                       ": recovery diverged at point ", i,
                       " failure ", k);
        }
        ouroAssert(pa.traffic.bottleneck == pb.traffic.bottleneck &&
                           pa.traffic.volume == pb.traffic.volume,
                   "fault_tolerance: ", what,
                   ": traffic re-pricing diverged at point ", i);
    }
}

/** What the failure storm measures and asserts. */
struct StormResult
{
    double seconds = 0.0;
    std::uint64_t failures = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t borrows = 0;

    /** Effective byte-hops of the storm's distinct touched edges,
     *  priced once on the replay's service (oracle-checked). */
    double repriceVolume = 0.0;
};

/**
 * Whole-wafer failure storm through the RecoveryService: for each
 * replica chain, drain block 0's dedicated KV pool dry, then keep
 * failing block 0's weight cores so every further recovery must
 * borrow KV capacity from adjacent blocks.
 *
 * Asserts, on every run, that direct per-placement
 * recoverCoreFailure calls (mirror state, cold mesh) reproduce the
 * service bit for bit across the whole no-borrow prefix of the storm,
 * and that the replay's storm price matches the per-link oracle.
 */
StormResult
runStorm(const WaferGeometry &geom, std::size_t weight_failures)
{
    const ModelConfig model = bertLarge();
    WaferMappingOptions mopts;
    mopts.mapper = MapperKind::Greedy;
    mopts.replicas = 2;
    const auto mapping = WaferMapping::build(
            model, CoreParams{}, geom, nullptr, 0, model.numBlocks,
            mopts);
    ouroAssert(mapping.has_value(),
               "fault_tolerance: storm mapping failed");
    const Bytes tile_bytes = CoreParams{}.sramBytes();

    RecoveryService service(*mapping, NocParams{}, tile_bytes,
                            nullptr);

    // Mirror oracle state: raw per-placement recoveries on a cold
    // mesh. It can follow the service exactly until the first borrow
    // (the oracle has no cross-block capacity to draw on).
    const MeshNoc cold(geom, NocParams{});
    std::vector<BlockPlacement> mirror;
    for (std::uint32_t rep = 0; rep < mapping->numReplicas(); ++rep) {
        for (std::uint64_t b = 0; b < mapping->numBlocks(); ++b)
            mirror.push_back(mapping->placement(b, rep));
    }

    // The schedule: per replica, every KV core of block 0 (drain),
    // then weight_failures failures cycling block 0's tiles (each
    // one borrows). Coordinates are resolved against the service's
    // state as the storm progresses and recorded, so the oracle and
    // the re-pricing replay see the identical sequence.
    StormResult out;
    std::vector<CoreCoord> schedule;
    std::vector<RemapResult> remaps;
    std::uint64_t oracle_matched = 0;
    bool oracle_live = true;
    const WallTimer timer;
    for (std::uint32_t rep = 0; rep < mapping->numReplicas(); ++rep) {
        const auto score = service.placement(0, rep).scoreCores;
        const auto context = service.placement(0, rep).contextCores;
        std::vector<CoreCoord> coords;
        for (const auto *pool : {&score, &context})
            coords.insert(coords.end(), pool->begin(), pool->end());
        // Drain phase (the snapshot above), then weight failures
        // resolved lazily against the evolving placement (tiles
        // move as chains shift).
        const std::size_t drain = coords.size();
        for (std::size_t k = 0; k < drain + weight_failures; ++k) {
            const CoreCoord failed =
                k < drain ? coords[k]
                          : service.placement(0, rep).weightCores
                                    [k % mapping->tilesPerBlock()];
            schedule.push_back(failed);
            const auto got = service.handleCoreFailure(failed);
            ouroAssert(got.has_value(),
                       "fault_tolerance: storm recovery failed at ",
                       schedule.size() - 1);
            remaps.push_back(got->remap);
            ++out.failures;
            ++out.recoveries;
            out.borrows += got->borrows.size();
            if (oracle_live && !got->borrows.empty())
                oracle_live = false; // placements diverge from here
            if (oracle_live) {
                BlockPlacement &p =
                    mirror[rep * mapping->numBlocks() + 0];
                const auto want = recoverCoreFailure(
                        p, failed, cold, tile_bytes);
                ouroAssert(want.has_value() &&
                                   sameResult(got->remap, *want),
                           "fault_tolerance: service diverged from "
                           "the per-placement oracle at storm "
                           "failure ", schedule.size() - 1);
                ++oracle_matched;
            }
        }
    }
    out.seconds = timer.seconds();
    ouroAssert(out.borrows > 0,
               "fault_tolerance: storm never triggered a KV borrow");
    ouroAssert(oracle_matched > 0,
               "fault_tolerance: storm never exercised the oracle");

    // Re-pricing replay: the recorded schedule through a fresh
    // service. Recoveries must be bit-identical, and one priceEdges()
    // over the sorted, deduped touched edges must price them to the
    // exact total of the per-link oracle on a fresh mesh.
    RecoveryService replay(*mapping, NocParams{}, tile_bytes, nullptr);
    std::vector<InterBlockEdge> touched;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const auto got = replay.handleCoreFailure(schedule[i]);
        ouroAssert(got.has_value() && sameResult(got->remap, remaps[i]),
                   "fault_tolerance: re-pricing replay diverged at ", i);
        const auto edges = replay.touchedEdges(*got);
        touched.insert(touched.end(), edges.begin(), edges.end());
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    const RepriceResult priced = replay.priceEdges(touched);

    const MeshNoc fresh(geom, NocParams{});
    TrafficAccumulator traffic(fresh);
    bool routable = true;
    for (const auto &[rep, block] : touched) {
        routable = accumulateInterBlockFlows(
                           mapping->layerSpecs(),
                           mapping->tilesPerBlock(),
                           replay.placement(block, rep).weightCores,
                           replay.placement(block + 1, rep).weightCores,
                           traffic) &&
                   routable;
    }
    ouroAssert(!touched.empty() && priced.flowsRoutable && routable &&
                       priced.interBlockByteHops ==
                               traffic.totalEffectiveByteHops(),
               "fault_tolerance: storm re-pricing diverged from the "
               "per-link oracle over the same touched edges");
    out.repriceVolume = priced.interBlockByteHops;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const std::size_t injections = requestCount(argc, argv, 100);

    std::cout << "=== Fault-tolerance sweep: " << kSweepPoints
              << " defect maps x " << injections
              << " random core failures ===\n";

    const WaferGeometry geom;
    const ModelConfig model = llama13b();
    WaferMappingOptions opts;
    opts.mapper = MapperKind::Greedy;
    const auto mapping = WaferMapping::build(
            model, CoreParams{}, geom, nullptr, 0, model.numBlocks,
            opts);
    ouroAssert(mapping.has_value(), "fault_tolerance: mapping failed");

    // Sweep points fanned out on parallelFor (per-point meshes and
    // result slots). The serial loop runs too and the two must be
    // bit-identical - the sweep-runtime contract.
    const PathResult serial =
        runSweep(*mapping, geom, injections, false);
    const PathResult parallel =
        runSweep(*mapping, geom, injections, true);
    assertSweepsIdentical(serial, parallel,
                          "parallel sweep vs serial");
    // The volume comparison can only catch a divergence if the
    // points' volumes differ at all.
    double volume_min = serial.points.front().traffic.volume;
    double volume_max = volume_min;
    for (const PointResult &p : serial.points) {
        volume_min = std::min(volume_min, p.traffic.volume);
        volume_max = std::max(volume_max, p.traffic.volume);
    }
    ouroAssert(volume_min < volume_max,
               "fault_tolerance: every sweep point priced the same "
               "inter-block volume - the sweep comparison is blind");

    const double serial_rate =
        static_cast<double>(serial.recoveries()) / serial.seconds;
    const double parallel_speedup = serial.seconds / parallel.seconds;

    Table table_out({"path", "recoveries", "wall [ms]",
                     "recoveries/sec"});
    table_out.row()
        .cell("serial")
        .cell(serial.recoveries())
        .cell(serial.seconds * 1e3, 1)
        .cell(serial_rate, 0);
    table_out.row()
        .cell("parallel")
        .cell(parallel.recoveries())
        .cell(parallel.seconds * 1e3, 1)
        .cell(static_cast<double>(parallel.recoveries()) /
                      parallel.seconds, 0);
    table_out.print(std::cout);
    std::cout << "\nParallel sweep bit-identical to serial ("
              << formatDouble(parallel_speedup, 2) << "x, "
              << defaultThreadCount()
              << " threads); post-recovery inter-block volume "
              << formatDouble(volume_min, 0) << " .. "
              << formatDouble(volume_max, 0) << " byte-hops.\n";

    // Failure storm through the wafer-level RecoveryService (oracle
    // prefix bit-identity asserted inside). At least two weight
    // failures per chain, so the touched edges repeat and the dedup
    // before the one pricing call has duplicates to remove.
    const StormResult storm =
        runStorm(geom, std::max<std::size_t>(2, injections / 2 + 1));
    const double storm_rate =
        static_cast<double>(storm.recoveries) / storm.seconds;
    const double borrow_rate =
        static_cast<double>(storm.borrows) /
        static_cast<double>(storm.recoveries);
    std::cout << "\nFailure storm (RecoveryService, replicated "
                 "BERT-large chains):\n  "
              << storm.failures << " failures, " << storm.recoveries
              << " recoveries, " << storm.borrows
              << " cross-block KV borrows (borrow rate "
              << formatDouble(borrow_rate * 100.0, 1)
              << "%)\n  recoveries/sec: "
              << formatDouble(storm_rate, 0)
              << "; service bit-identical to the per-placement "
                 "oracle until the first borrow.\n";

    std::cout << "  re-pricing replay: the storm's distinct touched "
                 "edges priced once at "
              << formatDouble(storm.repriceVolume, 0)
              << " effective byte-hops, bit-identical to the "
                 "per-link oracle.\n";

    BenchReport("fault_tolerance")
        .metric("wall_seconds", serial.seconds)
        .metric("events_per_sec", serial_rate)
        .metric("recoveries", serial.recoveries())
        .metric("recoveries_per_sec", serial_rate)
        .metric("sweep_points", std::uint64_t{kSweepPoints})
        .metric("failures_injected",
                std::uint64_t{kSweepPoints} * injections)
        .metric("sweep_parallel_seconds", parallel.seconds)
        .metric("sweep_parallel_speedup", parallel_speedup)
        .metric("sweep_volume_min", volume_min)
        .metric("sweep_volume_max", volume_max)
        .metric("storm_failures", storm.failures)
        .metric("storm_recoveries", storm.recoveries)
        .metric("storm_borrows", storm.borrows)
        .metric("borrow_rate", borrow_rate)
        .metric("storm_recoveries_per_sec", storm_rate)
        .metric("storm_reprice_volume", storm.repriceVolume)
        .write();
    return 0;
}
