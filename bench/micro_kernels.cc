/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot kernels:
 * NoC routing (clean, faulted and cached), KV admission/growth, the
 * MIQP objective / moveDelta / swapDelta on both the sparse
 * flow-graph engine and the dense reference (oracles/mapping.hh), the
 * wafer-level recovery service's failure handling and dry-pool KV
 * borrowing, the
 * LLaMA-13B system build, its inter-block volume pricing (per-link
 * oracle vs volume walk) and the one breadth-first route it needs,
 * storm-schedule resolution on the LLaMA-13B
 * system, day-trace window materialization, the sampled-window
 * simulator, one KV-thrashing and one all-resident pipeline run, and
 * the RNG. These guard the
 * simulator's own performance (the figure harnesses run millions of
 * these calls).
 */

#include <benchmark/benchmark.h>

#include "common/logging.hh"

#include "common/rng.hh"
#include "hw/yield.hh"
#include "kvcache/manager.hh"
#include "mapping/mappers.hh"
#include "mapping/problem.hh"
#include "mapping/wafer_mapping.hh"
#include "model/llm.hh"
#include "noc/mesh.hh"
#include "oracles/mapping.hh"
#include "oracles/traffic.hh"
#include "pipeline/engine.hh"
#include "runtime/recovery_service.hh"
#include "sim/fleet.hh"
#include "sim/sampled_run.hh"
#include "sim/storm_run.hh"
#include "sim/system.hh"
#include "workload/trace.hh"

namespace
{

using namespace ouro;

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_MeshRouteClean(benchmark::State &state)
{
    // One route computation on a clean wafer (an XY route of
    // 2 x Arg hops and its cache entry): the cache is flushed every
    // iteration, so every lookup misses. Production pricing walks a
    // clean route in place and never pays this; the oracles and the
    // first lookup of a searched flow do.
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    const CoreCoord dst{static_cast<std::uint32_t>(state.range(0)),
                        static_cast<std::uint32_t>(state.range(0))};
    for (auto _ : state) {
        noc.invalidateRoutes();
        benchmark::DoNotOptimize(&noc.routeCached({0, 0}, dst));
    }
}
BENCHMARK(BM_MeshRouteClean)->Arg(8)->Arg(32)->Arg(100);

void
BM_MeshRouteFaulted(benchmark::State &state)
{
    // The same cache miss on a wafer with a random yield-model
    // defect map, where the route detours around defective cores.
    const WaferGeometry geom;
    Rng rng(3);
    const YieldParams yield;
    const DefectMap random_defects(geom, yield, rng);
    const MeshNoc noc(geom, NocParams{}, &random_defects);
    for (auto _ : state) {
        noc.invalidateRoutes();
        benchmark::DoNotOptimize(&noc.routeCached({0, 0}, {100, 100}));
    }
}
BENCHMARK(BM_MeshRouteFaulted);

void
BM_MeshRouteCached(benchmark::State &state)
{
    // Repeated (src, dst) lookups hit the route cache after the first
    // computation - what a searched flow's transferSeconds or
    // addRouteVolume pays on every later call.
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    for (auto _ : state)
        benchmark::DoNotOptimize(noc.routeCached({0, 0}, {100, 100}));
}
BENCHMARK(BM_MeshRouteCached);

/** Shared fixture for the MIQP cost-engine benchmarks. */
struct MiqpFixture
{
    WaferGeometry geom;
    std::vector<CoreCoord> region;
    MappingProblem problem;
    Assignment assignment;

    MiqpFixture()
        : region([this] {
              const auto order = geom.sShapedOrder();
              return std::vector<CoreCoord>(order.begin(),
                                            order.begin() + 128);
          }()),
          problem(llama13b(), CoreParams{}, geom, region),
          assignment(GreedyMapper{}.solve(problem))
    {
    }
};

void
BM_MiqpObjective(benchmark::State &state)
{
    const MiqpFixture fx;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
                fx.problem.assignmentCost(fx.assignment));
    }
}
BENCHMARK(BM_MiqpObjective);

void
BM_MiqpObjectiveDense(benchmark::State &state)
{
    const MiqpFixture fx;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
                assignmentCostDense(fx.problem, fx.assignment));
    }
}
BENCHMARK(BM_MiqpObjectiveDense);

void
BM_MoveDeltaSparse(benchmark::State &state)
{
    const MiqpFixture fx;
    std::size_t t = 0;
    for (auto _ : state) {
        t = (t + 1) % fx.problem.tiles().size();
        benchmark::DoNotOptimize(fx.problem.moveDelta(
                fx.assignment, t,
                static_cast<std::uint32_t>(fx.region.size() - 1)));
    }
}
BENCHMARK(BM_MoveDeltaSparse);

void
BM_MoveDeltaDense(benchmark::State &state)
{
    const MiqpFixture fx;
    std::size_t t = 0;
    for (auto _ : state) {
        t = (t + 1) % fx.problem.tiles().size();
        benchmark::DoNotOptimize(moveDeltaDense(
                fx.problem, fx.assignment, t,
                static_cast<std::uint32_t>(fx.region.size() - 1)));
    }
}
BENCHMARK(BM_MoveDeltaDense);

void
BM_SwapDeltaSparse(benchmark::State &state)
{
    const MiqpFixture fx;
    std::size_t t = 0;
    const std::size_t n = fx.problem.tiles().size();
    for (auto _ : state) {
        t = (t + 1) % (n - 1);
        benchmark::DoNotOptimize(
                fx.problem.swapDelta(fx.assignment, t, t + 1));
    }
}
BENCHMARK(BM_SwapDeltaSparse);

void
BM_SwapDeltaDense(benchmark::State &state)
{
    const MiqpFixture fx;
    std::size_t t = 0;
    const std::size_t n = fx.problem.tiles().size();
    for (auto _ : state) {
        t = (t + 1) % (n - 1);
        benchmark::DoNotOptimize(
                swapDeltaDense(fx.problem, fx.assignment, t, t + 1));
    }
}
BENCHMARK(BM_SwapDeltaDense);

void
BM_KvAdmitRelease(benchmark::State &state)
{
    const ModelConfig cfg = llama13b();
    std::vector<KvCoreInfo> score, context;
    for (std::uint32_t i = 0; i < 64; ++i) {
        score.push_back({{0, i}, 32, 8});
        context.push_back({{1, i}, 32, 8});
    }
    BlockKvManager mgr(cfg, score, context);
    // One key, cycled: the pool keeps a slot per key ever admitted.
    for (auto _ : state) {
        if (!mgr.admit(0, 512)) {
            state.SkipWithError("the empty pool refused an admission");
            break;
        }
        mgr.release(0);
    }
}
BENCHMARK(BM_KvAdmitRelease);

void
BM_KvGrow(benchmark::State &state)
{
    const ModelConfig cfg = llama13b();
    std::vector<KvCoreInfo> score, context;
    for (std::uint32_t i = 0; i < 64; ++i) {
        score.push_back({{0, i}, 32, 8});
        context.push_back({{1, i}, 32, 8});
    }
    BlockKvManager mgr(cfg, score, context);
    mgr.admit(1, 1);
    std::uint64_t grown = 0;
    for (auto _ : state) {
        if (!mgr.grow(1).ok || ++grown > 100000) {
            mgr.release(1);
            mgr.admit(1, 1);
            grown = 0;
        }
    }
}
BENCHMARK(BM_KvGrow);

void
BM_KvAdmitBlocked(benchmark::State &state)
{
    // An admission the full pool cannot take - what the engine retries
    // after every event while its queue head waits. Arg(0) walks the
    // rings each time: a one-token resident is released and re-admitted
    // untimed first, which moves the capacity epoch. Arg(1) is the
    // retry at an unchanged epoch, answered without a walk.
    const bool same_epoch = state.range(0) == 1;
    const ModelConfig cfg = llama13b();
    std::vector<KvCoreInfo> score, context;
    for (std::uint32_t i = 0; i < 64; ++i) {
        score.push_back({{0, i}, 32, 8});
        context.push_back({{1, i}, 32, 8});
    }
    BlockKvManager mgr(cfg, score, context);
    // Fill with 512-token sequences, then top up with one-token ones:
    // a released one-token resident always fits again.
    std::uint32_t key = 0;
    while (mgr.admit(key, 512))
        ++key;
    const std::uint32_t blocked = key++;
    while (mgr.admit(key, 1))
        ++key;
    const std::uint32_t tiny = key - 1;
    for (auto _ : state) {
        if (!same_epoch) {
            state.PauseTiming();
            mgr.release(tiny);
            const bool refit = mgr.admit(tiny, 1);
            state.ResumeTiming();
            if (!refit) {
                state.SkipWithError("the one-token resident did not refit");
                break;
            }
        }
        if (mgr.admit(blocked, 512)) {
            state.SkipWithError("the blocked admission fit");
            break;
        }
    }
    state.counters["walks"] = static_cast<double>(mgr.admissionProbes());
    state.counters["skips"] = static_cast<double>(mgr.probesSkipped());
}
BENCHMARK(BM_KvAdmitBlocked)->Arg(0)->Arg(1);

void
BM_MidRunPoolShrink(benchmark::State &state)
{
    // Mid-run KV pool shrink (the PR 9 storm-eviction path). Arg(1)
    // is the in-place dropCore fast path: release the residents on
    // the dead core, fence it, leave everyone else resident.
    // Arg(0) is the rebuild oracle: scan every resident's head
    // placements for the dead coordinate, construct a fresh manager
    // over the surviving cores and re-admit every survivor - the
    // cost a serving engine would pay without mid-run pool mutation.
    // Arg(2) drops a core that holds no heads (a grafted, still
    // empty one): dropCore fences it without scanning a slot.
    const bool fast = state.range(0) >= 1;
    const bool empty_core = state.range(0) == 2;
    const ModelConfig cfg = llama13b();
    const CoreCoord dead = empty_core ? CoreCoord{2, 0} : CoreCoord{0, 0};
    auto make_pools = [] {
        std::pair<std::vector<KvCoreInfo>, std::vector<KvCoreInfo>>
                p;
        for (std::uint32_t i = 0; i < 64; ++i) {
            p.first.push_back({{0, i}, 32, 8});
            p.second.push_back({{1, i}, 32, 8});
        }
        return p;
    };
    constexpr std::uint32_t kResidents = 64;
    const auto heads = static_cast<std::uint32_t>(cfg.numKvHeads);
    std::uint64_t shrinks = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto [score, context] = make_pools();
        BlockKvManager mgr(cfg, score, context);
        for (std::uint32_t key = 0; key < kResidents; ++key)
            mgr.admit(key, 256);
        if (empty_core)
            mgr.adoptCore({dead, 32, 8}, true);
        state.ResumeTiming();
        if (fast) {
            benchmark::DoNotOptimize(mgr.dropCore(dead));
        } else {
            std::vector<std::uint32_t> survivors;
            for (std::uint32_t key = 0; key < kResidents; ++key) {
                if (!mgr.resident(key))
                    continue;
                bool hit = false;
                for (std::uint32_t h = 0; h < heads && !hit; ++h) {
                    const auto hp = mgr.headPlacement(key, h);
                    hit = mgr.scoreCoord(hp.scoreCore) == dead ||
                          mgr.contextCoord(hp.contextCore) == dead;
                }
                if (!hit)
                    survivors.push_back(key);
            }
            auto [s2, c2] = make_pools();
            s2.erase(s2.begin()); // {0,0} is score ring slot 0
            BlockKvManager rebuilt(cfg, s2, c2);
            bool refit = true;
            for (const auto key : survivors)
                refit &= rebuilt.admit(key, 256);
            if (!refit) {
                state.SkipWithError("a survivor did not refit");
                break;
            }
            benchmark::DoNotOptimize(rebuilt.numResident());
        }
        ++shrinks;
    }
    state.SetItemsProcessed(shrinks);
}
BENCHMARK(BM_MidRunPoolShrink)->Arg(0)->Arg(1)->Arg(2);

/** Shared fixture for the wafer-level recovery-service kernels: a
 *  small wafer keeps per-iteration service rebuilds cheap while the
 *  handled failures still exercise the full path (ownership lookup,
 *  chain construction, inter-block re-pricing). */
struct RecoveryFixture
{
    WaferGeometry geom{2, 2, 8, 8};
    ModelConfig model;
    std::optional<WaferMapping> mapping;

    RecoveryFixture()
    {
        model.name = "tiny";
        model.numBlocks = 2;
        model.hiddenDim = 1024;
        model.numHeads = 8;
        model.numKvHeads = 8;
        model.headDim = 128;
        model.ffnDim = 4096;
        model.ffnMatrices = 2;
        model.vocabSize = 1000;
        model.bytesPerParam = 1;
        model.maxContext = 2048;
        WaferMappingOptions opts;
        opts.mapper = MapperKind::Greedy;
        mapping = WaferMapping::build(model, CoreParams{}, geom,
                                      nullptr, 0, model.numBlocks,
                                      opts);
    }
};

void
BM_RecoveryServiceFailure(benchmark::State &state)
{
    // The service's hot path: handleCoreFailure on a weight core -
    // ownership lookup, replacement-chain construction, placement
    // mutation, inter-block flow re-pricing over the cached mesh.
    const RecoveryFixture fix;
    const Bytes tile_bytes = CoreParams{}.sramBytes();
    constexpr int kFailures = 16;
    for (auto _ : state) {
        state.PauseTiming();
        RecoveryService service(*fix.mapping, NocParams{},
                                tile_bytes, nullptr);
        const std::uint32_t tiles = fix.mapping->tilesPerBlock();
        state.ResumeTiming();
        for (int k = 0; k < kFailures; ++k) {
            benchmark::DoNotOptimize(service.handleCoreFailure(
                    service.placement(0).weightCores[
                            static_cast<std::size_t>(k) % tiles]));
        }
    }
    state.SetItemsProcessed(state.iterations() * kFailures);
}
BENCHMARK(BM_RecoveryServiceFailure);

void
BM_KvBorrow(benchmark::State &state)
{
    // The dry-pool path: every failure finds block 0's KV pool
    // empty, borrows the nearest adjacent-block KV core and
    // completes the chain into it.
    const RecoveryFixture fix;
    const Bytes tile_bytes = CoreParams{}.sramBytes();
    constexpr int kBorrows = 8;
    for (auto _ : state) {
        state.PauseTiming();
        RecoveryService service(*fix.mapping, NocParams{},
                                tile_bytes, nullptr);
        // Drain block 0's pool so every timed failure must borrow.
        while (!service.placement(0).scoreCores.empty() ||
               !service.placement(0).contextCores.empty()) {
            const auto &p = service.placement(0);
            service.handleCoreFailure(p.scoreCores.empty()
                                              ? p.contextCores.front()
                                              : p.scoreCores.front());
        }
        const std::uint32_t tiles = fix.mapping->tilesPerBlock();
        state.ResumeTiming();
        for (int k = 0; k < kBorrows; ++k) {
            benchmark::DoNotOptimize(service.handleCoreFailure(
                    service.placement(0).weightCores[
                            static_cast<std::size_t>(k) % tiles]));
        }
    }
    state.SetItemsProcessed(state.iterations() * kBorrows);
}
BENCHMARK(BM_KvBorrow);

void
BM_StormReprice(benchmark::State &state)
{
    // A weight-core failure storm across both blocks, then one
    // priceEdges() over the sorted, deduped touched edges.
    const RecoveryFixture fix;
    const Bytes tile_bytes = CoreParams{}.sramBytes();
    constexpr int kFailures = 16;
    for (auto _ : state) {
        state.PauseTiming();
        RecoveryService service(*fix.mapping, NocParams{},
                                tile_bytes, nullptr);
        const std::uint32_t tiles = fix.mapping->tilesPerBlock();
        std::vector<InterBlockEdge> touched;
        state.ResumeTiming();
        for (int k = 0; k < kFailures; ++k) {
            const std::uint64_t block =
                static_cast<std::uint64_t>(k) % 2;
            const auto got = service.handleCoreFailure(
                    service.placement(block).weightCores[
                            static_cast<std::size_t>(k / 2) %
                            tiles]);
            if (got) {
                const auto edges = service.touchedEdges(*got);
                touched.insert(touched.end(), edges.begin(),
                               edges.end());
            }
        }
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
        benchmark::DoNotOptimize(service.priceEdges(touched));
    }
    state.SetItemsProcessed(state.iterations() * kFailures);
}
BENCHMARK(BM_StormReprice);

void
BM_SystemBuild(benchmark::State &state)
{
    // What every harness and perfbench's setup_s pay per system: one
    // default LLaMA-13B OuroborosSystem::build (block 0's annealed
    // mapping, the congruent translations of the other regions, the
    // routed inter-block flows and the stage timing).
    for (auto _ : state) {
        const auto sys =
            OuroborosSystem::build(llama13b(), OuroborosParams{});
        if (!sys) {
            state.SkipWithError("LLaMA-13B does not fit the wafer");
            return;
        }
        benchmark::DoNotOptimize(sys->activeCores());
    }
}
BENCHMARK(BM_SystemBuild)->Unit(benchmark::kMicrosecond);

void
BM_InterBlockVolume(benchmark::State &state)
{
    // The routed inter-block volume of the default LLaMA-13B mapping
    // (39 block edges x 24 flows) on a fresh mesh, as
    // WaferMapping::build prices it: Arg(0) loads the flows onto the
    // per-link TrafficAccumulator oracle, Arg(1) sums them with
    // MeshNoc::addRouteVolume. Both report the same byte_hops.
    const auto sys = OuroborosSystem::build(llama13b(), OuroborosParams{});
    if (!sys) {
        state.SkipWithError("LLaMA-13B does not fit the wafer");
        return;
    }
    const WaferMapping &mapping = sys->mapping();
    NocParams params;
    params.interDiePenalty = WaferMappingOptions{}.costInter;
    const bool volume_walk = state.range(0) != 0;
    double byte_hops = 0.0;
    std::int64_t flows = 0;
    for (auto _ : state) {
        const MeshNoc noc(mapping.geometry(), params, sys->defectMap());
        std::optional<TrafficAccumulator> traffic;
        if (!volume_walk)
            traffic.emplace(noc);
        double volume = 0.0;
        flows = 0;
        for (std::uint64_t b = 0; b + 1 < mapping.numBlocks(); ++b) {
            forEachInterBlockFlow(
                    mapping.layerSpecs(), mapping.tilesPerBlock(),
                    mapping.placement(b).weightCores,
                    mapping.placement(b + 1).weightCores,
                    [&](CoreCoord src, CoreCoord dst, Bytes bytes) {
                        ++flows;
                        return volume_walk
                                ? noc.addRouteVolume(src, dst, bytes,
                                                     volume)
                                : traffic->addFlow(src, dst, bytes);
                    });
        }
        byte_hops =
            volume_walk ? volume : traffic->totalEffectiveByteHops();
        benchmark::DoNotOptimize(byte_hops);
    }
    state.SetItemsProcessed(state.iterations() * flows);
    state.counters["flows"] = static_cast<double>(flows);
    state.counters["byte_hops"] = byte_hops;
}
BENCHMARK(BM_InterBlockVolume)
        ->Arg(0)
        ->Arg(1)
        ->Unit(benchmark::kMicrosecond);

/** Direction changes along @p path. A dimension-ordered (XY or YX)
 *  route turns at most once, so a route that turns twice or more is
 *  the breadth-first search's. */
std::size_t
turns(const std::vector<CoreCoord> &path)
{
    std::size_t n = 0;
    for (std::size_t i = 2; i < path.size(); ++i) {
        n += MeshNoc::stepDir(path[i - 2], path[i - 1]) !=
             MeshNoc::stepDir(path[i - 1], path[i]);
    }
    return n;
}

void
BM_RouteBfs(benchmark::State &state)
{
    // The first breadth-first search on a fresh mesh, its scratch
    // set-up included: the inter-block flow of the default LLaMA-13B
    // build that neither XY nor YX clears, routed on a new MeshNoc
    // per iteration, as each WaferMapping::build routes it.
    const auto sys = OuroborosSystem::build(llama13b(), OuroborosParams{});
    if (!sys) {
        state.SkipWithError("LLaMA-13B does not fit the wafer");
        return;
    }
    const WaferMapping &mapping = sys->mapping();
    NocParams params;
    params.interDiePenalty = WaferMappingOptions{}.costInter;
    const MeshNoc probe(mapping.geometry(), params, sys->defectMap());
    std::optional<std::pair<CoreCoord, CoreCoord>> flow;
    for (std::uint64_t b = 0; !flow && b + 1 < mapping.numBlocks(); ++b) {
        forEachInterBlockFlow(
                mapping.layerSpecs(), mapping.tilesPerBlock(),
                mapping.placement(b).weightCores,
                mapping.placement(b + 1).weightCores,
                [&](CoreCoord src, CoreCoord dst, Bytes) {
                    if (turns(probe.routeCached(src, dst)) >= 2)
                        flow.emplace(src, dst);
                    return !flow;
                });
    }
    if (!flow) {
        state.SkipWithError("no inter-block flow needs the search");
        return;
    }
    std::size_t hops = 0;
    for (auto _ : state) {
        const MeshNoc noc(mapping.geometry(), params, sys->defectMap());
        const auto &path = noc.routeCached(flow->first, flow->second);
        hops = path.size() - 1;
        benchmark::DoNotOptimize(path.data());
    }
    state.counters["hops"] = static_cast<double>(hops);
}
BENCHMARK(BM_RouteBfs)->Unit(benchmark::kMicrosecond);

void
BM_ResolveStormSchedule(benchmark::State &state)
{
    // What runFleetServing pays before a storm wafer serves: one
    // resolveStormSchedule of a 16-failure schedule on the LLaMA-13B
    // system, recovery-service construction included. The 40 blocks
    // a storm of the representative block never touches cost only
    // their placement copies.
    const auto sys = OuroborosSystem::build(llama13b(), OuroborosParams{});
    if (!sys) {
        state.SkipWithError("LLaMA-13B does not fit the wafer");
        return;
    }
    FailureInjectorParams injector;
    injector.failures = 16;
    injector.stormStart = 0.3;
    injector.stormDuration = 0.2;
    injector.weightFailureFraction = 0.25;
    std::uint64_t lost = 0;
    for (auto _ : state) {
        const ResolvedStorm storm = resolveStormSchedule(*sys, injector);
        benchmark::DoNotOptimize(storm.events.data());
        lost = storm.kvCoresLost;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(injector.failures));
    state.counters["kv_cores_lost"] = static_cast<double>(lost);
}
BENCHMARK(BM_ResolveStormSchedule);

void
BM_TraceWindowMaterialize(benchmark::State &state)
{
    // Materializing one 15-minute window of a 100k-request day:
    // Arg(0) scans every request of the day and keeps those whose
    // arrival quantile falls in the window (the oracle the window
    // bit-identity tests compare against), Arg(1) binary-searches
    // the index range and materializes only the members.
    DayTraceParams params;
    params.requests = 100000;
    const DayTrace trace(params);
    const double t0 = 9.0 * 3600.0; // morning peak
    const double t1 = t0 + 900.0;
    const bool fast = state.range(0) != 0;
    std::int64_t produced = 0;
    for (auto _ : state) {
        if (fast) {
            const Workload w = trace.window(t0, t1);
            benchmark::DoNotOptimize(w.requests.data());
            produced += static_cast<std::int64_t>(w.requests.size());
        } else {
            const double q0 = trace.quantileTarget(t0);
            const double q1 = trace.quantileTarget(t1);
            Workload w;
            for (std::uint64_t k = 0; k < trace.size(); ++k) {
                const double q = trace.arrivalQuantile(k);
                if (q >= q0 && q < q1)
                    w.requests.push_back(trace.request(k));
            }
            benchmark::DoNotOptimize(w.requests.data());
            produced += static_cast<std::int64_t>(w.requests.size());
        }
    }
    state.SetItemsProcessed(produced);
}
BENCHMARK(BM_TraceWindowMaterialize)->Arg(0)->Arg(1);

/** Small day-trace deployment shared by the sampled-run kernels. */
struct SampledFixture
{
    ModelConfig model = llama13b();
    StageTiming timing;
    std::vector<KvCoreInfo> score, context;

    SampledFixture()
    {
        for (unsigned s = 0; s < kStagesPerBlock; ++s) {
            timing.fixedSeconds[s] = 1e-6;
            timing.perContextSeconds[s] = 1e-9;
        }
        for (std::uint32_t i = 0; i < 64; ++i) {
            score.push_back({{0, i}, 32, 8});
            context.push_back({{1, i}, 32, 8});
        }
    }

    SampledSimulator simulator(SampledSimOptions opts) const
    {
        DayTraceParams params;
        params.requests = 600;
        return SampledSimulator(DayTrace(params), model, timing,
                                score, context, opts);
    }
};

void
BM_SampledVsFullSmallTrace(benchmark::State &state)
{
    // Arg(0) event-steps every window of a small day trace (the
    // full-run oracle), Arg(1) runs the sampled estimator (1 of 4
    // windows measured per stratum: 3 of 12 windows, a
    // 4x event-count reduction). Serial on both sides so the ratio
    // is that reduction, not thread scaling.
    const SampledFixture fx;
    SampledSimOptions opts;
    opts.numWindows = 12;
    opts.strata = 3;
    opts.fraction = 0.25; // 1 of 4 windows per stratum
    opts.serialExecution = true;
    const SampledSimulator sim = fx.simulator(opts);
    const bool sampled = state.range(0) != 0;
    for (auto _ : state) {
        if (sampled) {
            const SampledEstimate est = sim.run();
            benchmark::DoNotOptimize(est.estTokensPerSecond);
        } else {
            const PipelineStats full = sim.fullRun();
            benchmark::DoNotOptimize(full.outputTokens);
        }
    }
}
BENCHMARK(BM_SampledVsFullSmallTrace)->Arg(0)->Arg(1);

void
BM_FleetDispatch(benchmark::State &state)
{
    // The fleet router: one weighted least-outstanding-work scan per
    // request over 32 wafers, one derated weight so the weighted key
    // path is exercised.
    const Workload w = wikiText2Like(4096, 2048, 17);
    FleetDispatchConfig cfg;
    cfg.numWafers = 32;
    cfg.capacityWeight.assign(cfg.numWafers, 1.0);
    cfg.capacityWeight[7] = 0.35;
    std::int64_t routed = 0;
    for (auto _ : state) {
        const std::vector<std::uint32_t> a = fleetDispatch(w, cfg);
        benchmark::DoNotOptimize(a.data());
        routed += static_cast<std::int64_t>(a.size());
    }
    state.SetItemsProcessed(routed);
}
BENCHMARK(BM_FleetDispatch);

void
BM_RunPipelineThrash(benchmark::State &state)
{
    // One runPipeline shaped like fleet-storm's storm wafer: a quarter
    // of a 1024-request day-trace batch (maxLen 512) on a 4-core KV
    // pool that holds about a dozen residents, so the event loop sees
    // token-grained prefill, capacity evictions, stale lane entries
    // and re-prefill churn. Items are pipeline tokens.
    const ModelConfig cfg = llama13b();
    StageTiming timing;
    for (unsigned s = 0; s < kStagesPerBlock; ++s) {
        timing.fixedSeconds[s] = 1e-6;
        timing.perContextSeconds[s] = 1e-9;
    }
    DayTraceParams params;
    params.requests = 256;
    params.maxLen = 512;
    params.seed = 23;
    const Workload w = DayTrace(params).wholeDay();
    std::vector<KvCoreInfo> score, context;
    for (std::uint32_t i = 0; i < 4; ++i) {
        score.push_back({{0, i}, 32, 8});
        context.push_back({{1, i}, 32, 8});
    }
    std::int64_t tokens = 0;
    std::uint64_t evictions = 0;
    for (auto _ : state) {
        BlockKvManager kv(cfg, score, context);
        const PipelineStats stats = runPipeline(w, cfg, timing, kv);
        benchmark::DoNotOptimize(stats.makespanSeconds);
        tokens += static_cast<std::int64_t>(stats.tokensProcessed);
        evictions = stats.evictions;
    }
    state.SetItemsProcessed(tokens);
    state.counters["evictions"] = static_cast<double>(evictions);
}
BENCHMARK(BM_RunPipelineThrash);

void
BM_RunPipelineDecode(benchmark::State &state)
{
    // One runPipeline shaped like a decode-steady batch: 512 short
    // wikiText2Like requests (max_len 128, one KV block per head) on
    // the LLaMA-13B system's pool and serving options. The whole batch
    // is resident at once and every sequence fits one KV block per
    // head, so admission probing does no work and no decode token meets
    // a block boundary; short decode runs alternate with prompt runs
    // (about four prompt tokens to each decode token). Arg(0) is the lane loop
    // (cohortFastPath off, the oracle), Arg(1) streams decode tokens in
    // runs. Items are pipeline tokens.
    const auto sys = OuroborosSystem::build(llama13b(), OuroborosParams{});
    if (!sys) {
        state.SkipWithError("LLaMA-13B does not fit the wafer");
        return;
    }
    const Workload w = wikiText2Like(512, 128, 41);
    PipelineOptions opts = sys->servingOptions();
    opts.cohortFastPath = state.range(0) != 0;
    std::int64_t tokens = 0;
    double peak = 0.0;
    for (auto _ : state) {
        BlockKvManager kv = sys->makeKvManager();
        const PipelineStats stats =
            runPipeline(w, sys->model(), sys->stageTiming(), kv, opts);
        benchmark::DoNotOptimize(stats.makespanSeconds);
        tokens += static_cast<std::int64_t>(stats.tokensProcessed);
        peak = stats.peakConcurrency;
    }
    state.SetItemsProcessed(tokens);
    state.counters["peak_concurrency"] = peak;
}
BENCHMARK(BM_RunPipelineDecode)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
