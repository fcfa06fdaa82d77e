/**
 * @file
 * Fig. 18 / Section 6.7 - normalized transmission volume of the
 * mapping strategies: Cerebras-default (SUMMA), WaferLLM, and our
 * MIQP/annealed mapper, for LLaMA-13B/32B/65B. The paper reports an
 * average 45% reduction vs Cerebras and 18% vs WaferLLM, with the
 * advantage growing with model size.
 *
 * The harness also cross-checks and times the sparse flow-graph cost
 * engine against the dense Eq. 1 reference (oracles/mapping.hh) on a
 * production-sized LLaMA-13B block region: every sampled moveDelta /
 * swapDelta must be BIT-identical (checksummed). The annealer decides
 * on those per-call values alone; the test suite's
 * Mappers.AnnealingTrajectoryGolden pins its trajectory. A second
 * check builds the whole LLaMA-13B wafer twice, with the
 * region-congruence fast path and with the per-block rebuild, and
 * asserts identical placements.
 * BENCH_fig18_mapping.json records both engines' cost-evaluations/sec
 * with cost_engine_speedup, and both build times with
 * wafer_build_speedup.
 *
 * sparse_evals_per_sec is the sparse engine's own throughput, the
 * number that tracks the engine run over run. cost_engine_speedup
 * divides it by the dense reference's rate, so it also moves when only
 * the reference moves. Likewise both wafer-build times include the
 * shared inter-block volume pricing, so wafer_build_speedup moves when
 * that shared cost does.
 */

#include "bench_util.hh"

#include "common/rng.hh"
#include "mapping/mappers.hh"
#include "mapping/problem.hh"
#include "mapping/wafer_mapping.hh"
#include "oracles/mapping.hh"

using namespace ouro;
using namespace ouro::bench;

namespace
{

double
mappingVolume(const ModelConfig &model, MapperKind kind,
              std::uint32_t wafers)
{
    double total = 0.0;
    const WaferGeometry geom;
    std::uint64_t first = 0;
    for (std::uint32_t w = 0; w < wafers; ++w) {
        const std::uint64_t count =
            (model.numBlocks + wafers - 1 - w) / wafers;
        WaferMappingOptions opts;
        opts.mapper = kind;
        opts.annealIterations = 30000;
        // Four independent chains per region, best mapping wins;
        // the chains fan out on the parallel runtime (deterministic
        // per-restart seeds, so the pick is thread-count invariant).
        opts.annealRestarts = 4;
        const auto mapping = WaferMapping::build(
                model, CoreParams{}, geom, nullptr, first, count,
                opts);
        ouroAssert(mapping.has_value(), "mapping failed for ",
                   model.name);
        total += mapping->totalByteHops();
        first += count;
    }
    return total;
}

/** Result of timing one engine over a fixed move/swap schedule. */
struct EngineRate
{
    double evalsPerSec = 0.0;
    double checksum = 0.0; ///< order-dependent sum of all deltas
};

/**
 * Evaluate a deterministic schedule of relocate/swap deltas on one
 * engine. The checksum accumulates every delta in schedule order, so
 * two engines agree on it iff every single evaluation was
 * bit-identical.
 */
template <typename MoveFn, typename SwapFn>
EngineRate
runEvalSchedule(const std::vector<std::uint32_t> &assignment,
                const std::vector<std::uint64_t> &schedule,
                std::size_t tiles, std::size_t slots, MoveFn &&move,
                SwapFn &&swap)
{
    EngineRate rate;
    const WallTimer timer;
    for (const std::uint64_t word : schedule) {
        const auto t1 = static_cast<std::size_t>(word % tiles);
        const auto rest = word / tiles;
        if (word & 1) {
            auto t2 = static_cast<std::size_t>(rest % (tiles - 1));
            if (t2 >= t1)
                ++t2;
            rate.checksum += swap(assignment, t1, t2);
        } else {
            const auto slot =
                static_cast<std::uint32_t>(rest % slots);
            rate.checksum += move(assignment, t1, slot);
        }
    }
    rate.evalsPerSec =
        static_cast<double>(schedule.size()) / timer.seconds();
    return rate;
}

/**
 * Wafer-build showdown: the region-congruence fast path (block 0's
 * MappingProblem translated to every congruent region) against the
 * retained per-block rebuild oracle. Asserts that every placement
 * and every cost is bit-identical, and returns (rebuild seconds,
 * congruence seconds). The greedy mapper isolates the
 * problem-construction cost the fast path removes (annealing time
 * would swamp it).
 */
std::pair<double, double>
waferBuildShowdown()
{
    const ModelConfig model = llama13b();
    const WaferGeometry geom;
    WaferMappingOptions opts;
    opts.mapper = MapperKind::Greedy;

    constexpr int kReps = 5;
    double rebuild_s = 0.0;
    double congruent_s = 0.0;
    std::optional<WaferMapping> fast, oracle;
    for (int rep = 0; rep < kReps; ++rep) {
        opts.congruentReuse = false;
        const WallTimer rebuild_timer;
        oracle = WaferMapping::build(model, CoreParams{}, geom,
                                     nullptr, 0, model.numBlocks,
                                     opts);
        rebuild_s += rebuild_timer.seconds();

        opts.congruentReuse = true;
        const WallTimer congruent_timer;
        fast = WaferMapping::build(model, CoreParams{}, geom, nullptr,
                                   0, model.numBlocks, opts);
        congruent_s += congruent_timer.seconds();
    }
    ouroAssert(fast && oracle, "fig18: wafer build failed");
    ouroAssert(fast->totalByteHops() == oracle->totalByteHops() &&
                       fast->interBlockByteHops() ==
                               oracle->interBlockByteHops(),
               "fig18: congruence fast path diverged from the "
               "per-block rebuild on total volume");
    for (std::uint64_t b = 0; b < fast->numBlocks(); ++b) {
        const BlockPlacement &f = fast->placement(b);
        const BlockPlacement &o = oracle->placement(b);
        ouroAssert(f.weightCores == o.weightCores &&
                           f.scoreCores == o.scoreCores &&
                           f.contextCores == o.contextCores &&
                           f.mappingCost == o.mappingCost,
                   "fig18: congruence fast path diverged from the "
                   "per-block rebuild at block ", b);
    }
    return {rebuild_s, congruent_s};
}

/**
 * Sparse-vs-dense cost-engine showdown on a LLaMA-13B block region of
 * the default build's size. Asserts bit-identity (checksum) and
 * returns (dense rate, sparse rate) in cost-evaluations/sec.
 */
std::pair<EngineRate, EngineRate>
costEngineShowdown()
{
    const WaferGeometry geom;
    const auto order = geom.sShapedOrder();
    // The first 345 cores of the S-shaped order: a die holds 221, so
    // the region spans two dies and the checksum prices CostInter.
    const std::vector<CoreCoord> region(order.begin(),
                                        order.begin() + 345);
    ouroAssert(!geom.sameDie(region.front(), region.back()),
               "fig18: the showdown region must span dies");
    const MappingProblem problem(llama13b(), CoreParams{}, geom,
                                 region);
    const Assignment assignment = GreedyMapper{}.solve(problem);

    // Full-cost parity on the real assignment first.
    ouroAssert(problem.assignmentCost(assignment) ==
                       assignmentCostDense(problem, assignment),
               "fig18: sparse assignmentCost diverged from the dense "
               "reference");

    // The schedule runs on the tiles spread evenly over the region:
    // greedy packs them into the first slots, all on die 0, where no
    // swap would ever price CostInter.
    const std::size_t tiles = problem.tiles().size();
    Assignment spread(tiles);
    for (std::size_t t = 0; t < tiles; ++t)
        spread[t] = static_cast<std::uint32_t>(t * region.size() / tiles);
    ouroAssert(problem.assignmentCost(spread) ==
                       assignmentCostDense(problem, spread),
               "fig18: sparse assignmentCost diverged from the dense "
               "reference on the spread assignment");

    // Deterministic eval schedule (odd words swap, even words move).
    Rng rng(2026);
    std::vector<std::uint64_t> schedule(40000);
    for (auto &word : schedule)
        word = rng.next();

    const auto dense = runEvalSchedule(
            spread, schedule, tiles, region.size(),
            [&](const Assignment &a, std::size_t t,
                std::uint32_t s) {
                return moveDeltaDense(problem, a, t, s);
            },
            [&](const Assignment &a, std::size_t t1, std::size_t t2) {
                return swapDeltaDense(problem, a, t1, t2);
            });
    const auto sparse = runEvalSchedule(
            spread, schedule, tiles, region.size(),
            [&](const Assignment &a, std::size_t t,
                std::uint32_t s) { return problem.moveDelta(a, t, s); },
            [&](const Assignment &a, std::size_t t1, std::size_t t2) {
                return problem.swapDelta(a, t1, t2);
            });
    ouroAssert(sparse.checksum == dense.checksum,
               "fig18: sparse cost engine diverged from the dense "
               "reference over the eval schedule");

    return {dense, sparse};
}

} // namespace

int
main()
{
    setQuiet(true);
    const WallTimer timer;
    std::cout << "=== Fig. 18: normalized transmission volume ===\n";
    Table table({"model", "Cerebras(SUMMA)", "WaferLLM", "Ours",
                 "ours/cerebras", "ours/waferllm"});

    double sum_vs_cerebras = 0.0;
    double sum_vs_waferllm = 0.0;
    int count = 0;

    struct Entry
    {
        ModelConfig model;
        std::uint32_t wafers;
    };
    const std::vector<Entry> entries{Entry{llama13b(), 1},
                                     Entry{llama32b(), 1},
                                     Entry{llama65b(), 2}};
    const std::vector<MapperKind> mappers{MapperKind::Summa,
                                          MapperKind::WaferLlm,
                                          MapperKind::Annealing};

    // Each (model, mapper) volume is an independent (and, for the
    // annealed mapper, expensive) computation: fan the grid out on
    // the parallel runtime; per-slot writes keep results identical
    // to a serial sweep.
    std::vector<double> volumes(entries.size() * mappers.size());
    parallelFor(volumes.size(), [&](std::size_t i) {
        const Entry &entry = entries[i / mappers.size()];
        volumes[i] = mappingVolume(entry.model,
                                   mappers[i % mappers.size()],
                                   entry.wafers);
    });

    for (std::size_t e = 0; e < entries.size(); ++e) {
        const Entry &entry = entries[e];
        const double summa = volumes[e * mappers.size() + 0];
        const double waferllm = volumes[e * mappers.size() + 1];
        const double ours = volumes[e * mappers.size() + 2];
        table.row()
            .cell(entry.model.name)
            .cell(1.0, 3)
            .cell(waferllm / summa, 3)
            .cell(ours / summa, 3)
            .cell(ours / summa, 3)
            .cell(ours / waferllm, 3);
        sum_vs_cerebras += 1.0 - ours / summa;
        sum_vs_waferllm += 1.0 - ours / waferllm;
        ++count;
    }
    table.print(std::cout);
    std::cout << "\nAverages (paper: -45% vs Cerebras, -18% vs "
                 "WaferLLM; advantage grows with size):\n"
              << "  vs Cerebras: -"
              << formatDouble(100.0 * sum_vs_cerebras / count, 1)
              << "%\n  vs WaferLLM: -"
              << formatDouble(100.0 * sum_vs_waferllm / count, 1)
              << "%\n";

    // Snapshot the sweep wall time BEFORE the engine showdown so the
    // longitudinal wall_seconds / events_per_sec record keeps
    // measuring the mapping sweep alone, comparable run over run.
    const double sweep_seconds = timer.seconds();

    // Sparse flow-graph cost engine vs. the dense Eq. 1 oracle
    // (bit-identity asserted inside). These rates are single-thread
    // algorithmic throughput, so they are meaningful on any host.
    const auto [dense, sparse] = costEngineShowdown();
    const double engine_speedup =
        sparse.evalsPerSec / dense.evalsPerSec;

    // Whole-wafer build: congruence translation vs the per-block
    // MappingProblem rebuild (bit-identity asserted inside).
    const auto [rebuild_s, congruent_s] = waferBuildShowdown();
    const double build_speedup = rebuild_s / congruent_s;
    std::cout << "\nWafer build (LLaMA-13B, greedy, bit-identical "
                 "placements):\n  per-block rebuild:    "
              << formatDouble(rebuild_s * 1e3, 1)
              << " ms\n  congruence fast path: "
              << formatDouble(congruent_s * 1e3, 1)
              << " ms\n  speedup:              "
              << formatDouble(build_speedup, 1) << "x\n";
    std::cout << "\nAnneal cost-evaluation throughput "
                 "(LLaMA-13B block region, bit-identical engines):\n"
              << "  dense reference: "
              << formatDouble(dense.evalsPerSec / 1e6, 2)
              << " M evals/s\n  sparse engine:   "
              << formatDouble(sparse.evalsPerSec / 1e6, 2)
              << " M evals/s\n  speedup:         "
              << formatDouble(engine_speedup, 1) << "x\n";

    BenchReport("fig18_mapping")
        .metric("wall_seconds", sweep_seconds)
        .metric("events_per_sec",
                static_cast<double>(volumes.size()) / sweep_seconds)
        .metric("showdown_seconds", timer.seconds() - sweep_seconds)
        .metric("mappings", std::uint64_t{9})
        .metric("anneal_restarts", std::uint64_t{4})
        .metric("dense_evals_per_sec", dense.evalsPerSec)
        .metric("sparse_evals_per_sec", sparse.evalsPerSec)
        .metric("cost_engine_speedup", engine_speedup)
        .metric("wafer_build_rebuild_seconds", rebuild_s)
        .metric("wafer_build_congruent_seconds", congruent_s)
        .metric("wafer_build_speedup", build_speedup)
        .write();
    return 0;
}
