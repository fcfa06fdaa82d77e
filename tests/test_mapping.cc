/**
 * @file
 * Unit + property tests for the mapping engine: tiling arithmetic,
 * MIQP objective behaviour, solver quality (SA vs exact optimum on
 * small instances; ours vs SUMMA/WaferLLM baselines), wafer-level
 * placement, and the replacement-chain fault recovery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "hw/yield.hh"
#include "mapping/mappers.hh"
#include "mapping/problem.hh"
#include "mapping/remap.hh"
#include "mapping/wafer_mapping.hh"
#include "model/llm.hh"
#include "noc/mesh.hh"
#include "oracles/mapping.hh"
#include "oracles/traffic.hh"

namespace ouro
{
namespace
{

/** A small synthetic model that tiles to a handful of cores. */
ModelConfig
tinyModel()
{
    ModelConfig cfg;
    cfg.name = "tiny";
    cfg.numBlocks = 2;
    cfg.hiddenDim = 1024;
    cfg.numHeads = 8;
    cfg.numKvHeads = 8;
    cfg.headDim = 128;
    cfg.ffnDim = 4096;
    cfg.ffnMatrices = 2;
    cfg.vocabSize = 1000;
    cfg.bytesPerParam = 1;
    cfg.attention = AttentionKind::Causal;
    cfg.maxContext = 2048;
    return cfg;
}

std::vector<CoreCoord>
regionOf(const WaferGeometry &geom, std::uint32_t n)
{
    const auto order = geom.sShapedOrder();
    return {order.begin(), order.begin() + n};
}

TEST(Tiling, Llama13bTileCounts)
{
    const auto specs = tileBlockLayers(llama13b(), CoreParams{});
    ASSERT_EQ(specs.size(), 5u);
    // qkv: 5120 in -> I=5; 15360 out / 4096 -> O=4.
    EXPECT_EQ(specs[0].inSplits, 5u);
    EXPECT_EQ(specs[0].outSplits, 4u);
    // proj: 5120 -> 5120: I=5, O=2.
    EXPECT_EQ(specs[1].inSplits, 5u);
    EXPECT_EQ(specs[1].outSplits, 2u);
    // ffn_down: 13824 -> 5120: I=14, O=2.
    EXPECT_EQ(specs[4].inSplits, 14u);
    EXPECT_EQ(specs[4].outSplits, 2u);
}

TEST(Tiling, CoresPerBlockMatchesWeightCapacity)
{
    // The tile count must be enough to hold the block's weights.
    const ModelConfig cfg = llama13b();
    const CoreParams core;
    const auto cores = coresPerBlock(cfg, core);
    const double needed = static_cast<double>(cfg.blockWeightBytes()) /
                          static_cast<double>(core.sramBytes());
    EXPECT_GE(static_cast<double>(cores), needed);
    // ... but not wasteful beyond 2x (fragmentation bound).
    EXPECT_LE(static_cast<double>(cores), 2.5 * needed + 4);
}

TEST(Tiling, PartBoundsCoverDim)
{
    LayerSpec spec;
    spec.inDim = 5120;
    spec.outDim = 13824;
    spec.inSplits = 5;
    spec.outSplits = 4;
    EXPECT_EQ(spec.inPartLo(0), 0u);
    EXPECT_EQ(spec.inPartHi(4), 5120u);
    std::uint64_t covered = 0;
    for (std::uint32_t o = 0; o < 4; ++o)
        covered += spec.outPartHi(o) - spec.outPartLo(o);
    EXPECT_EQ(covered, 13824u);
}

TEST(Tiling, ReductionIsFourTimesOutput)
{
    LayerSpec spec;
    spec.inDim = 2048;
    spec.outDim = 4096;
    spec.inSplits = 2;
    spec.outSplits = 1;
    const Bytes output = spec.outPartHi(0) - spec.outPartLo(0);
    EXPECT_EQ(spec.reductionVolume(0), 4 * output);
    EXPECT_EQ(spec.gatherVolume(0), output);
}

TEST(Problem, FeasibilityChecks)
{
    const WaferGeometry geom;
    const ModelConfig cfg = tinyModel();
    const CoreParams core;
    MappingProblem problem(cfg, core, geom, regionOf(geom, 64));

    const Assignment good = GreedyMapper{}.solve(problem);
    EXPECT_TRUE(problem.feasible(good));

    Assignment dup = good;
    dup[1] = dup[0]; // two tiles on one core violates Eq. 2
    EXPECT_FALSE(problem.feasible(dup));

    Assignment oob = good;
    oob[0] = 10000;
    EXPECT_FALSE(problem.feasible(oob));
}

TEST(Problem, DefectiveCandidateInfeasible)
{
    const WaferGeometry geom;
    DefectMap defects(geom);
    const auto region = regionOf(geom, 64);
    defects.inject(region[0]);
    MappingProblem problem(tinyModel(), CoreParams{}, geom, region, 2.0,
                           &defects);
    EXPECT_FALSE(problem.candidateUsable(0));
    Assignment a = GreedyMapper{}.solve(problem);
    EXPECT_TRUE(problem.feasible(a));
    // Greedy must have skipped the defective slot 0.
    EXPECT_TRUE(std::find(a.begin(), a.end(), 0u) == a.end());
}

TEST(Problem, CostIsNonNegativeAndDeterministic)
{
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 64));
    const Assignment a = GreedyMapper{}.solve(problem);
    const double c1 = problem.assignmentCost(a);
    const double c2 = problem.assignmentCost(a);
    EXPECT_GE(c1, 0.0);
    EXPECT_DOUBLE_EQ(c1, c2);
}

TEST(Problem, MoveDeltaMatchesFullRecompute)
{
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 64));
    Assignment a = GreedyMapper{}.solve(problem);
    const double base = problem.assignmentCost(a);

    // Move tile 3 to a free slot and compare against recompute.
    std::set<std::uint32_t> used(a.begin(), a.end());
    std::uint32_t free_slot = 0;
    while (used.count(free_slot))
        ++free_slot;
    const double delta = problem.moveDelta(a, 3, free_slot);
    a[3] = free_slot;
    EXPECT_NEAR(problem.assignmentCost(a), base + delta, 1e-6);
}

TEST(Problem, SpreadingTilesRaisesCost)
{
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 200));
    const Assignment compact = GreedyMapper{}.solve(problem);
    // Scatter: place tiles far apart (every 4th slot).
    Assignment scattered(compact.size());
    for (std::size_t t = 0; t < scattered.size(); ++t)
        scattered[t] = static_cast<std::uint32_t>(t * 4);
    ASSERT_TRUE(problem.feasible(scattered));
    EXPECT_GT(problem.assignmentCost(scattered),
              problem.assignmentCost(compact));
}

TEST(Mappers, AnnealingImprovesOnGreedy)
{
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 48));
    const double greedy_cost =
        problem.assignmentCost(GreedyMapper{}.solve(problem));
    AnnealingMapper::Options opts;
    opts.iterations = 8000;
    opts.seed = 5;
    const double sa_cost = problem.assignmentCost(
            AnnealingMapper(opts).solve(problem));
    EXPECT_LE(sa_cost, greedy_cost * 1.0001);
}

TEST(Mappers, AnnealingDeterministicPerSeed)
{
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 48));
    AnnealingMapper::Options opts;
    opts.iterations = 2000;
    opts.seed = 9;
    const Assignment a = AnnealingMapper(opts).solve(problem);
    const Assignment b = AnnealingMapper(opts).solve(problem);
    EXPECT_EQ(a, b);
}

TEST(Mappers, MultiRestartDeterministicAndNeverWorse)
{
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 48));
    AnnealingMapper::Options opts;
    opts.iterations = 4000;
    opts.seed = 7;
    const double single_cost = problem.assignmentCost(
            AnnealingMapper(opts).solve(problem));

    opts.restarts = 3;
    const Assignment a = AnnealingMapper(opts).solve(problem);
    const Assignment b = AnnealingMapper(opts).solve(problem);
    // Restarts fan out on the shared pool yet the pick is exact:
    // per-restart slots + deterministic seeds (PR 1 sweep contract).
    EXPECT_EQ(a, b);
    ASSERT_TRUE(problem.feasible(a));
    // Restart 0 reuses the caller's seed, so the best-of-3 can never
    // lose to the single-restart solve.
    EXPECT_LE(problem.assignmentCost(a), single_cost + 1e-9);
}

/** Order-sensitive FNV-1a hash of an assignment. */
std::uint64_t
assignmentHash(const Assignment &assignment)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint32_t slot : assignment) {
        h ^= slot;
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(Mappers, AnnealingTrajectoryGolden)
{
    // Pins the annealer's proposal schedule (RNG draw order, accept
    // rule, cooling) to constants. The engine-invariance tests run
    // both engines through the same loop, so a schedule change passes
    // them; it cannot pass this. Re-capture the constants only for a
    // deliberate schedule change.
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 64));
    AnnealingMapper::Options opts;
    opts.iterations = 5000;
    opts.seed = 2026;
    const Assignment a = AnnealingMapper(opts).solve(problem);
    ASSERT_TRUE(problem.feasible(a));
    EXPECT_EQ(problem.assignmentCost(a), 0x1.5p+14);
    EXPECT_EQ(assignmentHash(a), 0xfe089d33a243c56bULL);
}

/** A 2-layer micro-model whose block tiles to 6 cores: exact-solvable. */
ModelConfig
microModel()
{
    ModelConfig cfg;
    cfg.name = "micro";
    cfg.numBlocks = 1;
    cfg.hiddenDim = 1024;
    cfg.numHeads = 8;
    cfg.numKvHeads = 8;
    cfg.headDim = 128;
    cfg.ffnDim = 2048;
    cfg.ffnMatrices = 2;
    cfg.vocabSize = 100;
    cfg.bytesPerParam = 1;
    cfg.attention = AttentionKind::Causal;
    cfg.maxContext = 512;
    return cfg;
}

TEST(Mappers, AnnealingNearExactOnSmallInstance)
{
    const WaferGeometry geom;
    MappingProblem problem(microModel(), CoreParams{}, geom,
                           regionOf(geom, 10));
    ASSERT_LE(problem.tiles().size(), 8u);

    const Assignment exact = ExactMapper{}.solve(problem);
    const double exact_cost = problem.assignmentCost(exact);

    AnnealingMapper::Options opts;
    opts.iterations = 20000;
    opts.seed = 3;
    const double sa_cost = problem.assignmentCost(
            AnnealingMapper(opts).solve(problem));
    // SA should land within 10% of the proven optimum.
    EXPECT_LE(sa_cost, exact_cost * 1.10 + 1e-9);
    EXPECT_GE(sa_cost, exact_cost - 1e-9);
}

TEST(Mappers, OursBeatsBaselines)
{
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 64));
    AnnealingMapper::Options opts;
    opts.iterations = 8000;
    opts.seed = 1;
    const double ours = mappingByteHops(
            problem, AnnealingMapper(opts).solve(problem));
    const double summa = mappingByteHops(
            problem, SummaMapper{}.solve(problem));
    const double waferllm = mappingByteHops(
            problem, WaferLlmMapper{}.solve(problem));
    // Fig. 18 ordering: ours < WaferLLM < SUMMA/Cerebras.
    EXPECT_LT(ours, waferllm);
    EXPECT_LT(waferllm, summa);
}

TEST(Mappers, BaselinesFeasible)
{
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 64));
    EXPECT_TRUE(problem.feasible(SummaMapper{}.solve(problem)));
    EXPECT_TRUE(problem.feasible(WaferLlmMapper{}.solve(problem)));
}

TEST(WaferMappingTest, BuildsForLlama13b)
{
    const WaferGeometry geom;
    const ModelConfig cfg = llama13b();
    WaferMappingOptions opts;
    opts.mapper = MapperKind::Greedy;
    const auto mapping = WaferMapping::build(
            cfg, CoreParams{}, geom, nullptr, 0, cfg.numBlocks, opts);
    ASSERT_TRUE(mapping.has_value());
    EXPECT_EQ(mapping->numBlocks(), 40u);
    // Every block placed; KV cores exist.
    for (std::uint64_t b = 0; b < 40; ++b) {
        const auto &p = mapping->placement(b);
        EXPECT_EQ(p.weightCores.size(), mapping->tilesPerBlock());
        EXPECT_FALSE(p.scoreCores.empty());
        EXPECT_FALSE(p.contextCores.empty());
    }
    EXPECT_GT(mapping->totalKvCores(), 1000u);
}

TEST(WaferMappingTest, RefusesOversizeModel)
{
    // LLaMA-65B does not fit one wafer (65 GB > 54 GB).
    const WaferGeometry geom;
    const ModelConfig cfg = llama65b();
    const auto mapping = WaferMapping::build(
            cfg, CoreParams{}, geom, nullptr, 0, cfg.numBlocks);
    EXPECT_FALSE(mapping.has_value());
}

TEST(WaferMappingTest, HalfModelFitsOneWafer)
{
    // ... but half its blocks do (the 2-wafer configuration of §6.8).
    const WaferGeometry geom;
    const ModelConfig cfg = llama65b();
    WaferMappingOptions opts;
    opts.mapper = MapperKind::Greedy;
    const auto mapping = WaferMapping::build(
            cfg, CoreParams{}, geom, nullptr, 0, cfg.numBlocks / 2,
            opts);
    ASSERT_TRUE(mapping.has_value());
    EXPECT_EQ(mapping->numBlocks(), 40u);
}

TEST(WaferMappingTest, DefectsReduceKvPool)
{
    const WaferGeometry geom;
    const ModelConfig cfg = tinyModel();
    WaferMappingOptions opts;
    opts.mapper = MapperKind::Greedy;
    const auto clean = WaferMapping::build(
            cfg, CoreParams{}, geom, nullptr, 0, cfg.numBlocks, opts);
    Rng rng(4);
    const DefectMap defects(geom, YieldParams{}, rng);
    const auto faulty = WaferMapping::build(
            cfg, CoreParams{}, geom, &defects, 0, cfg.numBlocks, opts);
    ASSERT_TRUE(clean.has_value());
    ASSERT_TRUE(faulty.has_value());
    EXPECT_LE(faulty->totalKvCores(), clean->totalKvCores());
    // Defective cores never appear in any placement.
    for (std::uint64_t b = 0; b < cfg.numBlocks; ++b) {
        for (const auto &c : faulty->placement(b).weightCores)
            EXPECT_FALSE(defects.defective(c));
    }
}

TEST(WaferMappingTest, AnnealedBeatsSummaByHops)
{
    const WaferGeometry geom;
    const ModelConfig cfg = tinyModel();
    WaferMappingOptions ours;
    ours.mapper = MapperKind::Annealing;
    ours.annealIterations = 3000;
    WaferMappingOptions summa;
    summa.mapper = MapperKind::Summa;
    const auto a = WaferMapping::build(cfg, CoreParams{}, geom, nullptr,
                                       0, cfg.numBlocks, ours);
    const auto s = WaferMapping::build(cfg, CoreParams{}, geom, nullptr,
                                       0, cfg.numBlocks, summa);
    ASSERT_TRUE(a && s);
    EXPECT_LT(a->totalByteHops(), s->totalByteHops());
}

/** Fisher-Yates shuffle driven by the deterministic Rng. */
template <typename T>
void
shuffleWith(Rng &rng, std::vector<T> &v)
{
    for (std::size_t i = v.size(); i > 1; --i) {
        const std::size_t j = rng.uniformInt(0, i - 1);
        std::swap(v[i - 1], v[j]);
    }
}

/** Random feasible assignment: a shuffle of distinct usable slots. */
Assignment
randomAssignment(const MappingProblem &problem, Rng &rng)
{
    std::vector<std::uint32_t> slots;
    for (std::size_t r = 0; r < problem.candidates().size(); ++r) {
        if (problem.candidateUsable(r))
            slots.push_back(static_cast<std::uint32_t>(r));
    }
    shuffleWith(rng, slots);
    Assignment a(slots.begin(),
                 slots.begin() + problem.tiles().size());
    return a;
}

TEST(SparseEngine, FlowGraphCountsMatchOracle)
{
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 64));
    const std::size_t n = problem.tiles().size();
    // Directed nonzero pairs from the flowBetween oracle must equal
    // the CSR edge count, and the graph must be genuinely sparse.
    std::size_t nonzero = 0;
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
            if (a != b && (problem.flowBetween(a, b) != 0 ||
                           problem.flowBetween(b, a) != 0))
                ++nonzero;
        }
    }
    EXPECT_EQ(problem.flowEdges(), nonzero);
    EXPECT_LT(problem.flowEdges(), n * (n - 1) / 2); // sparse
    std::size_t degree_sum = 0;
    for (std::size_t t = 0; t < n; ++t)
        degree_sum += problem.flowDegree(t);
    EXPECT_EQ(degree_sum, problem.flowEdges());
}

TEST(SparseEngine, AssignmentCostBitIdenticalFuzz)
{
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 96));
    Rng rng(11);
    for (int round = 0; round < 50; ++round) {
        const Assignment a = randomAssignment(problem, rng);
        // EXPECT_EQ on doubles is exact: the sparse engine must be
        // bit-identical to the dense reference, not merely close.
        EXPECT_EQ(problem.assignmentCost(a),
                  assignmentCostDense(problem, a));
    }
}

TEST(SparseEngine, MoveDeltaBitIdenticalFuzz)
{
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 96));
    Rng rng(13);
    const std::size_t n = problem.tiles().size();
    for (int round = 0; round < 200; ++round) {
        const Assignment a = randomAssignment(problem, rng);
        const auto t = static_cast<std::size_t>(
                rng.uniformInt(0, n - 1));
        const auto slot = static_cast<std::uint32_t>(
                rng.uniformInt(0, problem.candidates().size() - 1));
        EXPECT_EQ(problem.moveDelta(a, t, slot),
                  moveDeltaDense(problem, a, t, slot));
    }
}

TEST(SparseEngine, SwapDeltaBitIdenticalAndMatchesRecompute)
{
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 96));
    Rng rng(17);
    const std::size_t n = problem.tiles().size();
    for (int round = 0; round < 200; ++round) {
        Assignment a = randomAssignment(problem, rng);
        const auto t1 = static_cast<std::size_t>(
                rng.uniformInt(0, n - 1));
        auto t2 = static_cast<std::size_t>(rng.uniformInt(0, n - 2));
        if (t2 >= t1)
            ++t2;
        const double sparse = problem.swapDelta(a, t1, t2);
        EXPECT_EQ(sparse, swapDeltaDense(problem, a, t1, t2));

        // And the delta agrees with a full recompute (to rounding).
        const double before = problem.assignmentCost(a);
        std::swap(a[t1], a[t2]);
        const double after = problem.assignmentCost(a);
        EXPECT_NEAR(after - before, sparse,
                    1e-9 * std::max(1.0, std::abs(before)));
    }
}

TEST(SparseEngine, PartialCostsSumToAssignmentCost)
{
    // ExactMapper's branch-and-bound prices a leaf as the sum of the
    // partial costs of its tiles in placement order, so that sum must
    // be the Eq. 1 objective. tinyModel's splits are uniform (every
    // pair term is symmetric) and every term is an integer (hops x
    // bytes x CostInter 2.0), so the two sums agree exactly in any
    // order.
    const WaferGeometry geom;
    MappingProblem problem(tinyModel(), CoreParams{}, geom,
                           regionOf(geom, 96));
    Rng rng(19);
    for (int round = 0; round < 50; ++round) {
        const Assignment a = randomAssignment(problem, rng);
        double sum = 0.0;
        for (std::size_t t = 0; t < a.size(); ++t)
            sum += partialCostDense(problem, a, t, a[t]);
        EXPECT_EQ(sum, problem.assignmentCost(a));
    }
}

TEST(SparseEngine, BitIdenticalUnderDefectMaps)
{
    const WaferGeometry geom;
    for (int round = 0; round < 8; ++round) {
        DefectMap defects(geom);
        const auto region = regionOf(geom, 96);
        // Random defect sprinkle inside the region (leave enough
        // usable cores for the block).
        Rng rng(100 + round);
        for (int d = 0; d < 12; ++d) {
            defects.inject(
                    region[rng.uniformInt(0, region.size() - 1)]);
        }
        MappingProblem problem(tinyModel(), CoreParams{}, geom, region,
                               2.0, &defects);
        for (int k = 0; k < 20; ++k) {
            const Assignment a = randomAssignment(problem, rng);
            EXPECT_EQ(problem.assignmentCost(a),
                      assignmentCostDense(problem, a));
            const auto t = static_cast<std::size_t>(
                    rng.uniformInt(0, problem.tiles().size() - 1));
            const auto slot = static_cast<std::uint32_t>(
                    rng.uniformInt(0,
                                   problem.candidates().size() - 1));
            EXPECT_EQ(problem.moveDelta(a, t, slot),
                      moveDeltaDense(problem, a, t, slot));
        }
    }
}

TEST(SparseEngine, SlotPricingMatchesDenseReferences)
{
    // The sparse engine prices slot pairs from the per-candidate slot
    // array; the dense references price through the geometry. Both
    // must agree bit for bit on a one-die region and on one of 1100
    // candidates spanning several dies, where CostInter applies.
    const WaferGeometry geom;
    for (const std::uint32_t size : {96u, 1100u}) {
        const MappingProblem problem(tinyModel(), CoreParams{}, geom,
                                     regionOf(geom, size));
        Rng rng(29 + size);
        const std::size_t n = problem.tiles().size();
        for (int round = 0; round < 30; ++round) {
            const Assignment a = randomAssignment(problem, rng);
            const auto t =
                static_cast<std::size_t>(rng.uniformInt(0, n - 1));
            const auto slot = static_cast<std::uint32_t>(
                    rng.uniformInt(0, size - 1));
            auto t2 =
                static_cast<std::size_t>(rng.uniformInt(0, n - 2));
            if (t2 >= t)
                ++t2;
            EXPECT_EQ(problem.assignmentCost(a),
                      assignmentCostDense(problem, a));
            EXPECT_EQ(problem.moveDelta(a, t, slot),
                      moveDeltaDense(problem, a, t, slot));
            EXPECT_EQ(problem.swapDelta(a, t, t2),
                      swapDeltaDense(problem, a, t, t2));
        }
    }
}

TEST(SparseEngine, SlotPairsPriceManhattanTimesDiePenalty)
{
    // Every tile on slot i except tile b on slot j: the only flows
    // with nonzero distance are b's, so assignmentCost is the slot
    // pair's distance x penalty times b's flow bytes. Checked for
    // every slot pair of regions spanning several dies, including a
    // non-square die grid of non-square dies, where a die index with
    // the wrong stride or a dropped coordinate term mis-prices pairs.
    struct Case
    {
        WaferGeometry geom;
        std::vector<CoreCoord> region;
    };
    const WaferGeometry paper;
    std::vector<CoreCoord> spread; // 4 x 3 dies of the paper wafer
    for (std::uint32_t r = 0; r < 4 * 13; r += 3) {
        for (std::uint32_t c = 0; c < 3 * 17; c += 4)
            spread.push_back({r, c});
    }
    const WaferGeometry odd(2, 3, 5, 7); // 2 x 3 dies of 5 x 7 cores
    const std::vector<Case> cases = {{paper, spread},
                                     {odd, odd.sShapedOrder()}};
    for (const Case &cs : cases) {
        const double cost_inter = 3.0;
        const MappingProblem problem(tinyModel(), CoreParams{},
                                     cs.geom, cs.region, cost_inter);
        const std::size_t n = problem.tiles().size();
        const std::size_t b = n / 2;
        ASSERT_GT(problem.flowDegree(b), 0u);
        double bytes = 0.0;
        for (std::size_t p = 0; p < n; ++p) {
            if (p != b)
                bytes += static_cast<double>(
                        problem.flowBetween(std::min(p, b),
                                            std::max(p, b)));
        }
        std::set<std::uint32_t> dies;
        for (const CoreCoord c : cs.region) {
            const DieCoord d = cs.geom.dieOf(c);
            dies.insert(d.row * cs.geom.dieCols() + d.col);
        }
        ASSERT_GE(dies.size(), 6u);
        const auto slots =
            static_cast<std::uint32_t>(cs.region.size());
        for (std::uint32_t i = 0; i < slots; ++i) {
            for (std::uint32_t j = 0; j < slots; ++j) {
                Assignment a(n, i);
                a[b] = j;
                const CoreCoord ci = cs.region[i];
                const CoreCoord cj = cs.region[j];
                const double pen =
                    cs.geom.sameDie(ci, cj) ? 1.0 : cost_inter;
                ASSERT_EQ(problem.assignmentCost(a),
                          cs.geom.manhattan(ci, cj) * bytes * pen)
                    << "slots " << i << ", " << j;
            }
        }
    }
}

TEST(SparseEngine, NonUniformSplitGatherIsDirected)
{
    // A model whose last output part is smaller exercises the
    // directed gather volumes (F(a->b) != F(b->a)).
    ModelConfig cfg = tinyModel();
    cfg.ffnDim = 6001; // 2 output parts of 3000 / 3001 channels
    const WaferGeometry geom;
    MappingProblem problem(cfg, CoreParams{}, geom,
                           regionOf(geom, 96));
    const std::size_t n = problem.tiles().size();
    bool found_asymmetric = false;
    for (std::size_t a = 0; a < n && !found_asymmetric; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
            if (problem.flowBetween(a, b) !=
                problem.flowBetween(b, a)) {
                found_asymmetric = true;
                break;
            }
        }
    }
    EXPECT_TRUE(found_asymmetric);
    Rng rng(31);
    for (int round = 0; round < 50; ++round) {
        const Assignment a = randomAssignment(problem, rng);
        EXPECT_EQ(problem.assignmentCost(a),
                  assignmentCostDense(problem, a));
        const auto t1 = static_cast<std::size_t>(
                rng.uniformInt(0, n - 1));
        auto t2 = static_cast<std::size_t>(rng.uniformInt(0, n - 2));
        if (t2 >= t1)
            ++t2;
        EXPECT_EQ(problem.swapDelta(a, t1, t2),
                  swapDeltaDense(problem, a, t1, t2));
    }
}

TEST(Congruence, TranslateBitIdenticalToFreshProblem)
{
    // congruentTranslate must reproduce a from-scratch MappingProblem
    // over the target region bit for bit: same flow graph, same
    // costs, on every engine entry point.
    const WaferGeometry geom;
    const auto order = geom.sShapedOrder();
    const std::vector<CoreCoord> region_a(order.begin(),
                                          order.begin() + 96);
    const std::vector<CoreCoord> region_b(order.begin() + 96,
                                          order.begin() + 192);
    const MappingProblem fresh_a(tinyModel(), CoreParams{}, geom,
                                 region_a);
    const MappingProblem fresh_b(tinyModel(), CoreParams{}, geom,
                                 region_b);
    const MappingProblem translated =
        fresh_a.congruentTranslate(region_b);

    ASSERT_EQ(translated.candidates(), fresh_b.candidates());
    ASSERT_EQ(translated.flowEdges(), fresh_b.flowEdges());

    Rng rng(23);
    const std::size_t n = translated.tiles().size();
    for (int round = 0; round < 40; ++round) {
        const Assignment a = randomAssignment(fresh_b, rng);
        EXPECT_EQ(translated.assignmentCost(a),
                  fresh_b.assignmentCost(a));
        EXPECT_EQ(translated.assignmentCost(a),
                  assignmentCostDense(fresh_b, a));
        const auto t = static_cast<std::size_t>(
                rng.uniformInt(0, n - 1));
        const auto slot = static_cast<std::uint32_t>(
                rng.uniformInt(0, region_b.size() - 1));
        EXPECT_EQ(translated.moveDelta(a, t, slot),
                  fresh_b.moveDelta(a, t, slot));
        auto t2 = static_cast<std::size_t>(rng.uniformInt(0, n - 2));
        if (t2 >= t)
            ++t2;
        EXPECT_EQ(translated.swapDelta(a, t, t2),
                  fresh_b.swapDelta(a, t, t2));
    }
}

/** Build twice - congruence fast path vs per-block rebuild oracle -
 *  and require bit-identical placements and costs. */
void
expectCongruenceBitIdentical(const ModelConfig &model,
                             const DefectMap *defects,
                             WaferMappingOptions opts)
{
    const WaferGeometry geom;
    opts.congruentReuse = true;
    const auto fast = WaferMapping::build(model, CoreParams{}, geom,
                                          defects, 0, model.numBlocks,
                                          opts);
    opts.congruentReuse = false;
    const auto oracle = WaferMapping::build(model, CoreParams{}, geom,
                                            defects, 0,
                                            model.numBlocks, opts);
    ASSERT_TRUE(fast && oracle);
    ASSERT_EQ(fast->numBlocks(), oracle->numBlocks());
    ASSERT_EQ(fast->numReplicas(), oracle->numReplicas());
    for (std::uint32_t rep = 0; rep < fast->numReplicas(); ++rep) {
        for (std::uint64_t b = 0; b < fast->numBlocks(); ++b) {
            const auto &f = fast->placement(b, rep);
            const auto &o = oracle->placement(b, rep);
            EXPECT_EQ(f.weightCores, o.weightCores);
            EXPECT_EQ(f.scoreCores, o.scoreCores);
            EXPECT_EQ(f.contextCores, o.contextCores);
            // EXPECT_EQ on doubles is exact: bit-identity, not
            // closeness.
            EXPECT_EQ(f.mappingCost, o.mappingCost);
        }
    }
    EXPECT_EQ(fast->totalByteHops(), oracle->totalByteHops());
    EXPECT_EQ(fast->interBlockByteHops(),
              oracle->interBlockByteHops());
    EXPECT_EQ(fast->totalKvCores(), oracle->totalKvCores());
}

TEST(Congruence, WaferBuildBitIdenticalAcrossMappers)
{
    const ModelConfig model = tinyModel();
    for (const MapperKind kind :
         {MapperKind::Greedy, MapperKind::Annealing, MapperKind::Summa,
          MapperKind::WaferLlm}) {
        WaferMappingOptions opts;
        opts.mapper = kind;
        opts.annealIterations = 400;
        expectCongruenceBitIdentical(model, nullptr, opts);
    }
}

TEST(Congruence, WaferBuildBitIdenticalUnderDefects)
{
    const WaferGeometry geom;
    const ModelConfig model = tinyModel();
    for (const std::uint64_t seed : {3ull, 8ull}) {
        Rng rng(seed);
        const DefectMap defects(geom, YieldParams{}, rng);
        WaferMappingOptions opts;
        opts.mapper = MapperKind::Greedy;
        expectCongruenceBitIdentical(model, &defects, opts);
    }
}

TEST(Congruence, WaferBuildBitIdenticalWithReplicas)
{
    const ModelConfig model = tinyModel();
    WaferMappingOptions opts;
    opts.mapper = MapperKind::Greedy;
    opts.replicas = 3;
    expectCongruenceBitIdentical(model, nullptr, opts);
}

TEST(WaferMappingTest, ReplicasAreLaidOut)
{
    // replicas > 1 must place real regions for every replica - the
    // capacity math is honest, not just a divisor.
    const WaferGeometry geom;
    const ModelConfig model = tinyModel();
    WaferMappingOptions opts;
    opts.mapper = MapperKind::Greedy;
    opts.replicas = 2;
    const auto mapping = WaferMapping::build(
            model, CoreParams{}, geom, nullptr, 0, model.numBlocks,
            opts);
    ASSERT_TRUE(mapping.has_value());
    EXPECT_EQ(mapping->numReplicas(), 2u);

    // Every (block, replica) placement exists, holds the full tile
    // set, and no core is used twice anywhere on the wafer - the
    // per-chain embedding reservations included.
    std::set<std::uint64_t> used;
    for (std::uint32_t rep = 0; rep < 2; ++rep) {
        for (const auto &c : mapping->embeddingCores(rep))
            EXPECT_TRUE(used.insert(geom.coreIndex(c)).second);
    }
    for (std::uint32_t rep = 0; rep < 2; ++rep) {
        for (std::uint64_t b = 0; b < model.numBlocks; ++b) {
            const auto &p = mapping->placement(b, rep);
            EXPECT_EQ(p.weightCores.size(), mapping->tilesPerBlock());
            for (const auto *pool :
                 {&p.weightCores, &p.scoreCores, &p.contextCores}) {
                for (const auto &c : *pool)
                    EXPECT_TRUE(used.insert(geom.coreIndex(c)).second);
            }
        }
    }

    // Regression pin for the core accounting: every region's
    // leftover cores (region size minus tiles) serve KV duty, across
    // all blocks AND replicas. Each of the two chains reserves its
    // own embedding region under the default replicated-embedding
    // layout.
    const std::uint64_t reserved =
        embeddingCoreCount(model, CoreParams{});
    const std::uint64_t per_region = regionSize(
            model.numBlocks * 2, geom.numCores(), 2 * reserved);
    EXPECT_EQ(mapping->totalKvCores(),
              model.numBlocks * 2 *
                      (per_region - mapping->tilesPerBlock()));
    for (std::uint32_t rep = 0; rep < 2; ++rep) {
        EXPECT_EQ(mapping->chainKvCores(rep),
                  model.numBlocks *
                          (per_region - mapping->tilesPerBlock()));
        EXPECT_EQ(mapping->chainActiveCores(rep),
                  reserved + model.numBlocks * per_region);
    }

    // The two-arg accessor's replica 0 is the legacy placement()
    // view, and every replica carries a priced (positive-cost)
    // region of its own - congruent pattern, region-local coords.
    for (std::uint64_t b = 0; b < model.numBlocks; ++b) {
        EXPECT_EQ(mapping->placement(b, 0).weightCores,
                  mapping->placement(b).weightCores);
        EXPECT_GT(mapping->placement(b, 1).mappingCost, 0.0);
    }
}

TEST(WaferMappingTest, DefaultLayoutSlicesPinned)
{
    // Chain r's reservation leads its span at r * chain_span, and its
    // block b occupies the slice at r * chain_span + reserved + b *
    // per_region. With one replica that is the single-chain layout:
    // one reservation heading the usable-core order, regions packed
    // right behind it.
    const WaferGeometry geom;
    const ModelConfig model = tinyModel();
    const auto order = geom.sShapedOrder();
    const std::uint64_t reserved =
        embeddingCoreCount(model, CoreParams{});
    for (const std::uint32_t replicas : {1u, 2u}) {
        WaferMappingOptions opts;
        opts.mapper = MapperKind::Greedy;
        opts.replicas = replicas;
        const auto mapping = WaferMapping::build(
                model, CoreParams{}, geom, nullptr, 0,
                model.numBlocks, opts);
        ASSERT_TRUE(mapping.has_value());
        const std::uint64_t per_region =
            regionSize(model.numBlocks * replicas, geom.numCores(),
                       reserved * replicas);
        const std::uint64_t chain_span =
            reserved + model.numBlocks * per_region;
        for (std::uint32_t rep = 0; rep < replicas; ++rep) {
            const auto &emb = mapping->embeddingCores(rep);
            ASSERT_EQ(emb.size(), reserved);
            for (std::uint64_t i = 0; i < reserved; ++i)
                EXPECT_EQ(emb[i], order[rep * chain_span + i]);
            for (std::uint64_t b = 0; b < model.numBlocks; ++b) {
                const std::uint64_t lo =
                    rep * chain_span + reserved + b * per_region;
                std::set<std::uint64_t> expect;
                for (std::uint64_t i = lo; i < lo + per_region; ++i)
                    expect.insert(geom.coreIndex(order[i]));
                std::set<std::uint64_t> got;
                const auto &p = mapping->placement(b, rep);
                for (const auto *pool :
                     {&p.weightCores, &p.scoreCores,
                      &p.contextCores}) {
                    for (const auto &c : *pool)
                        got.insert(geom.coreIndex(c));
                }
                EXPECT_EQ(got, expect)
                    << "replicas " << replicas << ", chain " << rep
                    << ", block " << b;
            }
        }
    }
}

TEST(WaferMappingTest, PerChainEmbeddingMakesChainsDisjoint)
{
    // The default layout: every replica chain owns a disjoint
    // embedding reservation of the full size, and no core of one
    // chain (embedding included) appears in another.
    const WaferGeometry geom;
    const ModelConfig model = tinyModel();
    WaferMappingOptions opts;
    opts.mapper = MapperKind::Greedy;
    opts.replicas = 3;
    const auto mapping = WaferMapping::build(
            model, CoreParams{}, geom, nullptr, 0, model.numBlocks,
            opts);
    ASSERT_TRUE(mapping.has_value());

    const std::uint64_t reserved =
        embeddingCoreCount(model, CoreParams{});
    std::vector<std::set<std::uint64_t>> chains(3);
    for (std::uint32_t rep = 0; rep < 3; ++rep) {
        EXPECT_EQ(mapping->embeddingCores(rep).size(), reserved);
        for (const auto &c : mapping->embeddingCores(rep))
            EXPECT_TRUE(chains[rep].insert(geom.coreIndex(c)).second);
        for (std::uint64_t b = 0; b < model.numBlocks; ++b) {
            const auto &p = mapping->placement(b, rep);
            for (const auto *pool :
                 {&p.weightCores, &p.scoreCores, &p.contextCores}) {
                for (const auto &c : *pool) {
                    EXPECT_TRUE(
                            chains[rep].insert(geom.coreIndex(c))
                                    .second);
                }
            }
        }
        EXPECT_EQ(chains[rep].size(), mapping->chainActiveCores(rep));
    }
    for (std::uint32_t a = 0; a < 3; ++a) {
        for (std::uint32_t b = a + 1; b < 3; ++b) {
            std::vector<std::uint64_t> common;
            std::set_intersection(chains[a].begin(), chains[a].end(),
                                  chains[b].begin(), chains[b].end(),
                                  std::back_inserter(common));
            EXPECT_TRUE(common.empty())
                << "chains " << a << " and " << b << " share cores";
        }
    }
}

TEST(Congruence, TranslateSharesFlowCsr)
{
    // The satellite contract: congruentTranslate shares block 0's
    // immutable flow CSR (O(1) in flow size), it does not copy it.
    const WaferGeometry geom;
    const auto order = geom.sShapedOrder();
    const MappingProblem fresh(
            tinyModel(), CoreParams{}, geom,
            std::vector<CoreCoord>(order.begin(), order.begin() + 96));
    const MappingProblem translated = fresh.congruentTranslate(
            std::vector<CoreCoord>(order.begin() + 96,
                                   order.begin() + 192));
    EXPECT_TRUE(translated.sharesFlowGraphWith(fresh));
    // Chained translations keep sharing the original CSR.
    const MappingProblem chained = translated.congruentTranslate(
            std::vector<CoreCoord>(order.begin() + 192,
                                   order.begin() + 288));
    EXPECT_TRUE(chained.sharesFlowGraphWith(fresh));
    // An independently built problem has its own CSR even though the
    // contents are equal.
    const MappingProblem other(
            tinyModel(), CoreParams{}, geom,
            std::vector<CoreCoord>(order.begin(), order.begin() + 96));
    EXPECT_FALSE(other.sharesFlowGraphWith(fresh));
    EXPECT_EQ(other.flowEdges(), fresh.flowEdges());
}

TEST(WaferMappingTest, RegionSizeArithmetic)
{
    EXPECT_EQ(regionSize(4, 100, 20), 20u);
    EXPECT_EQ(regionSize(1, 7, 0), 7u);
    EXPECT_EQ(regionSize(3, 10, 1), 3u);
}

TEST(WaferMappingTest, InterBlockFlowsRoutedSeparately)
{
    // totalByteHops = per-region mapping costs + the routed
    // inter-block activation flows, with the latter reported on its
    // own so region costs stay comparable.
    const WaferGeometry geom;
    const ModelConfig model = tinyModel();
    WaferMappingOptions opts;
    opts.mapper = MapperKind::Greedy;
    const auto mapping = WaferMapping::build(
            model, CoreParams{}, geom, nullptr, 0, model.numBlocks,
            opts);
    ASSERT_TRUE(mapping.has_value());
    ASSERT_GE(mapping->numBlocks(), 2u);
    EXPECT_GT(mapping->interBlockByteHops(), 0.0);
    double region_costs = 0.0;
    for (std::uint64_t b = 0; b < model.numBlocks; ++b)
        region_costs += mapping->placement(b).mappingCost;
    EXPECT_DOUBLE_EQ(mapping->totalByteHops(),
                     region_costs + mapping->interBlockByteHops());
}

TEST(WaferMappingTest, InterBlockVolumeMatchesAccumulatorOracle)
{
    // interBlockByteHops() is the routed volume walk over the flow
    // enumerator; it must equal, bit for bit, the same flows loaded
    // onto the TrafficAccumulator oracle on a fresh mesh - defective wafers
    // (detours), multi-block replica chains and an inexact CostInter.
    ModelConfig model = tinyModel();
    model.numBlocks = 4;
    const WaferGeometry geom(3, 3, 8, 8);
    for (const std::uint64_t seed : {0ull, 2ull, 7ull}) {
        DefectMap defects(geom);
        Rng rng(seed);
        for (std::uint64_t i = 0; seed != 0 && i < geom.numCores(); ++i) {
            if (rng.bernoulli(0.05))
                defects.inject(geom.coreAt(i));
        }
        for (const std::uint32_t replicas : {1u, 2u}) {
            for (const double cost_inter : {2.0, 1.37}) {
                WaferMappingOptions opts;
                opts.mapper = MapperKind::Greedy;
                opts.replicas = replicas;
                opts.costInter = cost_inter;
                const auto mapping = WaferMapping::build(
                        model, CoreParams{}, geom, &defects, 0,
                        model.numBlocks, opts);
                ASSERT_TRUE(mapping.has_value());
                NocParams params;
                params.interDiePenalty = cost_inter;
                const MeshNoc noc(geom, params, &defects);
                TrafficAccumulator traffic(noc);
                for (std::uint32_t rep = 0; rep < replicas; ++rep) {
                    for (std::uint64_t b = 0; b + 1 < model.numBlocks;
                         ++b) {
                        ASSERT_TRUE(accumulateInterBlockFlows(
                                mapping->layerSpecs(),
                                mapping->tilesPerBlock(),
                                mapping->placement(b, rep).weightCores,
                                mapping->placement(b + 1, rep)
                                        .weightCores,
                                traffic));
                    }
                }
                EXPECT_EQ(mapping->interBlockByteHops(),
                          traffic.totalEffectiveByteHops())
                    << "seed " << seed << " replicas " << replicas
                    << " costInter " << cost_inter;
            }
        }
    }
}

TEST(WaferMappingTest, BadCostInterDiesNamingTheField)
{
    // costInter weights every die crossing the mappers and the routed
    // inter-block volume price, so build refuses a non-finite or
    // non-positive value up front, naming the option and the value,
    // instead of mapping on it. The death checks run this test alone
    // in a fresh process.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ModelConfig model = tinyModel();
    model.numBlocks = 2;
    const WaferGeometry geom(3, 3, 8, 8);
    for (const double bad : {0.0, -2.0,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
        WaferMappingOptions opts;
        opts.mapper = MapperKind::Greedy;
        opts.costInter = bad;
        EXPECT_DEATH(
                {
                    WaferMapping::build(model, CoreParams{}, geom,
                                        nullptr, 0, model.numBlocks,
                                        opts);
                },
                "WaferMappingOptions::costInter = ");
    }
}

TEST(Remap, CleanMeshLatencyMatchesClosedForm)
{
    // On a defect-free mesh every move follows its XY route, so the
    // parallel-shift latency is the slowest move's router head plus
    // the tile's serialisation over one intra-die link.
    BlockPlacement placement;
    placement.weightCores = {{0, 0}, {1, 3}};
    placement.scoreCores = {{2, 4}};
    const NocParams params;
    const MeshNoc mesh(WaferGeometry{}, params);
    const Bytes bytes = 4 * MiB;
    const auto result =
        recoverCoreFailure(placement, {0, 0}, mesh, bytes);
    ASSERT_TRUE(result.has_value());
    // (1,3) is inside the (0,0)->(2,4) box and closer to the KV
    // core, so it joins the chain: a 2-hop and a 4-hop move, all
    // inside die (0,0).
    const std::vector<std::pair<CoreCoord, CoreCoord>> want_moves = {
        {{1, 3}, {2, 4}}, {{0, 0}, {1, 3}}};
    EXPECT_EQ(result->moves, want_moves);
    const double link_rate = params.linkBitsPerCycle * params.clockHz;
    const double slowest_hops = 4.0;
    const double want =
        slowest_hops * static_cast<double>(params.routerLatency) /
                params.clockHz +
        static_cast<double>(bytes) * 8.0 / link_rate;
    EXPECT_DOUBLE_EQ(result->latencySeconds, want);
}

TEST(Remap, RouteAwarePricesDetours)
{
    // A defect forcing a detour raises the route-aware latency above
    // the clean-mesh estimate (more hops of head latency).
    BlockPlacement clean_p;
    clean_p.weightCores = {{0, 0}};
    clean_p.scoreCores = {{0, 4}};
    BlockPlacement faulty_p = clean_p;
    const WaferGeometry geom;
    const NocParams params;
    const MeshNoc clean(geom, params);
    DefectMap defects(geom);
    defects.inject({0, 2}); // on the direct path
    const MeshNoc faulty(geom, params, &defects);
    const auto fast =
        recoverCoreFailure(clean_p, {0, 0}, clean, 4 * MiB);
    const auto slow =
        recoverCoreFailure(faulty_p, {0, 0}, faulty, 4 * MiB);
    ASSERT_TRUE(fast && slow);
    EXPECT_GT(slow->latencySeconds, fast->latencySeconds);
}

TEST(Remap, KvCoreFailureDropsFromPool)
{
    BlockPlacement placement;
    placement.weightCores = {{0, 0}, {0, 1}};
    placement.scoreCores = {{1, 0}, {1, 1}};
    placement.contextCores = {{2, 0}};
    const MeshNoc mesh(WaferGeometry{}, NocParams{});
    const auto result =
        recoverCoreFailure(placement, {1, 1}, mesh, 4 * MiB);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->moves.empty());
    EXPECT_EQ(placement.scoreCores.size(), 1u);
}

TEST(Remap, WeightFailureShiftsChainIntoKv)
{
    BlockPlacement placement;
    placement.weightCores = {{0, 0}, {0, 1}, {0, 2}};
    placement.scoreCores = {{0, 3}};
    placement.contextCores = {{5, 5}};
    const WaferGeometry geom;
    const MeshNoc mesh(geom, NocParams{});
    const auto result =
        recoverCoreFailure(placement, {0, 0}, mesh, 4 * MiB);
    ASSERT_TRUE(result.has_value());
    // The nearest KV core (0,3) absorbs; chain (0,1),(0,2) shifts.
    EXPECT_EQ(result->absorbedKvCore, (CoreCoord{0, 3}));
    EXPECT_EQ(result->moves.size(), 3u);
    // Weight cores now: tile0 on (0,1)'s old... every tile lives on a
    // non-failed core and all are distinct.
    std::set<std::uint64_t> cores;
    for (const auto &c : placement.weightCores) {
        EXPECT_FALSE(c == (CoreCoord{0, 0}));
        cores.insert(geom.coreIndex(c));
    }
    EXPECT_EQ(cores.size(), 3u);
    // (0,3) is no longer a KV core.
    EXPECT_TRUE(placement.scoreCores.empty());
    EXPECT_EQ(placement.contextCores.size(), 1u);
}

TEST(Remap, CorridorExcludesCoresOutsideTheBox)
{
    // (1,3) is closer to the KV core (0,4) than the failed core is,
    // but lies outside the (0,0)->(0,4) bounding box: the failed
    // tile goes straight to the KV core.
    BlockPlacement placement;
    placement.weightCores = {{0, 0}, {1, 3}};
    placement.scoreCores = {{0, 4}};
    const MeshNoc mesh(WaferGeometry{}, NocParams{});
    const auto result =
        recoverCoreFailure(placement, {0, 0}, mesh, 4 * MiB);
    ASSERT_TRUE(result.has_value());
    const std::vector<std::pair<CoreCoord, CoreCoord>> want_moves = {
        {{0, 0}, {0, 4}}};
    EXPECT_EQ(result->moves, want_moves);
    EXPECT_EQ(result->chainLength, 2u);
    EXPECT_EQ(placement.weightCores[1], (CoreCoord{1, 3}));
}

TEST(Remap, NearestKvTiesResolveByVisitOrder)
{
    // Equal distances resolve to the first core visited: score pool
    // before context pool, lower index first.
    const WaferGeometry geom;
    BlockPlacement placement;
    placement.scoreCores = {{2, 2}, {0, 2}};
    placement.contextCores = {{2, 0}};
    const auto hit = nearestKvScan(placement, {0, 0}, geom);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->core, (CoreCoord{0, 2}));
    EXPECT_TRUE(hit->scoreDuty);

    placement.scoreCores = {{2, 2}};
    placement.contextCores = {{2, 0}, {0, 2}};
    const auto ctx = nearestKvScan(placement, {0, 0}, geom);
    ASSERT_TRUE(ctx.has_value());
    EXPECT_EQ(ctx->core, (CoreCoord{2, 0}));
    EXPECT_FALSE(ctx->scoreDuty);

    // The replacement chain absorbs into that same core.
    placement.weightCores = {{0, 0}};
    const MeshNoc mesh(geom, NocParams{});
    const auto result =
        recoverCoreFailure(placement, {0, 0}, mesh, 4 * MiB);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->absorbedKvCore, (CoreCoord{2, 0}));
}

TEST(Remap, LatencySubMillisecond)
{
    BlockPlacement placement;
    placement.weightCores = {{0, 0}, {0, 1}, {0, 2}, {1, 2}};
    placement.scoreCores = {{1, 3}};
    const MeshNoc mesh(WaferGeometry{}, NocParams{});
    const auto result =
        recoverCoreFailure(placement, {0, 0}, mesh, 4 * MiB);
    ASSERT_TRUE(result.has_value());
    EXPECT_LT(result->latencySeconds, 1e-3); // the paper's sub-ms claim
    EXPECT_GT(result->latencySeconds, 0.0);
}

TEST(Remap, UnknownCoreReturnsNullopt)
{
    BlockPlacement placement;
    placement.weightCores = {{0, 0}};
    placement.scoreCores = {{0, 1}};
    const MeshNoc mesh(WaferGeometry{}, NocParams{});
    EXPECT_FALSE(recoverCoreFailure(placement, {9, 9}, mesh, 4 * MiB)
                         .has_value());
}

TEST(Remap, NoKvCoreLeftReturnsNullopt)
{
    BlockPlacement placement;
    placement.weightCores = {{0, 0}, {0, 1}};
    const MeshNoc mesh(WaferGeometry{}, NocParams{});
    EXPECT_FALSE(recoverCoreFailure(placement, {0, 0}, mesh, 4 * MiB)
                         .has_value());
}

/** Property: recovery preserves the tile count and core uniqueness. */
class RemapPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RemapPropertyTest, PreservesTilesAndUniqueness)
{
    const int which = GetParam();
    BlockPlacement placement;
    for (std::uint32_t i = 0; i < 6; ++i)
        placement.weightCores.push_back({0, i});
    placement.scoreCores = {{1, 0}, {1, 3}};
    placement.contextCores = {{1, 5}};
    const WaferGeometry geom;
    const MeshNoc mesh(geom, NocParams{});
    const CoreCoord failed{0, static_cast<std::uint32_t>(which)};
    const auto result =
        recoverCoreFailure(placement, failed, mesh, 4 * MiB);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(placement.weightCores.size(), 6u);
    std::set<std::uint64_t> unique;
    for (const auto &c : placement.weightCores) {
        EXPECT_FALSE(c == failed);
        unique.insert(geom.coreIndex(c));
    }
    EXPECT_EQ(unique.size(), 6u);
}

INSTANTIATE_TEST_SUITE_P(FailEachWeightCore, RemapPropertyTest,
                         ::testing::Range(0, 6));

/** Random placement over a shuffled coordinate window. */
BlockPlacement
randomPlacement(Rng &rng, std::uint32_t window, std::size_t weights,
                std::size_t score, std::size_t context)
{
    std::vector<CoreCoord> cores;
    for (std::uint32_t r = 0; r < window; ++r) {
        for (std::uint32_t c = 0; c < window; ++c)
            cores.push_back({r, c});
    }
    shuffleWith(rng, cores);
    BlockPlacement placement;
    auto it = cores.begin();
    placement.weightCores.assign(it, it + weights);
    it += weights;
    placement.scoreCores.assign(it, it + score);
    it += score;
    placement.contextCores.assign(it, it + context);
    return placement;
}

TEST(Remap, RandomFailureSequencesKeepInvariants)
{
    // Whole random failure sequences through recoverCoreFailure, on a
    // clean mesh and on one whose defects (on cores the placement
    // leaves free, as a mapper would) force detours. After every
    // recovery the placement must still be a valid one with exactly
    // the recovery's effect applied.
    const WaferGeometry geom;
    constexpr std::uint32_t kWindow = 20;
    for (const bool with_defects : {false, true}) {
        for (int trial = 0; trial < 6; ++trial) {
            Rng rng(500 + trial);
            BlockPlacement p = randomPlacement(rng, kWindow, 60, 20, 20);
            DefectMap defects(geom);
            if (with_defects) {
                std::set<std::uint64_t> used;
                for (const auto *pool :
                     {&p.weightCores, &p.scoreCores, &p.contextCores}) {
                    for (const CoreCoord c : *pool)
                        used.insert(geom.coreIndex(c));
                }
                for (int d = 0; d < 10;) {
                    const CoreCoord c{
                        static_cast<std::uint32_t>(
                                rng.uniformInt(0, kWindow - 1)),
                        static_cast<std::uint32_t>(
                                rng.uniformInt(0, kWindow - 1))};
                    if (used.insert(geom.coreIndex(c)).second) {
                        defects.inject(c);
                        ++d;
                    }
                }
            }
            const MeshNoc noc(geom, NocParams{},
                              with_defects ? &defects : nullptr);

            for (int round = 0; round < 15; ++round) {
                SCOPED_TRACE(::testing::Message()
                             << "defects " << with_defects << " seed "
                             << 500 + trial << " round " << round);
                std::vector<CoreCoord> alive = p.weightCores;
                alive.insert(alive.end(), p.scoreCores.begin(),
                             p.scoreCores.end());
                alive.insert(alive.end(), p.contextCores.begin(),
                             p.contextCores.end());
                const CoreCoord failed =
                    alive[rng.uniformInt(0, alive.size() - 1)];
                const BlockPlacement before = p;
                const bool weight_failure =
                    std::find(before.weightCores.begin(),
                              before.weightCores.end(),
                              failed) != before.weightCores.end();

                const auto result =
                    recoverCoreFailure(p, failed, noc, 4 * MiB);
                if (!result)
                    break; // no KV core left to absorb

                ASSERT_EQ(p.weightCores.size(),
                          before.weightCores.size());
                std::set<std::uint64_t> weights;
                for (const CoreCoord c : p.weightCores) {
                    EXPECT_FALSE(c == failed);
                    weights.insert(geom.coreIndex(c));
                }
                EXPECT_EQ(weights.size(), p.weightCores.size());
                std::set<std::uint64_t> all = weights;
                for (const auto *pool : {&p.scoreCores, &p.contextCores}) {
                    for (const CoreCoord c : *pool)
                        all.insert(geom.coreIndex(c));
                }
                EXPECT_EQ(all.size(), p.weightCores.size() +
                                              p.scoreCores.size() +
                                              p.contextCores.size())
                    << "pools overlap";
                EXPECT_EQ(p.scoreCores.size() + p.contextCores.size() + 1,
                          before.scoreCores.size() +
                                  before.contextCores.size());

                if (!weight_failure) {
                    EXPECT_TRUE(result->moves.empty());
                    EXPECT_EQ(result->chainLength, 1u);
                    EXPECT_EQ(result->absorbedKvCore, failed);
                    EXPECT_EQ(p.weightCores, before.weightCores);
                    continue;
                }
                EXPECT_EQ(result->chainLength, result->moves.size() + 1);
                EXPECT_EQ(result->movedBytes,
                          4 * MiB * result->moves.size());
                EXPECT_GT(result->latencySeconds, 0.0);
                EXPECT_TRUE(weights.count(
                        geom.coreIndex(result->absorbedKvCore)));
                for (const auto &[from, to] : result->moves) {
                    const auto t = static_cast<std::size_t>(
                            std::find(before.weightCores.begin(),
                                      before.weightCores.end(), from) -
                            before.weightCores.begin());
                    ASSERT_LT(t, before.weightCores.size());
                    EXPECT_EQ(p.weightCores[t], to);
                }
            }
        }
    }
}

} // namespace
} // namespace ouro
