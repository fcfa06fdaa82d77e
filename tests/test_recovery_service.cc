/**
 * @file
 * Wafer-level RecoveryService tests: bit-identity against direct
 * per-placement recoverCoreFailure calls over mirror placements
 * (whole failure sequences, across replicas and defect maps),
 * deterministic cross-block KV borrowing, replica-chain fault-domain
 * isolation, inter-block flow re-pricing (link failures included),
 * and services built from an OuroborosSystem.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "hw/yield.hh"
#include "mapping/remap.hh"
#include "mapping/wafer_mapping.hh"
#include "model/llm.hh"
#include "noc/mesh.hh"
#include "oracles/traffic.hh"
#include "runtime/recovery_service.hh"
#include "sim/system.hh"

namespace ouro
{
namespace
{

ModelConfig
tinyModel(std::uint64_t blocks = 2)
{
    ModelConfig cfg;
    cfg.name = "tiny";
    cfg.numBlocks = blocks;
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

WaferMapping
buildMapping(const WaferGeometry &geom, const ModelConfig &model,
             std::uint32_t replicas, const DefectMap *defects)
{
    WaferMappingOptions opts;
    opts.mapper = MapperKind::Greedy;
    opts.replicas = replicas;
    const auto mapping = WaferMapping::build(
            model, CoreParams{}, geom, defects, 0, model.numBlocks,
            opts);
    EXPECT_TRUE(mapping.has_value());
    return *mapping;
}

bool
sameResult(const RemapResult &a, const RemapResult &b)
{
    return a.moves == b.moves &&
           a.absorbedKvCore == b.absorbedKvCore &&
           a.movedBytes == b.movedBytes &&
           a.latencySeconds == b.latencySeconds &&
           a.chainLength == b.chainLength;
}

/** Pick the @p pick-th alive core of @p p (bench-style schedule). */
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

bool
samePlacement(const BlockPlacement &a, const BlockPlacement &b)
{
    return a.weightCores == b.weightCores &&
           a.scoreCores == b.scoreCores &&
           a.contextCores == b.contextCores;
}

/** Dedicated KV cores currently left in one chain of @p service. */
std::uint64_t
chainKvCores(const RecoveryService &service, std::uint32_t replica)
{
    std::uint64_t n = 0;
    for (std::uint64_t b = 0; b < service.numBlocks(); ++b) {
        const auto &p =
            service.placement(service.firstBlock() + b, replica);
        n += p.scoreCores.size() + p.contextCores.size();
    }
    return n;
}

TEST(RecoveryService, MatchesPerPlacementOracleFuzz)
{
    // Whole failure sequences across replicas and defect maps: the
    // service (borrowing off so the oracle can express every
    // outcome) must reproduce direct per-placement recoverCoreFailure
    // calls over mirror placements bit for bit - results AND final
    // placements.
    const WaferGeometry geom(3, 3, 8, 8);
    const ModelConfig model = tinyModel();
    const Bytes tile_bytes = CoreParams{}.sramBytes();
    for (const std::uint64_t defect_seed : {0ull, 5ull}) {
        std::optional<DefectMap> defects;
        if (defect_seed != 0) {
            Rng rng(defect_seed);
            defects.emplace(geom, YieldParams{}, rng);
        }
        const DefectMap *dmap = defects ? &*defects : nullptr;
        const WaferMapping mapping =
            buildMapping(geom, model, 2, dmap);

        RecoveryServiceOptions sopts;
        sopts.allowKvBorrow = false;
        RecoveryService service(mapping, NocParams{}, tile_bytes, dmap,
                                sopts);

        // Mirror oracle: raw per-placement recoveries on a separate
        // mesh over the same defect map.
        const MeshNoc cold(geom, NocParams{}, dmap);
        std::vector<BlockPlacement> mirror;
        for (std::uint32_t rep = 0; rep < 2; ++rep) {
            for (std::uint64_t b = 0; b < model.numBlocks; ++b)
                mirror.push_back(mapping.placement(b, rep));
        }

        Rng rng(91 + defect_seed);
        for (int k = 0; k < 150; ++k) {
            const std::size_t r = static_cast<std::size_t>(
                    rng.uniformInt(0, mirror.size() - 1));
            const std::size_t alive = aliveCores(mirror[r]);
            if (alive == 0)
                continue;
            const CoreCoord failed = resolveFailure(
                    mirror[r], static_cast<std::size_t>(
                                       rng.uniformInt(0, alive - 1)));
            const auto got = service.handleCoreFailure(failed);
            const auto want =
                recoverCoreFailure(mirror[r], failed, cold, tile_bytes);
            ASSERT_EQ(got.has_value(), want.has_value())
                << "failure " << k;
            if (!got)
                continue;
            EXPECT_TRUE(sameResult(got->remap, *want))
                << "failure " << k;
            EXPECT_TRUE(got->borrows.empty());
            EXPECT_EQ(got->replica, r / model.numBlocks);
            EXPECT_EQ(got->block, r % model.numBlocks);
        }
        for (std::uint32_t rep = 0; rep < 2; ++rep) {
            for (std::uint64_t b = 0; b < model.numBlocks; ++b) {
                EXPECT_TRUE(
                        samePlacement(service.placement(b, rep),
                                      mirror[rep * model.numBlocks + b]));
            }
        }
        std::uint64_t mirror_kv = 0;
        for (const auto &p : mirror)
            mirror_kv += p.scoreCores.size() + p.contextCores.size();
        EXPECT_EQ(chainKvCores(service, 0) + chainKvCores(service, 1),
                  mirror_kv);
    }
}

/** Drain every dedicated KV core of one block through the service. */
void
drainPool(RecoveryService &service, std::uint64_t block,
          std::uint32_t replica = 0)
{
    const auto score = service.placement(block, replica).scoreCores;
    const auto context =
        service.placement(block, replica).contextCores;
    for (const auto *pool : {&score, &context}) {
        for (const CoreCoord c : *pool) {
            const auto out = service.handleCoreFailure(c);
            ASSERT_TRUE(out.has_value());
            EXPECT_EQ(out->remap.chainLength, 1u); // KV drop
        }
    }
    EXPECT_TRUE(service.placement(block, replica).scoreCores.empty());
    EXPECT_TRUE(
            service.placement(block, replica).contextCores.empty());
}

TEST(RecoveryService, BorrowFollowsNearestBlockOrder)
{
    // 4-block chain; dry block 2 must borrow from block 1 first
    // (distance 1, lower block wins the tie), and once 1 and 3 are
    // dry too, from block 0 (distance 2).
    const WaferGeometry geom(3, 3, 8, 8);
    const ModelConfig model = tinyModel(4);
    const WaferMapping mapping =
        buildMapping(geom, model, 1, nullptr);
    RecoveryService service(mapping, NocParams{},
                            CoreParams{}.sramBytes(), nullptr);

    drainPool(service, 2);
    const CoreCoord failed1 = service.placement(2).weightCores[0];
    const auto out1 = service.handleCoreFailure(failed1);
    ASSERT_TRUE(out1.has_value());
    ASSERT_EQ(out1->borrows.size(), 1u);
    EXPECT_EQ(out1->borrows[0].fromBlock, 1u);
    EXPECT_EQ(out1->borrows[0].toBlock, 2u);
    EXPECT_EQ(out1->block, 2u);
    // The chain absorbed the lent core: the pool is dry again and
    // the lent core now holds weights in block 2.
    EXPECT_EQ(out1->remap.absorbedKvCore, out1->borrows[0].core);
    const auto &weights = service.placement(2).weightCores;
    EXPECT_NE(std::find(weights.begin(), weights.end(),
                        out1->borrows[0].core),
              weights.end());

    drainPool(service, 1);
    drainPool(service, 3);
    const CoreCoord failed2 = service.placement(2).weightCores[1];
    const auto out2 = service.handleCoreFailure(failed2);
    ASSERT_TRUE(out2.has_value());
    ASSERT_EQ(out2->borrows.size(), 1u);
    EXPECT_EQ(out2->borrows[0].fromBlock, 0u);
    EXPECT_EQ(service.borrowCount(), 2u);
}

TEST(RecoveryService, BorrowLendsDonorsNearestKvCore)
{
    // The donor lends its nearest KV core to the failure site, with
    // the oracle scan's tie-break (score pool first, lower index
    // first), and the core keeps its duty in the borrower's pool.
    const WaferGeometry geom(2, 2, 6, 6);
    const ModelConfig model = tinyModel();
    const WaferMapping mapping =
        buildMapping(geom, model, 1, nullptr);
    RecoveryService service(mapping, NocParams{},
                            CoreParams{}.sramBytes(), nullptr);

    drainPool(service, 0);
    const BlockPlacement donor_before = service.placement(1);
    const CoreCoord failed = service.placement(0).weightCores[0];

    // Expected lent core: the oracle scan over the donor's pools.
    CoreCoord expect_core;
    bool expect_score = false;
    std::uint32_t best = UINT32_MAX;
    for (const auto *pool :
         {&donor_before.scoreCores, &donor_before.contextCores}) {
        for (const CoreCoord c : *pool) {
            const auto d = geom.manhattan(failed, c);
            if (d < best) {
                best = d;
                expect_core = c;
                expect_score = pool == &donor_before.scoreCores;
            }
        }
    }

    const auto out = service.handleCoreFailure(failed);
    ASSERT_TRUE(out.has_value());
    ASSERT_EQ(out->borrows.size(), 1u);
    EXPECT_EQ(out->borrows[0].core, expect_core);
    EXPECT_EQ(out->borrows[0].scoreDuty, expect_score);
    // Donor lost exactly that core.
    const auto &donor_after = service.placement(1);
    EXPECT_EQ(aliveCores(donor_after) + 1, aliveCores(donor_before));
    const auto &pool = expect_score ? donor_after.scoreCores
                                    : donor_after.contextCores;
    EXPECT_EQ(std::find(pool.begin(), pool.end(), expect_core),
              pool.end());
}

TEST(RecoveryService, ChainsNeverLendAcrossReplicas)
{
    // Replica chains are independent fault domains: exhausting chain
    // 0's whole KV capacity fails its next weight recovery even
    // though chain 1 has plenty - and chain 1 is left untouched.
    const WaferGeometry geom(3, 3, 8, 8);
    const ModelConfig model = tinyModel();
    const WaferMapping mapping =
        buildMapping(geom, model, 2, nullptr);
    RecoveryService service(mapping, NocParams{},
                            CoreParams{}.sramBytes(), nullptr);
    ASSERT_EQ(service.numReplicas(), 2u);

    std::vector<BlockPlacement> chain1_before;
    for (std::uint64_t b = 0; b < model.numBlocks; ++b)
        chain1_before.push_back(service.placement(b, 1));
    const std::uint64_t chain1_kv = chainKvCores(service, 1);
    ASSERT_GT(chain1_kv, 0u);

    for (std::uint64_t b = 0; b < model.numBlocks; ++b)
        drainPool(service, b, 0);
    EXPECT_EQ(chainKvCores(service, 0), 0u);

    const CoreCoord failed = service.placement(0, 0).weightCores[0];
    EXPECT_FALSE(service.handleCoreFailure(failed).has_value());

    EXPECT_EQ(chainKvCores(service, 1), chain1_kv);
    for (std::uint64_t b = 0; b < model.numBlocks; ++b) {
        EXPECT_TRUE(samePlacement(service.placement(b, 1),
                                  chain1_before[b]));
    }
}

TEST(RecoveryService, BorrowDisabledFailsDry)
{
    const WaferGeometry geom(2, 2, 6, 6);
    const ModelConfig model = tinyModel();
    const WaferMapping mapping =
        buildMapping(geom, model, 1, nullptr);
    RecoveryServiceOptions sopts;
    sopts.allowKvBorrow = false;
    RecoveryService service(mapping, NocParams{},
                            CoreParams{}.sramBytes(), nullptr,
                            sopts);
    drainPool(service, 0);
    const CoreCoord failed = service.placement(0).weightCores[0];
    EXPECT_FALSE(service.handleCoreFailure(failed).has_value());
    EXPECT_EQ(service.borrowCount(), 0u);
}

TEST(RecoveryService, BorrowedCoreServesLaterFailures)
{
    // Ownership follows the graft: a borrowed core that later fails
    // is handled by the borrowing block (it holds one of its weight
    // tiles by then), triggering the next borrow.
    const WaferGeometry geom(2, 2, 6, 6);
    const ModelConfig model = tinyModel();
    const WaferMapping mapping =
        buildMapping(geom, model, 1, nullptr);
    RecoveryService service(mapping, NocParams{},
                            CoreParams{}.sramBytes(), nullptr);
    drainPool(service, 0);
    const auto out1 = service.handleCoreFailure(
            service.placement(0).weightCores[0]);
    ASSERT_TRUE(out1.has_value());
    ASSERT_EQ(out1->borrows.size(), 1u);

    const auto out2 =
        service.handleCoreFailure(out1->borrows[0].core);
    ASSERT_TRUE(out2.has_value());
    EXPECT_EQ(out2->block, 0u);
    ASSERT_EQ(out2->borrows.size(), 1u);
    EXPECT_EQ(service.borrowCount(), 2u);
}

TEST(RecoveryService, DeadAndForeignCoresReturnNullopt)
{
    const WaferGeometry geom(2, 2, 6, 6);
    const ModelConfig model = tinyModel();
    const WaferMapping mapping =
        buildMapping(geom, model, 1, nullptr);
    RecoveryService service(mapping, NocParams{},
                            CoreParams{}.sramBytes(), nullptr);

    // An embedding core is outside every recovery fault domain.
    ASSERT_FALSE(mapping.embeddingCores().empty());
    EXPECT_FALSE(service
                         .handleCoreFailure(
                                 mapping.embeddingCores().front())
                         .has_value());

    // A recovered (dead) core fails over to nullopt on re-failure.
    const CoreCoord failed = service.placement(0).weightCores[3];
    ASSERT_TRUE(service.handleCoreFailure(failed).has_value());
    EXPECT_FALSE(service.handleCoreFailure(failed).has_value());
}

/** The per-link oracle of priceEdges(): @p edges' flows loaded
 *  with accumulateInterBlockFlows onto a fresh mesh carrying the
 *  same defects and failed links as @p service's. Returns the total
 *  effective byte-hops and whether every flow routed. */
std::pair<double, bool>
oracleEdgeVolume(const RecoveryService &service,
                 const std::vector<LayerSpec> &specs,
                 std::uint32_t tiles_per_block, const DefectMap *defects,
                 const std::vector<std::pair<CoreCoord, LinkDir>> &links,
                 const std::vector<InterBlockEdge> &edges)
{
    const WaferGeometry &geom = service.noc().geometry();
    MeshNoc noc(geom, service.noc().params(), defects);
    for (const auto &[from, dir] : links)
        noc.failLink(from, dir);
    TrafficAccumulator traffic(noc);
    bool routable = true;
    for (const auto &[rep, block] : edges) {
        routable = accumulateInterBlockFlows(
                           specs, tiles_per_block,
                           service.placement(block, rep).weightCores,
                           service.placement(block + 1, rep)
                                   .weightCores,
                           traffic) &&
                   routable;
    }
    return {traffic.totalEffectiveByteHops(), routable};
}

TEST(RecoveryService, RepricesAffectedInterBlockFlows)
{
    // Every priced figure is the routed volume of the product flow
    // definition over the post-recovery placements, BIT-identical to
    // the accumulator oracle on a fresh mesh with the same fault
    // state: clean and defective wafers, two replica chains, a
    // failure sequence with a link failing midway. The inter-die
    // penalty is inexact in binary, so the sums round and any
    // regrouping of a flow's hops shows.
    const WaferGeometry geom(3, 3, 8, 8);
    const ModelConfig model = tinyModel();
    const Bytes tile_bytes = CoreParams{}.sramBytes();
    NocParams noc_params;
    noc_params.interDiePenalty = 1.37;
    for (const std::uint64_t defect_seed : {0ull, 5ull}) {
        std::optional<DefectMap> defects;
        if (defect_seed != 0) {
            Rng rng(defect_seed);
            defects.emplace(geom, YieldParams{}, rng);
        }
        const DefectMap *dmap = defects ? &*defects : nullptr;
        const WaferMapping mapping = buildMapping(geom, model, 2, dmap);
        const auto &specs = mapping.layerSpecs();
        const std::uint32_t tiles = mapping.tilesPerBlock();
        RecoveryService service(mapping, noc_params, tile_bytes, dmap);
        std::vector<std::pair<CoreCoord, LinkDir>> links;

        // Block 0's first weight failure moves tiles and touches the
        // chain's only edge, block 0 -> 1.
        const auto first = service.handleCoreFailure(
                service.placement(0).weightCores[0]);
        ASSERT_TRUE(first.has_value());
        ASSERT_FALSE(first->remap.moves.empty());
        const auto first_edges = service.touchedEdges(*first);
        ASSERT_EQ(first_edges, (std::vector<InterBlockEdge>{{0, 0}}));
        const RepriceResult priced = service.priceEdges(first_edges);
        EXPECT_TRUE(priced.flowsRoutable);
        EXPECT_GT(priced.interBlockByteHops, 0.0);
        EXPECT_EQ(priced.interBlockByteHops,
                  oracleEdgeVolume(service, specs, tiles, dmap, links,
                                   {{0, 0}})
                          .first);

        Rng rng(41 + defect_seed);
        std::uint64_t repriced = 0;
        for (int k = 0; k < 12; ++k) {
            if (k == 6) {
                // Fail the first hop of chain 1's first inter-block
                // flow, so later pricing detours around it.
                CoreCoord src, dst;
                forEachInterBlockFlow(
                        specs, tiles, service.placement(0, 1).weightCores,
                        service.placement(1, 1).weightCores,
                        [&](CoreCoord s, CoreCoord d, Bytes) {
                            src = s;
                            dst = d;
                            return false;
                        });
                const auto &path = service.noc().routeCached(src, dst);
                ASSERT_GE(path.size(), 2u);
                links.emplace_back(path[0],
                                   MeshNoc::stepDir(path[0], path[1]));
                service.failLink(links.back().first,
                                 links.back().second);
            }
            const auto rep = static_cast<std::uint32_t>(
                    rng.uniformInt(0, 1));
            const std::uint64_t block =
                rng.uniformInt(0, model.numBlocks - 1);
            const auto &weights = service.placement(block, rep).weightCores;
            const auto got = service.handleCoreFailure(
                    weights[rng.uniformInt(0, weights.size() - 1)]);
            const auto edges = got ? service.touchedEdges(*got)
                                   : std::vector<InterBlockEdge>{};
            const RepriceResult priced_k = service.priceEdges(edges);
            const auto [want, routable] = oracleEdgeVolume(
                    service, specs, tiles, dmap, links, edges);
            EXPECT_EQ(priced_k.flowsRoutable, routable)
                << "failure " << k;
            EXPECT_EQ(priced_k.interBlockByteHops, want)
                << "failure " << k;
            repriced += edges.size();
        }
        EXPECT_GT(repriced, 4u);

        // Both chains at once, in one continuous sum.
        const std::vector<InterBlockEdge> all{{0, 0}, {1, 0}};
        const RepriceResult whole = service.priceEdges(all);
        const auto [want, routable] =
            oracleEdgeVolume(service, specs, tiles, dmap, links, all);
        EXPECT_EQ(whole.flowsRoutable, routable);
        EXPECT_EQ(whole.interBlockByteHops, want);

        const auto seconds =
            chainInterBlockSeconds(service, specs, tiles, 0);
        ASSERT_TRUE(seconds.has_value());
        EXPECT_GT(*seconds, 0.0);
    }
}

/** The edges a weight move in (replica, block) touches: the
 *  predecessor flow in and the block's own flow out, ascending. */
std::vector<InterBlockEdge>
movedBlockEdges(const RecoveryService &service, std::uint32_t replica,
                std::uint64_t block)
{
    std::vector<InterBlockEdge> edges;
    if (block > service.firstBlock())
        edges.emplace_back(replica, block - 1);
    if (block + 1 < service.firstBlock() + service.numBlocks())
        edges.emplace_back(replica, block);
    return edges;
}

TEST(RecoveryService, TouchedEdgesPriceLikeOracleFuzz)
{
    // Whole failure sequences across replicas and defect maps: every
    // handled failure must report exactly the edges its weight moves
    // touch (none for a KV drop), and one priceEdges() over the
    // sorted, deduped union of a storm's touched edges must equal the
    // per-link oracle on a fresh mesh bit for bit.
    const WaferGeometry geom(3, 3, 8, 8);
    const ModelConfig model = tinyModel();
    const Bytes tile_bytes = CoreParams{}.sramBytes();
    for (const std::uint64_t defect_seed : {0ull, 5ull}) {
        std::optional<DefectMap> defects;
        if (defect_seed != 0) {
            Rng rng(defect_seed);
            defects.emplace(geom, YieldParams{}, rng);
        }
        const DefectMap *dmap = defects ? &*defects : nullptr;
        const WaferMapping mapping =
            buildMapping(geom, model, 2, dmap);
        RecoveryService service(mapping, NocParams{}, tile_bytes, dmap);

        Rng rng(131 + defect_seed);
        std::vector<InterBlockEdge> touched;
        std::uint64_t handled = 0;
        std::uint64_t kv_drops = 0;
        for (int k = 0; k < 150; ++k) {
            const std::uint32_t rep = rng.uniformInt(0, 1);
            const std::uint64_t block =
                rng.uniformInt(0, model.numBlocks - 1);
            const auto &p = service.placement(block, rep);
            const std::size_t alive = aliveCores(p);
            if (alive == 0)
                continue;
            const CoreCoord failed = resolveFailure(
                    p, static_cast<std::size_t>(
                               rng.uniformInt(0, alive - 1)));
            const auto got = service.handleCoreFailure(failed);
            if (!got)
                continue;
            ++handled;

            // A KV drop moves no weight tile and touches nothing; a
            // weight move touches exactly its predecessor and own
            // edges.
            std::vector<InterBlockEdge> want;
            if (got->remap.moves.empty())
                ++kv_drops;
            else
                want = movedBlockEdges(service, got->replica,
                                       got->block);
            const auto edges = service.touchedEdges(*got);
            EXPECT_EQ(edges, want) << "failure " << k;
            touched.insert(touched.end(), edges.begin(), edges.end());
        }
        ASSERT_GT(handled, 0u);
        EXPECT_GT(kv_drops, 0u);
        EXPECT_LT(kv_drops, handled);

        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
        ASSERT_FALSE(touched.empty());
        const RepriceResult priced = service.priceEdges(touched);
        const auto [want, routable] = oracleEdgeVolume(
                service, mapping.layerSpecs(), mapping.tilesPerBlock(),
                dmap, {}, touched);
        EXPECT_EQ(priced.interBlockByteHops, want);
        EXPECT_EQ(priced.flowsRoutable, routable);
    }
}

TEST(RecoveryService, PriceEdgesRejectsEdgesOffTheChain)
{
    // An edge is named by its tail block, so the chain's last block
    // has no edge: pricing one is a checked error on a one-replica
    // wafer (no region past the end) and with replicas (where the
    // next region belongs to another chain). So is a replica the
    // wafer does not carry.
    const WaferGeometry geom(3, 3, 8, 8);
    const ModelConfig model = tinyModel();
    const Bytes tile_bytes = CoreParams{}.sramBytes();
    const std::uint64_t last = model.numBlocks - 1;

    const RecoveryService single(buildMapping(geom, model, 1, nullptr),
                                 NocParams{}, tile_bytes, nullptr);
    EXPECT_TRUE(single.priceEdges({{0, last - 1}}).flowsRoutable);
    EXPECT_DEATH({ single.priceEdges({{0, last}}); },
                 "has no successor block");

    const RecoveryService replicated(
            buildMapping(geom, model, 2, nullptr), NocParams{},
            tile_bytes, nullptr);
    EXPECT_DEATH({ replicated.priceEdges({{0, last}}); },
                 "has no successor block");
    EXPECT_DEATH({ replicated.priceEdges({{2, 0}}); },
                 "not on this wafer");
}

TEST(RecoveryService, SystemChainAccountingMatchesMapping)
{
    OuroborosOptions opts;
    opts.smartMapping = false;
    auto sys = OuroborosSystem::build(llama13b(), {}, opts);
    ASSERT_TRUE(sys.has_value());

    // Per-chain accounting is consistent with the mapping's totals.
    std::uint64_t chain_kv = 0;
    for (std::uint32_t r = 0; r < sys->replicas(); ++r)
        chain_kv += sys->mapping().chainKvCores(r);
    EXPECT_EQ(chain_kv, sys->mapping().totalKvCores());

    std::uint64_t active = 0;
    for (std::uint32_t r = 0; r < sys->replicas(); ++r)
        active += sys->mapping().chainActiveCores(r);
    EXPECT_EQ(sys->activeCores(), active);
}

TEST(RecoveryService, SystemServiceMatchesStandaloneOnDefectiveWafer)
{
    // A service built by makeRecoveryService() and then moved into a
    // container slot must still route over its own copy of the
    // defect map. Drive it and a standalone service through the same
    // failures: recoveries, per-failure re-pricing and the full
    // chain price must agree bit for bit.
    OuroborosOptions opts;
    opts.smartMapping = false;
    auto sys = OuroborosSystem::build(llama13b(), {}, opts);
    ASSERT_TRUE(sys.has_value());
    ASSERT_NE(sys->defectMap(), nullptr);

    RecoveryService built = sys->makeRecoveryService();
    std::vector<RecoveryService> slots;
    slots.push_back(std::move(built));
    // The second push regrows the vector, moving slot 0 again.
    slots.push_back(sys->makeRecoveryService());
    RecoveryService &owned = slots.front();
    RecoveryService standalone = sys->makeRecoveryService();
    Rng rng(17);
    std::uint64_t moves = 0;
    std::uint64_t edges = 0;
    for (int k = 0; k < 40; ++k) {
        const auto rep = static_cast<std::uint32_t>(
                rng.uniformInt(0, sys->replicas() - 1));
        const std::uint64_t block =
            owned.firstBlock() +
            rng.uniformInt(0, owned.numBlocks() - 1);
        const auto &p = standalone.placement(block, rep);
        if (p.weightCores.empty())
            continue;
        const CoreCoord failed = p.weightCores[static_cast<std::size_t>(
                rng.uniformInt(0, p.weightCores.size() - 1))];
        const auto got = owned.handleCoreFailure(failed);
        const auto want = standalone.handleCoreFailure(failed);
        ASSERT_EQ(got.has_value(), want.has_value()) << "failure " << k;
        if (!got)
            continue;
        EXPECT_TRUE(sameResult(got->remap, want->remap));
        moves += got->remap.moves.size();

        const auto got_edges = owned.touchedEdges(*got);
        const auto want_edges = standalone.touchedEdges(*want);
        const RepriceResult a = owned.priceEdges(got_edges);
        const RepriceResult b = standalone.priceEdges(want_edges);
        EXPECT_EQ(a.interBlockByteHops, b.interBlockByteHops);
        EXPECT_EQ(a.flowsRoutable, b.flowsRoutable);
        EXPECT_EQ(got_edges, want_edges);
        edges += got_edges.size();
    }
    EXPECT_GT(moves, 0u);
    EXPECT_GT(edges, 0u);
    // The untouched slot shares none of the failures.
    EXPECT_EQ(slots.back().recoveries(), 0u);
    const WaferMapping &mapping = sys->mapping();
    for (std::uint32_t rep = 0; rep < sys->replicas(); ++rep) {
        EXPECT_EQ(chainInterBlockSeconds(owned, mapping.layerSpecs(),
                                         mapping.tilesPerBlock(), rep),
                  chainInterBlockSeconds(standalone,
                                         mapping.layerSpecs(),
                                         mapping.tilesPerBlock(), rep));
    }
}

TEST(RecoveryService, FailLinkDetoursCachedRouteAndRepricing)
{
    // failLink() on a system's service: a cached inter-block route
    // through the failed link detours around it, and re-pricing a
    // weight failure's touched edges over the detour costs no fewer
    // byte-hops than pricing them on an intact mesh.
    OuroborosOptions opts;
    opts.smartMapping = false;
    auto sys = OuroborosSystem::build(llama13b(), {}, opts);
    ASSERT_TRUE(sys.has_value());
    RecoveryService svc = sys->makeRecoveryService();
    RecoveryService intact = sys->makeRecoveryService();

    // The same weight failure on both services (same placements
    // after), touching the block's own edge block -> block + 1.
    const std::uint64_t block = svc.firstBlock();
    const CoreCoord failed = svc.placement(block).weightCores.front();
    const auto got = svc.handleCoreFailure(failed);
    const auto want = intact.handleCoreFailure(failed);
    ASSERT_TRUE(got.has_value());
    ASSERT_TRUE(want.has_value());
    const auto touched = svc.touchedEdges(*got);
    ASSERT_NE(std::find(touched.begin(), touched.end(),
                        InterBlockEdge{0, block}),
              touched.end());
    ASSERT_EQ(touched, intact.touchedEdges(*want));

    // One flow of that edge (forEachInterBlockFlow): the first
    // output part of the block's last layer to the first input part
    // of the next block's first layer.
    const auto &specs = sys->mapping().layerSpecs();
    const auto &cur = svc.placement(block).weightCores;
    const auto &nxt = svc.placement(block + 1).weightCores;
    const CoreCoord src =
        cur[cur.size() - specs.back().numTiles() +
            specs.back().inSplits - 1];
    const CoreCoord dst = nxt.front();
    const std::vector<CoreCoord> before =
        svc.noc().routeCached(src, dst);
    ASSERT_GE(before.size(), 2u);

    const LinkDir dir = MeshNoc::stepDir(before[0], before[1]);
    svc.failLink(before[0], dir);
    EXPECT_TRUE(svc.noc().linkFailed(before[0], dir));

    const std::vector<CoreCoord> &after = svc.noc().routeCached(src, dst);
    ASSERT_FALSE(after.empty());
    EXPECT_EQ(after.front(), src);
    EXPECT_EQ(after.back(), dst);
    for (std::size_t k = 0; k + 1 < after.size(); ++k)
        EXPECT_FALSE(after[k] == before[0] && after[k + 1] == before[1])
                << "hop " << k << " crosses the failed link";

    const RepriceResult detoured = svc.priceEdges(touched);
    const RepriceResult clean = intact.priceEdges(touched);
    EXPECT_TRUE(detoured.flowsRoutable);
    EXPECT_TRUE(clean.flowsRoutable);
    EXPECT_GE(detoured.interBlockByteHops, clean.interBlockByteHops);
}

} // namespace
} // namespace ouro
