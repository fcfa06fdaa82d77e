/**
 * @file
 * Whole-wafer placement: transformer blocks onto core regions
 * (Sections 4.3.1 and 4.4.2).
 *
 * The wafer's usable cores are walked in S-shaped order and divided
 * into one contiguous region per transformer block (plus a reserved
 * prefix for the embedding/LM-head tables). Within a region the
 * inter-core mapper (exact/greedy/annealing or a Fig. 18 baseline)
 * places the block's weight tiles; the cores the mapper leaves free
 * become that block's dedicated KV cores, split equally between
 * Q.K^T (score) and S.V (context) duty as Section 4.4.2 prescribes.
 *
 * Because all transformer blocks are identical (mapping constraint
 * (1)), the optimiser runs once on the first defect-free region and
 * the resulting placement pattern is replicated. The builder's fast
 * path exploits the same congruence one level deeper: replicated
 * regions reuse block 0's MappingProblem via congruentTranslate()
 * (no per-block O(T^2) flow re-enumeration); the per-block rebuild
 * is retained behind WaferMappingOptions::congruentReuse = false as
 * the bit-identity oracle.
 *
 * Inter-block activation flows (last reducer of block b -> first
 * layer of block b+1, enumerated by forEachInterBlockFlow) are
 * priced as a routed volume with MeshNoc::addRouteVolume (XY routes
 * walked in place, defect detours from the route cache); the total
 * is kept separately in interBlockByteHops() so per-region mapping
 * costs stay comparable across builds.
 *
 * Data-parallel replicas (opts.replicas > 1) are laid out for real:
 * every replica gets its own congruent region chain (replica r,
 * block b at region index r * num_blocks + b), so capacity and KV
 * accounting reflect the cores the replicas actually occupy.
 *
 * Replica chains are independent fault domains: each chain carries
 * its OWN embedding/LM-head reservation at the head of its core span,
 * so no chain shares any core with another and a failure storm inside
 * one chain can never touch its siblings.
 */

#ifndef OURO_MAPPING_WAFER_MAPPING_HH
#define OURO_MAPPING_WAFER_MAPPING_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "hw/geometry.hh"
#include "hw/params.hh"
#include "hw/yield.hh"
#include "mapping/mappers.hh"
#include "mapping/problem.hh"
#include "model/llm.hh"

namespace ouro
{

/** Which placement algorithm fills each block's region. */
enum class MapperKind
{
    Greedy,
    Annealing,
    Summa,     ///< Cerebras-default baseline (Fig. 18)
    WaferLlm,  ///< WaferLLM baseline (Fig. 18)
};

/** Placement of one transformer block. */
struct BlockPlacement
{
    /** Core per tile, in the canonical (layer, o, i) tile order. */
    std::vector<CoreCoord> weightCores;

    /** Dedicated KV cores computing S = Q.K^T (store K). */
    std::vector<CoreCoord> scoreCores;

    /** Dedicated KV cores computing S.V (store V). */
    std::vector<CoreCoord> contextCores;

    /** MIQP objective value of this region's assignment. */
    double mappingCost = 0.0;
};

struct WaferMappingOptions
{
    MapperKind mapper = MapperKind::Annealing;
    std::uint64_t annealIterations = 3000;
    /** Independent annealing chains (best wins); they fan out on the
     *  parallel runtime with deterministic per-restart seeds. */
    std::uint32_t annealRestarts = 1;
    std::uint64_t seed = 1;
    double costInter = 2.0;

    /**
     * Data-parallel replicas of the whole pipeline sharing the wafer
     * (small models leave most cores idle otherwise). Every replica
     * is laid out on its own congruent region chain, led by its own
     * embedding/LM-head reservation.
     */
    std::uint32_t replicas = 1;

    /**
     * Reuse block 0's MappingProblem for congruent regions via
     * congruentTranslate() (the fast path). false re-runs the full
     * per-block MappingProblem construction - the retained oracle
     * that the fast path is asserted bit-identical against (tests
     * and fig18_mapping compare the two on every run).
     */
    bool congruentReuse = true;
};

/**
 * Placement of a contiguous range of transformer blocks on one wafer.
 */
class WaferMapping
{
  public:
    /**
     * Build a placement of blocks [first_block, first_block +
     * num_blocks) of @p model onto the wafer described by @p geom /
     * @p defects.
     *
     * Returns std::nullopt when the wafer cannot hold the requested
     * blocks (weights alone exceed usable capacity) or when the
     * defect map leaves an inter-block activation flow unroutable.
     */
    static std::optional<WaferMapping>
    build(const ModelConfig &model, const CoreParams &core_params,
          const WaferGeometry &geom, const DefectMap *defects,
          std::uint64_t first_block, std::uint64_t num_blocks,
          const WaferMappingOptions &opts = {});

    std::uint64_t firstBlock() const { return firstBlock_; }
    std::uint64_t numBlocks() const { return numBlocks_; }

    /** Data-parallel replica chains laid out on this wafer. */
    std::uint32_t numReplicas() const { return numReplicas_; }

    /** Placement of @p block in replica 0. */
    const BlockPlacement &placement(std::uint64_t block) const;

    /** Placement of @p block in replica @p replica. */
    const BlockPlacement &placement(std::uint64_t block,
                                    std::uint32_t replica) const;

    const std::vector<LayerSpec> &layerSpecs() const { return specs_; }

    std::uint32_t tilesPerBlock() const { return tilesPerBlock_; }

    /** Cores reserved for embedding / LM-head tables (replica 0's
     *  reservation). */
    const std::vector<CoreCoord> &embeddingCores() const
    {
        return embeddingChains_.front();
    }

    /** Embedding reservation of replica @p replica: each chain owns
     *  a disjoint one. */
    const std::vector<CoreCoord> &
    embeddingCores(std::uint32_t replica) const;

    /** Total dedicated KV cores across all placed blocks and
     *  replicas. */
    std::uint64_t totalKvCores() const;

    /** Dedicated KV cores of one replica chain (per-chain fault-
     *  domain accounting). */
    std::uint64_t chainKvCores(std::uint32_t replica) const;

    /** Cores one replica chain occupies: weights + KV across its
     *  blocks, plus its embedding reservation. */
    std::uint64_t chainActiveCores(std::uint32_t replica) const;

    /**
     * Sum of per-block MIQP objective values plus inter-block
     * activation flows - the Fig. 18 transmission-volume metric for
     * the whole wafer (byte-hops, die-crossings weighted CostInter).
     */
    double totalByteHops() const { return totalByteHops_; }

    /**
     * Inter-block activation flow alone: the last-reducer ->
     * first-tile flows of consecutive blocks, routed over the actual
     * mesh (defect detours included) with die-crossing hops weighted
     * by CostInter. Kept separate from the per-region mapping costs
     * so those stay comparable across builds.
     */
    double interBlockByteHops() const { return interBlockByteHops_; }

    const WaferGeometry &geometry() const { return geom_; }

  private:
    WaferMapping(const WaferGeometry &geom) : geom_(geom) {}

    WaferGeometry geom_;
    std::uint64_t firstBlock_ = 0;
    std::uint64_t numBlocks_ = 0;
    std::uint32_t numReplicas_ = 1;
    std::uint32_t tilesPerBlock_ = 0;
    std::vector<LayerSpec> specs_;
    /** Replica-major: placements_[rep * numBlocks_ + (block -
     *  firstBlock_)]; replica 0 leads so legacy indexing holds. */
    std::vector<BlockPlacement> placements_;
    /** One entry per chain; all entries empty when this wafer does
     *  not host block 0. */
    std::vector<std::vector<CoreCoord>> embeddingChains_;
    double totalByteHops_ = 0.0;
    double interBlockByteHops_ = 0.0;
};

/**
 * Cores per region when @p usable_cores (minus the @p reserved
 * embedding prefix) are divided into @p num_regions congruent
 * regions (blocks x replicas).
 */
std::uint64_t regionSize(std::uint64_t num_regions,
                         std::uint64_t usable_cores,
                         std::uint64_t reserved);

/** Cores needed for the embedding + LM-head tables. */
std::uint64_t embeddingCoreCount(const ModelConfig &model,
                                 const CoreParams &core_params);

/**
 * Enumerate the inter-block activation flows between two consecutive
 * blocks' weight placements: the last layer's reducer tiles of
 * @p cur forward their output slices to every first-layer tile of
 * @p nxt whose input range overlaps - the same flows the
 * intra-region objective prices across adjacent layers. Both
 * placements must be in the canonical (layer, o, i) tile order of
 * @p specs. This is THE definition of inter-block traffic:
 * WaferMapping::build and RecoveryService price its volume with
 * MeshNoc::addRouteVolume, and the test oracles load it onto links
 * (oracles/traffic.hh), so no two consumers can drift apart.
 *
 * Calls fn(src, dst, bytes) once per flow with bytes > 0, in a fixed
 * order (reducer o, then input slice i, then first-layer output
 * split o2). fn returns false to stop the walk (an unroutable flow);
 * the return value is false iff fn stopped it.
 */
template <typename Fn>
bool
forEachInterBlockFlow(const std::vector<LayerSpec> &specs,
                      std::uint32_t tiles_per_block,
                      const std::vector<CoreCoord> &cur,
                      const std::vector<CoreCoord> &nxt, Fn &&fn)
{
    ouroAssert(cur.size() == tiles_per_block &&
                       nxt.size() == tiles_per_block,
               "forEachInterBlockFlow: placement/tiling mismatch");
    const LayerSpec &first = specs.front();
    const LayerSpec &last = specs.back();
    const std::uint32_t last_offset =
        tiles_per_block - last.numTiles();
    for (std::uint32_t o = 0; o < last.outSplits; ++o) {
        const CoreCoord src =
            cur[last_offset + o * last.inSplits + last.inSplits - 1];
        for (std::uint32_t i = 0; i < first.inSplits; ++i) {
            const Bytes bytes = MappingProblem::overlap(
                    last.outPartLo(o), last.outPartHi(o),
                    first.inPartLo(i), first.inPartHi(i));
            if (bytes == 0)
                continue;
            for (std::uint32_t o2 = 0; o2 < first.outSplits; ++o2) {
                if (!fn(src, nxt[o2 * first.inSplits + i], bytes))
                    return false;
            }
        }
    }
    return true;
}

} // namespace ouro

#endif // OURO_MAPPING_WAFER_MAPPING_HH
