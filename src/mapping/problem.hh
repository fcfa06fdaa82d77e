/**
 * @file
 * The inter-core weight-mapping problem (paper Section 4.3.1).
 *
 * The mapper places the weight tiles of ONE transformer block onto a
 * region of CIM cores (constraint (1): LLMs are stacks of identical
 * blocks, so one block's mapping is computed once and repeated). Each
 * dense layer l is tiled I(l) x O(l) ways: inputs in 1024-channel
 * slices (the crossbar row height), outputs in 4096-channel slices
 * (32 crossbars x 128 columns), prioritising output-channel splits to
 * avoid high-bitwidth partial-sum transfers (constraint (2)).
 *
 * The MIQP objective (Eq. 1) prices three flows between tile pairs:
 *   - inter-layer activation: output part o of layer l feeds input
 *     part i of layer l+1 where their channel ranges overlap;
 *   - intra-layer reduction: every non-final input split sends 32-bit
 *     partial sums to the final input split of the same output part;
 *   - gather: the reducer tiles of a layer exchange their slices so
 *     each holds the full activation for forwarding.
 * Distances are Manhattan hops; crossing a die boundary multiplies by
 * CostInter (Table 1). Constraints: one tile per core, no tiles on
 * defective cores (Eq. 2), each layer uses exactly #Core(l) cores
 * (Eq. 3) - our tiling makes #Core(l) = I(l) * O(l) by construction.
 *
 * Sparse cost engine: almost all tile pairs exchange zero bytes, so
 * the problem precomputes, once, per-tile adjacency lists of the
 * nonzero-flow partners in ascending partner order with their directed
 * byte volumes. assignmentCost / moveDelta / swapDelta run over those
 * lists and price each flow from a per-candidate slot array (the core
 * coordinate and its die's flat index, built in O(C)): Manhattan
 * distance of the two coordinates, times CostInter when the die
 * indices differ. Because a zero-flow pair contributes exactly +0.0 to
 * the dense Eq. 1 sums and the nonzero terms are visited in the same
 * (ascending) order with the same ((dist * bytes) * penalty)
 * association, the sparse results are BIT-IDENTICAL to the dense
 * reference in oracles/mapping.hh, which prices through the geometry
 * directly - tests and the fig18 harness assert this.
 *
 * The sparse engine is the only cost engine: the annealer and the
 * wafer build price through it.
 */

#ifndef OURO_MAPPING_PROBLEM_HH
#define OURO_MAPPING_PROBLEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hh"
#include "hw/geometry.hh"
#include "hw/params.hh"
#include "hw/yield.hh"
#include "model/llm.hh"

namespace ouro
{

/** One dense layer of the block, with its tiling. */
struct LayerSpec
{
    std::string name;
    std::uint64_t inDim = 0;
    std::uint64_t outDim = 0;
    std::uint32_t inSplits = 1;   ///< I(l)
    std::uint32_t outSplits = 1;  ///< O(l)

    std::uint32_t numTiles() const { return inSplits * outSplits; }

    /** Channel extents of split parts (last part may be smaller). */
    std::uint64_t inPartLo(std::uint32_t i) const;
    std::uint64_t inPartHi(std::uint32_t i) const;   // exclusive
    std::uint64_t outPartLo(std::uint32_t o) const;
    std::uint64_t outPartHi(std::uint32_t o) const;  // exclusive

    /** Partial-sum bytes per token sent by a non-final input split
     *  of output part o (32-bit partials). */
    Bytes reductionVolume(std::uint32_t o) const;

    /** Gather bytes per token exchanged by reducer tiles of part o. */
    Bytes gatherVolume(std::uint32_t o) const;
};

/** A tile to place: (layer, input split, output split). */
struct Tile
{
    std::uint32_t layer;
    std::uint32_t inSplit;
    std::uint32_t outSplit;

    bool operator==(const Tile &other) const = default;
};

/**
 * The full placement instance: layers + tiles, the candidate core
 * region, and the cost constants.
 */
class MappingProblem
{
  public:
    /**
     * Build the problem for one transformer block of @p model on cores
     * with @p core_params capacity, to be placed on the region
     * @p candidate_cores (ordered; defective cores excluded by the
     * caller or flagged via @p defects). O(T^2) in tiles for the flow
     * graph, O(C) in candidates for the slot array.
     */
    MappingProblem(const ModelConfig &model,
                   const CoreParams &core_params,
                   const WaferGeometry &geom,
                   std::vector<CoreCoord> candidate_cores,
                   double cost_inter = 2.0,
                   const DefectMap *defects = nullptr);

    /**
     * Clone this problem onto a *congruent* candidate region: same
     * model/tiling (the layers, tiles and the sparse flow graph are
     * reused verbatim - the O(T^2) flow enumeration is NOT re-run),
     * new candidate cores. Regions are congruent when they are
     * defect-free index slices of equal length, which is exactly what
     * WaferMapping's usable-core filtering produces; the translated
     * problem is therefore built defect-free. assignmentCost (and the
     * other engine entry points) on the translated problem are
     * BIT-IDENTICAL to a from-scratch MappingProblem over the same
     * region: the flow lists are byte-for-byte the same and the
     * distances/penalties come from the same geometry arithmetic
     * (tests and fig18_mapping assert this against the retained
     * per-block rebuild oracle).
     */
    MappingProblem
    congruentTranslate(std::vector<CoreCoord> candidate_cores) const;

    const std::vector<LayerSpec> &layers() const { return layers_; }
    const std::vector<Tile> &tiles() const { return tiles_; }
    const std::vector<CoreCoord> &candidates() const
    {
        return candidates_;
    }
    const WaferGeometry &geometry() const { return geom_; }
    double costInter() const { return costInter_; }

    /** Cores one block needs (== tile count). */
    std::uint32_t tilesPerBlock() const
    {
        return static_cast<std::uint32_t>(tiles_.size());
    }

    /** True when the candidate core at region index r is usable. */
    bool candidateUsable(std::size_t r) const;

    /**
     * Quadratic cost (Eq. 1) of a full assignment: assignment[t] is an
     * index into candidates() for tile t.
     */
    double assignmentCost(
            const std::vector<std::uint32_t> &assignment) const;

    /**
     * Cost delta of moving tile @p t from its current core to
     * candidate @p new_slot (other tiles unchanged). Used by the
     * annealer's incremental evaluation.
     */
    double moveDelta(const std::vector<std::uint32_t> &assignment,
                     std::size_t t, std::uint32_t new_slot) const;

    /**
     * Cost delta of swapping the cores of tiles @p t1 and @p t2.
     * Sparse engine over the merged adjacency of the two tiles, in
     * ascending partner order.
     */
    double swapDelta(const std::vector<std::uint32_t> &assignment,
                     std::size_t t1, std::size_t t2) const;

    /**
     * Directed flow volume F(a -> b): the byte factor the Eq. 1 term
     * of tiles a and b multiplies by distance and penalty. Symmetric in
     * *sparsity* (F(a->b) != 0 iff F(b->a) != 0) but not always in
     * value: the gather term prices the first tile's slice.
     */
    Bytes flowBetween(std::size_t a, std::size_t b) const;

    /** Nonzero-flow partner count of tile @p t (sparse degree). */
    std::size_t flowDegree(std::size_t t) const
    {
        return flow_->offsets[t + 1] - flow_->offsets[t];
    }

    /** Total directed nonzero-flow pairs (sum of degrees). */
    std::size_t flowEdges() const { return flow_->partner.size(); }

    /** True when both problems share one immutable flow CSR (the
     *  congruentTranslate O(1) share, not merely equal contents). */
    bool sharesFlowGraphWith(const MappingProblem &other) const
    {
        return flow_ == other.flow_;
    }

    /** Verify constraints (Eq. 2/3): a legal one-to-one placement. */
    bool feasible(const std::vector<std::uint32_t> &assignment) const;

    /** Overlap in channels between [lo1,hi1) and [lo2,hi2) - the
     *  byte factor of every activation flow (intra-region AND the
     *  inter-block flows of forEachInterBlockFlow). */
    static std::uint64_t overlap(std::uint64_t lo1, std::uint64_t hi1,
                                 std::uint64_t lo2,
                                 std::uint64_t hi2);

  private:
    /** Empty shell for congruentTranslate's field-wise clone. */
    MappingProblem() = default;

    std::vector<LayerSpec> layers_;
    std::vector<Tile> tiles_;
    std::vector<CoreCoord> candidates_;
    WaferGeometry geom_;
    double costInter_ = 2.0;
    const DefectMap *defects_ = nullptr;

    // Sparse flow graph (CSR): for tile t, partners are
    // partner[offsets[t] .. offsets[t+1]) in ascending order (t
    // itself never appears), bytes the directed volume F(t ->
    // partner) as an exact double, and upper[t] the first entry whose
    // partner index exceeds t. The CSR depends only on the tiling,
    // never on the candidate region, so it is immutable once built
    // and shared (not copied) across congruent translations -
    // congruentTranslate is O(1) in flow size.
    struct FlowCsr
    {
        std::vector<std::uint32_t> offsets;
        std::vector<std::uint32_t> upper;
        std::vector<std::uint32_t> partner;
        std::vector<double> bytes;
    };
    std::shared_ptr<const FlowCsr> flow_;

    // One entry per candidate: its coordinate and its die's flat index
    // (die row * dieCols + die col), so pricing a slot pair needs no
    // division. Built in O(C) for every region, translations included.
    struct Slot
    {
        CoreCoord core;
        std::uint32_t die;
    };
    std::vector<Slot> slots_;

    void buildFlowGraph();
    void buildSlots();

    double slotDist(std::uint32_t a, std::uint32_t b) const
    {
        return geom_.manhattan(slots_[a].core, slots_[b].core);
    }

    double slotPen(std::uint32_t a, std::uint32_t b) const
    {
        return slots_[a].die == slots_[b].die ? 1.0 : costInter_;
    }
};

/**
 * Derive the tiling of one block's layers for a given core capacity:
 * I(l) = ceil(inDim / crossbar rows), O(l) = ceil(outDim / (crossbars
 * x columns per crossbar)).
 */
std::vector<LayerSpec> tileBlockLayers(const ModelConfig &model,
                                       const CoreParams &core_params);

/** Cores needed by one block (sum of tiles over layers). */
std::uint32_t coresPerBlock(const ModelConfig &model,
                            const CoreParams &core_params);

} // namespace ouro

#endif // OURO_MAPPING_PROBLEM_HH
