/**
 * @file
 * Wafer-level fault-recovery service (paper Section 4.3.3 scaled to
 * whole-wafer failure storms).
 *
 * A RecoveryService is the whole mutable fault state of one wafer;
 * OuroborosSystem::makeRecoveryService() builds one over the
 * system's immutable mapping and defect map, and the caller owns it
 * (the system keeps none). It owns
 *
 *  - one mutable BlockPlacement per (replica, block) region, copied
 *    from the WaferMapping at construction (the mapping itself stays
 *    immutable),
 *  - the MeshNoc (with its route cache) carrying the wafer's defect
 *    map and failed-link state (failLink() is delegated here),
 *  - a core -> region ownership map covering every weight and KV
 *    core of every chain.
 *
 * handleCoreFailure(core) is the single entry point: it routes the
 * failure to the owning region, runs the replacement-chain recovery
 * (recoverCoreFailure) on its placement, and marks the affected
 * inter-block activation flows of that chain dirty. The returned
 * FailureOutcome is all a caller learns of the failure:
 * resolveStormSchedule (sim/storm_run.hh) mirrors it into the serving
 * KV pool. The marks accumulate across a whole failure storm and
 * flushRepricing() prices each distinct edge exactly once (through
 * the cached mesh) when a caller wants the figure; a caller that
 * wants per-failure prices flushes after every failure. Storm
 * re-pricing therefore costs O(distinct dirty edges), not
 * O(failures x adjacent edges). When a weight-core failure finds the
 * block's KV pool dry, the service borrows a KV core from an adjacent
 * block of the SAME replica chain before retrying - chains never lend
 * across replicas, preserving the fault-domain isolation the
 * replicated-embedding layout establishes.
 *
 * Borrowing is deterministic: donor blocks are visited in
 * nearest-block order (distance 1, 2, ... from the dry block; the
 * lower-numbered block first on ties), the donor's lent core is its
 * nearest KV core to the failed core (nearestKvScan, the tie-break
 * recoverCoreFailure's absorbing core uses too), and the core keeps
 * its score/context duty in the borrower's pool.
 *
 * Bit-identity contract: as long as borrowing never triggers, the
 * service's RemapResults are BIT-IDENTICAL to driving
 * recoverCoreFailure directly over mirror placements on a separate
 * mesh, for whole failure sequences across replicas and defect maps:
 * the service adds routing, ownership and borrowing, never a second
 * chain rule. Tests fuzz this and bench_fault_tolerance asserts it on
 * every run.
 */

#ifndef OURO_RUNTIME_RECOVERY_SERVICE_HH
#define OURO_RUNTIME_RECOVERY_SERVICE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "hw/geometry.hh"
#include "hw/params.hh"
#include "hw/yield.hh"
#include "mapping/remap.hh"
#include "mapping/wafer_mapping.hh"
#include "noc/mesh.hh"

namespace ouro
{

struct RecoveryServiceOptions
{
    /** false restores the pre-service behaviour: a weight-core
     *  failure in a block whose KV pool is dry fails (nullopt)
     *  instead of borrowing from adjacent blocks. */
    bool allowKvBorrow = true;
};

/** One inter-block activation flow, named by its tail: edge
 *  {replica, b} is chain replica's flow block b -> b + 1. */
using InterBlockEdge = std::pair<std::uint32_t, std::uint64_t>;

/** What one flushRepricing() (or priceEdges()) run priced. */
struct RepriceResult
{
    /** Effective byte-hops over all edges priced in this run (one
     *  continuous MeshNoc::addRouteVolume sum in edge order; die
     *  crossings weighted by the inter-die penalty). */
    double interBlockByteHops = 0.0;

    /** Distinct edges priced. */
    std::uint64_t edges = 0;

    /** False when any priced flow became unroutable. */
    bool flowsRoutable = true;
};

/** One KV core lent across blocks of a replica chain. */
struct KvBorrow
{
    std::uint32_t replica = 0;
    std::uint64_t fromBlock = 0; ///< donor
    std::uint64_t toBlock = 0;   ///< the dry block
    CoreCoord core;
    bool scoreDuty = false; ///< duty kept across the graft

    bool operator==(const KvBorrow &other) const = default;
};

/** Everything one handled failure changed. */
struct FailureOutcome
{
    std::uint32_t replica = 0;
    std::uint64_t block = 0;
    RemapResult remap;

    /** KV cores grafted into the block before the chain could
     *  complete (empty when the pool was healthy). */
    std::vector<KvBorrow> borrows;
};

class RecoveryService
{
  public:
    /**
     * Build the service over @p mapping. @p defects is copied (the
     * service owns its fault state). @p tile_bytes prices the
     * replacement-chain moves (one weight tile per hop).
     */
    RecoveryService(const WaferMapping &mapping,
                    const NocParams &noc_params, Bytes tile_bytes,
                    const DefectMap *defects = nullptr,
                    const RecoveryServiceOptions &opts = {});

    /**
     * Handle the failure of @p failed: route it to the owning
     * region, recover (borrowing KV capacity from adjacent blocks of
     * the same chain if the pool is dry), and mark the affected
     * inter-block flows dirty (only when weight tiles moved: the
     * predecessor edge and the block's own edge). Returns
     * std::nullopt when the core is not (or no longer) owned by any
     * region, or when recovery is impossible (the whole chain's KV
     * capacity is exhausted).
     */
    std::optional<FailureOutcome> handleCoreFailure(CoreCoord failed);

    /** Mark a link failed; subsequent routes (and re-pricings)
     *  detour. Delegates to the owned mesh. */
    void failLink(CoreCoord from, LinkDir dir);

    /** The owned mesh (defect map + failed links + route caches). */
    const MeshNoc &noc() const { return *noc_; }

    std::uint32_t numReplicas() const { return numReplicas_; }
    std::uint64_t numBlocks() const { return numBlocks_; }
    std::uint64_t firstBlock() const { return firstBlock_; }

    /** Current (post-recovery) placement of a region. */
    const BlockPlacement &placement(std::uint64_t block,
                                    std::uint32_t replica = 0) const;

    /** Dedicated KV cores currently left in one chain. */
    std::uint64_t chainKvCores(std::uint32_t replica) const;

    /**
     * Price every currently-dirty inter-block edge exactly once (in
     * ascending (replica, block) order) and clear the dirty set.
     * Call it after each failure for per-failure prices, or once at
     * storm quiescence. No-op result when the dirty set is empty.
     */
    RepriceResult flushRepricing();

    /** Price exactly @p edges (in the given order) over the current
     *  placements and fault state, without touching the dirty set
     *  (the comparator for bit-identity tests and benches). Every
     *  edge's tail block must have a successor in its chain. */
    RepriceResult
    priceEdges(const std::vector<InterBlockEdge> &edges) const;

    /** Edges currently awaiting flushRepricing(), in ascending
     *  order. */
    std::vector<InterBlockEdge> dirtyEdges() const;

    /** Total edges priced by flushRepricing() so far. */
    std::uint64_t repricedEdges() const { return repricedEdges_; }

    /** Failures successfully handled (weight chains + KV drops). */
    std::uint64_t recoveries() const { return recoveries_; }

    /** KV cores borrowed across blocks so far. */
    std::uint64_t borrowCount() const { return borrowCount_; }

    const RecoveryServiceOptions &options() const { return opts_; }

  private:
    /** One replica-chain region's mutable recovery state. */
    struct Region
    {
        std::uint32_t replica = 0;
        std::uint64_t block = 0; ///< absolute block id
        BlockPlacement placement;
    };

    Region &region(std::uint64_t block, std::uint32_t replica);
    const Region &region(std::uint64_t block,
                         std::uint32_t replica) const;

    /** Graft one KV core from the nearest non-dry adjacent block of
     *  @p dry's chain; returns false when the whole chain is dry. */
    bool borrowKvCore(Region &dry, CoreCoord near,
                      std::vector<KvBorrow> &borrows);

    /** Mark the inter-block edges block @p block feeds (predecessor
     *  flow in, own flow out) dirty for the next flushRepricing(). */
    void markDirtyEdges(std::uint32_t replica, std::uint64_t block);

    WaferGeometry geom_;
    std::vector<LayerSpec> specs_;
    std::uint32_t tilesPerBlock_ = 0;
    std::uint64_t firstBlock_ = 0;
    std::uint64_t numBlocks_ = 0;
    std::uint32_t numReplicas_ = 1;
    Bytes tileBytes_ = 0;
    RecoveryServiceOptions opts_;

    /** The service owns its fault state: the defect map copy and
     *  the mesh overlaying it. Both live on the heap so a moved
     *  service (makeRecoveryService() returns by value) keeps the
     *  mesh's DefectMap pointer valid; noc_ must be constructed after
     *  defects_. */
    std::unique_ptr<const DefectMap> defects_;
    std::unique_ptr<MeshNoc> noc_;

    /** Replica-major, like WaferMapping: regions_[rep * numBlocks_ +
     *  (block - firstBlock_)]. */
    std::vector<Region> regions_;

    /** Core index -> region slot (kUnowned for embedding, dead and
     *  unmapped cores), covering every weight and KV core of every
     *  chain; maintained across recoveries and borrows (dead cores
     *  are unowned, borrowed cores re-homed). */
    static constexpr std::uint32_t kUnowned = ~std::uint32_t{0};
    std::vector<std::uint32_t> owner_;

    /** Inter-block edges awaiting re-pricing. std::set: ascending
     *  iteration gives flushRepricing() a deterministic edge order,
     *  and duplicate marks across a storm coalesce for free. */
    std::set<InterBlockEdge> dirty_;

    std::uint64_t recoveries_ = 0;
    std::uint64_t borrowCount_ = 0;
    std::uint64_t repricedEdges_ = 0;
};

} // namespace ouro

#endif // OURO_RUNTIME_RECOVERY_SERVICE_HH
