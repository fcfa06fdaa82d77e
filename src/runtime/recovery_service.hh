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
 * failure to the owning region and runs the replacement-chain
 * recovery (recoverCoreFailure) on its placement. The returned
 * FailureOutcome is all a caller learns of the failure:
 * resolveStormSchedule (sim/storm_run.hh) mirrors it into the serving
 * KV pool. The service keeps no re-pricing ledger: a caller that
 * wants the price of what moved asks touchedEdges(outcome) for the
 * inter-block activation flows a weight move touched and prices them
 * with priceEdges() (through the cached mesh); a caller that wants a
 * whole storm's price sorts and dedups the touched edges itself.
 * When a weight-core failure finds the block's KV pool dry, the
 * service borrows a KV core from an adjacent block of the SAME
 * replica chain before retrying - chains never lend across replicas,
 * preserving the fault-domain isolation the replicated-embedding
 * layout establishes.
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

/** What one priceEdges() run priced. */
struct RepriceResult
{
    /** Effective byte-hops over all edges priced in this run (one
     *  continuous MeshNoc::addRouteVolume sum in edge order; die
     *  crossings weighted by the inter-die penalty). */
    double interBlockByteHops = 0.0;

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
     * region and recover there, borrowing KV capacity from adjacent
     * blocks of the same chain if the pool is dry. Returns
     * std::nullopt when the core is not (or no longer) owned by any
     * region, or when recovery is impossible (the whole chain's KV
     * capacity is exhausted).
     */
    std::optional<FailureOutcome> handleCoreFailure(CoreCoord failed);

    /** Mark a link failed; subsequent routes (and priceEdges())
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

    /** The inter-block edges @p outcome's weight moves touched, in
     *  ascending order: the predecessor flow in and the block's own
     *  flow out, clipped to the chain. A KV drop (no moves) touches
     *  none. */
    std::vector<InterBlockEdge>
    touchedEdges(const FailureOutcome &outcome) const;

    /** Price exactly @p edges (in the given order) over the current
     *  placements and fault state, in one continuous volume sum.
     *  Every edge's tail block must have a successor in its chain. */
    RepriceResult
    priceEdges(const std::vector<InterBlockEdge> &edges) const;

    /** Failures successfully handled (weight chains + KV drops). */
    std::uint64_t recoveries() const { return recoveries_; }

    /** KV cores borrowed across blocks so far. */
    std::uint64_t borrowCount() const { return borrowCount_; }

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

    std::uint64_t recoveries_ = 0;
    std::uint64_t borrowCount_ = 0;
};

} // namespace ouro

#endif // OURO_RUNTIME_RECOVERY_SERVICE_HH
