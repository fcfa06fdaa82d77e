/**
 * @file
 * Replacement-chain fault recovery (paper Section 4.3.3, Fig. 9).
 *
 * When a core storing weights fails at runtime, Ouroboros does not
 * re-run the MIQP: it forms a *replacement chain* from the faulty
 * core to the nearest core storing KV cache. Weights propagate one
 * step along the chain (each core hands its tile to its successor);
 * the terminal KV core evicts its cached sequences (they will be
 * recomputed) and becomes a weight core. All moves happen in
 * parallel, so recovery latency is the slowest single hop - sub-
 * millisecond for 4 MB tiles on 256-bit links, matching the paper.
 *
 * A failed *KV* core is cheaper still: it is dropped from the KV
 * pool and only its resident sequences are recomputed.
 */

#ifndef OURO_MAPPING_REMAP_HH
#define OURO_MAPPING_REMAP_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "hw/geometry.hh"
#include "hw/params.hh"
#include "mapping/wafer_mapping.hh"
#include "noc/mesh.hh"

namespace ouro
{

/** Outcome of a weight-core recovery. */
struct RemapResult
{
    /** Tile relocations performed, in chain order (from -> to). */
    std::vector<std::pair<CoreCoord, CoreCoord>> moves;

    /** The KV core absorbed into weight duty at the chain's end. */
    CoreCoord absorbedKvCore;

    /** Total weight bytes moved. */
    Bytes movedBytes = 0;

    /** Parallel-shift recovery latency (seconds). */
    double latencySeconds = 0.0;

    /** Chain length in cores (including the failed one). */
    std::uint32_t chainLength = 0;
};

/** Result of the nearest-KV scan: the core plus which pool (duty)
 *  it came from. */
struct NearestKvScan
{
    CoreCoord core;
    bool scoreDuty = false;
};

/**
 * THE nearest-KV rule over @p placement's dedicated pools: score
 * pool before context pool, lower index first, strict improvement
 * only. The replacement chain's absorbing core and the recovery
 * service's cross-block donor pick both go through this one
 * definition, so their tie-breaks can never drift. std::nullopt when
 * both pools are empty.
 */
std::optional<NearestKvScan>
nearestKvScan(const BlockPlacement &placement, CoreCoord from,
              const WaferGeometry &geom);

/** Remove one coordinate from a core pool vector; true if found. */
bool removePoolCoord(std::vector<CoreCoord> &pool, CoreCoord target);

/**
 * Recover from the failure of @p failed within @p placement.
 *
 * If @p failed holds a weight tile, performs the replacement-chain
 * shift and returns its statistics; the placement is updated in
 * place. If @p failed is one of the placement's KV cores, it is
 * removed from the KV pool and an empty-move result is returned.
 * Returns std::nullopt when the core is not part of this placement
 * or no KV core remains to absorb the chain.
 *
 * Each move is priced over the mesh's actual (cached) route, so
 * shifts detour around fabrication defects and previously failed
 * links; all moves run in parallel, so the latency is the slowest
 * one.
 */
std::optional<RemapResult>
recoverCoreFailure(BlockPlacement &placement, CoreCoord failed,
                   const MeshNoc &noc, Bytes tile_bytes);

} // namespace ouro

#endif // OURO_MAPPING_REMAP_HH
