#include "remap.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace ouro
{

bool
removePoolCoord(std::vector<CoreCoord> &pool, CoreCoord target)
{
    const auto it = std::find(pool.begin(), pool.end(), target);
    if (it == pool.end())
        return false;
    pool.erase(it);
    return true;
}

std::optional<NearestKvScan>
nearestKvScan(const BlockPlacement &placement, CoreCoord from,
              const WaferGeometry &geom)
{
    // Ties resolve by visit order: score pool first, lower index
    // first.
    const std::vector<CoreCoord> *best_pool = nullptr;
    std::size_t best_idx = 0;
    std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
    for (const auto *candidates :
         {&placement.scoreCores, &placement.contextCores}) {
        for (std::size_t i = 0; i < candidates->size(); ++i) {
            const auto d = geom.manhattan(from, (*candidates)[i]);
            if (d < best) {
                best = d;
                best_pool = candidates;
                best_idx = i;
            }
        }
    }
    if (!best_pool)
        return std::nullopt;
    return NearestKvScan{(*best_pool)[best_idx],
                         best_pool == &placement.scoreCores};
}

std::optional<RemapResult>
recoverCoreFailure(BlockPlacement &placement, CoreCoord failed,
                   const MeshNoc &noc, Bytes tile_bytes)
{
    const WaferGeometry &geom = noc.geometry();

    // KV-core failure: drop from the pool; sequences recompute.
    // removePoolCoord detects and removes in a single pass per pool.
    if (removePoolCoord(placement.scoreCores, failed) ||
        removePoolCoord(placement.contextCores, failed)) {
        RemapResult result;
        result.absorbedKvCore = failed;
        result.chainLength = 1;
        return result;
    }

    // Weight-core failure: locate the tile.
    const auto tile_it = std::find(placement.weightCores.begin(),
                                   placement.weightCores.end(), failed);
    if (tile_it == placement.weightCores.end())
        return std::nullopt; // not ours
    const auto failed_tile = static_cast<std::size_t>(
            tile_it - placement.weightCores.begin());

    // Nearest KV core (either duty) absorbs the chain.
    const auto hit = nearestKvScan(placement, failed, geom);
    if (!hit)
        return std::nullopt; // no KV core left to absorb
    const CoreCoord kv_core = hit->core;

    // The chain: weight cores ordered by distance from the failed
    // core toward the KV core - each member at most one "ring slot"
    // closer. We use the weight cores whose distance to the KV core
    // is strictly less than the failed core's, sorted descending, so
    // each shift is short and local (Fig. 9's neighbour propagation).
    // Entries are (tile index, distance to KV), collected in
    // ascending tile order, which fixes the order the sort leaves
    // equal distances in.
    const std::uint32_t failed_dist = geom.manhattan(failed, kv_core);
    std::vector<std::pair<std::size_t, std::uint32_t>> chain;
    for (std::size_t t = 0; t < placement.weightCores.size(); ++t) {
        const CoreCoord c = placement.weightCores[t];
        if (c == failed)
            continue;
        const auto d = geom.manhattan(c, kv_core);
        // Members must lie "between" the failed core and the KV core:
        // closer to KV than the failed core is, and near the
        // failed-to-KV corridor (within its bounding box).
        const bool in_box =
            c.row >= std::min(failed.row, kv_core.row) &&
            c.row <= std::max(failed.row, kv_core.row) &&
            c.col >= std::min(failed.col, kv_core.col) &&
            c.col <= std::max(failed.col, kv_core.col);
        if (d < failed_dist && in_box)
            chain.emplace_back(t, d);
    }
    std::sort(chain.begin(), chain.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });

    RemapResult result;
    result.absorbedKvCore = kv_core;
    result.chainLength =
        static_cast<std::uint32_t>(chain.size()) + 2; // + failed + kv

    // Shift: failed's tile -> first chain member's core, whose tile
    // moves to the next, ...; the last member's tile lands on the KV
    // core. With an empty chain the failed tile goes directly to KV.
    CoreCoord vacated = kv_core;
    // Process back-to-front: the member closest to KV moves into the
    // KV core, freeing its own core for its predecessor.
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        const std::size_t tile = it->first;
        const CoreCoord from = placement.weightCores[tile];
        result.moves.emplace_back(from, vacated);
        placement.weightCores[tile] = vacated;
        vacated = from;
    }
    result.moves.emplace_back(failed, vacated);
    placement.weightCores[failed_tile] = vacated;

    // The KV core leaves the pool (it now holds weights).
    if (!removePoolCoord(placement.scoreCores, kv_core))
        removePoolCoord(placement.contextCores, kv_core);

    result.movedBytes = tile_bytes *
        static_cast<Bytes>(result.moves.size());

    // All shifts run in parallel: latency = slowest single move, each
    // priced over the mesh's actual route - detouring around defects
    // and failed links - from its hop count and whether it crosses a
    // die edge.
    for (const auto &[from, to] : result.moves) {
        result.latencySeconds =
            std::max(result.latencySeconds,
                     noc.transferSeconds(from, to, tile_bytes));
    }
    return result;
}

} // namespace ouro
