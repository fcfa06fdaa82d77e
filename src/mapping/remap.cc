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
    // Ties resolve by visit order - score pool first, lower index
    // first - which is exactly the rank RecoveryIndex's sequence
    // numbers encode.
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

namespace
{

std::uint32_t
absDiff(std::uint32_t a, std::uint32_t b)
{
    return a > b ? a - b : b - a;
}

/**
 * Chain construction shared by both recoverCoreFailure overloads:
 * updates @p placement (and @p index when given) and fills
 * everything of the result except latencySeconds (the overloads
 * price the moves differently). The no-index scans are the retained
 * oracle the RecoveryIndex fast path is pinned identical to.
 */
std::optional<RemapResult>
buildReplacementChain(BlockPlacement &placement, CoreCoord failed,
                      const WaferGeometry &geom, Bytes tile_bytes,
                      RecoveryIndex *index)
{
    // KV-core failure: drop from the pool; sequences recompute. The
    // index answers membership in O(log); without one, removeCoord
    // detects and removes in a single pass per pool.
    const bool kv_failure =
        index ? index->kvAt(failed)
              : removePoolCoord(placement.scoreCores, failed) ||
                    removePoolCoord(placement.contextCores, failed);
    if (kv_failure) {
        if (index) {
            const bool removed =
                removePoolCoord(placement.scoreCores, failed) ||
                removePoolCoord(placement.contextCores, failed);
            ouroAssert(removed, "remap: KV pool lost core (",
                       failed.row, ",", failed.col, ")");
            index->removeKv(failed);
        }
        RemapResult result;
        result.absorbedKvCore = failed;
        result.chainLength = 1;
        return result;
    }

    // Weight-core failure: locate the tile.
    std::size_t failed_tile;
    if (index) {
        const auto tile = index->weightTileAt(failed);
        if (!tile)
            return std::nullopt; // not ours
        failed_tile = *tile;
    } else {
        const auto tile_it = std::find(placement.weightCores.begin(),
                                       placement.weightCores.end(),
                                       failed);
        if (tile_it == placement.weightCores.end())
            return std::nullopt; // not ours
        failed_tile = static_cast<std::size_t>(
                tile_it - placement.weightCores.begin());
    }

    // Nearest KV core (either duty) absorbs the chain. Ties resolve
    // by visit order - score pool first, lower index first - which
    // is exactly the rank RecoveryIndex's sequence numbers encode.
    CoreCoord kv_core;
    if (index) {
        const auto hit = index->nearestKv(failed);
        if (!hit)
            return std::nullopt; // no KV core left to absorb
        kv_core = hit->core;
    } else {
        const auto hit = nearestKvScan(placement, failed, geom);
        if (!hit)
            return std::nullopt; // no KV core left to absorb
        kv_core = hit->core;
    }

    // The chain: weight cores ordered by distance from the failed
    // core toward the KV core - each member at most one "ring slot"
    // closer. We use the weight cores whose distance to the KV core
    // is strictly less than the failed core's, sorted descending, so
    // each shift is short and local (Fig. 9's neighbour propagation).
    // Entries are (tile index, distance to KV). The index path
    // returns the corridor in the scan's ascending tile order, so
    // the sort below sees the identical input sequence either way
    // (and therefore emits the identical chain even among equal
    // distances).
    const std::uint32_t failed_dist = geom.manhattan(failed, kv_core);
    std::vector<std::pair<std::size_t, std::uint32_t>> chain;
    if (index) {
        chain = index->corridorTiles(failed, kv_core, failed_dist);
    } else {
        for (std::size_t t = 0; t < placement.weightCores.size();
             ++t) {
            const CoreCoord c = placement.weightCores[t];
            if (c == failed)
                continue;
            const auto d = geom.manhattan(c, kv_core);
            // Members must lie "between" the failed core and the KV
            // core: closer to KV than the failed core is, and near
            // the failed-to-KV corridor (within its bounding box).
            const bool in_box =
                c.row >= std::min(failed.row, kv_core.row) &&
                c.row <= std::max(failed.row, kv_core.row) &&
                c.col >= std::min(failed.col, kv_core.col) &&
                c.col <= std::max(failed.col, kv_core.col);
            if (d < failed_dist && in_box)
                chain.emplace_back(t, d);
        }
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
        if (index)
            index->moveWeight(tile, from, vacated);
        vacated = from;
    }
    result.moves.emplace_back(failed, vacated);
    placement.weightCores[failed_tile] = vacated;
    if (index)
        index->moveWeight(failed_tile, failed, vacated);

    // The KV core leaves the pool (it now holds weights).
    if (!removePoolCoord(placement.scoreCores, kv_core))
        removePoolCoord(placement.contextCores, kv_core);
    if (index)
        index->removeKv(kv_core);

    result.movedBytes = tile_bytes *
        static_cast<Bytes>(result.moves.size());
    return result;
}

} // namespace

// ---- RecoveryIndex ----

void
RecoveryIndex::insertEntry(Rows &rows, CoreCoord c,
                           std::uint32_t payload)
{
    auto &entries = rows[c.row];
    const auto it = std::lower_bound(
            entries.begin(), entries.end(), c.col,
            [](const Entry &e, std::uint32_t col) {
                return e.col < col;
            });
    ouroAssert(it == entries.end() || it->col != c.col,
               "RecoveryIndex: duplicate core (", c.row, ",", c.col,
               ")");
    entries.insert(it, {c.col, payload});
}

bool
RecoveryIndex::eraseEntry(Rows &rows, CoreCoord c)
{
    const auto row_it = rows.find(c.row);
    if (row_it == rows.end())
        return false;
    auto &entries = row_it->second;
    const auto it = std::lower_bound(
            entries.begin(), entries.end(), c.col,
            [](const Entry &e, std::uint32_t col) {
                return e.col < col;
            });
    if (it == entries.end() || it->col != c.col)
        return false;
    entries.erase(it);
    if (entries.empty())
        rows.erase(row_it);
    return true;
}

const RecoveryIndex::Entry *
RecoveryIndex::findEntry(const Rows &rows, CoreCoord c)
{
    const auto row_it = rows.find(c.row);
    if (row_it == rows.end())
        return nullptr;
    const auto &entries = row_it->second;
    const auto it = std::lower_bound(
            entries.begin(), entries.end(), c.col,
            [](const Entry &e, std::uint32_t col) {
                return e.col < col;
            });
    if (it == entries.end() || it->col != c.col)
        return nullptr;
    return &*it;
}

RecoveryIndex::RecoveryIndex(const BlockPlacement &placement)
{
    for (std::size_t t = 0; t < placement.weightCores.size(); ++t) {
        insertEntry(weightRows_, placement.weightCores[t],
                    static_cast<std::uint32_t>(t));
    }
    weightCount_ = placement.weightCores.size();
    // Scan-order sequence numbers: score pool first, then context,
    // each in pool order - the exact order the oracle scan visits.
    std::uint32_t seq = 0;
    for (const CoreCoord &c : placement.scoreCores)
        insertEntry(kvRows_, c, seq++);
    for (const CoreCoord &c : placement.contextCores)
        insertEntry(kvRows_, c, seq++);
    kvCount_ = seq;
}

std::optional<RecoveryIndex::KvHit>
RecoveryIndex::nearestKv(CoreCoord from) const
{
    bool found = false;
    std::uint32_t best_dist = 0;
    std::uint32_t best_seq = 0;
    CoreCoord best_core;
    const auto consider = [&](std::uint32_t row, const Entry &e,
                              std::uint32_t d) {
        if (!found || d < best_dist ||
            (d == best_dist && e.payload < best_seq)) {
            found = true;
            best_dist = d;
            best_seq = e.payload;
            best_core = {row, e.col};
        }
    };
    for (const auto &[row, entries] : kvRows_) {
        const std::uint32_t dr = absDiff(row, from.row);
        if (found && dr > best_dist)
            continue;
        // Expand a column window around the failure column; the
        // window shrinks as the best distance tightens. Equal-
        // distance entries are still visited (<=) so the scan-order
        // tie-break can fire.
        const auto lb = std::lower_bound(
                entries.begin(), entries.end(), from.col,
                [](const Entry &e, std::uint32_t col) {
                    return e.col < col;
                });
        for (auto it = lb; it != entries.end(); ++it) {
            const std::uint32_t d = dr + (it->col - from.col);
            if (found && d > best_dist)
                break;
            consider(row, *it, d);
        }
        for (auto it = lb; it != entries.begin();) {
            --it;
            const std::uint32_t d = dr + (from.col - it->col);
            if (found && d > best_dist)
                break;
            consider(row, *it, d);
        }
    }
    if (!found)
        return std::nullopt;
    return KvHit{best_core, best_seq};
}

std::vector<std::pair<std::size_t, std::uint32_t>>
RecoveryIndex::corridorTiles(CoreCoord failed, CoreCoord kv,
                             std::uint32_t failed_dist) const
{
    std::vector<std::pair<std::size_t, std::uint32_t>> out;
    const std::uint32_t rlo = std::min(failed.row, kv.row);
    const std::uint32_t rhi = std::max(failed.row, kv.row);
    const std::uint32_t clo = std::min(failed.col, kv.col);
    const std::uint32_t chi = std::max(failed.col, kv.col);
    for (auto row_it = weightRows_.lower_bound(rlo);
         row_it != weightRows_.end() && row_it->first <= rhi;
         ++row_it) {
        const std::uint32_t row = row_it->first;
        const auto &entries = row_it->second;
        auto it = std::lower_bound(
                entries.begin(), entries.end(), clo,
                [](const Entry &e, std::uint32_t col) {
                    return e.col < col;
                });
        for (; it != entries.end() && it->col <= chi; ++it) {
            const CoreCoord c{row, it->col};
            if (c == failed)
                continue;
            const std::uint32_t d =
                absDiff(row, kv.row) + absDiff(it->col, kv.col);
            if (d < failed_dist)
                out.emplace_back(it->payload, d);
        }
    }
    // Tile indices are unique, so this is exactly ascending tile
    // order - the oracle scan's collection order.
    std::sort(out.begin(), out.end());
    return out;
}

std::optional<std::size_t>
RecoveryIndex::weightTileAt(CoreCoord c) const
{
    const Entry *entry = findEntry(weightRows_, c);
    if (!entry)
        return std::nullopt;
    return static_cast<std::size_t>(entry->payload);
}

bool
RecoveryIndex::kvAt(CoreCoord c) const
{
    return findEntry(kvRows_, c) != nullptr;
}

void
RecoveryIndex::moveWeight(std::size_t tile, CoreCoord from,
                          CoreCoord to)
{
    const bool erased = eraseEntry(weightRows_, from);
    ouroAssert(erased, "RecoveryIndex: move from unknown core (",
               from.row, ",", from.col, ")");
    insertEntry(weightRows_, to, static_cast<std::uint32_t>(tile));
}

void
RecoveryIndex::removeKv(CoreCoord c)
{
    const bool erased = eraseEntry(kvRows_, c);
    ouroAssert(erased, "RecoveryIndex: removing unknown KV core (",
               c.row, ",", c.col, ")");
    --kvCount_;
}

// ---- recoverCoreFailure overloads ----

std::optional<RemapResult>
recoverCoreFailure(BlockPlacement &placement, CoreCoord failed,
                   const WaferGeometry &geom, const NocParams &noc,
                   Bytes tile_bytes, RecoveryIndex *index)
{
    auto result = buildReplacementChain(placement, failed, geom,
                                        tile_bytes, index);
    if (!result)
        return std::nullopt;

    // All shifts run in parallel: latency = slowest single move,
    // priced over the clean-mesh Manhattan path.
    double worst = 0.0;
    for (const auto &[from, to] : result->moves) {
        const double hops = geom.manhattan(from, to);
        const double penalty =
            geom.sameDie(from, to) ? 1.0 : noc.interDiePenalty;
        const double serial = static_cast<double>(tile_bytes) /
                              (noc.linkBytesPerSecond() / penalty);
        const double head = hops *
            static_cast<double>(noc.routerLatency) / noc.clockHz;
        worst = std::max(worst, serial + head);
    }
    result->latencySeconds = worst;
    return result;
}

std::optional<RemapResult>
recoverCoreFailure(BlockPlacement &placement, CoreCoord failed,
                   const MeshNoc &noc, Bytes tile_bytes,
                   RecoveryIndex *index)
{
    auto result = buildReplacementChain(placement, failed,
                                        noc.geometry(), tile_bytes,
                                        index);
    if (!result)
        return std::nullopt;

    // Route-aware pricing: each move follows the mesh's actual
    // (cached) route, detouring around defects and failed links,
    // priced from the route's latency summary.
    double worst = 0.0;
    for (const auto &[from, to] : result->moves) {
        worst = std::max(worst,
                         noc.transferSeconds(from, to, tile_bytes));
    }
    result->latencySeconds = worst;
    return result;
}

} // namespace ouro
