#include "mesh.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace ouro
{

namespace
{

/** A NocParams field every price divides by or scales with: a
 *  non-finite or non-positive value is a configuration error. */
void
requirePositive(const char *field, double value)
{
    if (!(std::isfinite(value) && value > 0.0))
        fatal("MeshNoc: NocParams::", field, " = ", value,
              " (must be finite and > 0)");
}

} // namespace

MeshNoc::MeshNoc(const WaferGeometry &geom, const NocParams &params,
                 const DefectMap *defects)
    : geom_(geom), params_(params), defects_(defects)
{
    requirePositive("linkBitsPerCycle", params.linkBitsPerCycle);
    requirePositive("clockHz", params.clockHz);
    requirePositive("interDiePenalty", params.interDiePenalty);
}

void
MeshNoc::failLink(CoreCoord from, LinkDir dir)
{
    failedLinks_.insert({geom_.coreIndex(from), dir});
    // Cached paths may traverse the newly failed link.
    invalidateRoutes();
}

void
MeshNoc::invalidateRoutes() const
{
    routeCache_.clear();
}

bool
MeshNoc::linkFailed(CoreCoord from, LinkDir dir) const
{
    // Every routing step asks; a mesh without failed links must not
    // pay a hash for the answer.
    if (failedLinks_.empty())
        return false;
    return failedLinks_.count({geom_.coreIndex(from), dir}) > 0;
}

bool
MeshNoc::blocked(CoreCoord c) const
{
    return defects_ && defects_->defective(c);
}

LinkDir
MeshNoc::stepDir(CoreCoord from, CoreCoord to)
{
    if (to.row + 1 == from.row)
        return LinkDir::North;
    if (to.row == from.row + 1)
        return LinkDir::South;
    if (to.col == from.col + 1)
        return LinkDir::East;
    if (to.col + 1 == from.col)
        return LinkDir::West;
    panic("stepDir: cores not adjacent");
}

bool
MeshNoc::stepAllowed(CoreCoord from, CoreCoord to) const
{
    if (!geom_.contains(to))
        return false;
    if (linkFailed(from, stepDir(from, to)))
        return false;
    return true;
}

template <typename Hop>
bool
MeshNoc::walkDimOrder(CoreCoord src, CoreCoord dst, bool x_first,
                      Hop &&hop) const
{
    CoreCoord cur = src;
    auto advance = [&](bool horizontal) -> bool {
        while (horizontal ? cur.col != dst.col : cur.row != dst.row) {
            CoreCoord next = cur;
            if (horizontal)
                next.col += dst.col > cur.col ? 1 : -1;
            else
                next.row += dst.row > cur.row ? 1 : -1;
            // Intermediate hops may not pass through defective cores;
            // the destination itself is allowed (KV-recompute case is
            // handled by higher layers).
            const bool is_dst = next == dst;
            if (!stepAllowed(cur, next) || (!is_dst && blocked(next)))
                return false;
            hop(cur, next);
            cur = next;
        }
        return true;
    };
    const bool ok = x_first ? (advance(true) && advance(false))
                            : (advance(false) && advance(true));
    return ok && cur == dst;
}

std::vector<CoreCoord>
MeshNoc::routeDimOrder(CoreCoord src, CoreCoord dst, bool x_first) const
{
    std::vector<CoreCoord> path{src};
    const bool ok = walkDimOrder(
            src, dst, x_first,
            [&](CoreCoord, CoreCoord to) { path.push_back(to); });
    if (!ok)
        return {};
    return path;
}

std::vector<CoreCoord>
MeshNoc::routeBfs(CoreCoord src, CoreCoord dst) const
{
    // Fallback breadth-first search for heavily faulted regions, over
    // the mesh's reused scratch (see bfsStamp_).
    if (bfsStamp_.empty()) {
        bfsStamp_.assign(geom_.numCores(), 0);
        bfsPrev_.assign(geom_.numCores(), 0);
        bfsQueue_.reserve(geom_.numCores());
    }
    if (++bfsGen_ == 0) {
        // The stamp counter wrapped: forget every older search.
        std::fill(bfsStamp_.begin(), bfsStamp_.end(), 0);
        bfsGen_ = 1;
    }
    const std::uint32_t gen = bfsGen_;
    const std::uint64_t src_idx = geom_.coreIndex(src);
    bfsStamp_[src_idx] = gen;
    bfsPrev_[src_idx] = src_idx;
    bfsQueue_.clear();
    bfsQueue_.push_back(src);
    // Every core is enqueued at most once, so the queue is a flat
    // array read from a moving head.
    for (std::size_t head = 0; head < bfsQueue_.size(); ++head) {
        const CoreCoord cur = bfsQueue_[head];
        if (cur == dst)
            break;
        const std::uint64_t cur_idx = geom_.coreIndex(cur);
        const CoreCoord neighbours[4] = {
            {cur.row > 0 ? cur.row - 1 : cur.row, cur.col},
            {cur.row + 1, cur.col},
            {cur.row, cur.col + 1},
            {cur.row, cur.col > 0 ? cur.col - 1 : cur.col},
        };
        for (const CoreCoord &next : neighbours) {
            if (next == cur || !geom_.contains(next))
                continue;
            if (!stepAllowed(cur, next))
                continue;
            if (!(next == dst) && blocked(next))
                continue;
            const auto next_idx = geom_.coreIndex(next);
            if (bfsStamp_[next_idx] == gen)
                continue;
            bfsStamp_[next_idx] = gen;
            bfsPrev_[next_idx] = cur_idx;
            bfsQueue_.push_back(next);
        }
    }
    if (bfsStamp_[geom_.coreIndex(dst)] != gen)
        return {};
    std::vector<CoreCoord> path;
    CoreCoord cur = dst;
    while (!(cur == src)) {
        path.push_back(cur);
        cur = geom_.coreAt(bfsPrev_[geom_.coreIndex(cur)]);
    }
    path.push_back(src);
    std::reverse(path.begin(), path.end());
    return path;
}

std::vector<CoreCoord>
MeshNoc::routeUncached(CoreCoord src, CoreCoord dst) const
{
    ouroAssert(geom_.contains(src) && geom_.contains(dst),
               "route: endpoint off wafer");
    if (src == dst)
        return {src};
    // Fast path: XY, then YX, then full BFS around faults.
    auto path = routeDimOrder(src, dst, true);
    if (path.empty())
        path = routeDimOrder(src, dst, false);
    if (path.empty())
        path = routeBfs(src, dst);
    return path;
}

RouteMeta
MeshNoc::buildMeta(const std::vector<CoreCoord> &path) const
{
    RouteMeta meta;
    if (path.size() < 2)
        return meta; // self-route or unroutable: nothing to price
    // Head latency: router pipeline per hop. Serialisation: payload
    // over the narrowest traversed link (die crossings are slower by
    // the CostInter factor).
    meta.headSeconds = static_cast<double>(path.size() - 1) *
            static_cast<double>(params_.routerLatency) /
            params_.clockHz;
    const bool crosses_die =
        std::adjacent_find(path.begin(), path.end(),
                           [&](CoreCoord from, CoreCoord to) {
                               return !geom_.sameDie(from, to);
                           }) != path.end();
    const double slowest_factor =
        crosses_die ? params_.interDiePenalty : 1.0;
    meta.serialBitsPerSecond =
        params_.linkBitsPerCycle * params_.clockHz / slowest_factor;
    return meta;
}

const PricedRoute &
MeshNoc::pricedRoute(CoreCoord src, CoreCoord dst) const
{
    const std::uint64_t key =
        geom_.coreIndex(src) * geom_.numCores() + geom_.coreIndex(dst);
    const auto it = routeCache_.find(key);
    if (it != routeCache_.end()) {
        ++cacheHits_;
        return it->second;
    }
    ++cacheMisses_;
    PricedRoute fresh;
    fresh.path = routeUncached(src, dst);
    fresh.meta = buildMeta(fresh.path);
    return routeCache_.emplace(key, std::move(fresh)).first->second;
}

bool
MeshNoc::addRouteVolume(CoreCoord src, CoreCoord dst, Bytes bytes,
                        double &sum) const
{
    ouroAssert(geom_.contains(src) && geom_.contains(dst),
               "addRouteVolume: endpoint off wafer");
    const double b = static_cast<double>(bytes);
    // The two per-hop terms: a die-crossing hop carries b x penalty.
    const double eff[2] = {b, b * params_.interDiePenalty};
    // XY first, as routeUncached() tries it: a cleared XY walk IS the
    // route, so it is priced in place. The trial sum is committed
    // only when the walk reaches dst, keeping the flow's hops one
    // contiguous run of additions onto the running sum.
    double trial = sum;
    const bool xy = walkDimOrder(
            src, dst, true, [&](CoreCoord from, CoreCoord to) {
                trial += eff[!geom_.sameDie(from, to)];
            });
    if (xy) {
        sum = trial;
        return true;
    }
    // Detoured (YX or BFS) or unroutable: the cached route decides,
    // and its hops are priced with the XY walk's rule, in path order.
    const std::vector<CoreCoord> &path = routeCached(src, dst);
    if (path.empty())
        return false;
    for (std::size_t i = 1; i < path.size(); ++i)
        sum += eff[!geom_.sameDie(path[i - 1], path[i])];
    return true;
}

const std::vector<CoreCoord> &
MeshNoc::routeCached(CoreCoord src, CoreCoord dst) const
{
    return pricedRoute(src, dst).path;
}

double
MeshNoc::transferSeconds(CoreCoord src, CoreCoord dst,
                         Bytes bytes) const
{
    if (src == dst)
        return 0.0;
    const PricedRoute &route = pricedRoute(src, dst);
    ouroAssert(!route.path.empty(), "transferSeconds: unroutable (",
               src.row, ",", src.col, ") -> (", dst.row, ",", dst.col,
               ")");
    return route.meta.headSeconds +
           static_cast<double>(bytes) * 8.0 /
                   route.meta.serialBitsPerSecond;
}

} // namespace ouro
