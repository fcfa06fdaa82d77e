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

template <typename Hop>
bool
MeshNoc::walkDimOrder(CoreCoord src, CoreCoord dst, bool x_first,
                      Hop &&hop) const
{
    const bool check_links = !failedLinks_.empty();
    const std::uint64_t dst_idx = geom_.coreIndex(dst);
    std::uint64_t idx = geom_.coreIndex(src);
    CoreCoord cur = src;
    for (const bool horizontal : {x_first, !x_first}) {
        // One leg: cur is fixed but for the coordinate that steps.
        std::uint32_t pos = horizontal ? cur.col : cur.row;
        const std::uint32_t end = horizontal ? dst.col : dst.row;
        const bool up = end > pos;
        const std::uint32_t extent = horizontal
                ? geom_.coresPerDieCol()
                : geom_.coresPerDieRow();
        const std::uint64_t stride = horizontal ? 1 : geom_.cols();
        const std::uint64_t step = up ? stride : 0 - stride;
        const LinkDir dir = horizontal
                ? (up ? LinkDir::East : LinkDir::West)
                : (up ? LinkDir::South : LinkDir::North);
        // Hops left before the one that leaves the current die: a
        // unit step crosses a die edge exactly when its larger
        // coordinate is a multiple of the die extent.
        const std::uint32_t local = pos % extent;
        std::uint32_t to_edge = up ? extent - 1 - local : local;
        for (std::uint32_t hops = up ? end - pos : pos - end; hops > 0;
             --hops) {
            if (check_links && failedLinks_.count({idx, dir}) > 0)
                return false;
            const bool crosses = to_edge == 0;
            to_edge = crosses ? extent - 1 : to_edge - 1;
            idx += step;
            pos += up ? 1 : -1;
            // Intermediate hops may not pass through defective cores;
            // the destination itself is allowed (KV-recompute case is
            // handled by higher layers).
            if (idx != dst_idx && defects_ && defects_->defective(idx))
                return false;
            hop(horizontal ? CoreCoord{cur.row, pos}
                           : CoreCoord{pos, cur.col},
                crosses);
        }
        (horizontal ? cur.col : cur.row) = end;
    }
    return true;
}

std::vector<CoreCoord>
MeshNoc::routeDimOrder(CoreCoord src, CoreCoord dst, bool x_first) const
{
    std::vector<CoreCoord> path{src};
    const bool ok = walkDimOrder(
            src, dst, x_first,
            [&](CoreCoord to, bool) { path.push_back(to); });
    if (!ok)
        return {};
    return path;
}

std::vector<CoreCoord>
MeshNoc::routeBfs(CoreCoord src, CoreCoord dst) const
{
    // Fallback breadth-first search for heavily faulted regions. A
    // visited core is a bit; its predecessor is the queue position it
    // was reached from, so the search touches no per-core array
    // beyond the bitset, and the queue grows with the cores visited.
    struct Visit
    {
        CoreCoord core;
        std::uint32_t prev;
    };
    const std::uint64_t cols = geom_.cols();
    const std::uint64_t dst_idx = geom_.coreIndex(dst);
    std::vector<bool> seen(geom_.numCores(), false);
    std::vector<Visit> queue{{src, 0}};
    seen[geom_.coreIndex(src)] = true;
    const bool check_links = !failedLinks_.empty();
    std::size_t found = 0;
    for (std::size_t head = 0; head < queue.size() && found == 0;
         ++head) {
        const CoreCoord cur = queue[head].core;
        const std::uint64_t cur_idx = cur.row * cols + cur.col;
        // Neighbours in N, S, E, W order; the order is the tie-break
        // between equally short paths.
        const struct
        {
            bool exists;
            std::uint64_t idx;
            CoreCoord core;
            LinkDir dir;
        } neighbours[4] = {
            {cur.row > 0, cur_idx - cols, {cur.row - 1, cur.col},
             LinkDir::North},
            {cur.row + 1 < geom_.rows(), cur_idx + cols,
             {cur.row + 1, cur.col}, LinkDir::South},
            {cur.col + 1 < cols, cur_idx + 1, {cur.row, cur.col + 1},
             LinkDir::East},
            {cur.col > 0, cur_idx - 1, {cur.row, cur.col - 1},
             LinkDir::West},
        };
        for (const auto &next : neighbours) {
            if (!next.exists || seen[next.idx])
                continue;
            if (check_links && failedLinks_.count({cur_idx, next.dir}) > 0)
                continue;
            const bool is_dst = next.idx == dst_idx;
            if (!is_dst && defects_ && defects_->defective(next.idx))
                continue;
            seen[next.idx] = true;
            queue.push_back({next.core, static_cast<std::uint32_t>(head)});
            // dst's predecessor is fixed on discovery: stop here.
            if (is_dst) {
                found = queue.size() - 1;
                break;
            }
        }
    }
    if (found == 0)
        return {};
    std::vector<CoreCoord> path;
    for (std::size_t at = found; at != 0; at = queue[at].prev)
        path.push_back(queue[at].core);
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

const std::vector<CoreCoord> &
MeshNoc::routeCached(CoreCoord src, CoreCoord dst) const
{
    const std::uint64_t key =
        geom_.coreIndex(src) * geom_.numCores() + geom_.coreIndex(dst);
    const auto it = routeCache_.find(key);
    if (it != routeCache_.end()) {
        ++cacheHits_;
        return it->second;
    }
    ++cacheMisses_;
    return routeCache_.emplace(key, routeUncached(src, dst))
            .first->second;
}

template <typename State, typename Hop>
bool
MeshNoc::walkRoute(CoreCoord src, CoreCoord dst, State &state,
                   Hop &&hop) const
{
    ouroAssert(geom_.contains(src) && geom_.contains(dst),
               "route walk: endpoint off wafer");
    // XY, then YX, in routeUncached()'s order: a cleared walk IS the
    // route, so it is walked in place. The trial state is committed only when the walk reaches
    // dst, keeping a volume flow's hops one contiguous run of
    // additions onto the running sum.
    for (const bool x_first : {true, false}) {
        State trial = state;
        if (walkDimOrder(src, dst, x_first,
                         [&](CoreCoord, bool crosses) {
                             hop(trial, crosses);
                         })) {
            state = trial;
            return true;
        }
    }
    // Neither dimension order clears: the cached breadth-first route
    // decides, and its hops are walked with the same rule, in path
    // order.
    const std::vector<CoreCoord> &path = routeCached(src, dst);
    if (path.empty())
        return false;
    for (std::size_t i = 1; i < path.size(); ++i)
        hop(state, !geom_.sameDie(path[i - 1], path[i]));
    return true;
}

bool
MeshNoc::addRouteVolume(CoreCoord src, CoreCoord dst, Bytes bytes,
                        double &sum) const
{
    const double b = static_cast<double>(bytes);
    // The two per-hop terms: a die-crossing hop carries b x penalty.
    const double eff[2] = {b, b * params_.interDiePenalty};
    return walkRoute(src, dst, sum, [&](double &trial, bool crosses) {
        trial += eff[crosses];
    });
}

double
MeshNoc::transferSeconds(CoreCoord src, CoreCoord dst,
                         Bytes bytes) const
{
    if (src == dst)
        return 0.0;
    struct Walk
    {
        std::uint64_t hops = 0;
        bool crosses = false;
    } walk;
    const bool routed =
        walkRoute(src, dst, walk, [](Walk &trial, bool crosses) {
            ++trial.hops;
            trial.crosses |= crosses;
        });
    ouroAssert(routed, "transferSeconds: unroutable (", src.row, ",",
               src.col, ") -> (", dst.row, ",", dst.col, ")");
    // Head latency: router pipeline per hop. Serialisation: payload
    // over the narrowest traversed link (die crossings are slower by
    // the CostInter factor).
    return static_cast<double>(walk.hops) *
                   static_cast<double>(params_.routerLatency) /
                   params_.clockHz +
           static_cast<double>(bytes) * 8.0 /
                   (params_.linkBitsPerCycle * params_.clockHz /
                    (walk.crosses ? params_.interDiePenalty : 1.0));
}

} // namespace ouro
