#include "mesh.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ouro
{

MeshNoc::MeshNoc(const WaferGeometry &geom, const NocParams &params,
                 const DefectMap *defects)
    : geom_(geom), params_(params), defects_(defects)
{
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
    // NOTE: every expression here must stay identical to the walk
    // code (transferCost / addFlow oracle paths) - the summaries are
    // the walks' results cached, and the bit-identity contract
    // depends on computing them with the same arithmetic.
    RouteMeta meta;
    if (path.size() < 2)
        return meta; // self-route or unroutable: nothing to price
    meta.hops = static_cast<std::uint32_t>(path.size() - 1);
    meta.slots.reserve(path.size() - 1);
    for (std::size_t i = 1; i < path.size(); ++i) {
        const CoreCoord from = path[i - 1];
        const CoreCoord to = path[i];
        const bool crossing = !geom_.sameDie(from, to);
        if (crossing)
            ++meta.dieCrossings;
        const std::uint64_t slot =
            geom_.coreIndex(from) * 4 +
            static_cast<unsigned>(stepDir(from, to));
        meta.slots.push_back(slot << 1 |
                             static_cast<std::uint64_t>(crossing));
    }
    meta.headSeconds = static_cast<double>(meta.hops) *
            static_cast<double>(params_.routerLatency) /
            params_.clockHz;
    const double slowest_factor =
        meta.dieCrossings > 0 ? params_.interDiePenalty : 1.0;
    meta.serialBitsPerSecond =
        params_.linkBitsPerCycle * params_.clockHz / slowest_factor;
    meta.energyPerBit =
        params_.hopEnergyPerBit * meta.hops +
        params_.dieCrossingEnergyPerBit * meta.dieCrossings;
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
    // The two per-hop terms, with addFlow()'s exact expressions.
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
    // Detoured (YX or BFS) or unroutable: the cached route decides.
    const PricedRoute &route = pricedRoute(src, dst);
    if (route.path.empty())
        return false;
    for (const std::uint64_t packed : route.meta.slots)
        sum += eff[packed & 1];
    return true;
}

const std::vector<CoreCoord> &
MeshNoc::routeCached(CoreCoord src, CoreCoord dst) const
{
    return pricedRoute(src, dst).path;
}

std::vector<CoreCoord>
MeshNoc::route(CoreCoord src, CoreCoord dst) const
{
    return routeCached(src, dst);
}

TransferCost
MeshNoc::transferCost(CoreCoord src, CoreCoord dst, Bytes bytes) const
{
    TransferCost cost;
    if (src == dst)
        return cost;
    const PricedRoute &route = pricedRoute(src, dst);
    const auto &path = route.path;
    ouroAssert(!path.empty(), "transferCost: unroutable (",
               src.row, ",", src.col, ") -> (", dst.row, ",", dst.col,
               ")");
    if (priceFromMeta_) {
        // Fast path: the summary already holds the walk's hop/
        // crossing counts and pricing coefficients - a handful of
        // multiplies, no O(hops) walk. Bit-identical to the oracle
        // below because buildMeta() uses the identical expressions.
        ++metaPriced_;
        const RouteMeta &meta = route.meta;
        cost.hops = meta.hops;
        cost.dieCrossings = meta.dieCrossings;
        const double bits = static_cast<double>(bytes) * 8.0;
        cost.seconds = meta.headSeconds +
                       bits / meta.serialBitsPerSecond;
        cost.energyJ = bits * meta.energyPerBit;
        return cost;
    }
    // Retained walk oracle (setPriceFromMeta(false)).
    ++walkPriced_;
    cost.hops = static_cast<std::uint32_t>(path.size() - 1);
    for (std::size_t i = 1; i < path.size(); ++i) {
        if (!geom_.sameDie(path[i - 1], path[i]))
            ++cost.dieCrossings;
    }
    const double bits = static_cast<double>(bytes) * 8.0;
    // Head latency: router pipeline per hop. Serialisation: payload
    // over the narrowest traversed link (die crossings are slower by
    // the CostInter factor).
    const double head_s = static_cast<double>(cost.hops) *
            static_cast<double>(params_.routerLatency) / params_.clockHz;
    const double slowest_factor =
        cost.dieCrossings > 0 ? params_.interDiePenalty : 1.0;
    const double serial_s =
        bits / (params_.linkBitsPerCycle * params_.clockHz /
                slowest_factor);
    cost.seconds = head_s + serial_s;
    cost.energyJ = bits * (params_.hopEnergyPerBit * cost.hops +
                           params_.dieCrossingEnergyPerBit *
                           cost.dieCrossings);
    return cost;
}

double
MeshNoc::transferSeconds(CoreCoord src, CoreCoord dst,
                         Bytes bytes) const
{
    if (src == dst)
        return 0.0;
    if (priceFromMeta_) {
        const PricedRoute &route = pricedRoute(src, dst);
        ouroAssert(!route.path.empty(), "transferSeconds: unroutable (",
                   src.row, ",", src.col, ") -> (", dst.row, ",",
                   dst.col, ")");
        ++metaPriced_;
        return route.meta.headSeconds +
               static_cast<double>(bytes) * 8.0 /
                       route.meta.serialBitsPerSecond;
    }
    return transferCost(src, dst, bytes).seconds;
}

double
MeshNoc::transferEnergy(CoreCoord src, CoreCoord dst, Bytes bytes) const
{
    return transferCost(src, dst, bytes).energyJ;
}

TrafficAccumulator::TrafficAccumulator(const MeshNoc &noc)
    : noc_(noc), linkBytes_(noc.geometry().numCores() * 4, 0.0)
{
}

void
TrafficAccumulator::addFlow(CoreCoord src, CoreCoord dst, Bytes bytes)
{
    if (src == dst || bytes == 0)
        return;
    addFlow(noc_.pricedRoute(src, dst), bytes);
}

void
TrafficAccumulator::addFlow(const PricedRoute &route, Bytes bytes)
{
    if (bytes == 0 || route.path.size() == 1)
        return; // self-flow: nothing traverses a link
    ouroAssert(!route.path.empty(), "addFlow: unroutable flow");
    const auto &params = noc_.params();
    const double b = static_cast<double>(bytes);
    if (noc_.priceFromMeta_) {
        // Fast path: stream the precomputed (slot, crossing) list in
        // one blocked run with the per-route constants hoisted out of
        // the loop - no sameDie/coreIndex/stepDir and no per-hop
        // re-derivation of the two possible effective loads and hop
        // energies. The hoist changes no bits: b * 8.0 is exact
        // (power-of-two scale), hopE + 0.0 == hopE bitwise and
        // fl(b * 1.0) == b, so eff[c]/energy[c] equal the walk's
        // per-hop expressions value for value, and the per-slot
        // accumulation below runs the walk's ops in the walk's order.
        ++noc_.metaPriced_;
        const double b8 = b * 8.0;
        const double eff[2] = {b, b * params.interDiePenalty};
        const double energy[2] = {
            b8 * params.hopEnergyPerBit,
            b8 * (params.hopEnergyPerBit +
                  params.dieCrossingEnergyPerBit)};
        const std::uint64_t *packed = route.meta.slots.data();
        const std::size_t hops = route.meta.slots.size();
        for (std::size_t i = 0; i < hops; ++i) {
            const std::size_t c =
                static_cast<std::size_t>(packed[i] & 1);
            const double effective = eff[c];
            double &bucket = linkBytes_[packed[i] >> 1];
            if (bucket == 0.0)
                touched_.push_back(packed[i] >> 1);
            bucket += effective;
            effectiveByteHops_ += effective;
            maxLinkBytes_ = std::max(maxLinkBytes_, bucket);
            energyJ_ += energy[c];
            byteHops_ += b;
        }
        return;
    }
    // Retained walk oracle (setPriceFromMeta(false)).
    ++noc_.walkPriced_;
    const auto &path = route.path;
    const auto &geom = noc_.geometry();
    for (std::size_t i = 1; i < path.size(); ++i) {
        const CoreCoord from = path[i - 1];
        const CoreCoord to = path[i];
        // Die-crossing links carry an inflated effective load to model
        // their reduced bandwidth.
        const bool crossing = !geom.sameDie(from, to);
        const double effective =
            b * (crossing ? params.interDiePenalty : 1.0);
        const std::uint64_t slot =
            geom.coreIndex(from) * 4 +
            static_cast<unsigned>(MeshNoc::stepDir(from, to));
        double &bucket = linkBytes_[slot];
        if (bucket == 0.0)
            touched_.push_back(slot);
        bucket += effective;
        effectiveByteHops_ += effective;
        maxLinkBytes_ = std::max(maxLinkBytes_, bucket);
        energyJ_ += b * 8.0 *
                (params.hopEnergyPerBit +
                 (crossing ? params.dieCrossingEnergyPerBit : 0.0));
        byteHops_ += b;
    }
}

double
TrafficAccumulator::linkLoad(CoreCoord from, LinkDir dir) const
{
    return linkBytes_[noc_.geometry().coreIndex(from) * 4 +
                      static_cast<unsigned>(dir)];
}

double
TrafficAccumulator::bottleneckSeconds() const
{
    return maxLinkBytes_ / noc_.params().linkBytesPerSecond();
}

void
TrafficAccumulator::clear()
{
    for (const std::uint64_t slot : touched_)
        linkBytes_[slot] = 0.0;
    touched_.clear();
    maxLinkBytes_ = 0.0;
    energyJ_ = 0.0;
    byteHops_ = 0.0;
    effectiveByteHops_ = 0.0;
}

} // namespace ouro
