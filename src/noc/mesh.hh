/**
 * @file
 * Network-on-wafer model (paper Sections 3 and 4.3.3).
 *
 * The wafer's cores form one global 2-D mesh; links inside a die are
 * full-bandwidth, links that cross a stitched die boundary pay the
 * CostInter bandwidth penalty. Routing is dimension-ordered (XY) with
 * a fault-avoidance detour: routes step around defective cores and
 * failed links, switching to YX when X-first is blocked - the paper's
 * eight virtual channels make the XY/YX mix deadlock-free, so the
 * model only needs to produce correct hop/energy counts.
 *
 * Three levels of fidelity are offered:
 *  - transferCost(): latency + energy of one isolated transfer
 *    (hop count x router latency + serialisation).
 *  - addRouteVolume(): the effective byte-hop volume of a flow (each
 *    hop's bytes, die-crossing hops inflated by the inter-die
 *    penalty) added to a running sum - the Fig. 18 metric, walked in
 *    place along the XY route without allocating; only detoured
 *    flows touch the route cache. Bit-identical to
 *    TrafficAccumulator::totalEffectiveByteHops() over the same
 *    flows (the differential tests pin it).
 *  - TrafficAccumulator: aggregates many concurrent flows onto links
 *    and reports the bottleneck-link time, which is what bounds a
 *    pipeline interval in steady state.
 */

#ifndef OURO_NOC_MESH_HH
#define OURO_NOC_MESH_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stats.hh"
#include "common/units.hh"
#include "hw/geometry.hh"
#include "hw/params.hh"
#include "hw/yield.hh"

namespace ouro
{

/** Mesh direction of a link leaving a core. */
enum class LinkDir : unsigned
{
    North = 0,
    South = 1,
    East = 2,
    West = 3,
};

/** Identifies a directed link: (source core index, direction). */
struct LinkId
{
    std::uint64_t core;
    LinkDir dir;

    bool operator==(const LinkId &other) const = default;
};

struct LinkIdHash
{
    std::size_t operator()(const LinkId &link) const
    {
        return std::hash<std::uint64_t>{}(
                link.core * 4 + static_cast<unsigned>(link.dir));
    }
};

/** Latency + energy of one transfer. */
struct TransferCost
{
    double seconds = 0.0;
    double energyJ = 0.0;
    std::uint32_t hops = 0;
    std::uint32_t dieCrossings = 0;
};

/**
 * Immutable per-route pricing summary, computed ONCE when a route is
 * first cached. Route consumers used to walk O(hops) on every call
 * (re-deriving hop count, die crossings and link slots from the
 * path); pricing from this record is a handful of multiplies instead.
 *
 * Every coefficient is computed with the exact arithmetic expression
 * the walk-based pricing uses, so metadata-priced results are
 * BIT-IDENTICAL to walking the path - that is the contract the tests
 * pin, and it only holds if the expressions below never drift from
 * the walk code in mesh.cc.
 */
struct RouteMeta
{
    std::uint32_t hops = 0;
    std::uint32_t dieCrossings = 0;

    /** hops * routerLatency / clockHz (the per-transfer head
     *  latency; byte-count independent). */
    double headSeconds = 0.0;

    /** linkBitsPerCycle * clockHz / slowest_factor: the payload
     *  serialisation denominator (slowest traversed link). */
    double serialBitsPerSecond = 0.0;

    /** hopEnergyPerBit * hops + dieCrossingEnergyPerBit *
     *  dieCrossings: energy per transferred bit. */
    double energyPerBit = 0.0;

    /** Per-hop TrafficAccumulator slots in path order, packed as
     *  (core index * 4 + direction) << 1 | die-crossing flag - the
     *  flat list addFlow() streams in one blocked run (per-route
     *  constants hoisted, bit-identical to the retained path walk)
     *  instead of re-walking the path. */
    std::vector<std::uint64_t> slots;
};

/** A memoized route and its pricing summary. The two live and die
 *  together: every cache fill builds both, every invalidation drops
 *  both (the metadata immutability rule). */
struct PricedRoute
{
    std::vector<CoreCoord> path;
    RouteMeta meta;
};

/**
 * The wafer mesh. Holds the defect map (defective cores cannot be
 * routed *through*) and a set of failed links (interconnect failures,
 * Section 4.3.3), both of which routes detour around.
 *
 * Routes are memoised per (src, dst) pair: transferCost() and
 * TrafficAccumulator::addFlow() re-request the same routes millions
 * of times, so the first computation is cached - together with an
 * immutable RouteMeta pricing summary, so repeat pricing never
 * re-walks the path - and failLink() (or an explicit
 * invalidateRoutes() after mutating the external DefectMap) flushes
 * the cache (route and summary together, always). addRouteVolume()
 * consults the cache only for flows whose XY route is blocked. The
 * cache (and routeBfs()'s scratch) mutates under const, so a MeshNoc
 * instance must not be shared across threads without external
 * synchronisation (per-index sweep state, the parallel runtime's
 * contract, already guarantees this everywhere in-tree).
 */
class MeshNoc
{
  public:
    MeshNoc(const WaferGeometry &geom, const NocParams &params,
            const DefectMap *defects = nullptr);

    const WaferGeometry &geometry() const { return geom_; }
    const NocParams &params() const { return params_; }

    /** Mark a link failed; subsequent routes avoid it (this flushes
     *  the route cache). */
    void failLink(CoreCoord from, LinkDir dir);

    bool linkFailed(CoreCoord from, LinkDir dir) const;

    /**
     * Compute the route from @p src to @p dst. XY by default; detours
     * around defective cores and failed links (YX fallback, then
     * greedy sidesteps). Returns the sequence of cores visited
     * including both endpoints. Empty when unroutable (fully fenced
     * region - should not happen at paper defect densities).
     */
    std::vector<CoreCoord> route(CoreCoord src, CoreCoord dst) const;

    /**
     * Cached variant of route(): the returned reference is stable
     * until the next failLink()/invalidateRoutes(). This is the hot
     * path behind transferCost() and TrafficAccumulator.
     */
    const std::vector<CoreCoord> &routeCached(CoreCoord src,
                                              CoreCoord dst) const;

    /**
     * The cached route together with its RouteMeta pricing summary
     * (same memoization and stability rules as routeCached()). Route
     * consumers price from the summary instead of re-walking the
     * path.
     */
    const PricedRoute &pricedRoute(CoreCoord src, CoreCoord dst) const;

    /**
     * false retires the metadata fast path: transferCost() and
     * TrafficAccumulator::addFlow() walk the path per call (the
     * retained bit-identity oracle). Default true.
     */
    void setPriceFromMeta(bool enabled) { priceFromMeta_ = enabled; }
    bool priceFromMeta() const { return priceFromMeta_; }

    /** Pricing calls served from a RouteMeta summary / from the
     *  retained path walk (transferCost + addFlow). */
    std::uint64_t metaPricedCalls() const { return metaPriced_; }
    std::uint64_t walkPricedCalls() const { return walkPriced_; }

    /**
     * Drop all cached routes. failLink() calls this automatically;
     * call it manually after mutating the DefectMap the mesh was
     * constructed with (e.g. DefectMap::inject during fault
     * injection).
     */
    void invalidateRoutes() const;

    /** Cached-route statistics (hits/misses since construction). */
    std::uint64_t routeCacheHits() const { return cacheHits_; }
    std::uint64_t routeCacheMisses() const { return cacheMisses_; }
    std::size_t routeCacheSize() const { return routeCache_.size(); }

    /** Latency + energy of an isolated @p bytes transfer. */
    TransferCost transferCost(CoreCoord src, CoreCoord dst,
                              Bytes bytes) const;

    /** Latency only - the lean fast-path accessor for consumers that
     *  discard the energy figure (e.g. replacement-chain pricing).
     *  Bit-identical to transferCost().seconds on both paths. */
    double transferSeconds(CoreCoord src, CoreCoord dst,
                           Bytes bytes) const;

    /** Energy only (used when latency is hidden by pipelining). */
    double transferEnergy(CoreCoord src, CoreCoord dst,
                          Bytes bytes) const;

    /**
     * Add the effective byte-hop volume of a @p bytes flow from
     * @p src to @p dst to @p sum: per hop, @p bytes, or @p bytes x
     * interDiePenalty on a die-crossing hop, added one hop at a time
     * in path order - the same additions, in the same order, as
     * TrafficAccumulator::addFlow() makes to totalEffectiveByteHops(),
     * so a flow list summed here is bit-identical to the
     * accumulator's total. An XY route is walked in place (no cache
     * entry, no allocation); a detoured flow is priced from its
     * cached route. Returns false, leaving @p sum untouched, when the
     * flow is unroutable.
     */
    bool addRouteVolume(CoreCoord src, CoreCoord dst, Bytes bytes,
                        double &sum) const;

    /** Direction of the single mesh step from @p from to @p to. */
    static LinkDir stepDir(CoreCoord from, CoreCoord to);

  private:
    WaferGeometry geom_;
    NocParams params_;
    const DefectMap *defects_;
    std::unordered_set<LinkId, LinkIdHash> failedLinks_;

    /** (src index * numCores + dst index) -> route + pricing
     *  summary. Mutable: filled lazily from const routing calls. */
    mutable std::unordered_map<std::uint64_t, PricedRoute>
            routeCache_;
    mutable std::uint64_t cacheHits_ = 0;
    mutable std::uint64_t cacheMisses_ = 0;

    bool priceFromMeta_ = true;
    mutable std::uint64_t metaPriced_ = 0;
    mutable std::uint64_t walkPriced_ = 0;
    friend class TrafficAccumulator; // bumps the pricing counters

    /** routeBfs() scratch, sized numCores on the first search and
     *  reused: a core is visited in the current search iff its stamp
     *  equals bfsGen_, so no search clears or reallocates it. Mutable
     *  under the route cache's thread-compatibility rule. */
    mutable std::vector<std::uint32_t> bfsStamp_;
    mutable std::vector<std::uint64_t> bfsPrev_;
    mutable std::vector<CoreCoord> bfsQueue_;
    mutable std::uint32_t bfsGen_ = 0;

    bool blocked(CoreCoord c) const;
    bool stepAllowed(CoreCoord from, CoreCoord to) const;

    /** THE dimension-ordered stepping rule: walk src -> dst X-first
     *  (or Y-first), calling hop(from, to) per step; false as soon as
     *  a step is blocked. routeDimOrder() and addRouteVolume() both
     *  walk through it. */
    template <typename Hop>
    bool walkDimOrder(CoreCoord src, CoreCoord dst, bool x_first,
                      Hop &&hop) const;

    /** Build the pricing summary of @p path (mesh.cc keeps its
     *  arithmetic expression-identical to the retained walks). */
    RouteMeta buildMeta(const std::vector<CoreCoord> &path) const;

    /** Single-path router used by route(); may fail (empty). */
    std::vector<CoreCoord> routeDimOrder(CoreCoord src, CoreCoord dst,
                                         bool x_first) const;
    std::vector<CoreCoord> routeBfs(CoreCoord src, CoreCoord dst) const;
    std::vector<CoreCoord> routeUncached(CoreCoord src,
                                         CoreCoord dst) const;
};

/**
 * Accumulates concurrent flows and answers "how long does this traffic
 * pattern take" as the bottleneck-link serialisation time, plus total
 * NoC energy. This is the quantity that throttles a pipeline interval
 * when many stage-to-stage and reduction flows share the mesh.
 *
 * Link loads live in a flat 4 x numCores array indexed by
 * (core index, direction) - no hashing on the per-hop hot path - with
 * a touched-slot list so clear() stays proportional to the links
 * actually used, not the wafer size.
 */
class TrafficAccumulator
{
  public:
    explicit TrafficAccumulator(const MeshNoc &noc);

    /** Add a flow of @p bytes from @p src to @p dst. */
    void addFlow(CoreCoord src, CoreCoord dst, Bytes bytes);

    /** Same, over an already-looked-up route record (callers that
     *  must first check routability keep a single cache lookup). */
    void addFlow(const PricedRoute &route, Bytes bytes);

    /** Bytes on the most-loaded link. */
    double bottleneckBytes() const { return maxLinkBytes_; }

    /** Serialisation time of the bottleneck link (seconds). */
    double bottleneckSeconds() const;

    /** Total energy of all accumulated flows. */
    double totalEnergyJ() const { return energyJ_; }

    /** Total byte-hops (volume metric used by Fig. 18). */
    double totalByteHops() const { return byteHops_; }

    /** Total *effective* byte-hops: per-hop bytes with die-crossing
     *  hops inflated by the inter-die penalty - the sum of all link
     *  loads, i.e. the routed analogue of the mapping objective's
     *  ((dist * bytes) * penalty) volume. */
    double totalEffectiveByteHops() const
    {
        return effectiveByteHops_;
    }

    /** Load on one directed link (bytes; die-penalty inflated). */
    double linkLoad(CoreCoord from, LinkDir dir) const;

    /** Number of distinct links carrying load. */
    std::size_t loadedLinks() const { return touched_.size(); }

    void clear();

  private:
    const MeshNoc &noc_;
    /** core index * 4 + direction -> accumulated effective bytes. */
    std::vector<double> linkBytes_;
    /** Slots of linkBytes_ with nonzero load, in first-touch order. */
    std::vector<std::uint64_t> touched_;
    double maxLinkBytes_ = 0.0;
    double energyJ_ = 0.0;
    double byteHops_ = 0.0;
    double effectiveByteHops_ = 0.0;
};

} // namespace ouro

#endif // OURO_NOC_MESH_HH
