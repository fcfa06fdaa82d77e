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
 * model only needs to produce correct routes.
 *
 * The simulator prices the mesh two ways, each walking the route the
 * router would take - XY, then YX, in place without allocating; only
 * flows that need the breadth-first search touch the route cache:
 *  - addRouteVolume(): the effective byte-hop volume of a flow (each
 *    hop's bytes, die-crossing hops inflated by the inter-die
 *    penalty) added to a running sum - the Fig. 18 metric. The
 *    mapping build and storm re-pricing use it.
 *  - transferSeconds(): latency of one isolated transfer (hop count
 *    x router latency + serialisation over the slowest link) - what
 *    a replacement-chain move costs after a failure.
 * Per-link load accounting (the bottleneck-link time) is a test and
 * bench oracle and lives outside the simulator library
 * (oracles/traffic.hh).
 */

#ifndef OURO_NOC_MESH_HH
#define OURO_NOC_MESH_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

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

/**
 * The wafer mesh. Holds the defect map (defective cores cannot be
 * routed *through*) and a set of failed links (interconnect failures,
 * Section 4.3.3), both of which routes detour around.
 *
 * Routes are memoised per (src, dst) pair; failLink() (or an
 * explicit invalidateRoutes() after mutating the external DefectMap)
 * flushes the cache. Both prices consult it only for flows that
 * neither dimension order clears, so outside the oracles it holds
 * searched routes only. The cache mutates under const, so a MeshNoc
 * instance must not be shared across threads without external
 * synchronisation (per-index sweep state, the parallel runtime's
 * contract, already guarantees this everywhere in-tree).
 */
class MeshNoc
{
  public:
    /** fatal()s, naming the field and the value, when
     *  @p params.linkBitsPerCycle, clockHz or interDiePenalty is not
     *  a finite positive number (every price would be inf or NaN). */
    MeshNoc(const WaferGeometry &geom, const NocParams &params,
            const DefectMap *defects = nullptr);

    const WaferGeometry &geometry() const { return geom_; }
    const NocParams &params() const { return params_; }

    /** Mark a link failed; subsequent routes avoid it (this flushes
     *  the route cache). */
    void failLink(CoreCoord from, LinkDir dir);

    bool linkFailed(CoreCoord from, LinkDir dir) const;

    /**
     * The route from @p src to @p dst: XY by default, detouring
     * around defective cores and failed links (YX fallback, then a
     * breadth-first search). The sequence of cores visited, both
     * endpoints included; empty when unroutable (a fully fenced
     * region - should not happen at paper defect densities). The
     * reference is stable until the next failLink()/
     * invalidateRoutes().
     */
    const std::vector<CoreCoord> &routeCached(CoreCoord src,
                                              CoreCoord dst) const;

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

    /** Latency of an isolated @p bytes transfer over the route:
     *  head latency (hops x router latency) plus serialisation over
     *  the slowest traversed link (die crossings are slower by the
     *  inter-die penalty). The route is walked like
     *  addRouteVolume()'s; an unroutable flow is an assertion
     *  failure. */
    double transferSeconds(CoreCoord src, CoreCoord dst,
                           Bytes bytes) const;

    /**
     * Add the effective byte-hop volume of a @p bytes flow from
     * @p src to @p dst to @p sum: per hop, @p bytes, or @p bytes x
     * interDiePenalty on a die-crossing hop, added one hop at a time
     * in path order, so a flow list summed here equals a per-hop walk
     * of the same routes bit for bit. XY, then YX, is walked in place
     * (no cache entry, no allocation); a flow neither clears walks its
     * cached breadth-first route with the same hop rule. Returns
     * false, leaving @p sum untouched, when the flow is unroutable.
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

    /** (src index * numCores + dst index) -> route. Mutable: filled
     *  lazily from const routing calls. */
    mutable std::unordered_map<std::uint64_t, std::vector<CoreCoord>>
            routeCache_;
    mutable std::uint64_t cacheHits_ = 0;
    mutable std::uint64_t cacheMisses_ = 0;

    /** THE dimension-ordered stepping rule: walk src -> dst X-first
     *  (or Y-first), calling hop(to, crosses) per step, where
     *  crosses says the step leaves a die; false as soon as a step is
     *  blocked. Each leg is one loop over the core index, finding die
     *  crossings by counting down to the die edge (no division per
     *  hop). Both endpoints must be on the wafer; a monotone walk
     *  between them then never leaves it. routeDimOrder() and
     *  walkRoute() both walk through it. */
    template <typename Hop>
    bool walkDimOrder(CoreCoord src, CoreCoord dst, bool x_first,
                      Hop &&hop) const;

    /** THE route walk both prices share: XY, then YX, in place
     *  (routeUncached()'s order), calling hop(trial, crosses) per
     *  step on a copy of @p state that is committed only when the
     *  walk reaches dst; a flow neither order clears walks its cached
     *  breadth-first path onto @p state, with crosses =
     *  !sameDie(from, to). False, leaving @p state untouched, when
     *  the flow is unroutable. */
    template <typename State, typename Hop>
    bool walkRoute(CoreCoord src, CoreCoord dst, State &state,
                   Hop &&hop) const;

    /** Single-path router behind routeUncached(); may fail (empty). */
    std::vector<CoreCoord> routeDimOrder(CoreCoord src, CoreCoord dst,
                                         bool x_first) const;
    std::vector<CoreCoord> routeBfs(CoreCoord src, CoreCoord dst) const;
    std::vector<CoreCoord> routeUncached(CoreCoord src,
                                         CoreCoord dst) const;
};

} // namespace ouro

#endif // OURO_NOC_MESH_HH
