/**
 * @file
 * Unit tests for the network-on-wafer: XY routing, fault detours,
 * route caching, transfer latency against a per-hop walk, parameter
 * validation, the per-link traffic oracle, the route-volume walk
 * against that oracle and against the cached path, and the
 * breadth-first search against a plain reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "hw/geometry.hh"
#include "hw/yield.hh"
#include "noc/mesh.hh"
#include "oracles/traffic.hh"

namespace ouro
{
namespace
{

/** @p path priced hop by hop: head latency per hop, then the payload
 *  serialised over the slowest traversed link - transferSeconds'
 *  expression, in its order. */
double
walkSeconds(const MeshNoc &noc, const std::vector<CoreCoord> &path,
            Bytes bytes)
{
    if (path.size() < 2)
        return 0.0;
    const NocParams &params = noc.params();
    double hops = 0.0;
    double factor = 1.0;
    for (std::size_t i = 1; i < path.size(); ++i) {
        hops += 1.0;
        if (!noc.geometry().sameDie(path[i - 1], path[i]))
            factor = params.interDiePenalty;
    }
    return hops * static_cast<double>(params.routerLatency) /
                   params.clockHz +
           static_cast<double>(bytes) * 8.0 /
                   (params.linkBitsPerCycle * params.clockHz / factor);
}

/** Direction changes along @p path. A dimension-ordered (XY or YX)
 *  route turns at most once, so a route that turns twice or more is
 *  the breadth-first search's. */
std::size_t
turns(const std::vector<CoreCoord> &path)
{
    std::size_t n = 0;
    for (std::size_t i = 2; i < path.size(); ++i) {
        n += MeshNoc::stepDir(path[i - 2], path[i - 1]) !=
             MeshNoc::stepDir(path[i - 1], path[i]);
    }
    return n;
}

TEST(Mesh, RouteStraightLine)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    const auto path = noc.routeCached({0, 0}, {0, 5});
    ASSERT_EQ(path.size(), 6u);
    EXPECT_EQ(path.front(), (CoreCoord{0, 0}));
    EXPECT_EQ(path.back(), (CoreCoord{0, 5}));
}

TEST(Mesh, RouteXYShape)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    const auto path = noc.routeCached({2, 3}, {5, 7});
    // XY: horizontal leg first, then vertical.
    ASSERT_EQ(path.size(), 8u); // 4 + 3 hops
    EXPECT_EQ(path[1], (CoreCoord{2, 4}));
    EXPECT_EQ(path[4], (CoreCoord{2, 7}));
    EXPECT_EQ(path[5], (CoreCoord{3, 7}));
}

TEST(Mesh, RouteToSelf)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    EXPECT_EQ(noc.routeCached({3, 3}, {3, 3}).size(), 1u);
    EXPECT_EQ(noc.transferSeconds({3, 3}, {3, 3}, 1024), 0.0);
}

TEST(Mesh, DetourAroundDefect)
{
    const WaferGeometry geom;
    DefectMap defects(geom);
    defects.inject({0, 2}); // directly on the XY path
    const MeshNoc noc(geom, NocParams{}, &defects);
    const auto path = noc.routeCached({0, 0}, {0, 4});
    ASSERT_FALSE(path.empty());
    for (const auto &c : path)
        EXPECT_FALSE(defects.defective(c));
    // Detour adds exactly two hops on a mesh.
    EXPECT_EQ(path.size(), 7u);
}

TEST(Mesh, DefectiveDestinationStillReachable)
{
    // Routes may *end* at a defective core (e.g. draining state), just
    // not pass through one.
    const WaferGeometry geom;
    DefectMap defects(geom);
    defects.inject({0, 4});
    const MeshNoc noc(geom, NocParams{}, &defects);
    const auto path = noc.routeCached({0, 0}, {0, 4});
    ASSERT_EQ(path.size(), 5u);
}

TEST(Mesh, FailedLinkForcesYx)
{
    const WaferGeometry geom;
    MeshNoc noc(geom, NocParams{});
    noc.failLink({2, 3}, LinkDir::East);
    const auto path = noc.routeCached({2, 3}, {2, 5});
    ASSERT_FALSE(path.empty());
    // First hop cannot be east out of (2,3).
    EXPECT_NE(path[1], (CoreCoord{2, 4}));
    EXPECT_EQ(path.back(), (CoreCoord{2, 5}));
}

TEST(Mesh, BfsFallbackThroughFence)
{
    // Wall off the XY and YX routes; BFS must still find a way.
    const WaferGeometry geom;
    DefectMap defects(geom);
    for (std::uint32_t r = 0; r < 6; ++r)
        defects.inject({r, 3});
    const MeshNoc noc(geom, NocParams{}, &defects);
    const auto path = noc.routeCached({2, 0}, {2, 6});
    ASSERT_FALSE(path.empty());
    for (const auto &c : path)
        EXPECT_FALSE(defects.defective(c));
    EXPECT_GT(path.size(), 7u); // longer than the direct 6-hop route
}

TEST(Mesh, TransferSecondsScalesWithBytes)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    EXPECT_GT(noc.transferSeconds({0, 0}, {0, 10}, 1 * MiB),
              noc.transferSeconds({0, 0}, {0, 10}, 1 * KiB));
}

TEST(Mesh, DieCrossingCostsMore)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    // Same distance, one crossing a die boundary (rows 12|13).
    ASSERT_EQ(noc.routeCached({0, 0}, {4, 0}).size(),
              noc.routeCached({11, 0}, {15, 0}).size());
    EXPECT_GT(noc.transferSeconds({11, 0}, {15, 0}, 64 * KiB),
              noc.transferSeconds({0, 0}, {4, 0}, 64 * KiB));
}

TEST(Mesh, BadParamsDieNamingTheField)
{
    // Every price divides by the link rate or scales with the
    // inter-die penalty: a non-finite or non-positive value is
    // refused up front, naming the field and the value. The death
    // checks run this test alone in a fresh process.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const WaferGeometry geom(2, 2, 6, 6);
    const struct
    {
        double value;
        const char *printed;
    } bad_values[] = {
        {0.0, "0"},
        {-2.5, "-2\\.5"},
        {std::numeric_limits<double>::infinity(), "inf"},
        {std::numeric_limits<double>::quiet_NaN(), "nan"},
    };
    for (const auto &[bad, printed] : bad_values) {
        const std::string value = std::string(" = ") + printed;
        NocParams link;
        link.linkBitsPerCycle = bad;
        EXPECT_DEATH({ MeshNoc noc(geom, link); },
                     "NocParams::linkBitsPerCycle" + value);
        NocParams clock;
        clock.clockHz = bad;
        EXPECT_DEATH({ MeshNoc noc(geom, clock); },
                     "NocParams::clockHz" + value);
        NocParams penalty;
        penalty.interDiePenalty = bad;
        EXPECT_DEATH({ MeshNoc noc(geom, penalty); },
                     "NocParams::interDiePenalty" + value);
    }
}

TEST(Traffic, BottleneckIsMaxLink)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    TrafficAccumulator traffic(noc);
    // Two flows sharing the (0,0)->(0,1) link.
    traffic.addFlow({0, 0}, {0, 2}, 1000);
    traffic.addFlow({0, 0}, {0, 3}, 1000);
    EXPECT_DOUBLE_EQ(traffic.bottleneckBytes(), 2000.0);
    // A disjoint flow does not raise the bottleneck.
    traffic.addFlow({5, 0}, {5, 1}, 1500);
    EXPECT_DOUBLE_EQ(traffic.bottleneckBytes(), 2000.0);
}

TEST(Traffic, BottleneckSecondsUsesLinkBandwidth)
{
    const WaferGeometry geom;
    const NocParams params;
    const MeshNoc noc(geom, params);
    TrafficAccumulator traffic(noc);
    traffic.addFlow({0, 0}, {0, 1}, 32 * KiB);
    EXPECT_NEAR(traffic.bottleneckSeconds(),
                static_cast<double>(32 * KiB) /
                params.linkBytesPerSecond(), 1e-12);
}

TEST(Traffic, DieCrossingInflatesLoad)
{
    const WaferGeometry geom;
    const NocParams params;
    const MeshNoc noc(geom, params);
    TrafficAccumulator traffic(noc);
    traffic.addFlow({12, 0}, {13, 0}, 1000); // crosses die boundary
    EXPECT_DOUBLE_EQ(traffic.bottleneckBytes(),
                     1000.0 * params.interDiePenalty);
}

TEST(RouteCache, RepeatedRouteHitsCache)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    const auto first = noc.routeCached({0, 0}, {5, 7});
    EXPECT_EQ(noc.routeCacheMisses(), 1u);
    const auto second = noc.routeCached({0, 0}, {5, 7});
    EXPECT_EQ(second, first);
    EXPECT_GE(noc.routeCacheHits(), 1u);
    EXPECT_EQ(noc.routeCacheMisses(), 1u);
    EXPECT_EQ(noc.routeCacheSize(), 1u);
}

TEST(RouteCache, CachedReferenceIsStable)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    const auto &a = noc.routeCached({1, 1}, {4, 4});
    const auto &b = noc.routeCached({1, 1}, {4, 4});
    EXPECT_EQ(&a, &b); // same cache entry, no recompute / copy
}

TEST(RouteCache, FailLinkInvalidates)
{
    const WaferGeometry geom;
    MeshNoc noc(geom, NocParams{});
    const auto before = noc.routeCached({0, 0}, {0, 5});
    ASSERT_EQ(before.size(), 6u);
    EXPECT_GE(noc.routeCacheSize(), 1u);

    // Fail a link ON the cached path; the cache must be flushed and
    // the new route must avoid the dead link.
    noc.failLink({0, 2}, LinkDir::East);
    EXPECT_EQ(noc.routeCacheSize(), 0u);
    const auto after = noc.routeCached({0, 0}, {0, 5});
    ASSERT_FALSE(after.empty());
    EXPECT_GT(after.size(), before.size()); // detour
    for (std::size_t i = 1; i < after.size(); ++i) {
        const bool dead_hop =
            after[i - 1] == (CoreCoord{0, 2}) &&
            after[i] == (CoreCoord{0, 3});
        EXPECT_FALSE(dead_hop);
    }
    // transferSeconds also prices the detour through the same cache.
    EXPECT_EQ(noc.transferSeconds({0, 0}, {0, 5}, 1024),
              walkSeconds(noc, after, 1024));
}

TEST(RouteCache, ExplicitInvalidationAfterDefectInjection)
{
    const WaferGeometry geom;
    DefectMap defects(geom);
    const MeshNoc noc(geom, NocParams{}, &defects);
    const auto clean = noc.routeCached({0, 0}, {0, 4});
    ASSERT_EQ(clean.size(), 5u);

    // Mutating the external defect map requires an explicit flush.
    defects.inject({0, 2});
    noc.invalidateRoutes();
    const auto detour = noc.routeCached({0, 0}, {0, 4});
    ASSERT_FALSE(detour.empty());
    EXPECT_GT(detour.size(), clean.size());
    for (const auto &c : detour)
        EXPECT_FALSE(defects.defective(c));
}

TEST(Traffic, FlatLoadsMatchHashMapReference)
{
    // Random flow soup: the flat per-link array must agree with an
    // independently accumulated hash-map reference.
    const WaferGeometry geom;
    const NocParams params;
    const MeshNoc noc(geom, params);
    TrafficAccumulator traffic(noc);

    std::unordered_map<std::uint64_t, double> reference;
    Rng rng(57);
    for (int f = 0; f < 200; ++f) {
        const CoreCoord src{
            static_cast<std::uint32_t>(rng.uniformInt(0, 20)),
            static_cast<std::uint32_t>(rng.uniformInt(0, 20))};
        const CoreCoord dst{
            static_cast<std::uint32_t>(rng.uniformInt(0, 20)),
            static_cast<std::uint32_t>(rng.uniformInt(0, 20))};
        const Bytes bytes = 64 + rng.uniformInt(0, 4096);
        ASSERT_TRUE(traffic.addFlow(src, dst, bytes));

        const auto &path = noc.routeCached(src, dst);
        const double b = static_cast<double>(bytes);
        for (std::size_t i = 1; i < path.size(); ++i) {
            const bool crossing =
                !geom.sameDie(path[i - 1], path[i]);
            const std::uint64_t slot =
                geom.coreIndex(path[i - 1]) * 4 +
                static_cast<unsigned>(
                        MeshNoc::stepDir(path[i - 1], path[i]));
            reference[slot] +=
                b * (crossing ? params.interDiePenalty : 1.0);
        }
    }
    double ref_max = 0.0;
    for (const auto &[slot, load] : reference)
        ref_max = std::max(ref_max, load);
    EXPECT_DOUBLE_EQ(traffic.bottleneckBytes(), ref_max);
}

TEST(TransferSeconds, InPlaceWalkMatchesCachedPathFuzz)
{
    // transferSeconds walks XY, then YX, in place; it must be
    // BIT-identical to pricing an independent mesh's cached route hop
    // by hop: clean routes, defect detours and failed-link detours,
    // at an exact and an inexact inter-die penalty. Only flows that
    // neither dimension order clears may touch the route cache.
    const WaferGeometry geom;
    DefectMap defects(geom);
    Rng seed_rng(311);
    for (int d = 0; d < 25; ++d) {
        defects.inject({static_cast<std::uint32_t>(
                                seed_rng.uniformInt(0, 40)),
                        static_cast<std::uint32_t>(
                                seed_rng.uniformInt(0, 40))});
    }
    struct Scenario
    {
        const char *name;
        const DefectMap *defects;
        bool fail_link;
    };
    const Scenario scenarios[] = {
        {"clean", nullptr, false},
        {"defected", &defects, false},
        {"defected+failLink", &defects, true},
    };

    std::uint64_t crossing = 0;
    std::uint64_t detoured = 0;
    std::uint64_t searched = 0;
    for (const double penalty : {2.0, 1.37}) {
        NocParams params;
        params.interDiePenalty = penalty;
        for (const auto &sc : scenarios) {
            MeshNoc noc(geom, params, sc.defects);
            MeshNoc path_noc(geom, params, sc.defects);
            if (sc.fail_link) {
                noc.failLink({12, 20}, LinkDir::East);
                path_noc.failLink({12, 20}, LinkDir::East);
            }
            Rng rng(313);
            for (int f = 0; f < 400; ++f) {
                const CoreCoord src{
                    static_cast<std::uint32_t>(rng.uniformInt(0, 40)),
                    static_cast<std::uint32_t>(rng.uniformInt(0, 40))};
                const CoreCoord dst{
                    static_cast<std::uint32_t>(rng.uniformInt(0, 40)),
                    static_cast<std::uint32_t>(rng.uniformInt(0, 40))};
                const Bytes bytes = 1 + rng.uniformInt(0, 1 * MiB);
                const std::uint64_t lookups =
                    noc.routeCacheHits() + noc.routeCacheMisses();
                const double got = noc.transferSeconds(src, dst, bytes);
                const auto &path = path_noc.routeCached(src, dst);
                EXPECT_EQ(got, walkSeconds(noc, path, bytes))
                    << sc.name << " penalty " << penalty;
                const bool bfs = turns(path) >= 2;
                EXPECT_EQ(noc.routeCacheHits() + noc.routeCacheMisses() -
                                  lookups,
                          bfs ? 1u : 0u)
                    << sc.name << " penalty " << penalty;
                searched += bfs;
                crossing += std::adjacent_find(
                                    path.begin(), path.end(),
                                    [&](CoreCoord a, CoreCoord b) {
                                        return !geom.sameDie(a, b);
                                    }) != path.end();
                detoured += path.size() > 1 + geom.manhattan(src, dst);
            }
        }
    }
    // Both serialisation factors, the detours and the searched
    // routes were exercised.
    EXPECT_GT(crossing, 0u);
    EXPECT_GT(detoured, 0u);
    EXPECT_GT(searched, 0u);
}

/** Random core of @p geom. */
CoreCoord
randomCore(const WaferGeometry &geom, Rng &rng)
{
    return {static_cast<std::uint32_t>(rng.uniformInt(0, geom.rows() - 1)),
            static_cast<std::uint32_t>(
                    rng.uniformInt(0, geom.cols() - 1))};
}

TEST(RouteVolume, MatchesAccumulatorFuzz)
{
    // addRouteVolume's running sum must be BIT-identical to the
    // per-hop walk of the TrafficAccumulator oracle
    // (totalEffectiveByteHops()) over the same flow list: small multi-die wafers, defect densities 0 / 0.05 / 0.2,
    // failed links, unroutable flows. Flows carry up to 2^44 bytes
    // and one penalty is inexact in binary, so the sums round: adding
    // any flow's hops in another grouping or order changes bits.
    const WaferGeometry geoms[] = {{2, 2, 6, 6}, {3, 2, 5, 7}};
    std::uint64_t flows = 0;
    std::uint64_t unroutable = 0;
    std::uint64_t detoured = 0;
    for (const WaferGeometry &geom : geoms) {
        for (const double penalty : {2.0, 1.37}) {
            NocParams params;
            params.interDiePenalty = penalty;
            for (const double density : {0.0, 0.05, 0.2}) {
                for (std::uint64_t seed = 1; seed <= 20; ++seed) {
                    Rng rng(seed);
                    DefectMap defects(geom);
                    for (std::uint64_t i = 0; i < geom.numCores(); ++i) {
                        if (rng.bernoulli(density))
                            defects.inject(geom.coreAt(i));
                    }
                    MeshNoc oracle_noc(geom, params, &defects);
                    MeshNoc volume_noc(geom, params, &defects);
                    // Odd seeds also fail links (routes detour).
                    for (int l = 0; l < (seed % 2 ? 4 : 0); ++l) {
                        const CoreCoord from = randomCore(geom, rng);
                        const auto dir =
                            static_cast<LinkDir>(rng.uniformInt(0, 3));
                        oracle_noc.failLink(from, dir);
                        volume_noc.failLink(from, dir);
                    }
                    TrafficAccumulator traffic(oracle_noc);
                    double sum = 0.0;
                    for (int f = 0; f < 60; ++f) {
                        const CoreCoord src = randomCore(geom, rng);
                        const CoreCoord dst = randomCore(geom, rng);
                        const Bytes bytes =
                            1 + rng.uniformInt(0, Bytes{1} << 44);
                        const bool routable =
                            traffic.addFlow(src, dst, bytes);
                        const std::uint64_t misses =
                            volume_noc.routeCacheMisses();
                        EXPECT_EQ(volume_noc.addRouteVolume(
                                          src, dst, bytes, sum),
                                  routable);
                        ++flows;
                        unroutable += !routable;
                        detoured += volume_noc.routeCacheMisses() >
                                    misses;
                    }
                    EXPECT_EQ(sum, traffic.totalEffectiveByteHops())
                        << "geom " << geom.rows() << "x" << geom.cols()
                        << " penalty " << penalty << " density "
                        << density << " seed " << seed;
                }
            }
        }
    }
    // Every path of the walk ran: in-place XY, cached detours and
    // unroutable flows.
    EXPECT_GT(unroutable, 0u);
    EXPECT_GT(detoured, unroutable);
    EXPECT_LT(detoured, flows / 2);
}

/** A random defect map, each core defective with probability
 *  @p density (denser than the Murphy model, so routes detour). */
DefectMap
randomDefects(const WaferGeometry &geom, double density, Rng &rng)
{
    DefectMap defects(geom);
    for (std::uint64_t i = 0; i < geom.numCores(); ++i) {
        if (rng.bernoulli(density))
            defects.inject(geom.coreAt(i));
    }
    return defects;
}

TEST(RouteVolume, InPlaceWalkMatchesCachedPathFuzz)
{
    // Per flow, addRouteVolume's in-place XY-then-YX walk (with its
    // countdown to the die edge) must add exactly what a per-hop
    // sameDie walk of routeCached's path adds, bit for bit: flows in
    // all four quadrant directions on defective multi-die meshes,
    // with and without failed links, XY-clear, YX-only and
    // search-routed. Only flows that neither dimension order clears
    // may touch the route cache.
    const WaferGeometry geom(3, 3, 5, 7);
    NocParams params;
    params.interDiePenalty = 1.37;
    std::uint64_t kinds[2][3] = {}; // [failed links][xy, yx, search]
    std::uint64_t quadrants[2][2] = {};
    std::uint64_t unroutable = 0;
    for (const bool fail_links : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
            Rng rng(seed * 7 + fail_links);
            const DefectMap defects = randomDefects(geom, 0.12, rng);
            MeshNoc walk_noc(geom, params, &defects);
            MeshNoc path_noc(geom, params, &defects);
            for (int l = 0; l < (fail_links ? 12 : 0); ++l) {
                const CoreCoord from = randomCore(geom, rng);
                const auto dir =
                    static_cast<LinkDir>(rng.uniformInt(0, 3));
                walk_noc.failLink(from, dir);
                path_noc.failLink(from, dir);
            }
            double running = 0.0;
            for (int f = 0; f < 200; ++f) {
                const CoreCoord src = randomCore(geom, rng);
                const CoreCoord dst = randomCore(geom, rng);
                const Bytes bytes = 1 + rng.uniformInt(0, Bytes{1} << 44);
                const std::uint64_t lookups = walk_noc.routeCacheHits() +
                        walk_noc.routeCacheMisses();
                double walked = running;
                const bool routed =
                    walk_noc.addRouteVolume(src, dst, bytes, walked);
                const auto &path = path_noc.routeCached(src, dst);
                ASSERT_EQ(routed, !path.empty());
                const double b = static_cast<double>(bytes);
                for (std::size_t i = 1; i < path.size(); ++i) {
                    running += geom.sameDie(path[i - 1], path[i])
                            ? b
                            : b * params.interDiePenalty;
                }
                ASSERT_EQ(walked, running)
                    << "seed " << seed << " flow " << f << " ("
                    << src.row << "," << src.col << ") -> (" << dst.row
                    << "," << dst.col << ")";
                const bool searched =
                    path.empty() || turns(path) >= 2;
                EXPECT_EQ(walk_noc.routeCacheHits() +
                                  walk_noc.routeCacheMisses() - lookups,
                          searched ? 1u : 0u);
                if (path.empty()) {
                    ++unroutable;
                    continue;
                }
                const bool yx = turns(path) == 1 &&
                        (MeshNoc::stepDir(path[0], path[1]) ==
                                 LinkDir::North ||
                         MeshNoc::stepDir(path[0], path[1]) ==
                                 LinkDir::South);
                ++kinds[fail_links][searched ? 2 : (yx ? 1 : 0)];
                ++quadrants[dst.row >= src.row][dst.col >= src.col];
            }
        }
    }
    for (const auto &by_kind : kinds) {
        for (const std::uint64_t n : by_kind)
            EXPECT_GT(n, 10u);
    }
    for (const auto &row : quadrants) {
        for (const std::uint64_t n : row)
            EXPECT_GT(n, 100u);
    }
    EXPECT_GT(unroutable, 0u);
}

/** The route of routeUncached()'s contract, written plainly: XY, then
 *  YX, then a breadth-first search visiting N, S, E, W, stopping when
 *  it dequeues @p dst. Intermediate cores may not be defective, and
 *  no step may take a failed link. */
std::vector<CoreCoord>
referenceRoute(const MeshNoc &noc, const DefectMap &defects,
               CoreCoord src, CoreCoord dst)
{
    const WaferGeometry &geom = noc.geometry();
    const auto allowed = [&](CoreCoord from, CoreCoord to) {
        return geom.contains(to) &&
               !noc.linkFailed(from, MeshNoc::stepDir(from, to)) &&
               (to == dst || !defects.defective(to));
    };
    if (src == dst)
        return {src};
    for (const bool x_first : {true, false}) {
        std::vector<CoreCoord> path{src};
        CoreCoord cur = src;
        bool ok = true;
        for (int leg = 0; leg < 2 && ok; ++leg) {
            const bool horizontal = (leg == 0) == x_first;
            while (ok && (horizontal ? cur.col != dst.col
                                     : cur.row != dst.row)) {
                CoreCoord next = cur;
                if (horizontal)
                    next.col = dst.col > cur.col ? cur.col + 1 : cur.col - 1;
                else
                    next.row = dst.row > cur.row ? cur.row + 1 : cur.row - 1;
                ok = allowed(cur, next);
                cur = next;
                path.push_back(cur);
            }
        }
        if (ok)
            return path;
    }
    std::map<std::pair<std::uint32_t, std::uint32_t>, CoreCoord> prev;
    std::deque<CoreCoord> queue{src};
    prev[{src.row, src.col}] = src;
    while (!queue.empty()) {
        const CoreCoord cur = queue.front();
        queue.pop_front();
        if (cur == dst)
            break;
        std::vector<CoreCoord> neighbours;
        if (cur.row > 0)
            neighbours.push_back({cur.row - 1, cur.col});
        neighbours.push_back({cur.row + 1, cur.col});
        neighbours.push_back({cur.row, cur.col + 1});
        if (cur.col > 0)
            neighbours.push_back({cur.row, cur.col - 1});
        for (const CoreCoord next : neighbours) {
            if (!allowed(cur, next) || prev.count({next.row, next.col}))
                continue;
            prev[{next.row, next.col}] = cur;
            queue.push_back(next);
        }
    }
    if (!prev.count({dst.row, dst.col}))
        return {};
    std::vector<CoreCoord> path{dst};
    while (!(path.back() == src))
        path.push_back(prev.at({path.back().row, path.back().col}));
    std::reverse(path.begin(), path.end());
    return path;
}

TEST(RouteBfs, MatchesPlainReferenceOnSeededDefectMaps)
{
    // On 20 seeded defect maps (odd seeds also fail links), every
    // route equals the plain reference router's, so the search keeps
    // its N, S, E, W tie-break between equally short paths.
    const WaferGeometry geom(2, 3, 6, 5);
    std::uint64_t searched = 0;
    std::uint64_t unroutable = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed + 1000);
        const DefectMap defects = randomDefects(geom, 0.25, rng);
        MeshNoc noc(geom, NocParams{}, &defects);
        for (int l = 0; l < (seed % 2 ? 6 : 0); ++l) {
            noc.failLink(randomCore(geom, rng),
                         static_cast<LinkDir>(rng.uniformInt(0, 3)));
        }
        for (int f = 0; f < 150; ++f) {
            const CoreCoord src = randomCore(geom, rng);
            const CoreCoord dst = randomCore(geom, rng);
            const auto want = referenceRoute(noc, defects, src, dst);
            EXPECT_EQ(noc.routeCached(src, dst), want)
                << "seed " << seed << " (" << src.row << "," << src.col
                << ") -> (" << dst.row << "," << dst.col << ")";
            searched += turns(want) >= 2;
            unroutable += want.empty();
        }
    }
    EXPECT_GT(searched, 200u);
    EXPECT_GT(unroutable, 0u);
}

TEST(RouteVolume, UnroutableFlowLeavesSumUntouched)
{
    // A core fenced in by defects on all four sides: flows into it
    // fail and add nothing; self-flows and flows elsewhere still
    // price.
    const WaferGeometry geom(2, 2, 6, 6);
    DefectMap defects(geom);
    for (const CoreCoord c : {CoreCoord{4, 5}, CoreCoord{6, 5},
                              CoreCoord{5, 4}, CoreCoord{5, 6}})
        defects.inject(c);
    const MeshNoc noc(geom, NocParams{}, &defects);
    double sum = 0.0;
    EXPECT_TRUE(noc.addRouteVolume({0, 0}, {0, 3}, 100, sum));
    EXPECT_EQ(sum, 300.0);
    EXPECT_FALSE(noc.addRouteVolume({0, 0}, {5, 5}, 100, sum));
    EXPECT_EQ(sum, 300.0);
    EXPECT_TRUE(noc.addRouteVolume({5, 5}, {5, 5}, 100, sum));
    EXPECT_EQ(sum, 300.0);
    // (0,5) -> (0,6) crosses the die boundary: one hop at 2x.
    EXPECT_TRUE(noc.addRouteVolume({0, 5}, {0, 6}, 100, sum));
    EXPECT_EQ(sum, 500.0);
}

} // namespace
} // namespace ouro
