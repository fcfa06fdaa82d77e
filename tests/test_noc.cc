/**
 * @file
 * Unit tests for the network-on-wafer: XY routing, fault detours,
 * transfer pricing, route caching and metadata, traffic
 * accumulation/bottleneck analysis, and the route-volume walk against
 * the accumulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "hw/geometry.hh"
#include "hw/yield.hh"
#include "noc/mesh.hh"

namespace ouro
{
namespace
{

TEST(Mesh, RouteStraightLine)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    const auto path = noc.route({0, 0}, {0, 5});
    ASSERT_EQ(path.size(), 6u);
    EXPECT_EQ(path.front(), (CoreCoord{0, 0}));
    EXPECT_EQ(path.back(), (CoreCoord{0, 5}));
}

TEST(Mesh, RouteXYShape)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    const auto path = noc.route({2, 3}, {5, 7});
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
    EXPECT_EQ(noc.route({3, 3}, {3, 3}).size(), 1u);
    EXPECT_DOUBLE_EQ(noc.transferCost({3, 3}, {3, 3}, 1024).seconds,
                     0.0);
}

TEST(Mesh, DetourAroundDefect)
{
    const WaferGeometry geom;
    DefectMap defects(geom);
    defects.inject({0, 2}); // directly on the XY path
    const MeshNoc noc(geom, NocParams{}, &defects);
    const auto path = noc.route({0, 0}, {0, 4});
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
    const auto path = noc.route({0, 0}, {0, 4});
    ASSERT_EQ(path.size(), 5u);
}

TEST(Mesh, FailedLinkForcesYx)
{
    const WaferGeometry geom;
    MeshNoc noc(geom, NocParams{});
    noc.failLink({2, 3}, LinkDir::East);
    const auto path = noc.route({2, 3}, {2, 5});
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
    const auto path = noc.route({2, 0}, {2, 6});
    ASSERT_FALSE(path.empty());
    for (const auto &c : path)
        EXPECT_FALSE(defects.defective(c));
    EXPECT_GT(path.size(), 7u); // longer than the direct 6-hop route
}

TEST(Mesh, TransferCostScalesWithBytes)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    const auto small = noc.transferCost({0, 0}, {0, 10}, 1 * KiB);
    const auto large = noc.transferCost({0, 0}, {0, 10}, 1 * MiB);
    EXPECT_GT(large.seconds, small.seconds);
    EXPECT_GT(large.energyJ, small.energyJ);
    EXPECT_EQ(small.hops, 10u);
    EXPECT_EQ(large.hops, 10u);
}

TEST(Mesh, DieCrossingCostsMore)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    // Same distance, one crossing a die boundary (rows 12|13).
    const auto same_die = noc.transferCost({0, 0}, {4, 0}, 64 * KiB);
    const auto cross_die = noc.transferCost({11, 0}, {15, 0}, 64 * KiB);
    EXPECT_EQ(same_die.hops, cross_die.hops);
    EXPECT_EQ(same_die.dieCrossings, 0u);
    EXPECT_EQ(cross_die.dieCrossings, 1u);
    EXPECT_GT(cross_die.seconds, same_die.seconds);
    EXPECT_GT(cross_die.energyJ, same_die.energyJ);
}

TEST(Mesh, EnergyProportionalToHops)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    const double e1 = noc.transferEnergy({0, 0}, {0, 1}, 1 * KiB);
    const double e4 = noc.transferEnergy({0, 0}, {0, 4}, 1 * KiB);
    EXPECT_NEAR(e4, 4.0 * e1, 1e-15);
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

TEST(Traffic, ClearResets)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    TrafficAccumulator traffic(noc);
    traffic.addFlow({0, 0}, {3, 3}, 4096);
    EXPECT_GT(traffic.totalEnergyJ(), 0.0);
    traffic.clear();
    EXPECT_DOUBLE_EQ(traffic.totalEnergyJ(), 0.0);
    EXPECT_DOUBLE_EQ(traffic.bottleneckBytes(), 0.0);
    EXPECT_DOUBLE_EQ(traffic.totalByteHops(), 0.0);
}

TEST(Traffic, ByteHopsCountsVolume)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    TrafficAccumulator traffic(noc);
    traffic.addFlow({0, 0}, {0, 5}, 100);
    EXPECT_DOUBLE_EQ(traffic.totalByteHops(), 500.0);
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
    const auto first = noc.route({0, 0}, {5, 7});
    EXPECT_EQ(noc.routeCacheMisses(), 1u);
    const auto second = noc.route({0, 0}, {5, 7});
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
    const auto before = noc.route({0, 0}, {0, 5});
    ASSERT_EQ(before.size(), 6u);
    EXPECT_GE(noc.routeCacheSize(), 1u);

    // Fail a link ON the cached path; the cache must be flushed and
    // the new route must avoid the dead link.
    noc.failLink({0, 2}, LinkDir::East);
    EXPECT_EQ(noc.routeCacheSize(), 0u);
    const auto after = noc.route({0, 0}, {0, 5});
    ASSERT_FALSE(after.empty());
    EXPECT_GT(after.size(), before.size()); // detour
    for (std::size_t i = 1; i < after.size(); ++i) {
        const bool dead_hop =
            after[i - 1] == (CoreCoord{0, 2}) &&
            after[i] == (CoreCoord{0, 3});
        EXPECT_FALSE(dead_hop);
    }
    // transferCost also sees the detour through the same cache.
    EXPECT_EQ(noc.transferCost({0, 0}, {0, 5}, 1024).hops,
              after.size() - 1);
}

TEST(RouteCache, ExplicitInvalidationAfterDefectInjection)
{
    const WaferGeometry geom;
    DefectMap defects(geom);
    const MeshNoc noc(geom, NocParams{}, &defects);
    const auto clean = noc.route({0, 0}, {0, 4});
    ASSERT_EQ(clean.size(), 5u);

    // Mutating the external defect map requires an explicit flush.
    defects.inject({0, 2});
    noc.invalidateRoutes();
    const auto detour = noc.route({0, 0}, {0, 4});
    ASSERT_FALSE(detour.empty());
    EXPECT_GT(detour.size(), clean.size());
    for (const auto &c : detour)
        EXPECT_FALSE(defects.defective(c));
}

TEST(Traffic, FlatLoadsMatchHashMapReference)
{
    // Random flow soup: the flat per-link arrays must agree with an
    // independently accumulated hash-map reference on every metric.
    const WaferGeometry geom;
    const NocParams params;
    const MeshNoc noc(geom, params);
    TrafficAccumulator traffic(noc);

    std::unordered_map<std::uint64_t, double> reference;
    double ref_energy = 0.0;
    double ref_byte_hops = 0.0;
    Rng rng(57);
    for (int f = 0; f < 200; ++f) {
        const CoreCoord src{
            static_cast<std::uint32_t>(rng.uniformInt(0, 20)),
            static_cast<std::uint32_t>(rng.uniformInt(0, 20))};
        const CoreCoord dst{
            static_cast<std::uint32_t>(rng.uniformInt(0, 20)),
            static_cast<std::uint32_t>(rng.uniformInt(0, 20))};
        const Bytes bytes = 64 + rng.uniformInt(0, 4096);
        traffic.addFlow(src, dst, bytes);

        if (src == dst)
            continue;
        const auto path = noc.route(src, dst);
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
            ref_energy += b * 8.0 *
                    (params.hopEnergyPerBit +
                     (crossing ? params.dieCrossingEnergyPerBit
                               : 0.0));
            ref_byte_hops += b;
        }
    }
    double ref_max = 0.0;
    for (const auto &[slot, load] : reference)
        ref_max = std::max(ref_max, load);

    EXPECT_DOUBLE_EQ(traffic.bottleneckBytes(), ref_max);
    EXPECT_DOUBLE_EQ(traffic.totalEnergyJ(), ref_energy);
    EXPECT_DOUBLE_EQ(traffic.totalByteHops(), ref_byte_hops);
    EXPECT_EQ(traffic.loadedLinks(), reference.size());
    for (const auto &[slot, load] : reference) {
        const CoreCoord from = geom.coreAt(slot / 4);
        const auto dir = static_cast<LinkDir>(slot % 4);
        EXPECT_DOUBLE_EQ(traffic.linkLoad(from, dir), load);
    }
}

TEST(Traffic, LinkLoadPerDirection)
{
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    TrafficAccumulator traffic(noc);
    traffic.addFlow({0, 0}, {0, 2}, 1000);
    EXPECT_DOUBLE_EQ(traffic.linkLoad({0, 0}, LinkDir::East), 1000.0);
    EXPECT_DOUBLE_EQ(traffic.linkLoad({0, 1}, LinkDir::East), 1000.0);
    EXPECT_DOUBLE_EQ(traffic.linkLoad({0, 0}, LinkDir::West), 0.0);
    EXPECT_EQ(traffic.loadedLinks(), 2u);
}

TEST(Traffic, ClearIsReusable)
{
    // clear() must reset only what was touched and leave the
    // accumulator fully reusable with identical results.
    const WaferGeometry geom;
    const MeshNoc noc(geom, NocParams{});
    TrafficAccumulator traffic(noc);
    traffic.addFlow({0, 0}, {3, 3}, 4096);
    traffic.addFlow({5, 5}, {5, 9}, 512);
    const double max1 = traffic.bottleneckBytes();
    const double energy1 = traffic.totalEnergyJ();
    traffic.clear();
    EXPECT_EQ(traffic.loadedLinks(), 0u);
    EXPECT_DOUBLE_EQ(traffic.linkLoad({0, 0}, LinkDir::East), 0.0);
    traffic.addFlow({0, 0}, {3, 3}, 4096);
    traffic.addFlow({5, 5}, {5, 9}, 512);
    EXPECT_DOUBLE_EQ(traffic.bottleneckBytes(), max1);
    EXPECT_DOUBLE_EQ(traffic.totalEnergyJ(), energy1);
}

TEST(RouteMeta, SummaryMatchesPathDerivation)
{
    // The cached RouteMeta must agree with a by-hand derivation from
    // the path it summarises.
    const WaferGeometry geom;
    const NocParams params;
    const MeshNoc noc(geom, params);
    const CoreCoord src{10, 0};
    const CoreCoord dst{14, 9};
    const auto &priced = noc.pricedRoute(src, dst);
    ASSERT_GE(priced.path.size(), 2u);

    std::uint32_t crossings = 0;
    std::vector<std::uint64_t> slots;
    for (std::size_t i = 1; i < priced.path.size(); ++i) {
        const CoreCoord from = priced.path[i - 1];
        const CoreCoord to = priced.path[i];
        const bool crossing = !geom.sameDie(from, to);
        crossings += crossing ? 1u : 0u;
        slots.push_back(
                ((geom.coreIndex(from) * 4 +
                  static_cast<unsigned>(MeshNoc::stepDir(from, to)))
                 << 1) |
                (crossing ? 1u : 0u));
    }
    const auto hops =
        static_cast<std::uint32_t>(priced.path.size() - 1);
    EXPECT_EQ(priced.meta.hops, hops);
    EXPECT_EQ(priced.meta.dieCrossings, crossings);
    EXPECT_EQ(priced.meta.slots, slots);
    EXPECT_DOUBLE_EQ(priced.meta.headSeconds,
                     static_cast<double>(hops) *
                             static_cast<double>(
                                     params.routerLatency) /
                             params.clockHz);
    EXPECT_DOUBLE_EQ(priced.meta.serialBitsPerSecond,
                     params.linkBitsPerCycle * params.clockHz /
                             (crossings > 0 ? params.interDiePenalty
                                            : 1.0));
    EXPECT_DOUBLE_EQ(priced.meta.energyPerBit,
                     params.hopEnergyPerBit * hops +
                             params.dieCrossingEnergyPerBit *
                                     crossings);
}

TEST(RouteMeta, TransferCostMetaMatchesWalkFuzz)
{
    // Metadata-priced transferCost must be BIT-identical to the
    // retained walk oracle: clean routes, defect detours and
    // failed-link detours alike.
    const WaferGeometry geom;
    const NocParams params;
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

    for (const auto &sc : scenarios) {
        MeshNoc meta(geom, params, sc.defects);
        MeshNoc walk(geom, params, sc.defects);
        walk.setPriceFromMeta(false);
        if (sc.fail_link) {
            meta.failLink({12, 20}, LinkDir::East);
            walk.failLink({12, 20}, LinkDir::East);
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
            const auto fast = meta.transferCost(src, dst, bytes);
            const auto slow = walk.transferCost(src, dst, bytes);
            EXPECT_EQ(fast.seconds, slow.seconds) << sc.name;
            EXPECT_EQ(fast.energyJ, slow.energyJ) << sc.name;
            EXPECT_EQ(fast.hops, slow.hops) << sc.name;
            EXPECT_EQ(fast.dieCrossings, slow.dieCrossings)
                << sc.name;
            // The lean latency-only accessor rides the same paths.
            EXPECT_EQ(meta.transferSeconds(src, dst, bytes),
                      slow.seconds)
                << sc.name;
        }
        // Each mesh priced on its configured path only.
        EXPECT_GT(meta.metaPricedCalls(), 0u) << sc.name;
        EXPECT_EQ(walk.metaPricedCalls(), 0u) << sc.name;
        EXPECT_GT(walk.walkPricedCalls(), 0u) << sc.name;
        EXPECT_EQ(meta.walkPricedCalls(), 0u) << sc.name;
    }
}

TEST(RouteMeta, AddFlowMetaMatchesWalkFuzz)
{
    // Slot-list-streamed addFlow must reproduce the walk-based
    // accumulation bit for bit on every metric and every link - also
    // across a mid-fuzz failLink() (both caches flush, both rebuild).
    const WaferGeometry geom;
    const NocParams params;
    DefectMap defects(geom);
    Rng seed_rng(317);
    for (int d = 0; d < 20; ++d) {
        defects.inject({static_cast<std::uint32_t>(
                                seed_rng.uniformInt(0, 40)),
                        static_cast<std::uint32_t>(
                                seed_rng.uniformInt(0, 40))});
    }
    MeshNoc meta_noc(geom, params, &defects);
    MeshNoc walk_noc(geom, params, &defects);
    walk_noc.setPriceFromMeta(false);
    TrafficAccumulator meta_traffic(meta_noc);
    TrafficAccumulator walk_traffic(walk_noc);

    Rng rng(331);
    std::vector<std::pair<CoreCoord, CoreCoord>> flows;
    for (int f = 0; f < 400; ++f) {
        if (f == 200) {
            meta_noc.failLink({5, 8}, LinkDir::South);
            walk_noc.failLink({5, 8}, LinkDir::South);
        }
        const CoreCoord src{
            static_cast<std::uint32_t>(rng.uniformInt(0, 40)),
            static_cast<std::uint32_t>(rng.uniformInt(0, 40))};
        const CoreCoord dst{
            static_cast<std::uint32_t>(rng.uniformInt(0, 40)),
            static_cast<std::uint32_t>(rng.uniformInt(0, 40))};
        const Bytes bytes = 64 + rng.uniformInt(0, 64 * KiB);
        meta_traffic.addFlow(src, dst, bytes);
        walk_traffic.addFlow(src, dst, bytes);
        flows.emplace_back(src, dst);
    }

    EXPECT_EQ(meta_traffic.bottleneckBytes(),
              walk_traffic.bottleneckBytes());
    EXPECT_EQ(meta_traffic.totalEnergyJ(),
              walk_traffic.totalEnergyJ());
    EXPECT_EQ(meta_traffic.totalByteHops(),
              walk_traffic.totalByteHops());
    EXPECT_EQ(meta_traffic.totalEffectiveByteHops(),
              walk_traffic.totalEffectiveByteHops());
    EXPECT_EQ(meta_traffic.loadedLinks(),
              walk_traffic.loadedLinks());
    for (const auto &[src, dst] : flows) {
        const auto &path = meta_noc.routeCached(src, dst);
        for (std::size_t i = 1; i < path.size(); ++i) {
            const auto dir = MeshNoc::stepDir(path[i - 1], path[i]);
            EXPECT_EQ(meta_traffic.linkLoad(path[i - 1], dir),
                      walk_traffic.linkLoad(path[i - 1], dir));
        }
    }
    EXPECT_GT(meta_noc.metaPricedCalls(), 0u);
    EXPECT_EQ(meta_noc.walkPricedCalls(), 0u);
    EXPECT_GT(walk_noc.walkPricedCalls(), 0u);
    EXPECT_EQ(walk_noc.metaPricedCalls(), 0u);
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
    // addRouteVolume's running sum must be BIT-identical to
    // TrafficAccumulator::totalEffectiveByteHops() over the same flow
    // list: small multi-die wafers, defect densities 0 / 0.05 / 0.2,
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
                        const PricedRoute &route =
                            oracle_noc.pricedRoute(src, dst);
                        const bool routable = !route.path.empty();
                        const std::uint64_t misses =
                            volume_noc.routeCacheMisses();
                        EXPECT_EQ(volume_noc.addRouteVolume(
                                          src, dst, bytes, sum),
                                  routable);
                        if (routable)
                            traffic.addFlow(route, bytes);
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
