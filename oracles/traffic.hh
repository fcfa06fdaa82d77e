/**
 * @file
 * Per-link NoC traffic accounting: the oracle the simulator's volume
 * walk (MeshNoc::addRouteVolume) is tested against, and the
 * bottleneck-link time bench_fault_tolerance sweeps. Tests and
 * benches link it (the ouro_oracles target); the simulator library
 * never calls it.
 */

#ifndef OURO_ORACLES_TRAFFIC_HH
#define OURO_ORACLES_TRAFFIC_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hh"
#include "hw/geometry.hh"
#include "mapping/problem.hh"
#include "noc/mesh.hh"
#include "runtime/recovery_service.hh"

namespace ouro
{

/**
 * Accumulates concurrent flows onto the links of their cached routes
 * and answers "how long does this traffic pattern take" as the
 * bottleneck-link serialisation time. Each hop of a flow adds its
 * bytes, inflated by the inter-die penalty on a die-crossing hop, to
 * its link's load and to the total, one hop at a time in path order.
 * Link loads live in a flat 4 x numCores array indexed by (core
 * index, direction).
 */
class TrafficAccumulator
{
  public:
    explicit TrafficAccumulator(const MeshNoc &noc);

    /** Add a flow of @p bytes from @p src to @p dst; false, adding
     *  nothing, when the flow is unroutable. */
    bool addFlow(CoreCoord src, CoreCoord dst, Bytes bytes);

    /** Bytes on the most-loaded link (die-penalty inflated). */
    double bottleneckBytes() const { return maxLinkBytes_; }

    /** Serialisation time of the bottleneck link (seconds). */
    double bottleneckSeconds() const;

    /** Total *effective* byte-hops: the sum of all link loads, i.e.
     *  the routed analogue of the mapping objective's
     *  ((dist * bytes) * penalty) volume. */
    double totalEffectiveByteHops() const
    {
        return effectiveByteHops_;
    }

  private:
    const MeshNoc &noc_;
    /** core index * 4 + direction -> accumulated effective bytes. */
    std::vector<double> linkBytes_;
    double maxLinkBytes_ = 0.0;
    double effectiveByteHops_ = 0.0;
};

/**
 * Load the inter-block flows of forEachInterBlockFlow() from @p cur
 * to @p nxt onto @p traffic. Returns false (with @p traffic partially
 * accumulated) when a flow is unroutable - an endpoint fenced in by
 * defects.
 */
bool accumulateInterBlockFlows(const std::vector<LayerSpec> &specs,
                               std::uint32_t tiles_per_block,
                               const std::vector<CoreCoord> &cur,
                               const std::vector<CoreCoord> &nxt,
                               TrafficAccumulator &traffic);

/**
 * The bottleneck-link time of chain @p replica's full inter-block
 * activation traffic over @p service's current placements and fault
 * state (its mesh). @p specs and @p tiles_per_block describe the
 * service's block (WaferMapping::layerSpecs()/tilesPerBlock()).
 * std::nullopt when a flow is unroutable.
 */
std::optional<double>
chainInterBlockSeconds(const RecoveryService &service,
                       const std::vector<LayerSpec> &specs,
                       std::uint32_t tiles_per_block,
                       std::uint32_t replica);

} // namespace ouro

#endif // OURO_ORACLES_TRAFFIC_HH
