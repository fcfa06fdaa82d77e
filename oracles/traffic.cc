#include "oracles/traffic.hh"

#include <algorithm>

#include "common/logging.hh"
#include "mapping/wafer_mapping.hh"

namespace ouro
{

TrafficAccumulator::TrafficAccumulator(const MeshNoc &noc)
    : noc_(noc), linkBytes_(noc.geometry().numCores() * 4, 0.0)
{
}

bool
TrafficAccumulator::addFlow(CoreCoord src, CoreCoord dst, Bytes bytes)
{
    const auto &path = noc_.routeCached(src, dst);
    if (path.empty())
        return false;
    const auto &geom = noc_.geometry();
    const double b = static_cast<double>(bytes);
    for (std::size_t i = 1; i < path.size(); ++i) {
        const CoreCoord from = path[i - 1];
        const CoreCoord to = path[i];
        // Die-crossing links carry an inflated effective load to model
        // their reduced bandwidth.
        const double effective =
            b * (geom.sameDie(from, to) ? 1.0
                                        : noc_.params().interDiePenalty);
        double &bucket =
            linkBytes_[geom.coreIndex(from) * 4 +
                       static_cast<unsigned>(MeshNoc::stepDir(from, to))];
        bucket += effective;
        effectiveByteHops_ += effective;
        maxLinkBytes_ = std::max(maxLinkBytes_, bucket);
    }
    return true;
}

double
TrafficAccumulator::bottleneckSeconds() const
{
    return maxLinkBytes_ / noc_.params().linkBytesPerSecond();
}

bool
accumulateInterBlockFlows(const std::vector<LayerSpec> &specs,
                          std::uint32_t tiles_per_block,
                          const std::vector<CoreCoord> &cur,
                          const std::vector<CoreCoord> &nxt,
                          TrafficAccumulator &traffic)
{
    return forEachInterBlockFlow(
            specs, tiles_per_block, cur, nxt,
            [&](CoreCoord src, CoreCoord dst, Bytes bytes) {
                return traffic.addFlow(src, dst, bytes);
            });
}

std::optional<double>
chainInterBlockSeconds(const RecoveryService &service,
                       const std::vector<LayerSpec> &specs,
                       std::uint32_t tiles_per_block,
                       std::uint32_t replica)
{
    ouroAssert(replica < service.numReplicas(),
               "chainInterBlockSeconds: replica ", replica, " of ",
               service.numReplicas(), " not on this wafer");
    TrafficAccumulator traffic(service.noc());
    const std::uint64_t end = service.firstBlock() + service.numBlocks();
    for (std::uint64_t b = service.firstBlock(); b + 1 < end; ++b) {
        if (!accumulateInterBlockFlows(
                    specs, tiles_per_block,
                    service.placement(b, replica).weightCores,
                    service.placement(b + 1, replica).weightCores,
                    traffic))
            return std::nullopt;
    }
    return traffic.bottleneckSeconds();
}

} // namespace ouro
