#include "recovery_service.hh"

#include "common/logging.hh"

namespace ouro
{

RecoveryService::RecoveryService(
        const WaferMapping &mapping, const NocParams &noc_params,
        Bytes tile_bytes, const DefectMap *defects,
        const RecoveryServiceOptions &opts)
    : geom_(mapping.geometry()), specs_(mapping.layerSpecs()),
      tilesPerBlock_(mapping.tilesPerBlock()),
      firstBlock_(mapping.firstBlock()),
      numBlocks_(mapping.numBlocks()),
      numReplicas_(mapping.numReplicas()), tileBytes_(tile_bytes),
      opts_(opts),
      defects_(defects ? std::make_unique<const DefectMap>(*defects)
                       : nullptr),
      noc_(std::make_unique<MeshNoc>(geom_, noc_params,
                                     defects_.get()))
{
    regions_.reserve(static_cast<std::size_t>(numReplicas_) *
                     numBlocks_);
    owner_.assign(geom_.numCores(), kUnowned);
    for (std::uint32_t rep = 0; rep < numReplicas_; ++rep) {
        for (std::uint64_t b = 0; b < numBlocks_; ++b) {
            Region region;
            region.replica = rep;
            region.block = firstBlock_ + b;
            region.placement = mapping.placement(region.block, rep);
            const auto slot =
                static_cast<std::uint32_t>(regions_.size());
            for (const auto *pool : {&region.placement.weightCores,
                                     &region.placement.scoreCores,
                                     &region.placement.contextCores}) {
                for (const CoreCoord &c : *pool) {
                    std::uint32_t &owner = owner_[geom_.coreIndex(c)];
                    ouroAssert(owner == kUnowned,
                               "RecoveryService: core (", c.row, ",",
                               c.col, ") owned by two regions");
                    owner = slot;
                }
            }
            regions_.push_back(std::move(region));
        }
    }
}

RecoveryService::Region &
RecoveryService::region(std::uint64_t block, std::uint32_t replica)
{
    ouroAssert(block >= firstBlock_ &&
                       block < firstBlock_ + numBlocks_ &&
                       replica < numReplicas_,
               "RecoveryService: region (", block, ", ", replica,
               ") not on this wafer");
    return regions_[replica * numBlocks_ + (block - firstBlock_)];
}

const RecoveryService::Region &
RecoveryService::region(std::uint64_t block,
                        std::uint32_t replica) const
{
    return const_cast<RecoveryService *>(this)->region(block,
                                                       replica);
}

const BlockPlacement &
RecoveryService::placement(std::uint64_t block,
                           std::uint32_t replica) const
{
    return region(block, replica).placement;
}

bool
RecoveryService::borrowKvCore(Region &dry, CoreCoord near,
                              std::vector<KvBorrow> &borrows)
{
    const auto dry_slot = static_cast<std::uint32_t>(
            dry.replica * numBlocks_ + (dry.block - firstBlock_));
    // Deterministic nearest-block order within the chain: distance
    // 1, 2, ... from the dry block, the lower-numbered block first
    // on ties. Chains never lend across replicas.
    for (std::uint64_t delta = 1; delta < numBlocks_; ++delta) {
        for (const int sign : {-1, +1}) {
            if (sign < 0 && dry.block < firstBlock_ + delta)
                continue;
            const std::uint64_t donor_block =
                sign < 0 ? dry.block - delta : dry.block + delta;
            if (donor_block >= firstBlock_ + numBlocks_)
                continue;
            Region &donor = region(donor_block, dry.replica);
            // The donor lends its nearest KV core to the failure,
            // under the same tie-break the chain's absorbing core
            // uses.
            const auto lent =
                nearestKvScan(donor.placement, near, geom_);
            if (!lent)
                continue; // this donor is dry too
            const auto [core, score_duty] = *lent;

            const bool removed = removePoolCoord(
                    score_duty ? donor.placement.scoreCores
                               : donor.placement.contextCores,
                    core);
            ouroAssert(removed, "RecoveryService: donor pool lost "
                                "core (", core.row, ",", core.col,
                       ")");

            (score_duty ? dry.placement.scoreCores
                        : dry.placement.contextCores)
                    .push_back(core);
            owner_[geom_.coreIndex(core)] = dry_slot;

            ++borrowCount_;
            borrows.push_back({dry.replica, donor_block, dry.block,
                               core, score_duty});
            return true;
        }
        if (dry.block < firstBlock_ + delta &&
            dry.block + delta >= firstBlock_ + numBlocks_)
            break; // both directions exhausted
    }
    return false;
}

std::vector<InterBlockEdge>
RecoveryService::touchedEdges(const FailureOutcome &outcome) const
{
    // A KV drop leaves every flow endpoint in place.
    std::vector<InterBlockEdge> edges;
    if (outcome.remap.moves.empty())
        return edges;
    if (outcome.block > firstBlock_)
        edges.emplace_back(outcome.replica, outcome.block - 1);
    if (outcome.block + 1 < firstBlock_ + numBlocks_)
        edges.emplace_back(outcome.replica, outcome.block);
    return edges;
}

RepriceResult
RecoveryService::priceEdges(
        const std::vector<InterBlockEdge> &edges) const
{
    RepriceResult out;
    // One continuous volume sum over all edges, so any two runs over
    // the same edge list and state are bit-identical.
    const auto add_volume = [&](CoreCoord src, CoreCoord dst,
                                Bytes bytes) {
        return noc_->addRouteVolume(src, dst, bytes,
                                    out.interBlockByteHops);
    };
    for (const auto &[replica, from_block] : edges) {
        // Flow from_block -> from_block + 1 of this chain.
        ouroAssert(from_block + 1 < firstBlock_ + numBlocks_,
                   "RecoveryService: edge (", replica, ", ",
                   from_block, ") has no successor block");
        out.flowsRoutable =
            forEachInterBlockFlow(
                    specs_, tilesPerBlock_,
                    placement(from_block, replica).weightCores,
                    placement(from_block + 1, replica).weightCores,
                    add_volume) &&
            out.flowsRoutable;
    }
    return out;
}

std::optional<FailureOutcome>
RecoveryService::handleCoreFailure(CoreCoord failed)
{
    const std::uint64_t key = geom_.coreIndex(failed);
    if (owner_[key] == kUnowned)
        return std::nullopt; // embedding core, dead core, or unmapped
    Region &reg = regions_[owner_[key]];

    FailureOutcome out;
    out.replica = reg.replica;
    out.block = reg.block;

    // An owned core with empty KV pools must be a weight core, and
    // its replacement chain has nothing to absorb it - borrow KV
    // capacity from the nearest adjacent block of this chain first.
    if (reg.placement.scoreCores.empty() &&
        reg.placement.contextCores.empty()) {
        if (!opts_.allowKvBorrow ||
            !borrowKvCore(reg, failed, out.borrows))
            return std::nullopt; // whole chain exhausted
    }

    const auto result =
        recoverCoreFailure(reg.placement, failed, *noc_, tileBytes_);
    if (!result)
        return std::nullopt;
    out.remap = *result;
    owner_[key] = kUnowned; // the failed core is dead
    ++recoveries_;
    return out;
}

void
RecoveryService::failLink(CoreCoord from, LinkDir dir)
{
    noc_->failLink(from, dir);
}

} // namespace ouro
