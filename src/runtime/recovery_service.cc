#include "recovery_service.hh"

#include <algorithm>
#include <limits>

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
                                     defects_.get())),
      traffic_(*noc_)
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

RecoveryIndex *
RecoveryService::indexOf(Region &reg)
{
    if (!opts_.useSpatialIndex)
        return nullptr;
    if (!reg.index)
        reg.index.emplace(reg.placement);
    return &*reg.index;
}

const BlockPlacement &
RecoveryService::placement(std::uint64_t block,
                           std::uint32_t replica) const
{
    return region(block, replica).placement;
}

std::uint64_t
RecoveryService::chainKvCores(std::uint32_t replica) const
{
    ouroAssert(replica < numReplicas_, "chainKvCores: replica ",
               replica, " of ", numReplicas_, " not on this wafer");
    std::uint64_t n = 0;
    for (std::uint64_t b = 0; b < numBlocks_; ++b) {
        const auto &p = regions_[replica * numBlocks_ + b].placement;
        n += p.scoreCores.size() + p.contextCores.size();
    }
    return n;
}

std::optional<std::pair<CoreCoord, bool>>
RecoveryService::pickDonorCore(Region &donor, CoreCoord near)
{
    const RecoveryIndex *index = indexOf(donor);
    if (!index) {
        // The retained scan oracle (shared with recoverCoreFailure's
        // no-index path, so both service modes lend the identical
        // core).
        const auto hit = nearestKvScan(donor.placement, near, geom_);
        if (!hit)
            return std::nullopt;
        return std::make_pair(hit->core, hit->scoreDuty);
    }
    const auto hit = index->nearestKv(near);
    if (!hit)
        return std::nullopt;
    const auto &score = donor.placement.scoreCores;
    const bool score_duty =
        std::find(score.begin(), score.end(), hit->core) !=
        score.end();
    return std::make_pair(hit->core, score_duty);
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
            const auto lent = pickDonorCore(donor, near);
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
            if (donor.index)
                donor.index->removeKv(core);

            (score_duty ? dry.placement.scoreCores
                        : dry.placement.contextCores)
                    .push_back(core);
            // The dry region's placement gained a core its index was
            // not built over. Drop the index: its next use rebuilds
            // it, re-deriving scan-order sequence numbers from the
            // post-graft pools, so it stays bit-identical to the scan
            // oracle from here on.
            dry.index.reset();
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

bool
RecoveryService::priceEdge(std::uint32_t replica,
                           std::uint64_t from_block) const
{
    // Flow from_block -> from_block + 1 of this chain.
    ouroAssert(from_block + 1 < firstBlock_ + numBlocks_,
               "RecoveryService: edge (", replica, ", ", from_block,
               ") has no successor block");
    const auto &cur = region(from_block, replica).placement.weightCores;
    const auto &nxt =
        region(from_block + 1, replica).placement.weightCores;
    return accumulateInterBlockFlows(specs_, tilesPerBlock_, cur,
                                     nxt, *noc_, traffic_);
}

bool
RecoveryService::accumulateChainFlows(std::uint32_t replica) const
{
    for (std::uint64_t b = firstBlock_;
         b + 1 < firstBlock_ + numBlocks_; ++b) {
        if (!priceEdge(replica, b))
            return false;
    }
    return true;
}

void
RecoveryService::markDirtyEdges(std::uint32_t replica,
                                std::uint64_t block)
{
    if (block > firstBlock_)
        dirty_.emplace(replica, block - 1);
    if (block + 1 < firstBlock_ + numBlocks_)
        dirty_.emplace(replica, block);
}

RepriceResult
RecoveryService::priceEdges(
        const std::vector<InterBlockEdge> &edges) const
{
    RepriceResult out;
    out.edges = edges.size();
    // One continuous accumulation over all edges, so any two runs
    // over the same edge list and state are bit-identical.
    traffic_.clear();
    for (const auto &[replica, from_block] : edges)
        out.flowsRoutable =
            priceEdge(replica, from_block) && out.flowsRoutable;
    out.interBlockByteHops = traffic_.totalEffectiveByteHops();
    return out;
}

RepriceResult
RecoveryService::flushRepricing()
{
    // std::set iterates ascending: within one failure the
    // predecessor edge comes first, and the order is deterministic
    // across a storm.
    const std::vector<InterBlockEdge> edges(dirty_.begin(),
                                            dirty_.end());
    dirty_.clear();
    const RepriceResult out = priceEdges(edges);
    repricedEdges_ += out.edges;
    return out;
}

std::vector<InterBlockEdge>
RecoveryService::dirtyEdges() const
{
    return {dirty_.begin(), dirty_.end()};
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

    const auto result = recoverCoreFailure(
            reg.placement, failed, *noc_, tileBytes_, indexOf(reg));
    if (!result)
        return std::nullopt;
    out.remap = *result;
    owner_[key] = kUnowned; // the failed core is dead
    ++recoveries_;

    // Mark the inter-block activation flows this region feeds (its
    // predecessor's flow in, its own flow out) dirty - but only when
    // weight tiles actually moved. A KV drop (no moves) leaves every
    // flow endpoint in place, and failure storms are dominated by KV
    // drops, so skipping the unchanged re-pricing is the storm hot
    // path. The marks wait for the caller's flushRepricing().
    if (!out.remap.moves.empty())
        markDirtyEdges(reg.replica, reg.block);
    return out;
}

void
RecoveryService::failLink(CoreCoord from, LinkDir dir)
{
    noc_->failLink(from, dir);
}

std::optional<double>
RecoveryService::chainInterBlockSeconds(std::uint32_t replica) const
{
    ouroAssert(replica < numReplicas_,
               "chainInterBlockSeconds: replica ", replica, " of ",
               numReplicas_, " not on this wafer");
    traffic_.clear();
    if (!accumulateChainFlows(replica))
        return std::nullopt;
    return traffic_.bottleneckSeconds();
}

} // namespace ouro
