#include "wafer_mapping.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "noc/mesh.hh"

namespace ouro
{

std::uint64_t
embeddingCoreCount(const ModelConfig &model,
                   const CoreParams &core_params)
{
    const Bytes tables =
        2 * model.vocabSize * model.hiddenDim * model.bytesPerParam;
    return ceilDiv(tables, core_params.sramBytes());
}

std::uint64_t
regionSize(std::uint64_t num_regions, std::uint64_t usable_cores,
           std::uint64_t reserved)
{
    ouroAssert(num_regions > 0, "regionSize: no regions");
    ouroAssert(usable_cores > reserved,
               "regionSize: no cores after reservation");
    return (usable_cores - reserved) / num_regions;
}

const BlockPlacement &
WaferMapping::placement(std::uint64_t block) const
{
    return placement(block, 0);
}

const BlockPlacement &
WaferMapping::placement(std::uint64_t block,
                        std::uint32_t replica) const
{
    ouroAssert(block >= firstBlock_ && block < firstBlock_ + numBlocks_,
               "placement: block ", block, " not on this wafer");
    ouroAssert(replica < numReplicas_, "placement: replica ", replica,
               " of ", numReplicas_, " not on this wafer");
    return placements_[replica * numBlocks_ + (block - firstBlock_)];
}

std::uint64_t
WaferMapping::totalKvCores() const
{
    std::uint64_t n = 0;
    for (const auto &p : placements_)
        n += p.scoreCores.size() + p.contextCores.size();
    return n;
}

const std::vector<CoreCoord> &
WaferMapping::embeddingCores(std::uint32_t replica) const
{
    ouroAssert(replica < numReplicas_, "embeddingCores: replica ",
               replica, " of ", numReplicas_, " not on this wafer");
    return embeddingChains_[replica];
}

std::uint64_t
WaferMapping::chainKvCores(std::uint32_t replica) const
{
    ouroAssert(replica < numReplicas_, "chainKvCores: replica ",
               replica, " of ", numReplicas_, " not on this wafer");
    std::uint64_t n = 0;
    for (std::uint64_t b = 0; b < numBlocks_; ++b) {
        const auto &p = placements_[replica * numBlocks_ + b];
        n += p.scoreCores.size() + p.contextCores.size();
    }
    return n;
}

std::uint64_t
WaferMapping::chainActiveCores(std::uint32_t replica) const
{
    ouroAssert(replica < numReplicas_, "chainActiveCores: replica ",
               replica, " of ", numReplicas_, " not on this wafer");
    std::uint64_t n = embeddingChains_[replica].size();
    for (std::uint64_t b = 0; b < numBlocks_; ++b) {
        const auto &p = placements_[replica * numBlocks_ + b];
        n += p.weightCores.size() + p.scoreCores.size() +
             p.contextCores.size();
    }
    return n;
}

std::optional<WaferMapping>
WaferMapping::build(const ModelConfig &model,
                    const CoreParams &core_params,
                    const WaferGeometry &geom, const DefectMap *defects,
                    std::uint64_t first_block, std::uint64_t num_blocks,
                    const WaferMappingOptions &opts)
{
    ouroAssert(num_blocks > 0, "WaferMapping::build: no blocks");
    // costInter weights every die crossing the mappers price, so a
    // bad value is refused before any mapper runs.
    if (!(std::isfinite(opts.costInter) && opts.costInter > 0.0))
        fatal("WaferMapping::build: WaferMappingOptions::costInter = ",
              opts.costInter, " (must be finite and > 0)");

    WaferMapping mapping(geom);
    mapping.firstBlock_ = first_block;
    mapping.numBlocks_ = num_blocks;
    mapping.specs_ = tileBlockLayers(model, core_params);
    mapping.tilesPerBlock_ = 0;
    for (const auto &spec : mapping.specs_)
        mapping.tilesPerBlock_ += spec.numTiles();

    // Usable cores in pipeline (S-shaped) order.
    std::vector<CoreCoord> order;
    for (const CoreCoord &c : geom.sShapedOrder()) {
        if (!defects || !defects->defective(c))
            order.push_back(c);
    }

    // Reserve the embedding/LM-head cores only on the wafer hosting
    // block 0 (the pipeline entry). EVERY replica chain carries its
    // own reservation at the head of its core span.
    std::uint64_t reserved = 0;
    if (first_block == 0)
        reserved = embeddingCoreCount(model, core_params);

    const std::uint32_t replicas = std::max(1u, opts.replicas);
    mapping.numReplicas_ = replicas;
    const std::uint64_t reserved_total = reserved * replicas;
    if (order.size() <= reserved_total)
        return std::nullopt;
    const std::uint64_t num_regions = num_blocks * replicas;
    const std::uint64_t per_region =
        regionSize(num_regions, order.size(), reserved_total);
    if (per_region < mapping.tilesPerBlock_)
        return std::nullopt; // weights alone do not fit

    // A chain's span: its embedding reservation followed by its
    // blocks' regions.
    const std::uint64_t chain_span =
        reserved + num_blocks * per_region;
    for (std::uint32_t r = 0; r < replicas; ++r) {
        const std::uint64_t lo = r * chain_span;
        mapping.embeddingChains_.emplace_back(
                order.begin() + lo, order.begin() + lo + reserved);
    }
    const auto region_start = [&](std::uint64_t region) {
        const std::uint64_t rep = region / num_blocks;
        const std::uint64_t block = region % num_blocks;
        return rep * chain_span + reserved + block * per_region;
    };

    // Region assignment plus per-region mapping. The annealed pattern
    // from the first region is replicated to all congruent regions
    // (constraint (1)); regions are congruent here whenever they are
    // defect-free slices of equal length, which the usable-core
    // filtering guarantees in index space. Replica r's block b lives
    // on region r * num_blocks + b, so each replica is a contiguous
    // pipeline chain and replica 0 occupies the same regions a
    // single-replica build would.
    std::vector<std::uint32_t> pattern; // slot indices for tiles
    const GreedyMapper greedy;

    // Block 0's problem is the template every congruent region is
    // translated from. The retained per-region rebuild oracle
    // (congruentReuse = false) constructs every region in full and
    // never reads the template.
    std::optional<MappingProblem> template_problem;

    mapping.placements_.reserve(num_regions);
    for (std::uint64_t region = 0; region < num_regions; ++region) {
        const std::uint64_t lo = region_start(region);
        std::vector<CoreCoord> region_cores(
                order.begin() + lo, order.begin() + lo + per_region);

        std::optional<MappingProblem> translated;
        if (region == 0 || !opts.congruentReuse) {
            template_problem.emplace(model, core_params, geom,
                                     std::move(region_cores),
                                     opts.costInter);
        } else {
            translated.emplace(template_problem->congruentTranslate(
                    std::move(region_cores)));
        }
        const MappingProblem &problem =
            translated ? *translated : *template_problem;
        const auto &cores = problem.candidates();

        Assignment assignment;
        if (region == 0 || opts.mapper == MapperKind::Summa ||
            opts.mapper == MapperKind::WaferLlm) {
            switch (opts.mapper) {
              case MapperKind::Greedy:
                assignment = greedy.solve(problem);
                break;
              case MapperKind::Annealing: {
                AnnealingMapper::Options sa;
                sa.iterations = opts.annealIterations;
                sa.restarts = std::max(1u, opts.annealRestarts);
                sa.seed = opts.seed;
                assignment = AnnealingMapper(sa).solve(problem);
                break;
              }
              case MapperKind::Summa:
                assignment = SummaMapper{}.solve(problem);
                break;
              case MapperKind::WaferLlm:
                assignment = WaferLlmMapper{}.solve(problem);
                break;
            }
            if (region == 0)
                pattern = assignment;
        } else {
            assignment = pattern; // replicate the region-0 pattern
        }
        ouroAssert(problem.feasible(assignment),
                   "WaferMapping: infeasible block assignment");

        BlockPlacement placement;
        placement.mappingCost = problem.assignmentCost(assignment);
        mapping.totalByteHops_ += placement.mappingCost;

        std::vector<bool> used(cores.size(), false);
        placement.weightCores.reserve(assignment.size());
        for (const auto slot : assignment) {
            placement.weightCores.push_back(cores[slot]);
            used[slot] = true;
        }
        // Leftover region cores become dedicated KV cores, split
        // alternately between score (K) and context (V) duty.
        bool to_score = true;
        for (std::size_t r = 0; r < cores.size(); ++r) {
            if (used[r])
                continue;
            if (to_score)
                placement.scoreCores.push_back(cores[r]);
            else
                placement.contextCores.push_back(cores[r]);
            to_score = !to_score;
        }
        mapping.placements_.push_back(std::move(placement));
    }

    // Inter-block activation flow: the routed effective byte-hop
    // volume over the actual mesh (defect detours included), with
    // die-crossing hops carrying the CostInter weight, matching the
    // Fig. 18 volume metric. An unroutable flow (endpoint fenced in
    // by defects) makes the wafer unusable under this defect map, so
    // the build fails like any other infeasibility.
    NocParams noc_params;
    noc_params.interDiePenalty = opts.costInter;
    const MeshNoc noc(geom, noc_params, defects);
    double volume = 0.0;
    const auto add_volume = [&](CoreCoord src, CoreCoord dst,
                                Bytes bytes) {
        return noc.addRouteVolume(src, dst, bytes, volume);
    };
    for (std::uint32_t rep = 0; rep < replicas; ++rep) {
        for (std::uint64_t b = 0; b + 1 < num_blocks; ++b) {
            if (!forEachInterBlockFlow(
                        mapping.specs_, mapping.tilesPerBlock_,
                        mapping.placements_[rep * num_blocks + b]
                                .weightCores,
                        mapping.placements_[rep * num_blocks + b + 1]
                                .weightCores,
                        add_volume))
                return std::nullopt;
        }
    }
    mapping.interBlockByteHops_ = volume;
    mapping.totalByteHops_ += mapping.interBlockByteHops_;

    return mapping;
}

} // namespace ouro
