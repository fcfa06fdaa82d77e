#include "system.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace ouro
{

std::optional<OuroborosSystem>
OuroborosSystem::build(const ModelConfig &model,
                       const OuroborosParams &params,
                       const OuroborosOptions &opts)
{
    OuroborosSystem sys;
    sys.model_ = model;
    sys.params_ = params;
    sys.params_.numWafers = opts.numWafers;
    sys.opts_ = opts;
    sys.geom_ = WaferGeometry{};

    // Blocks are split contiguously across wafers (pipeline order).
    const std::uint32_t wafers = std::max(1u, opts.numWafers);

    // Replica count is decided ONCE, from the most constrained wafer
    // (wafer 0: it takes the largest block share AND hosts the
    // embedding reservation), so every wafer builds the same number
    // of chains - a chain with blocks on one wafer but not its
    // upstream neighbour would be unservable. Small models replicate
    // data-parallel across the wafer: each replica needs its weight
    // tiles, its own embedding reservation (chains are independent
    // fault domains) and a healthy KV share (8x tiles keeps
    // 13B-class models at one replica).
    const std::uint64_t count0 = (model.numBlocks + wafers - 1) / wafers;
    const std::uint64_t tiles0 =
        static_cast<std::uint64_t>(coresPerBlock(model, params.core)) *
        count0;
    const std::uint64_t reserved0 =
        embeddingCoreCount(model, params.core);
    sys.replicas_ = static_cast<std::uint32_t>(std::clamp<
            std::uint64_t>(
            sys.geom_.numCores() / (8 * tiles0 + reserved0), 1, 64));

    std::uint64_t first = 0;
    for (std::uint32_t w = 0; w < wafers; ++w) {
        const std::uint64_t count =
            (model.numBlocks + wafers - 1 - w) / wafers;
        if (count == 0)
            continue;

        Rng rng(opts.seed * 1000003ULL + w);
        DefectMap defects(sys.geom_, params.yield, rng);
        sys.defects_ += defects.numDefects();

        WaferMappingOptions mopts;
        mopts.mapper = opts.smartMapping ? MapperKind::Annealing
                                         : MapperKind::WaferLlm;
        mopts.annealIterations = opts.annealIterations;
        mopts.annealRestarts = opts.annealRestarts;
        mopts.seed = opts.seed + w;
        mopts.replicas = sys.replicas_;
        auto mapping = WaferMapping::build(model, params.core, sys.geom_,
                                           &defects, first, count, mopts);
        if (!mapping)
            return std::nullopt;
        sys.wafers_.push_back(std::move(*mapping));
        sys.defectMaps_.push_back(std::move(defects));
        first += count;
    }
    ouroAssert(first == model.numBlocks,
               "OuroborosSystem: block split mismatch");

    // Representative block: the first placed block.
    const BlockPlacement &rep = sys.wafers_.front().placement(0);
    sys.dist_ = measurePlacement(rep, sys.geom_);

    const FabricFlags flags{opts.useCim, opts.waferScale};
    sys.timing_ = deriveStageTiming(model, sys.params_, sys.dist_,
                                    flags);

    // KV pool of the representative block: dedicated KV cores plus,
    // in dynamic mode, the fragmented spare crossbars of the block's
    // weight cores (the Section 4.4 repurposing).
    const auto &xp = params.core.crossbar;
    const std::uint32_t cols_per_xbar = xp.cols / xp.weightBits;
    for (const auto &c : rep.scoreCores) {
        sys.scorePool_.push_back(
                {c, params.core.numCrossbars, xp.logicalBlocks});
    }
    for (const auto &c : rep.contextCores) {
        sys.contextPool_.push_back(
                {c, params.core.numCrossbars, xp.logicalBlocks});
    }
    if (opts.dynamicKv) {
        // Reconstruct per-tile crossbar usage from the layer specs.
        const auto &specs = sys.wafers_.front().layerSpecs();
        std::size_t t = 0;
        bool to_score = true;
        for (const auto &spec : specs) {
            for (std::uint32_t o = 0; o < spec.outSplits; ++o) {
                const auto cols = static_cast<std::uint32_t>(
                        spec.outPartHi(o) - spec.outPartLo(o));
                const auto used = static_cast<std::uint32_t>(
                        ceilDiv(cols, cols_per_xbar));
                const std::uint32_t spare =
                    params.core.numCrossbars -
                    std::min(params.core.numCrossbars, used);
                for (std::uint32_t i = 0; i < spec.inSplits;
                     ++i, ++t) {
                    if (spare == 0)
                        continue;
                    const KvCoreInfo info{rep.weightCores[t], spare,
                                          xp.logicalBlocks};
                    if (to_score)
                        sys.scorePool_.push_back(info);
                    else
                        sys.contextPool_.push_back(info);
                    to_score = !to_score;
                }
            }
        }
    }

    // Active cores for leakage: all mapped cores across wafers,
    // accounted per replica chain (each chain's weights, KV and -
    // under the replicated-embedding layout - its own embedding
    // reservation burn leakage; a shared reservation is counted
    // once).
    for (const auto &wafer : sys.wafers_) {
        if (wafer.sharedEmbedding())
            sys.activeCores_ += wafer.embeddingCores().size();
        for (std::uint32_t rep = 0; rep < wafer.numReplicas();
             ++rep) {
            sys.activeCores_ += wafer.chainActiveCores(rep);
        }
    }
    return sys;
}

const DefectMap *
OuroborosSystem::defectMap(std::uint32_t wafer) const
{
    ouroAssert(wafer < defectMaps_.size(),
               "defectMap: bad wafer index");
    return &defectMaps_[wafer];
}

RecoveryService
OuroborosSystem::makeRecoveryService(
        std::uint32_t wafer, const RecoveryServiceOptions &opts) const
{
    return RecoveryService(mapping(wafer), params_.noc,
                           params_.core.sramBytes(),
                           defectMap(wafer), opts);
}

const WaferMapping &
OuroborosSystem::mapping(std::uint32_t wafer) const
{
    ouroAssert(wafer < wafers_.size(), "mapping: bad wafer index");
    return wafers_[wafer];
}

double
OuroborosSystem::totalMappingByteHops() const
{
    double total = 0.0;
    for (const auto &wafer : wafers_)
        total += wafer.totalByteHops();
    return total;
}

PipelineOptions
OuroborosSystem::servingOptions() const
{
    PipelineOptions popts;
    popts.kind = opts_.tokenGrained ? PipelineKind::TokenGrained
                                    : PipelineKind::SequenceGrained;
    popts.staticKvAllocation = !opts_.dynamicKv;
    popts.maxContext = model_.maxContext;
    // Bulk (sequence-granular) attention parallelises across the
    // block's KV crossbars: ~16-way per head ring in practice.
    popts.attentionParallelism = 16.0;
    return popts;
}

BlockKvManager
OuroborosSystem::makeKvManager() const
{
    return BlockKvManager(model_, scorePool_, contextPool_,
                          kKvBlockTokens, opts_.kvThreshold);
}

OuroborosReport
OuroborosSystem::run(const Workload &workload) const
{
    OuroborosReport report;
    BlockKvManager kv = makeKvManager();

    // Data-parallel replicas: run one replica's shard; the others
    // are congruent and finish simultaneously.
    Workload shard = workload;
    if (replicas_ > 1) {
        shard.requests.clear();
        for (std::size_t i = 0; i < workload.requests.size();
             i += replicas_) {
            shard.requests.push_back(workload.requests[i]);
        }
        if (shard.requests.empty())
            shard.requests.push_back(workload.requests.front());
    }
    report.pipeline =
        runPipeline(shard, model_, timing_, kv, servingOptions());
    report.kvEvictions = kv.evictionCount();
    report.kvAdmissionProbes = kv.admissionProbes();
    report.kvProbeFailures = kv.probeFailures();
    report.kvProbesSkipped = kv.probesSkipped();
    report.kvUtilization = kv.utilization();
    report.defects = defects_;
    report.mappingByteHops = totalMappingByteHops();
    report.avgContext = report.pipeline.avgContext;

    // ---- Energy ----
    const FabricFlags flags{opts_.useCim, opts_.waferScale};
    double reread = 0.0;
    if (!opts_.useCim) {
        if (opts_.tokenGrained) {
            reread = 1.0; // every token re-streams the weights
        } else {
            // Sequence granularity amortises the weight stream over
            // each item's tokens; decode steps additionally batch
            // ~16 concurrent sequences against one weight read (the
            // conventional batched-GEMV baseline).
            double items = 0.0;
            double tokens = 0.0;
            for (const auto &r : workload.requests) {
                items += 1.0 +
                         static_cast<double>(r.decodeLen) / 16.0;
                tokens += static_cast<double>(r.totalTokens());
            }
            reread = tokens > 0.0 ? items / tokens : 1.0;
        }
    }
    const EnergyLedger per_token = perTokenEnergy(
            model_, params_, dist_, flags, report.avgContext, reread);

    EnergyLedger total = per_token.scaled(
            static_cast<double>(report.pipeline.tokensProcessed));
    total.add(EnergyCategory::Compute,
              fabricStaticPower(model_, params_, activeCores_) *
                  report.pipeline.makespanSeconds);

    SystemResult &result = report.result;
    result.system = "Ouroboros";
    result.workload = workload.name;
    result.model = model_.name;
    result.makespanSeconds = report.pipeline.makespanSeconds;
    // All replicas run concurrently: system throughput counts every
    // replica's output over the (common) shard makespan.
    const double replica_scale =
        replicas_ > 1 && report.pipeline.outputTokens > 0
            ? static_cast<double>(workload.totalOutputTokens()) /
                  static_cast<double>(report.pipeline.outputTokens)
            : 1.0;
    result.outputTokensPerSecond =
        report.pipeline.outputTokensPerSecond() * replica_scale;
    result.utilization = report.pipeline.utilization;
    result.peakConcurrency = report.pipeline.peakConcurrency;
    const double out_tokens =
        std::max<double>(1.0, static_cast<double>(
                report.pipeline.outputTokens));
    result.energyPerToken = total.scaled(1.0 / out_tokens);
    return report;
}

} // namespace ouro
