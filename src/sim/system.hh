/**
 * @file
 * The Ouroboros end-to-end system simulator (paper Section 5).
 *
 * OuroborosSystem assembles everything: wafer geometry and yield,
 * the communication-aware mapping, the distributed KV pool (dedicated
 * KV cores plus the fragmented spare crossbars of weight cores), the
 * derived stage timing, and the pipeline engine; run() executes a
 * workload and prices it.
 *
 * The ablation flags mirror Fig. 15's axes exactly:
 *   waferScale  - stitched wafer vs NVLink'd discrete dies
 *   useCim      - in-situ compute vs SRAM + separate MACs
 *   tokenGrained- TGP vs sequence-grained pipelining
 *   smartMapping- MIQP/annealed mapping vs naive strips
 *   dynamicKv   - distributed dynamic KV (+ spare-crossbar reuse)
 *                 vs static worst-case allocation
 */

#ifndef OURO_SIM_SYSTEM_HH
#define OURO_SIM_SYSTEM_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "baselines/result.hh"
#include "hw/geometry.hh"
#include "hw/params.hh"
#include "hw/yield.hh"
#include "mapping/wafer_mapping.hh"
#include "pipeline/engine.hh"
#include "runtime/recovery_service.hh"
#include "sim/stage_model.hh"
#include "workload/requests.hh"

namespace ouro
{

/** Configuration of one simulated Ouroboros deployment. */
struct OuroborosOptions
{
    bool waferScale = true;
    bool useCim = true;
    bool tokenGrained = true;
    bool smartMapping = true;
    bool dynamicKv = true;

    /** KV anti-thrashing threshold (Fig. 17 sweep). */
    double kvThreshold = 0.1;

    /** Wafers ganged over optical Ethernet (Section 6.8). */
    std::uint32_t numWafers = 1;

    std::uint64_t seed = 1;
    std::uint64_t annealIterations = 1200;

    /** Parallel multi-restart annealing chains (best mapping wins). */
    std::uint32_t annealRestarts = 1;
};

/** Detailed report of one run. */
struct OuroborosReport
{
    SystemResult result;
    PipelineStats pipeline;
    double kvUtilization = 0.0;
    std::uint64_t kvEvictions = 0;
    /** Admission attempts of the run's KV pool (see
     *  BlockKvManager::admissionProbes and friends). */
    std::uint64_t kvAdmissionProbes = 0;
    std::uint64_t kvProbeFailures = 0;
    std::uint64_t kvProbesSkipped = 0;
    std::uint64_t defects = 0;
    double mappingByteHops = 0.0;
    double avgContext = 0.0;
};

/**
 * A built Ouroboros deployment: mapping done, pools sized, timing
 * derived. Construction can fail (model does not fit the wafers);
 * use build().
 */
class OuroborosSystem
{
  public:
    /** Build a deployment; nullopt when the model does not fit. */
    static std::optional<OuroborosSystem>
    build(const ModelConfig &model, const OuroborosParams &params,
          const OuroborosOptions &opts = {});

    /** Execute a workload. */
    OuroborosReport run(const Workload &workload) const;

    /** The deployment's serving configuration, the one place the
     *  options become PipelineOptions: kind from tokenGrained, static
     *  KV from !dynamicKv, the model's max context and the bulk-
     *  attention parallelism. run() and every fleet wafer use it. */
    PipelineOptions servingOptions() const;

    /** A fresh representative-block KV manager over this system's
     *  pools: kKvBlockTokens-token blocks and the kvThreshold
     *  option. */
    BlockKvManager makeKvManager() const;

    /** Mapping of wafer @p w (for inspection / Fig. 18). */
    const WaferMapping &mapping(std::uint32_t wafer = 0) const;

    std::uint64_t numDefects() const { return defects_; }

    /** The Murphy-model defect map injected on wafer @p w. Retained
     *  so the recovery service can own the wafer's full fault
     *  state. */
    const DefectMap *defectMap(std::uint32_t wafer = 0) const;

    /** Active (leakage-burning) cores across wafers, every replica
     *  chain's weights, KV and embedding reservation included. */
    std::uint64_t activeCores() const { return activeCores_; }

    /**
     * A fresh recovery service over wafer @p w's mapping and defect
     * map: the runtime failure entry point (per-region failure
     * routing, cross-block KV borrowing, inter-block re-pricing).
     * The system itself holds no mutable fault state, so every
     * caller owns the service it drives and two services never share
     * failures.
     */
    RecoveryService
    makeRecoveryService(std::uint32_t wafer = 0,
                        const RecoveryServiceOptions &opts = {}) const;

    /** Data-parallel pipeline replicas sharing the wafer. */
    std::uint32_t replicas() const { return replicas_; }

    const StageTiming &stageTiming() const { return timing_; }
    const PlacementDistances &distances() const { return dist_; }

    /** Per-wafer transmission volume (byte-hops) of the mapping. */
    double totalMappingByteHops() const;

    const ModelConfig &model() const { return model_; }
    const OuroborosOptions &options() const { return opts_; }
    const OuroborosParams &params() const { return params_; }

    /** Representative-block KV pool description (one per run). */
    std::vector<KvCoreInfo> scorePool() const { return scorePool_; }
    std::vector<KvCoreInfo> contextPool() const
    {
        return contextPool_;
    }

  private:
    OuroborosSystem() = default;

    ModelConfig model_;
    OuroborosParams params_;
    OuroborosOptions opts_;
    WaferGeometry geom_;
    std::vector<WaferMapping> wafers_;
    /** Aligned with wafers_. */
    std::vector<DefectMap> defectMaps_;
    StageTiming timing_;
    PlacementDistances dist_;
    std::uint64_t defects_ = 0;
    std::uint64_t activeCores_ = 0;
    std::uint32_t replicas_ = 1;
    std::vector<KvCoreInfo> scorePool_;
    std::vector<KvCoreInfo> contextPool_;
};

} // namespace ouro

#endif // OURO_SIM_SYSTEM_HH
