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
#include <memory>
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

    /** Dedicated KV cores of one replica chain on wafer @p w - the
     *  per-fault-domain capacity the recovery service draws on. */
    std::uint64_t chainKvCores(std::uint32_t replica,
                               std::uint32_t wafer = 0) const;

    /**
     * The wafer-level recovery service of wafer @p w, created
     * lazily over the wafer's mapping and retained defect map. This
     * is THE runtime failure entry point: core failures go through
     * the service (per-chain RecoveryIndex routing, cross-block KV
     * borrowing, inter-block re-pricing), not through ad-hoc
     * per-placement calls.
     */
    RecoveryService &recovery(std::uint32_t wafer = 0);

    /** Delegate a core failure to wafer @p w's recovery service. */
    std::optional<FailureOutcome>
    handleCoreFailure(CoreCoord failed, std::uint32_t wafer = 0);

    /** Build a standalone service over wafer @p w (recovery() builds
     *  its slot here with the default options; callers that want
     *  their own options or a private service call it directly). */
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
    /**
     * Lazily built recovery services, aligned with wafers_. A
     * service is MUTABLE fault state, not a pure cache, so a copied
     * system must never alias the original's services: copying this
     * wrapper resets the slots (they rebuild lazily from the copied
     * mapping + defect map on the next recovery() call).
     */
    struct ServiceCache
    {
        std::vector<std::unique_ptr<RecoveryService>> slots;

        ServiceCache() = default;
        ServiceCache(const ServiceCache &other)
            : slots(other.slots.size())
        {
        }
        ServiceCache &operator=(const ServiceCache &other)
        {
            const std::size_t n = other.slots.size();
            slots.clear();
            slots.resize(n);
            return *this;
        }
        ServiceCache(ServiceCache &&) = default;
        ServiceCache &operator=(ServiceCache &&) = default;
    };
    ServiceCache services_;
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
