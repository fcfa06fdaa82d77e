/**
 * @file
 * Fixtures shared by the test binaries: a small pipeline model, a
 * uniform stage timing and an ample KV pool for engine-level tests,
 * and fast build options for tests that build a whole
 * OuroborosSystem.
 */

#ifndef OURO_TESTS_FIXTURES_HH
#define OURO_TESTS_FIXTURES_HH

#include <cstdint>
#include <vector>

#include "kvcache/manager.hh"
#include "model/llm.hh"
#include "pipeline/timing.hh"
#include "sim/system.hh"

namespace ouro
{

inline ModelConfig
pipeModel(AttentionKind mask = AttentionKind::Causal)
{
    ModelConfig cfg;
    cfg.name = "pipe-test";
    cfg.numBlocks = 8;
    cfg.hiddenDim = 512;
    cfg.numHeads = 4;
    cfg.numKvHeads = 4;
    cfg.headDim = 128;
    cfg.ffnDim = 1024;
    cfg.ffnMatrices = 2;
    cfg.vocabSize = 100;
    cfg.bytesPerParam = 1;
    cfg.attention = mask;
    cfg.maxContext = 4096;
    return cfg;
}

inline StageTiming
uniformTiming(double fixed = 1e-6, double per_ctx = 1e-9)
{
    StageTiming timing;
    for (unsigned s = 0; s < kStagesPerBlock; ++s) {
        timing.fixedSeconds[s] = fixed;
        const auto kind = static_cast<StageKind>(s);
        timing.perContextSeconds[s] =
            stageIsAttention(kind) ? per_ctx : 0.0;
    }
    return timing;
}

inline std::vector<KvCoreInfo>
bigPool(std::uint32_t cores = 64, std::uint32_t base = 0)
{
    std::vector<KvCoreInfo> infos;
    for (std::uint32_t i = 0; i < cores; ++i)
        infos.push_back({{base, i}, 32, 8});
    return infos;
}

inline BlockKvManager
bigKv(const ModelConfig &cfg)
{
    return BlockKvManager(cfg, bigPool(64, 0), bigPool(64, 1));
}

/** Greedy mapping (no annealing) at a fixed seed, defects on. */
inline OuroborosOptions
fastOpts(std::uint64_t seed = 11)
{
    OuroborosOptions opts;
    opts.smartMapping = false;
    opts.seed = seed;
    return opts;
}

} // namespace ouro

#endif // OURO_TESTS_FIXTURES_HH
