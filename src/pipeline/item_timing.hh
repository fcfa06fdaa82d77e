/**
 * @file
 * Per-item stage timing for the pipeline engines.
 *
 * The engines price three item shapes from the StageTiming
 * coefficients, each built fresh per item:
 *
 *  - token items (one token at an attended context);
 *  - whole-prefill sequence items (sequence-grained pipelining);
 *  - TGP-with-block items (a deferred token with no attention work,
 *    or the final prefill token carrying the whole prefix's).
 */

#ifndef OURO_PIPELINE_ITEM_TIMING_HH
#define OURO_PIPELINE_ITEM_TIMING_HH

#include <array>
#include <cstdint>

#include "model/masks.hh"
#include "pipeline/timing.hh"

namespace ouro
{

/** Per-item service profile on the six stages. */
struct ItemTiming
{
    std::array<double, kStagesPerBlock> stage{};
    double total = 0.0; ///< sum over the six stages (one block)
    std::uint64_t context = 0;
    std::uint64_t tokens = 1;

    void finalize()
    {
        total = 0.0;
        for (const double t : stage)
            total += t;
    }
};

/** One token, pure token-grained (causal path).
 *  Header-inline: the engine builds one per token, so the six fused
 *  multiply-adds must not hide behind a call. */
inline ItemTiming
freshTokenItem(const StageTiming &timing, std::uint64_t ctx)
{
    ItemTiming item;
    item.context = ctx;
    for (unsigned s = 0; s < kStagesPerBlock; ++s)
        item.stage[s] =
            timing.tokenTime(static_cast<StageKind>(s), ctx);
    item.finalize();
    return item;
}

/**
 * One token whose attention work is deferred/accumulated (TGP with
 * block): dense stages per token; attention stages carry
 * @p attention_positions summed positions (0 for deferred tokens).
 * @p attention_positions arrives pre-divided by the bulk-attention
 * parallelism.
 */
ItemTiming freshBlockedTokenItem(const StageTiming &timing,
                                 double attention_positions);

/** A whole prefill as one sequence-grained item. */
ItemTiming freshSequenceItem(const StageTiming &timing,
                             AttentionKind mask,
                             std::uint64_t prefill_len,
                             double attn_parallel);

/**
 * Summed attended positions of a whole prefill under @p mask (the
 * work a TGP-with-block pipeline defers to the final prefill token).
 */
double deferredAttentionPositions(AttentionKind mask,
                                  std::uint64_t prefill_len);

} // namespace ouro

#endif // OURO_PIPELINE_ITEM_TIMING_HH
