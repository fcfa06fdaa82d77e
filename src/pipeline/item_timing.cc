#include "item_timing.hh"

#include <algorithm>

namespace ouro
{

ItemTiming
freshBlockedTokenItem(const StageTiming &timing,
                      double attention_positions)
{
    ItemTiming item;
    item.context = static_cast<std::uint64_t>(attention_positions);
    for (unsigned s = 0; s < kStagesPerBlock; ++s) {
        const auto kind = static_cast<StageKind>(s);
        double t = timing.fixedSeconds[s];
        if (stageIsAttention(kind))
            t += timing.perContextSeconds[s] * attention_positions;
        item.stage[s] = t;
    }
    item.finalize();
    return item;
}

ItemTiming
freshSequenceItem(const StageTiming &timing, AttentionKind mask,
                  std::uint64_t prefill_len, double attn_parallel)
{
    ItemTiming item;
    item.tokens = prefill_len;
    double ctx_sum = 0.0;
    for (std::uint64_t p = 0; p < prefill_len; ++p) {
        const std::uint64_t ctx =
            attendedContext(mask, p, prefill_len);
        ctx_sum += static_cast<double>(ctx);
        for (unsigned s = 0; s < kStagesPerBlock; ++s) {
            item.stage[s] += timing.fixedSeconds[s];
            // Bulk attention spreads its positions over the KV
            // cores' crossbars concurrently.
            item.stage[s] += timing.perContextSeconds[s] *
                             static_cast<double>(ctx) /
                             std::max(1.0, attn_parallel);
        }
    }
    item.context = static_cast<std::uint64_t>(
            ctx_sum / static_cast<double>(prefill_len));
    item.finalize();
    return item;
}

double
deferredAttentionPositions(AttentionKind mask,
                           std::uint64_t prefill_len)
{
    double positions = 0.0;
    for (std::uint64_t p = 0; p < prefill_len; ++p) {
        positions += static_cast<double>(
                attendedContext(mask, p, prefill_len));
    }
    return positions;
}

} // namespace ouro
