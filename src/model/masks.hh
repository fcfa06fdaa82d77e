/**
 * @file
 * Attention-mask semantics (paper Fig. 6) and the pipeline-readiness
 * rule they imply for token-grained pipelining (Section 4.2).
 *
 * For a causal mask, token t may enter the attention stages as soon as
 * tokens 0..t have produced their K/V — i.e. immediately after its own
 * QKV generation, which is what makes TGP stall-free on decoders.
 * Bidirectional masks require the whole sequence's K/V first; prefix
 * masks require the whole prefix for prefix tokens but behave causally
 * afterwards. attentionReadyPosition() encodes exactly this rule and
 * is the single source of truth for both pipeline engines.
 *
 * The rule is header-inline: the engine prices every prompt token
 * with attendedContext(), so the switch must not hide behind a call.
 */

#ifndef OURO_MODEL_MASKS_HH
#define OURO_MODEL_MASKS_HH

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"
#include "model/llm.hh"

namespace ouro
{

/**
 * The index of the last token whose K/V must be available before token
 * @p token_pos (0-based within a sequence of @p prefill_len prompt
 * tokens) can run its score/context stages.
 *
 * Causal: token_pos itself. Bidirectional: prefill_len - 1 (the whole
 * input). Prefix: prefill_len - 1 while inside the prefix, token_pos
 * during the causal continuation.
 *
 * @return the 0-based position that must have completed QKV
 *         generation; always >= token_pos.
 */
inline std::uint64_t
attentionReadyPosition(AttentionKind kind, std::uint64_t token_pos,
                       std::uint64_t prefill_len)
{
    ouroAssert(prefill_len > 0, "attentionReadyPosition: empty prefill");
    const std::uint64_t last_prefill = prefill_len - 1;
    switch (kind) {
      case AttentionKind::Causal:
        return token_pos;
      case AttentionKind::Bidirectional:
        // Every prompt token sees the whole prompt. Generated tokens
        // (token_pos >= prefill_len) do not arise for encoder-only
        // models, but behave causally if they do.
        return std::max(token_pos, last_prefill);
      case AttentionKind::Prefix:
        // Prefix tokens see the whole prefix bidirectionally; the
        // generated continuation is causal.
        return token_pos < prefill_len ? last_prefill : token_pos;
    }
    panic("attentionReadyPosition: bad kind");
}

/**
 * Number of positions token @p token_pos attends over (the effective
 * context that sizes score/context work): positions are attended
 * inclusively up to the ready position.
 */
inline std::uint64_t
attendedContext(AttentionKind kind, std::uint64_t token_pos,
                std::uint64_t prefill_len)
{
    return attentionReadyPosition(kind, token_pos, prefill_len) + 1;
}

/** True if the mask admits pure (stall-free) token-grained pipelining. */
inline bool
masksAllowPureTgp(AttentionKind kind)
{
    return kind == AttentionKind::Causal;
}

} // namespace ouro

#endif // OURO_MODEL_MASKS_HH
