/**
 * @file
 * Pipeline execution engines (paper Section 4.2).
 *
 * The physical pipeline is 6N stages deep (N transformer blocks x 6
 * stages). We model it as a *bottleneck conveyor*: work items enter
 * serially; consecutive entries are separated by the entering item's
 * bottleneck-stage service time (a uniform pipeline admits one item
 * per bottleneck interval); an item's completion is its entry plus
 * its full 6N-stage latency; at most 6N items are in flight.
 *
 * The two granularities of Fig. 5 differ only in what an item is:
 *
 *  - TOKEN-GRAINED (TGP): every token is an item. Prefill tokens of
 *    one sequence stream back-to-back (the causal-mask insight of
 *    Section 4.2.1); a decode token becomes ready only when its
 *    predecessor leaves the pipeline (autoregression) - so decode
 *    throughput is capacity-limited by how many sequences the KV
 *    cache can hold concurrently, the effect behind the paper's
 *    13B-vs-32B observation.
 *
 *  - SEQUENCE-GRAINED (SGP): a whole prefill is one item whose
 *    per-stage time is the sum over its tokens; decode tokens remain
 *    single items. Long items occupy their stage for their full
 *    duration, starving the other 6N-1 stages - exactly the bubbles
 *    of Fig. 5(a).
 *
 *  - TGP WITH BLOCK (encoders, Section 4.2.2): tokens stream, but a
 *    non-causal mask forces the attention work of the whole sequence
 *    onto the sequence's final prefill token (nothing can score until
 *    every K/V exists). Attention stages thus degrade to sequence
 *    granularity while dense stages stay token-grained - Fig. 5(c).
 *
 * The engine also embeds the inter-sequence scheduler of Section
 * 4.4.4: FCFS admission against the (representative-block) KV
 * manager, preemptive decode scheduling, MRU eviction with
 * re-prefill, and front-of-queue re-entry for evicted requests.
 */

#ifndef OURO_PIPELINE_ENGINE_HH
#define OURO_PIPELINE_ENGINE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "kvcache/manager.hh"
#include "model/llm.hh"
#include "model/masks.hh"
#include "pipeline/timing.hh"
#include "workload/requests.hh"

namespace ouro
{

/** Pipeline granularity (Fig. 5). */
enum class PipelineKind
{
    SequenceGrained, ///< baseline (Fig. 5a)
    TokenGrained,    ///< TGP (Fig. 5b); blocks non-causal attention
                     ///< automatically (Fig. 5c)
};

/**
 * One mid-run KV pool mutation (PR 9: serving through a failure
 * storm). At `time` on the run clock, `dropCores` are removed from
 * the representative block's pool via BlockKvManager::dropCore -
 * residents whose KV lived there are storm-evicted and re-enter the
 * wait queue with their full re-prefill as real pipeline work - and
 * `adopts` are grafted in via adoptCore (KV capacity borrowed from
 * adjacent blocks by the recovery service). Schedules must be sorted
 * by nondecreasing time (asserted).
 */
struct KvPoolEvent
{
    double time = 0.0;
    std::vector<CoreCoord> dropCores;

    struct Adopt
    {
        KvCoreInfo info;
        bool scoreDuty = false;

        bool operator==(const Adopt &) const = default;
    };
    std::vector<Adopt> adopts;

    bool operator==(const KvPoolEvent &) const = default;
};

/** Aggregate results of one pipeline run. */
struct PipelineStats
{
    double makespanSeconds = 0.0;
    std::uint64_t tokensProcessed = 0;   ///< prefill + decode
    std::uint64_t outputTokens = 0;      ///< decode only
    double bottleneckBusySeconds = 0.0;  ///< conveyor occupancy
    double utilization = 0.0;            ///< busy / makespan
    double bubbleFraction = 0.0;         ///< 1 - utilization
    std::uint64_t evictions = 0;
    std::uint64_t recomputedTokens = 0;  ///< re-prefilled after evict
    /** Residents evicted because a storm event dropped the KV core
     *  their cache lived on (disjoint from `evictions`, which counts
     *  capacity-pressure MRU evictions only). */
    std::uint64_t stormEvictions = 0;
    /** Tokens those storm victims must re-prefill on re-admission
     *  (also folded into recomputedTokens, the all-causes total). */
    std::uint64_t stormReprefilledTokens = 0;
    /** Requests dropped because they exceed KV pool capacity even
     *  with the pool otherwise empty: work the run did NOT do.
     *  Serving studies must report this or silently under-count. */
    std::uint64_t skippedRequests = 0;
    double peakConcurrency = 0.0;        ///< resident sequences (max)
    double avgContext = 0.0;             ///< mean attended context
    /** Always 0: the engine builds every item fresh. Kept only
     *  because the repo benchmark still reads them (its
     *  `pipeline.timing_cache_hit_rate` metric and its stats
     *  comparator); a benchmark change removes them together with
     *  that metric. */
    std::uint64_t timingCacheHits = 0;
    std::uint64_t timingCacheMisses = 0;

    /** Raw aggregates behind the derived means above, kept so that
     *  merge() can recompute the derived fields exactly. */
    std::uint64_t itemsProcessed = 0;    ///< pipeline items traversed
    double contextTokensSum = 0.0;       ///< sum of attended contexts
    double stageBusySumSeconds = 0.0;    ///< busy time over all stages

    /**
     * Per-completed-request serving latencies (seconds), pushed in
     * completion-processing order - identical with decode runs on
     * and off (part of their bit-identity contract). TTFT is the
     * completion time of the request's first decode token in its
     * final (completing) residency, measured from run start
     * (queueing delay included); the inter-token sample is the
     * request's mean decode-token spacing (recorded only for
     * requests with >= 2 decode tokens). Evicted residencies
     * contribute nothing until the request completes.
     */
    std::vector<double> ttftSamples;
    std::vector<double> interTokenSamples;

    /**
     * Decode-completion histogram: bin b counts output tokens whose
     * completion time fell in [b, b+1) * throughputBinSeconds.
     * Empty unless PipelineOptions::throughputBinSeconds > 0. The
     * storm bench reads degradation depth and time-to-recover off
     * this curve. merge() concatenates (back-to-back run semantics,
     * matching how makespans add); mergeConcurrent() sums bins
     * elementwise (side-by-side semantics - fleet wafers share one
     * clock, so bin b means the same interval on every wafer).
     */
    std::vector<std::uint64_t> outputTokenBins;

    /** Bin width behind outputTokenBins, stamped from
     *  PipelineOptions::throughputBinSeconds by every run (0 when
     *  binning is off). mergeConcurrent() asserts the widths agree -
     *  an elementwise bin sum is meaningless across widths. */
    double throughputBinSeconds = 0.0;

    /** Field-by-field equality, bit for bit on every double: THE
     *  comparator of every stats bit-identity oracle, so a new field
     *  is compared everywhere the day it is added. */
    bool operator==(const PipelineStats &) const = default;

    double outputTokensPerSecond() const
    {
        return makespanSeconds > 0.0
                   ? static_cast<double>(outputTokens) /
                         makespanSeconds
                   : 0.0;
    }

    /**
     * Fold another run's stats into this one as if the two ran
     * back to back with an idle (fully drained) boundary between
     * them: durations and counters add, peaks take the max, derived
     * means are recomputed from the merged raw aggregates, latency
     * samples concatenate. This is the aggregation primitive of the
     * sampled-window simulator; merging window runs in ascending
     * window order is its full-run oracle (see sim/sampled_run.hh).
     */
    PipelineStats &merge(const PipelineStats &other);

    /**
     * Fold another run's stats into this one as if the two ran SIDE
     * BY SIDE on one shared clock (fleet wafers all starting at
     * t = 0): the makespan takes the max (the fleet is done when its
     * slowest wafer drains), counters add, derived means are
     * recomputed from the merged raw aggregates, latency samples
     * concatenate, and outputTokenBins are summed ELEMENTWISE - both
     * sides must carry the same throughputBinSeconds (asserted
     * whenever both are binned), so the fleet-wide throughput curve
     * is well-defined and `sum(bins) == outputTokens` is preserved.
     * peakConcurrency adds (each wafer holds its residents
     * simultaneously; the sum of per-wafer peaks is the tight upper
     * bound on the instantaneous fleet peak). bottleneckBusySeconds
     * takes the max (wafers are separate conveyors). Fleet-level
     * utilization saturates at 1.0 by construction (N wafers' stage
     * busy against one makespan) - read per-wafer utilization for
     * per-wafer health. This is the aggregation primitive of the
     * fleet simulation layer (see sim/fleet.hh).
     */
    PipelineStats &mergeConcurrent(const PipelineStats &other);
};

/** Engine options. */
struct PipelineOptions
{
    PipelineKind kind = PipelineKind::TokenGrained;

    /**
     * Model static KV allocation (ablation baseline): every admitted
     * sequence reserves its worst-case context up front.
     */
    bool staticKvAllocation = false;

    /** Upper bound used for static allocation. */
    std::uint64_t maxContext = 4096;

    /**
     * Token-level parallelism available to bulk (sequence-granular)
     * attention: when a whole sequence's deferred attention runs at
     * once, its positions spread over this many KV crossbars/cores
     * concurrently. 1 = fully serial (conservative default).
     */
    double attentionParallelism = 1.0;

    /**
     * Decode runs: while the decode lane's front is the next event
     * in the engine's (ready, request position, generation) order,
     * its decode tokens stream in place, as prompt tokens do, up to
     * the prefill lane's front, a due storm event, a last decode
     * token or a KV block boundary. Results are bit-identical to the
     * lane loop (tests assert this); off, every decode token is
     * popped from the decode lane as its own event - the reference
     * for those tests, and a way to measure that path or to bisect.
     * (The name predates decode runs; it selected the cohort decode
     * ring they replaced.)
     */
    bool cohortFastPath = true;

    /**
     * Failure-storm schedule (PR 9), sorted by nondecreasing time;
     * null or empty leaves the engine BIT-IDENTICAL to a run without
     * one. An event applies once its time is <= the earlier lane
     * front. Token runs, prompt and decode, continue while an event
     * is pending but stop before any front due at or after it, so no
     * token decodes against KV the storm already destroyed.
     */
    const std::vector<KvPoolEvent> *stormSchedule = nullptr;

    /** Width of the outputTokenBins histogram; 0 disables binning
     *  (no other stat is affected either way). NaN, infinite or
     *  negative widths are fatal. */
    double throughputBinSeconds = 0.0;

    bool operator==(const PipelineOptions &) const = default;
};

/**
 * Run @p workload through the pipeline of @p model with stage times
 * @p timing, using @p kv as the representative-block KV manager (all
 * N blocks see identical KV load, so one manager stands for all).
 * Request ids must be unique within @p workload (fatal otherwise).
 */
PipelineStats runPipeline(const Workload &workload,
                          const ModelConfig &model,
                          const StageTiming &timing,
                          BlockKvManager &kv,
                          const PipelineOptions &opts = {});

} // namespace ouro

#endif // OURO_PIPELINE_ENGINE_HH
