#include "engine.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "pipeline/item_timing.hh"

namespace ouro
{

namespace
{

/** A request's live progress. */
struct ActiveSeq
{
    std::uint64_t prefillLen;     ///< tokens to (re)compute as prompt
    std::uint64_t decodeRemaining;
    std::uint64_t prefillEntered = 0;
    std::uint64_t decoded = 0;
    double nextReady = 0.0;
    /** When this sequence's own KV-ring cores free up: attention
     *  stages are per-sequence resources, not shared servers. */
    double attnFree = 0.0;
    /** Completion time of this residency's first decode token (the
     *  TTFT sample if the residency completes). */
    double firstTokenDone = 0.0;
    std::uint64_t generation = 0; ///< invalidates stale lane entries
    bool live = false;            ///< resident (admitted, not retired)
};

/** Pending (not yet admitted) request. */
struct Pending
{
    std::uint32_t slot; ///< index into Workload::requests; the KV key
    std::uint64_t prefillLen;
    std::uint64_t decodeRemaining;
    /** Re-admission after eviction resumes past the old generation so
     *  stale lane entries of the previous residency can never match
     *  (they would resurrect already-retired events otherwise). */
    std::uint64_t generation = 0;
};

struct LaneEntry
{
    double ready;
    std::uint32_t slot;
    std::uint64_t generation;

    /** Strict total order: ready, then slot, then generation. The slot
     *  tie-break pins the pop order of simultaneous events, which is
     *  what lets a token run stop exactly where the lane loop would
     *  switch lanes. */
    bool operator<(const LaneEntry &o) const
    {
        return std::tie(ready, slot, generation) <
               std::tie(o.ready, o.slot, o.generation);
    }
};

/** A circular buffer kept sorted by stepping each push back from the
 *  tail: O(1) while ready times rarely decrease, O(live) storage. */
struct Lane
{
    std::vector<LaneEntry> buf; ///< power-of-two capacity
    std::size_t head = 0;
    std::size_t count = 0;

    LaneEntry &at(std::size_t k)
    {
        return buf[(head + k) & (buf.size() - 1)];
    }

    LaneEntry pop()
    {
        const LaneEntry front = at(0);
        head = (head + 1) & (buf.size() - 1);
        --count;
        return front;
    }

    void push(const LaneEntry &entry)
    {
        if (count == buf.size()) {
            std::vector<LaneEntry> grown(std::max<std::size_t>(
                    16, 2 * count));
            for (std::size_t k = 0; k < count; ++k)
                grown[k] = at(k);
            buf.swap(grown);
            head = 0;
        }
        std::size_t j = count++;
        for (; j > 0 && entry < at(j - 1); --j)
            at(j) = at(j - 1);
        at(j) = entry;
#ifndef NDEBUG
        ouroAssert(j == 0 || !(at(j) < at(j - 1)),
                   "lane: entry ordered before its predecessor");
#endif
    }
};

/** One server per stage kind (the representative block's tandem
 *  queue) plus the run's work aggregates. */
struct StageClocks
{
    std::array<double, kStagesPerBlock> free{};
    std::array<double, kStagesPerBlock> busy{};
    double makespan = 0.0;
    double ctxSum = 0.0;
    std::uint64_t ctxSamples = 0;
    std::uint64_t tokens = 0;
};

/** Stages S.. of the tandem walk, unrolled at compile time. Dense
 *  stages are shared servers; attention stages run on the sequence's
 *  OWN KV-ring cores (Section 4.4.3), so only they overlap across
 *  sequences. */
template <unsigned S = 0>
double
walkStages(StageClocks &c, double cursor, double &attn_free,
           const ItemTiming &item)
{
    if constexpr (S == kStagesPerBlock) {
        return cursor;
    } else {
        double &server = stageIsAttention(static_cast<StageKind>(S))
                                 ? attn_free
                                 : c.free[S];
        const double done = std::max(cursor, server) + item.stage[S];
        server = done;
        c.busy[S] += item.stage[S];
        return walkStages<S + 1>(c, done, attn_free, item);
    }
}

/** THE stage walk of every item on every path (lane loop and token
 *  runs), so their op order cannot drift apart. Blocks
 *  2..N add latency (@p tail_blocks x one block), not contention.
 *  @p attn_free is wherever the caller keeps the sequence's attention
 *  clock. Returns the item's completion time. */
inline double
advanceItem(StageClocks &c, double tail_blocks, double ready,
            double &attn_free, const ItemTiming &item)
{
    const double completion =
        walkStages(c, ready, attn_free, item) + tail_blocks * item.total;
    c.makespan = std::max(c.makespan, completion);
    c.tokens += item.tokens;
    c.ctxSum += static_cast<double>(item.context);
    ++c.ctxSamples;
    return completion;
}

/** Why a resident lost its KV: capacity pressure (MRU eviction on a
 *  grow) or a storm event dropping the core its cache lived on. */
enum class EvictCause
{
    Capacity,
    Storm,
};

/** Derived means from the raw aggregates: one formula for a run and
 *  both folds, so a fold reports exactly what one run over the
 *  combined busy intervals would. Utilization saturates at 1.0. */
void
deriveMeans(PipelineStats &s)
{
    s.utilization =
        s.makespanSeconds > 0.0
            ? std::min(s.stageBusySumSeconds /
                           (kStagesPerBlock * s.makespanSeconds),
                       1.0)
            : 0.0;
    s.bubbleFraction = 1.0 - s.utilization;
    s.avgContext = s.itemsProcessed
                       ? s.contextTokensSum /
                             static_cast<double>(s.itemsProcessed)
                       : 0.0;
}

/** The adds both folds share: counters, raw aggregates and latency
 *  samples (concatenated in fold order). */
void
addCounters(PipelineStats &into, const PipelineStats &from)
{
    into.tokensProcessed += from.tokensProcessed;
    into.outputTokens += from.outputTokens;
    into.evictions += from.evictions;
    into.recomputedTokens += from.recomputedTokens;
    into.stormEvictions += from.stormEvictions;
    into.stormReprefilledTokens += from.stormReprefilledTokens;
    into.skippedRequests += from.skippedRequests;
    into.itemsProcessed += from.itemsProcessed;
    into.contextTokensSum += from.contextTokensSum;
    into.stageBusySumSeconds += from.stageBusySumSeconds;
    into.ttftSamples.insert(into.ttftSamples.end(),
                            from.ttftSamples.begin(),
                            from.ttftSamples.end());
    into.interTokenSamples.insert(into.interTokenSamples.end(),
                                  from.interTokenSamples.begin(),
                                  from.interTokenSamples.end());
}

} // namespace

PipelineStats &
PipelineStats::merge(const PipelineStats &other)
{
    addCounters(*this, other);
    makespanSeconds += other.makespanSeconds;
    bottleneckBusySeconds += other.bottleneckBusySeconds;
    peakConcurrency = std::max(peakConcurrency,
                               other.peakConcurrency);
    deriveMeans(*this);
    // Back-to-back semantics: the other run's clock starts where this
    // one's makespan ended, so its bins append after ours.
    outputTokenBins.insert(outputTokenBins.end(),
                           other.outputTokenBins.begin(),
                           other.outputTokenBins.end());
    if (throughputBinSeconds == 0.0)
        throughputBinSeconds = other.throughputBinSeconds;
    return *this;
}

PipelineStats &
PipelineStats::mergeConcurrent(const PipelineStats &other)
{
    // Aligned bins: side-by-side runs share one clock, so bin b of
    // each run covers the same interval and the fleet curve is the
    // elementwise sum. A sum across different widths is meaningless.
    if (throughputBinSeconds > 0.0 &&
        other.throughputBinSeconds > 0.0) {
        ouroAssert(throughputBinSeconds == other.throughputBinSeconds,
                   "PipelineStats::mergeConcurrent: aligned bin "
                   "merge requires equal throughputBinSeconds (",
                   throughputBinSeconds, " vs ",
                   other.throughputBinSeconds, ")");
    }
    if (throughputBinSeconds == 0.0) {
        ouroAssert(outputTokenBins.empty(),
                   "PipelineStats::mergeConcurrent: bins without a "
                   "bin width");
        throughputBinSeconds = other.throughputBinSeconds;
    }
    if (outputTokenBins.size() < other.outputTokenBins.size())
        outputTokenBins.resize(other.outputTokenBins.size(), 0);
    for (std::size_t b = 0; b < other.outputTokenBins.size(); ++b)
        outputTokenBins[b] += other.outputTokenBins[b];

    addCounters(*this, other);
    // The fleet is done when its slowest member drains.
    makespanSeconds = std::max(makespanSeconds,
                               other.makespanSeconds);
    // Separate conveyors: the fleet's bottleneck occupancy is its
    // busiest member's, not a sum across independent pipelines.
    bottleneckBusySeconds = std::max(bottleneckBusySeconds,
                                     other.bottleneckBusySeconds);
    // Concurrent residents: every member holds its peak cohort at
    // the same wall time in the worst case.
    peakConcurrency += other.peakConcurrency;
    deriveMeans(*this);
    return *this;
}

PipelineStats
runPipeline(const Workload &workload, const ModelConfig &model,
            const StageTiming &timing, BlockKvManager &kv,
            const PipelineOptions &opts)
{
    if (!std::isfinite(opts.throughputBinSeconds) ||
        opts.throughputBinSeconds < 0.0) {
        fatal("runPipeline: PipelineOptions::throughputBinSeconds = ",
              opts.throughputBinSeconds,
              " (must be finite and >= 0; 0 disables binning)");
    }
    PipelineStats stats;

    const auto blocks = static_cast<double>(model.numBlocks);
    const bool token_grained =
        opts.kind == PipelineKind::TokenGrained;
    const bool pure_tgp =
        token_grained && masksAllowPureTgp(model.attention);

    // Every item is built fresh from the StageTiming coefficients;
    // only the TGP-with-block deferred token, which carries no
    // attention work, has one shape for every sequence.
    const ItemTiming blocked_deferred =
        freshBlockedTokenItem(timing, 0.0);

    // Dense resident table: request i lives in slot i, which is also
    // its KV key. Request ids are labels only; they must still be
    // unique, checked once on a sorted copy.
    const auto n = static_cast<std::uint32_t>(workload.requests.size());
    std::deque<Pending> queue;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> by_id;
    for (std::uint32_t i = 0; i < n; ++i) {
        const Request &r = workload.requests[i];
        if (r.prefillLen == 0 && r.decodeLen == 0) {
            fatal("runPipeline: Workload::requests[", i, "] (id ",
                  r.id, ") has prefillLen = 0 and decodeLen = 0 (a "
                  "request needs at least one token)");
        }
        queue.push_back({i, r.prefillLen, r.decodeLen, 0});
        by_id.emplace_back(r.id, i);
    }
    std::sort(by_id.begin(), by_id.end());
    for (std::size_t k = 1; k < by_id.size(); ++k) {
        if (by_id[k].first == by_id[k - 1].first) {
            fatal("runPipeline: Workload::requests[", by_id[k].second,
                  "].id = ", by_id[k].first, " duplicates requests[",
                  by_id[k - 1].second, "].id (ids must be unique)");
        }
    }
    std::vector<ActiveSeq> table(n);
    std::size_t residents = 0;

    // Ready items in two lanes sorted by (ready, slot, generation):
    // admissions and prefill re-entries (stage-0 entry times, which
    // almost never decrease) in one, first-decode and decode
    // completions in the other. The next event is the earlier front
    // (an empty decode lane when both are empty). Evictions leave
    // stale entries behind, dropped when popped.
    Lane prefill_lane;
    Lane decode_lane;
    auto first_lane = [&]() -> Lane & {
        const bool decode_first = prefill_lane.count == 0 ||
                (decode_lane.count > 0 &&
                 decode_lane.at(0) < prefill_lane.at(0));
        return decode_first ? decode_lane : prefill_lane;
    };

    /** The live ActiveSeq a lane entry refers to, or null if stale. */
    auto live_entry = [&](const LaneEntry &entry) -> ActiveSeq * {
        ActiveSeq &as = table[entry.slot];
        return as.live && as.generation == entry.generation ? &as
                                                            : nullptr;
    };

    StageClocks clocks;
    const double tail_blocks = blocks - 1.0;

    auto admission_tokens = [&](const Pending &p) -> std::uint64_t {
        return opts.staticKvAllocation ? opts.maxContext
                                       : p.prefillLen;
    };

    // Section 4.4.4: once an eviction happens, new scheduling is
    // suspended until a prior request completes (prevents eviction
    // ping-pong / KV thrashing).
    bool admissions_suspended = false;

    // Admit from the FCFS queue head while the KV pool accepts
    // without evicting (Section 4.4.4: new scheduling never evicts).
    auto pump_admissions = [&](double now) {
        if (admissions_suspended && residents > 0)
            return;
        admissions_suspended = false; // nothing left running: resume
        while (!queue.empty()) {
            const Pending &p = queue.front();
            if (!kv.admit(p.slot, admission_tokens(p)))
                break;
            table[p.slot] = {.prefillLen = p.prefillLen,
                             .decodeRemaining = p.decodeRemaining,
                             .nextReady = now, .generation = p.generation,
                             .live = true};
            ++residents;
            prefill_lane.push({now, p.slot, p.generation});
            queue.pop_front();
        }
        stats.peakConcurrency = std::max(
                stats.peakConcurrency, static_cast<double>(residents));
    };

    // A request completed: free its KV, retire it, resume admissions.
    auto complete = [&](std::uint32_t slot, double now) {
        kv.release(slot);
        table[slot].live = false;
        --residents;
        admissions_suspended = false;
        pump_admissions(now);
    };

    // Eviction handler (Section 4.4.4): put each victim back at the
    // FRONT of the wait queue with everything computed so far folded
    // into its re-prefill, under a fresh generation so a stale lane
    // entry can never resurrect the dead residency, and suspend
    // admissions (storm losses included). The pool side is the
    // caller's: a capacity grow already released its victims, and a
    // storm's dropCore destroyed theirs.
    auto evict = [&](const std::vector<std::uint32_t> &slots,
                     EvictCause cause) {
        for (const std::uint32_t slot : slots) {
            ActiveSeq &seq = table[slot];
            ouroAssert(seq.live, "pipeline: evicted slot ", slot,
                       " is not resident");
            const Pending back{slot, seq.prefillLen + seq.decoded,
                               seq.decodeRemaining, seq.generation + 1};
            queue.push_front(back);
            stats.recomputedTokens += back.prefillLen;
            if (cause == EvictCause::Storm) {
                stats.stormEvictions += 1;
                stats.stormReprefilledTokens += back.prefillLen;
            } else {
                stats.evictions += 1;
            }
            seq.live = false;
            --residents;
            admissions_suspended = true;
        }
    };

    // Serving-latency samples, pushed when a request COMPLETES. Only
    // the lane loop completes requests (a run stops before a last
    // decode token), in the deterministic event order, so the sample
    // vectors are part of the runs-on == runs-off bit-identity
    // contract.
    auto record_completion = [&](double first_done, double last_done,
                                 std::uint64_t decoded) {
        if (decoded == 0)
            return; // prefill-only request: no decode latencies
        stats.ttftSamples.push_back(first_done);
        if (decoded >= 2) {
            stats.interTokenSamples.push_back(
                    (last_done - first_done) /
                    static_cast<double>(decoded - 1));
        }
    };

    // A decode token left the pipeline at `completion`: count it and,
    // when binning is on, histogram it (the lane loop and decode runs
    // both call this, so the curve shares their bit-identity
    // contract).
    const double bin_w = opts.throughputBinSeconds;
    auto note_output = [&](double completion) {
        stats.outputTokens += 1;
        if (bin_w <= 0.0)
            return;
        const auto b =
            static_cast<std::size_t>(completion / bin_w);
        if (stats.outputTokenBins.size() <= b)
            stats.outputTokenBins.resize(b + 1, 0);
        stats.outputTokenBins[b] += 1;
    };

    // --- Failure-storm schedule (PR 9) ---
    // Null/empty leaves every code path below bit-identical to a
    // plain run: storm_pending() is constant-false, so no token run
    // stops for a storm and no event ever applies.
    const std::vector<KvPoolEvent> *storm =
        (opts.stormSchedule && !opts.stormSchedule->empty())
            ? opts.stormSchedule
            : nullptr;
    std::size_t storm_next = 0;
    if (storm) {
        for (std::size_t i = 1; i < storm->size(); ++i) {
            ouroAssert((*storm)[i - 1].time <= (*storm)[i].time,
                       "pipeline: storm schedule not sorted by time");
        }
    }
    auto storm_pending = [&]() {
        return storm != nullptr && storm_next < storm->size();
    };

    auto apply_storm_event = [&](const KvPoolEvent &ev) {
        for (const CoreCoord &c : ev.dropCores)
            evict(kv.dropCore(c), EvictCause::Storm);
        for (const auto &a : ev.adopts)
            kv.adoptCore(a.info, a.scoreDuty);
        // Adopted capacity may rescue waiting (or just-evicted)
        // requests immediately - subject to the suspension rule.
        pump_admissions(ev.time);
#ifndef NDEBUG
        kv.checkInvariants(); // O(pool): events only, never per token
#endif
    };

    // Which lanes stream in runs, indexed like a run's lane cursors (0
    // prefill, 1 decode): prompt tokens under token-grained pipelining,
    // decode tokens unless cohortFastPath picks the lane loop.
    const bool runs_on[2] = {token_grained, opts.cohortFastPath};

    // Token runs (Section 4.2.1 streams each sequence's tokens back to
    // back): while a lane's front is the next event, stream it in
    // place, with both lane cursors, the stage clocks, the due storm
    // time and the idle-pump decision in locals for the whole run. The
    // prefill lane streams non-final prompt tokens, the decode lane
    // decode tokens; either way the successor re-enters the same lane,
    // so the other lane's front holds still while one lane streams.
    // Each lane's inner loop takes a compile-time tag (std::true_type
    // for decode), so it carries no per-token lane branch. When it
    // reaches the other lane's front (in full lane order), the run
    // switches to that lane if runs_on says it streams, and compares
    // against the new front of the lane it left. It returns to the lane
    // loop only at a due storm event, a stale entry, a token the lane
    // loop keeps (a final prompt token, a last decode token, a decode
    // token with no room left in its newest KV block), the front of a
    // lane whose runs are off, or after the one token of the pump case.
    // In-block growth is growFast, which leaves the capacity epoch
    // alone, and a run touches neither the queue nor the suspension
    // flag, so whether pump_admissions() is idle is decided once per
    // run: it is when the queue is empty, admissions are suspended, or
    // the capacity epoch answers the queue head (the run then counts
    // each token's skipped probe). Otherwise the run is one token and
    // one pump, as in the lane loop. Returns whether a token was
    // processed.
    auto token_run = [&](bool decode_first) -> bool {
        constexpr double kNever = std::numeric_limits<double>::infinity();
        const double storm_due =
            storm_pending() ? (*storm)[storm_next].time : kNever;
        const bool suspended = admissions_suspended && residents > 0;
        const bool skips =
            !queue.empty() && !suspended &&
            kv.admitSkips(admission_tokens(queue.front()));
        const bool pump_idle = queue.empty() || suspended || skips;
        const bool grows = !opts.staticKvAllocation;

        // Each token pops its lane's front and inserts its successor
        // in the same lane, so neither count changes and neither buffer
        // grows. Index 0 is the prefill lane, 1 the decode lane.
        struct Cursor
        {
            LaneEntry *buf;
            std::size_t mask;
            std::size_t count;
            std::size_t head;

            LaneEntry front() const
            {
                return count > 0 ? buf[head] : LaneEntry{kNever, 0, 0};
            }
        };
        Cursor cur[2] = {
            {prefill_lane.buf.data(), prefill_lane.buf.size() - 1,
             prefill_lane.count, prefill_lane.head},
            {decode_lane.buf.data(), decode_lane.buf.size() - 1,
             decode_lane.count, decode_lane.head}};
        StageClocks clk = clocks;
        std::uint64_t ran[2] = {0, 0};
        double entry = 0.0;

        // Streams one lane; returns true iff it stopped at the other
        // lane's front.
        auto stream = [&](auto decode_tag) -> bool {
            constexpr bool decode = decltype(decode_tag)::value;
            Cursor &c = cur[decode];
            const LaneEntry other_front = cur[!decode].front();
            for (;;) {
                const LaneEntry top = c.buf[c.head];
                if (other_front < top)
                    return true;
                if (storm_due <= top.ready)
                    return false;
                ActiveSeq *const seq = live_entry(top);
                if (!seq)
                    return false;
                ItemTiming item;
                if constexpr (decode) {
                    if (seq->decodeRemaining == 1 ||
                        (grows && kv.growRoom(top.slot) == 0))
                        return false;
                    if (grows)
                        kv.growFast(top.slot, 1);
                    item = freshTokenItem(
                            timing, seq->prefillLen + seq->decoded + 1);
                } else {
                    if (seq->prefillEntered + 1 >= seq->prefillLen)
                        return false;
                    // Causal: the token's own attention. With a block
                    // mask the attention is deferred to the final token
                    // (Fig. 5c).
                    item = pure_tgp
                                   ? freshTokenItem(
                                             timing,
                                             attendedContext(
                                                     model.attention,
                                                     seq->prefillEntered,
                                                     seq->prefillLen))
                                   : blocked_deferred;
                }
                entry = std::max(seq->nextReady, clk.free[0]);
                const double completion =
                        advanceItem(clk, tail_blocks, seq->nextReady,
                                    seq->attnFree, item);
                if constexpr (decode) {
                    if (seq->decoded == 0)
                        seq->firstTokenDone = completion;
                    seq->decoded += 1;
                    seq->decodeRemaining -= 1;
                    note_output(completion);
                    seq->nextReady = completion; // autoregressive gating
                } else {
                    seq->prefillEntered += 1;
                    seq->nextReady = entry; // the next prompt token streams
                }
                seq->generation += 1;
                c.head = (c.head + 1) & c.mask;
                const LaneEntry next{seq->nextReady, top.slot,
                                     seq->generation};
                std::size_t j = c.count - 1;
                for (; j > 0 && next < c.buf[(c.head + j - 1) & c.mask];
                     --j)
                    c.buf[(c.head + j) & c.mask] =
                            c.buf[(c.head + j - 1) & c.mask];
                c.buf[(c.head + j) & c.mask] = next;
#ifndef NDEBUG
                ouroAssert(j == 0 ||
                                   !(next < c.buf[(c.head + j - 1) &
                                                  c.mask]),
                           "lane: entry ordered before its predecessor");
                ouroAssert(top < other_front && top.ready < storm_due,
                           "token run: processed an entry at or after "
                           "the other lane's front or a due storm "
                           "event");
#endif
                ++ran[decode];
                if (!pump_idle)
                    return false;
            }
        };

        // The lane switch stays out here, so neither inner loop pays
        // a per-token lane branch.
        bool decode = decode_first;
        std::uint64_t switches = 0;
        bool at_other_front = false;
        for (std::uint64_t before = 0;; before = ran[0] + ran[1]) {
            if (!(decode ? stream(std::true_type{})
                         : stream(std::false_type{})))
                break;
            // A lane is entered only while its front comes first, so
            // it streams at least one token before it can stop at the
            // other lane's front: runs never ping-pong in place.
            ouroAssert(ran[0] + ran[1] > before,
                       "token run: lane switch without progress");
            decode = !decode;
            if (!runs_on[decode]) {
                at_other_front = true;
                break;
            }
            ++switches;
        }
        prefill_lane.head = cur[0].head;
        decode_lane.head = cur[1].head;
        clocks = clk;
        const std::uint64_t tokens = ran[0] + ran[1];
        if (skips)
            kv.countSkippedProbes(tokens);
        else if (tokens > 0 && !pump_idle)
            pump_admissions(entry);
        if (EngineCounters *const n = opts.counters) {
            n->runEntries += 1;
            n->laneSwitches += switches;
            n->promptRunTokens += ran[0];
            n->decodeRunTokens += ran[1];
            n->otherFrontReturns += at_other_front;
        }
        return tokens > 0;
    };

    pump_admissions(0.0);

    while (first_lane().count > 0 || !queue.empty()) {
        // Storm events interleave with lane events on the run clock:
        // pop order is nondecreasing in `ready`, so applying an event
        // once its time is <= the earlier lane front means no item
        // whose ready time FOLLOWS the event can have been processed
        // before it (stale fronts only delay application, never
        // reorder it). With both lanes empty the event is the only
        // state change left - apply it before the skip path so
        // adopted capacity can still rescue the queue head.
        if (storm_pending()) {
            const KvPoolEvent &ev = (*storm)[storm_next];
            Lane &lane = first_lane();
            if (lane.count == 0 || ev.time <= lane.at(0).ready) {
                ++storm_next;
                apply_storm_event(ev);
                continue;
            }
        }

        if (first_lane().count == 0) {
            // Nothing runnable but requests remain: every resident
            // sequence finished yet the queue head still does not
            // fit, so the request genuinely exceeds pool capacity.
            queue.pop_front();
            stats.skippedRequests += 1;
            pump_admissions(clocks.makespan);
            continue;
        }

        Lane &lane = first_lane();
        const bool decode_first = &lane == &decode_lane;
        if (runs_on[decode_first] && token_run(decode_first))
            continue;

        const LaneEntry top = lane.pop();
        if (opts.counters)
            opts.counters->lanePops += 1;
        ActiveSeq *const live = live_entry(top);
        if (!live)
            continue; // stale: its residency was evicted
        ActiveSeq &seq = *live;

        // What is left for this loop: a whole SGP prefill, a final
        // TGP prompt token, or a decode token.
        const bool is_prefill = seq.prefillEntered < seq.prefillLen;
        ouroAssert(!is_prefill || !token_grained ||
                           seq.prefillEntered + 1 == seq.prefillLen,
                   "pipeline: a non-final prompt token left its run");
        ItemTiming item;
        if (!is_prefill) {
            // Decode token: causal attention over everything so far.
            const std::uint64_t pos = seq.prefillLen + seq.decoded;
            item = freshTokenItem(timing, pos + 1);
        } else if (!token_grained) {
            item = freshSequenceItem(timing, model.attention,
                                     seq.prefillLen,
                                     opts.attentionParallelism);
        } else if (pure_tgp) {
            item = freshTokenItem(
                    timing, attendedContext(model.attention,
                                            seq.prefillEntered,
                                            seq.prefillLen));
        } else {
            // TGP with block: the final token carries the whole
            // prefix's attention, spread over the KV crossbars.
            item = freshBlockedTokenItem(
                    timing,
                    deferredAttentionPositions(model.attention,
                                               seq.prefillLen) /
                            std::max(1.0, opts.attentionParallelism));
        }

        // KV growth for a decode token (dynamic mode only; prompt KV
        // was reserved at admission).
        if (!is_prefill && !opts.staticKvAllocation) {
            const KvResult grow = kv.grow(top.slot);
            evict(grow.evicted, EvictCause::Capacity);
            if (!grow.ok) {
                // The grower itself could not fit (pool too small
                // even after evicting everyone else): evict self. A
                // grow never evicts the grower, so it is still
                // resident.
                evict({top.slot}, EvictCause::Capacity);
                kv.release(top.slot);
                pump_admissions(clocks.makespan);
                continue;
            }
        }

        const double entry = std::max(seq.nextReady, clocks.free[0]);
        const double completion = advanceItem(
                clocks, tail_blocks, seq.nextReady, seq.attnFree, item);

        // Advance the sequence and enqueue its next item, a decode
        // token: the first one depends on the prompt's full traversal
        // of the pipeline.
        if (is_prefill) {
            seq.prefillEntered = seq.prefillLen;
            seq.nextReady = completion;
            if (seq.decodeRemaining == 0) {
                complete(top.slot, entry);
                continue;
            }
        } else {
            if (seq.decoded == 0)
                seq.firstTokenDone = completion;
            seq.decoded += 1;
            seq.decodeRemaining -= 1;
            note_output(completion);
            if (seq.decodeRemaining == 0) {
                // Finished: release KV when the token drains.
                record_completion(seq.firstTokenDone, completion,
                                  seq.decoded);
                complete(top.slot, entry);
                continue;
            }
            seq.nextReady = completion; // autoregressive gating
        }
        seq.generation += 1;
        decode_lane.push({seq.nextReady, top.slot, seq.generation});
        pump_admissions(entry);
    }

    stats.makespanSeconds = clocks.makespan;
    stats.tokensProcessed = clocks.tokens;
    // Stamp the bin width so mergeConcurrent can check alignment.
    stats.throughputBinSeconds =
        opts.throughputBinSeconds > 0.0 ? opts.throughputBinSeconds
                                        : 0.0;
    double busy_sum = 0.0;
    for (const double b : clocks.busy) {
        busy_sum += b;
        stats.bottleneckBusySeconds =
            std::max(stats.bottleneckBusySeconds, b);
    }
    // Raw aggregates behind the derived means, kept so the folds can
    // recompute utilization/avgContext exactly.
    stats.itemsProcessed = clocks.ctxSamples;
    stats.contextTokensSum = clocks.ctxSum;
    stats.stageBusySumSeconds = busy_sum;
    deriveMeans(stats);
#ifndef NDEBUG
    kv.checkInvariants();
#endif
    if (stats.skippedRequests > 0) {
        warn("pipeline: ", stats.skippedRequests,
             " request(s) exceed KV pool capacity; skipped");
    }
    return stats;
}

} // namespace ouro
