#include "engine.hh"

#include <algorithm>
#include <deque>
#include <tuple>
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
    std::uint64_t id;
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
    KvHandle kv;                  ///< slot ticket into the KV manager
    bool live = false;            ///< resident (admitted, not retired)
};

/** Pending (not yet admitted) request. */
struct Pending
{
    std::uint64_t id;
    std::uint32_t slot; ///< index into Workload::requests
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
    std::uint64_t seq;
    std::uint64_t generation;
    std::uint32_t slot;

    /** Strict total order: ready, then seq, then generation. The seq
     *  tie-break pins the pop order of simultaneous events, which is
     *  what lets the cohort fast path replay it exactly. */
    bool operator<(const LaneEntry &o) const
    {
        return std::tie(ready, seq, generation) <
               std::tie(o.ready, o.seq, o.generation);
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

/** One cohort member in the insertion-sorted decode ring. The hot
 *  per-token state is copied OUT of the ActiveSeq at ring build and
 *  written back lazily (completion, eviction, or cohort exit), so
 *  the token loop touches only this flat slot - never the resident
 *  table. */
struct RingMember
{
    double ready;             ///< this member's next event time
    std::uint64_t seq;
    std::uint64_t generation; ///< residency stamp at ring build
    ActiveSeq *as;            ///< stable: the table never reallocates
    std::uint64_t allowance;  ///< in-block tokens before a slow grow
    std::uint64_t consumed;   ///< deferred tokens for one growFast
    double attnFree;          ///< ring-local copy of as->attnFree
    std::uint64_t position;   ///< prefillLen + decoded
    std::uint64_t decodeRemaining;
};

bool
ringBefore(double a_ready, std::uint64_t a_seq, double b_ready,
           std::uint64_t b_seq)
{
    if (a_ready != b_ready)
        return a_ready < b_ready;
    return a_seq < b_seq;
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

    // Dense resident table: request i lives in slot i. The id -> slot
    // index (sorted, so duplicate ids sit side by side) serves only
    // the victim ids the KV manager returns on an eviction.
    const auto n = static_cast<std::uint32_t>(workload.requests.size());
    std::deque<Pending> queue;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> by_id;
    for (std::uint32_t i = 0; i < n; ++i) {
        const Request &r = workload.requests[i];
        queue.push_back({r.id, i, r.prefillLen, r.decodeLen, 0});
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

    // Ready items in two lanes sorted by (ready, seq, generation):
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

    // One server per stage kind (the representative block's tandem
    // queue); blocks 2..N add pure latency, not contention - inter-
    // item blocking is already captured at block 1.
    std::array<double, kStagesPerBlock> stage_free{};
    std::array<double, kStagesPerBlock> stage_busy{};
    double makespan = 0.0;

    double ctx_sum = 0.0;
    std::uint64_t ctx_samples = 0;

    /** Resident sequences still streaming prefill tokens; the cohort
     *  fast path is legal only when this is zero. */
    std::size_t prefill_count = 0;

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
            const KvHandle handle =
                kv.admitNoEvictHandle(p.id, admission_tokens(p));
            if (!handle.valid())
                break;
            table[p.slot] = {.id = p.id, .prefillLen = p.prefillLen,
                             .decodeRemaining = p.decodeRemaining,
                             .nextReady = now, .generation = p.generation,
                             .kv = handle, .live = true};
            ++residents;
            if (p.prefillLen > 0)
                ++prefill_count;
            prefill_lane.push({now, p.id, p.generation, p.slot});
            queue.pop_front();
        }
        stats.peakConcurrency = std::max(
                stats.peakConcurrency, static_cast<double>(residents));
    };

    // A request completed: free its KV, retire it, resume admissions.
    auto complete = [&](ActiveSeq &seq, double now) {
        kv.release(seq.kv);
        seq.live = false;
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
    auto evict = [&](const std::vector<std::uint64_t> &ids,
                     EvictCause cause) {
        for (const auto id : ids) {
            const auto it = std::lower_bound(
                    by_id.begin(), by_id.end(), std::pair{id, 0u});
            if (it == by_id.end() || it->first != id ||
                !table[it->second].live) {
                continue; // already finished/released
            }
            ActiveSeq &seq = table[it->second];
            const Pending back{id, it->second,
                               seq.prefillLen + seq.decoded,
                               seq.decodeRemaining, seq.generation + 1};
            queue.push_front(back);
            stats.recomputedTokens += back.prefillLen;
            if (cause == EvictCause::Storm) {
                stats.stormEvictions += 1;
                stats.stormReprefilledTokens += back.prefillLen;
            } else {
                stats.evictions += 1;
            }
            if (seq.prefillEntered < seq.prefillLen)
                --prefill_count;
            seq.live = false;
            --residents;
            admissions_suspended = true;
        }
    };

    // Tandem traversal of the representative block's six stage
    // servers; the remaining N-1 blocks add latency only. Dense
    // stages are shared servers (one set of weight cores); the
    // attention stages run on the sequence's OWN KV-ring cores
    // (Section 4.4.3 spreads sequences across distinct cores),
    // so they serialise within a sequence but overlap across
    // sequences. Returns the item's completion time. @p attn_free
    // is wherever the caller keeps the sequence's attention-server
    // clock (ActiveSeq on the slow path, the ring slot on the
    // cohort path) - ONE implementation, so the two paths cannot
    // drift apart and break their asserted bit-identity.
    auto advance_item = [&](double ready, double &attn_free,
                            const ItemTiming &item) -> double {
        double cursor = ready;
        for (unsigned s = 0; s < kStagesPerBlock; ++s) {
            const auto kind = static_cast<StageKind>(s);
            double start;
            if (stageIsAttention(kind)) {
                start = std::max(cursor, attn_free);
            } else {
                start = std::max(cursor, stage_free[s]);
            }
            const double done = start + item.stage[s];
            if (stageIsAttention(kind))
                attn_free = done;
            else
                stage_free[s] = done;
            stage_busy[s] += item.stage[s];
            cursor = done;
        }
        const double completion =
            cursor + (blocks - 1.0) * item.total;
        makespan = std::max(makespan, completion);
        stats.tokensProcessed += item.tokens;
        ctx_sum += static_cast<double>(item.context);
        ++ctx_samples;
        return completion;
    };

    // Serving-latency samples, pushed when a request COMPLETES (both
    // decode paths - per-event and cohort ring - process completions
    // in the same deterministic event order, so the sample vectors
    // are part of their bit-identity contract).
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
    // when binning is on, histogram it (both decode paths call this,
    // so the curve shares their bit-identity contract).
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
    // plain run: storm_pending() is constant-false, so the cohort
    // ring gains no bail-out and no event ever applies.
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
    };

    // Cohort decode fast path: with every resident sequence in steady
    // decode and nothing waiting to be admitted, the lanes' pop order
    // is a pure (ready, seq) merge of autoregressive chains. Replay
    // it in an insertion-sorted ring: no lane traffic, no stale
    // entries to skip, and per-sequence KV growth batched into one
    // growFast per in-block run. Block-boundary allocations happen
    // in ring order via the handle-based grow, so results stay
    // bit-identical to the slow path; the ring is abandoned the
    // moment anything contends (eviction, admission).
    auto cohort_pass = [&]() {
        const bool static_kv = opts.staticKvAllocation;

        // Gather the one live lane entry of every resident sequence,
        // copying the hot per-token state into the flat ring slots.
        std::vector<RingMember> ring;
        ring.reserve(residents);
        for (Lane *lane : {&prefill_lane, &decode_lane}) {
            for (std::size_t k = 0; k < lane->count; ++k) {
                const LaneEntry &entry = lane->at(k);
                if (ActiveSeq *as = live_entry(entry)) {
                    ring.push_back({entry.ready, entry.seq,
                                    entry.generation, as, 0, 0,
                                    as->attnFree,
                                    as->prefillLen + as->decoded,
                                    as->decodeRemaining});
                }
            }
            lane->count = 0;
        }
        ouroAssert(ring.size() == residents,
                   "cohort: live lane entries != resident sequences");
        std::sort(ring.begin(), ring.end(),
                  [](const RingMember &a, const RingMember &b) {
                      return ringBefore(a.ready, a.seq, b.ready,
                                        b.seq);
                  });
        for (auto &m : ring) {
            m.allowance = static_kv ? m.decodeRemaining
                                    : kv.growRoom(m.as->kv);
        }

        // Write a member's ring-local progress back to its ActiveSeq
        // (needed whenever slow-path machinery may look at it).
        auto sync_member = [&](const RingMember &m) {
            ActiveSeq &seq = *m.as;
            seq.decoded = m.position - seq.prefillLen;
            seq.decodeRemaining = m.decodeRemaining;
            seq.nextReady = m.ready;
            seq.attnFree = m.attnFree;
        };

        // Circular buffer over `ring`: members [head, head+count).
        const std::size_t cap = ring.size();
        std::size_t head = 0;
        std::size_t count = ring.size();
        auto at = [&](std::size_t k) -> RingMember & {
            return ring[(head + k) % cap];
        };

        bool bail = false;
        while (!bail && count > 0) {
            RingMember m = at(0);
            head = (head + 1) % cap;
            --count;

            bool contended = false;
            if (!static_kv) {
                if (m.allowance == 0) {
                    // Block boundary: flush the deferred in-block
                    // growth, then allocate exactly as the slow path
                    // would for this token. Eviction bookkeeping
                    // reads ActiveSeq progress, so sync everyone
                    // before a grow that may evict.
                    if (m.consumed > 0) {
                        kv.growFast(m.as->kv, m.consumed);
                        m.consumed = 0;
                    }
                    sync_member(m);
                    for (std::size_t k = 0; k < count; ++k)
                        sync_member(at(k));
                    const KvResult grown = kv.grow(m.as->kv);
                    if (!grown.evicted.empty()) {
                        evict(grown.evicted, EvictCause::Capacity);
                        contended = true; // queue is non-empty now
                    }
                    if (!grown.ok) {
                        // Pool too small even after evicting everyone
                        // else: evict self (slow-path semantics).
                        evict({m.seq}, EvictCause::Capacity);
                        if (kv.resident(m.seq))
                            kv.release(m.seq);
                        pump_admissions(makespan);
                        bail = true;
                        break; // member dropped, not reinserted
                    }
                    m.allowance = kv.growRoom(m.as->kv);
                } else {
                    --m.allowance;
                    ++m.consumed;
                }
            }

            // Decode step on ring-local state: same builder and the
            // SAME advance_item as the slow path (bit-identity by
            // construction), only the attention clock lives in the
            // ring slot instead of the ActiveSeq.
            const ItemTiming item =
                freshTokenItem(timing, m.position + 1);
            const double entry = std::max(m.ready, stage_free[0]);
            const double completion =
                advance_item(m.ready, m.attnFree, item);

            if (m.position == m.as->prefillLen)
                m.as->firstTokenDone = completion; // first decode
            m.position += 1;
            m.decodeRemaining -= 1;
            note_output(completion);
            m.ready = completion; // autoregressive gating

            if (m.decodeRemaining == 0) {
                record_completion(m.as->firstTokenDone, completion,
                                  m.position - m.as->prefillLen);
                if (!static_kv && m.consumed > 0)
                    kv.growFast(m.as->kv, m.consumed);
                complete(*m.as, entry);
                if (contended)
                    bail = true;
                continue; // member dropped
            }

            // Reinsert at the sorted position. Autoregressive
            // completions almost always land at the back, so scan
            // from the tail; the freed front slot absorbs the shift.
            std::size_t j = count;
            while (j > 0 && ringBefore(m.ready, m.seq,
                                       at(j - 1).ready,
                                       at(j - 1).seq)) {
                at(j) = at(j - 1);
                --j;
            }
            at(j) = m;
            ++count;
            if (contended)
                bail = true; // evictions re-queued work: fall back
        }

        // Survivors sync back and return to the decode lane with their
        // deferred KV growth committed. Evicted members are skipped:
        // either no longer live, or re-admitted under a NEW generation
        // (pump_admissions pushed their fresh lane entry, so re-pushing
        // this stale membership would duplicate them).
        for (std::size_t k = 0; k < count; ++k) {
            const RingMember &m = at(k);
            if (!m.as->live || m.as->generation != m.generation)
                continue;
            sync_member(m);
            if (!static_kv && m.consumed > 0)
                kv.growFast(m.as->kv, m.consumed);
            decode_lane.push({m.ready, m.seq, m.generation,
                              static_cast<std::uint32_t>(
                                      m.as - table.data())});
        }
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
            pump_admissions(makespan);
            continue;
        }

        // Cohort fast path entry: every resident sequence decoding
        // (a lone stream is a cohort of one) and nobody waiting for
        // admission. O(1) eligibility thanks to the running
        // prefill_count. A pending storm event bails out BEFORE
        // entry: the ring advances members past the event time with
        // no event check in its token loop.
        if (opts.cohortFastPath && prefill_count == 0 &&
            queue.empty() && residents > 0 && !storm_pending()) {
            cohort_pass();
            continue;
        }

        const LaneEntry top = first_lane().pop();
        ActiveSeq *const live = live_entry(top);
        if (!live)
            continue; // stale: its residency was evicted
        ActiveSeq &seq = *live;

        const bool is_prefill = seq.prefillEntered < seq.prefillLen;

        // Build the next item for this sequence.
        ItemTiming scratch;
        const ItemTiming *item = &scratch;
        if (is_prefill) {
            if (!token_grained) {
                scratch = freshSequenceItem(timing, model.attention,
                                            seq.prefillLen,
                                            opts.attentionParallelism);
            } else if (pure_tgp) {
                scratch = freshTokenItem(
                        timing, attendedContext(model.attention,
                                                seq.prefillEntered,
                                                seq.prefillLen));
            } else if (seq.prefillEntered + 1 < seq.prefillLen) {
                // TGP with block: defer attention to the final
                // prefill token (Fig. 5c).
                item = &blocked_deferred;
            } else {
                // The final token carries the whole prefix's
                // attention, spread over the KV crossbars.
                scratch = freshBlockedTokenItem(
                        timing,
                        deferredAttentionPositions(model.attention,
                                                   seq.prefillLen) /
                                std::max(1.0,
                                         opts.attentionParallelism));
            }
        } else {
            // Decode token: causal attention over everything so far.
            const std::uint64_t pos = seq.prefillLen + seq.decoded;
            scratch = freshTokenItem(timing, pos + 1);
        }

        // KV growth for the entering tokens (dynamic mode only).
        if (!opts.staticKvAllocation) {
            if (!is_prefill) {
                const KvResult grow = kv.grow(seq.kv);
                evict(grow.evicted, EvictCause::Capacity);
                if (!grow.ok) {
                    // The grower itself could not fit (pool too small
                    // even after evicting everyone else): evict self.
                    evict({seq.id}, EvictCause::Capacity);
                    if (kv.resident(seq.id))
                        kv.release(seq.id);
                    pump_admissions(makespan);
                    continue;
                }
            }
            // Prefill KV was reserved at admission.
        }

        const double entry = std::max(seq.nextReady, stage_free[0]);
        const double completion =
            advance_item(seq.nextReady, seq.attnFree, *item);

        // Advance the sequence and enqueue its next item.
        Lane *next_lane = &decode_lane;
        if (is_prefill) {
            seq.prefillEntered += item->tokens;
            const bool done_prefill =
                seq.prefillEntered >= seq.prefillLen;
            if (done_prefill) {
                // First decode token depends on the prompt's full
                // traversal of the pipeline.
                --prefill_count;
                seq.nextReady = completion;
            } else {
                // Prefill tokens stream: next is ready at this entry.
                seq.nextReady = entry;
                next_lane = &prefill_lane;
            }
            if (seq.decodeRemaining == 0 && done_prefill) {
                complete(seq, entry);
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
                complete(seq, entry);
                continue;
            }
            seq.nextReady = completion; // autoregressive gating
        }
        seq.generation += 1;
        next_lane->push({seq.nextReady, seq.id, seq.generation, top.slot});
        pump_admissions(entry);
    }

    stats.makespanSeconds = makespan;
    // Stamp the bin width so mergeConcurrent can check alignment.
    stats.throughputBinSeconds =
        opts.throughputBinSeconds > 0.0 ? opts.throughputBinSeconds
                                        : 0.0;
    double busy_sum = 0.0;
    for (const double b : stage_busy) {
        busy_sum += b;
        stats.bottleneckBusySeconds =
            std::max(stats.bottleneckBusySeconds, b);
    }
    // Raw aggregates behind the derived means, kept so the folds can
    // recompute utilization/avgContext exactly.
    stats.itemsProcessed = ctx_samples;
    stats.contextTokensSum = ctx_sum;
    stats.stageBusySumSeconds = busy_sum;
    deriveMeans(stats);
    if (stats.skippedRequests > 0) {
        warn("pipeline: ", stats.skippedRequests,
             " request(s) exceed KV pool capacity; skipped");
    }
    return stats;
}

} // namespace ouro
