#include "manager.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace ouro
{

BlockKvManager::BlockKvManager(const ModelConfig &model,
                               std::vector<KvCoreInfo> score_cores,
                               std::vector<KvCoreInfo> context_cores,
                               std::uint32_t tokens_per_block,
                               double threshold)
    : model_(model), tokensPerBlock_(tokens_per_block),
      threshold_(threshold)
{
    ouroAssert(!score_cores.empty() && !context_cores.empty(),
               "BlockKvManager: empty KV core pool");
    ouroAssert(tokens_per_block > 0, "BlockKvManager: zero block size");
    ouroAssert(threshold >= 0.0 && threshold < 1.0,
               "BlockKvManager: threshold out of [0,1)");
    for (const auto &info : score_cores)
        score_.push_back(makeCore(info));
    for (const auto &info : context_cores)
        context_.push_back(makeCore(info));
    headsOnCore_.assign(std::max(score_.size(), context_.size()), 0);
}

std::uint32_t
BlockKvManager::CoreState::emptiestXbar() const
{
    if (topLevel == 0)
        return info.crossbars;
    const std::uint64_t *level = &levelBits[topLevel * words];
    for (std::uint32_t w = 0; w < words; ++w) {
        if (level[w])
            return 64 * w + std::countr_zero(level[w]);
    }
    return info.crossbars;
}

std::uint32_t
BlockKvManager::CoreState::firstFreeXbar() const
{
    for (std::uint32_t w = 0; w < words; ++w) {
        // Level 0 holds the crossbars with no free block.
        std::uint64_t has_free = ~levelBits[w];
        const std::uint32_t in_word = info.crossbars - 64 * w;
        if (in_word < 64)
            has_free &= (std::uint64_t{1} << in_word) - 1;
        if (has_free)
            return 64 * w + std::countr_zero(has_free);
    }
    return info.crossbars;
}

void
BlockKvManager::CoreState::setFree(std::uint32_t x, std::uint32_t to)
{
    const std::uint32_t from = freePerXbar[x];
    const std::uint64_t bit = std::uint64_t{1} << (x % 64);
    levelBits[from * words + x / 64] &= ~bit;
    levelBits[to * words + x / 64] |= bit;
    freePerXbar[x] = to;
    free = free - from + to;
    if (to > topLevel) {
        topLevel = to;
        return;
    }
    auto level_empty = [&](std::uint32_t level) {
        const auto first = levelBits.begin() + level * words;
        return std::all_of(first, first + words,
                           [](std::uint64_t w) { return w == 0; });
    };
    while (topLevel > 0 && level_empty(topLevel))
        --topLevel;
}

BlockKvManager::CoreState
BlockKvManager::makeCore(const KvCoreInfo &info)
{
    CoreState state;
    state.info = info;
    state.words = (info.crossbars + 63) / 64;
    state.levelBits.assign(
            static_cast<std::size_t>(info.blocksPerCrossbar + 1) *
                    state.words,
            0);
    state.freePerXbar.assign(info.crossbars, 0);
    for (std::uint32_t x = 0; x < info.crossbars; ++x) {
        state.levelBits[x / 64] |= std::uint64_t{1} << (x % 64);
        state.setFree(x, info.blocksPerCrossbar);
    }
    const double capacity = static_cast<double>(info.crossbars) *
                            info.blocksPerCrossbar;
    state.fullBelow = threshold_ * capacity;
    state.reserve =
        static_cast<std::uint32_t>(std::ceil(state.fullBelow));
    totalBlocks_ += static_cast<std::uint64_t>(info.crossbars) *
                    info.blocksPerCrossbar;
    return state;
}

std::uint32_t
BlockKvManager::blocksFor(std::uint64_t tokens) const
{
    if (tokens == 0)
        return 1; // a sequence always owns at least its next block
    return static_cast<std::uint32_t>(
            ceilDiv(tokens, tokensPerBlock_));
}

void
BlockKvManager::allocBlocks(CoreState &core, HeadAlloc &alloc,
                            std::vector<XbarRun> &runs,
                            std::uint32_t held, std::uint32_t blocks,
                            bool is_v)
{
    ouroAssert(core.free >= blocks, "allocBlocks: ", blocks,
               " blocks wanted, ", core.free, " free");
    for (std::uint32_t n = 0; n < blocks; ++n) {
        std::uint32_t chosen;
        if (is_v) {
            // V prefers its home crossbar, crossbar 0 (single-pass
            // accumulation); spilling to another crossbar costs an
            // extra partial-sum merge, which we count.
            if (core.freePerXbar[0] > 0) {
                chosen = 0;
            } else {
                chosen = core.firstFreeXbar();
                if (held + n > 0)
                    ++vSpills_;
            }
        } else {
            // K grows along output channels: any crossbar works; take
            // the emptiest to keep write pressure spread.
            chosen = core.emptiestXbar();
        }
        ouroAssert(chosen < core.info.crossbars,
                   "allocBlocks: no free crossbar despite free count");
        core.setFree(chosen, core.freePerXbar[chosen] - 1);
        ++usedBlocks_;
        // Record ownership for release accounting.
        std::uint32_t r = alloc.firstRun;
        while (r != kNil && runs[r].xbar != chosen)
            r = runs[r].next;
        if (r != kNil) {
            ++runs[r].blocks;
        } else {
            runs.push_back({chosen, 1, alloc.firstRun});
            alloc.firstRun = static_cast<std::uint32_t>(runs.size() - 1);
        }
    }
}

void
BlockKvManager::releaseAlloc(std::vector<CoreState> &ring,
                             const HeadAlloc &alloc,
                             const std::vector<XbarRun> &runs)
{
    CoreState &core = ring[alloc.core];
    for (std::uint32_t r = alloc.firstRun; r != kNil; r = runs[r].next) {
        const XbarRun &run = runs[r];
        const std::uint32_t to = core.freePerXbar[run.xbar] + run.blocks;
        ouroAssert(to <= core.info.blocksPerCrossbar,
                   "releaseAlloc: double free");
        core.setFree(run.xbar, to);
        usedBlocks_ -= run.blocks;
    }
    // Freed space may clear the full mark.
    if (core.free > core.fullBelow)
        core.markedFull = false;
}

void
BlockKvManager::applyThreshold(CoreState &core)
{
    if (static_cast<double>(core.free) < core.fullBelow)
        core.markedFull = true;
}

BlockKvManager::SequenceState &
BlockKvManager::slotRef(KvHandle handle)
{
    ouroAssert(handle.valid() && handle.slot_ < slots_.size() &&
               slots_[handle.slot_].live &&
               slots_[handle.slot_].stamp == handle.stamp_,
               "BlockKvManager: stale or invalid KvHandle");
    return slots_[handle.slot_];
}

const BlockKvManager::SequenceState &
BlockKvManager::slotRef(KvHandle handle) const
{
    ouroAssert(handle.valid() && handle.slot_ < slots_.size() &&
               slots_[handle.slot_].live &&
               slots_[handle.slot_].stamp == handle.stamp_,
               "BlockKvManager: stale or invalid KvHandle");
    return slots_[handle.slot_];
}

void
BlockKvManager::linkMru(std::uint32_t slot)
{
    SequenceState &seq = slots_[slot];
    seq.mruPrev = mruTail_;
    seq.mruNext = kNilSlot;
    if (mruTail_ != kNilSlot)
        slots_[mruTail_].mruNext = slot;
    else
        mruHead_ = slot;
    mruTail_ = slot;
}

void
BlockKvManager::unlinkMru(std::uint32_t slot)
{
    SequenceState &seq = slots_[slot];
    if (seq.mruPrev != kNilSlot)
        slots_[seq.mruPrev].mruNext = seq.mruNext;
    else
        mruHead_ = seq.mruNext;
    if (seq.mruNext != kNilSlot)
        slots_[seq.mruNext].mruPrev = seq.mruPrev;
    else
        mruTail_ = seq.mruPrev;
    seq.mruPrev = kNilSlot;
    seq.mruNext = kNilSlot;
}

bool
BlockKvManager::ringFits(const std::vector<CoreState> &ring,
                         std::uint32_t cursor, std::uint32_t need) const
{
    const auto heads = static_cast<std::uint32_t>(model_.numKvHeads);
    const auto n = static_cast<std::uint32_t>(ring.size());
    // Probe p of the walk visits core (cursor + p) % n for the
    // (p / n)-th time. A core takes a head on a visit iff it is not
    // marked full and keeps need + reserve free blocks after the heads
    // it took on its earlier visits. Once a core refuses, it refuses
    // for the rest of the walk; and a core able to take a head is
    // never pushed below the full mark by the heads before it
    // (need + reserve > threshold * capacity). So this count is
    // exactly what placeHeads() places.
    std::uint32_t placed = 0;
    for (std::uint32_t p = 0; placed < heads && p < 2 * n + heads;
         ++p) {
        const CoreState &core = ring[(cursor + p) % n];
        const std::uint64_t taken = p / n;
        if (!core.markedFull &&
            core.free >= (taken + 1) * need + core.reserve) {
            ++placed;
        }
    }
    return placed == heads;
}

void
BlockKvManager::placeHeads(std::vector<CoreState> &ring,
                           std::vector<HeadAlloc> &allocs,
                           std::vector<XbarRun> &runs,
                           std::uint32_t &cursor, std::uint32_t need,
                           bool is_v)
{
    const auto n = static_cast<std::uint32_t>(ring.size());
    std::uint32_t probe = cursor;
    for (HeadAlloc &alloc : allocs) {
        // Admission requires the post-allocation residue to stay
        // above the threshold reserve - small (spare-crossbar) cores
        // therefore only take sequences they can also grow (Section
        // 4.4.4's anti-thrashing rule).
        while (ring[probe % n].markedFull ||
               ring[probe % n].free < need + ring[probe % n].reserve) {
            ++probe;
            ouroAssert(probe - cursor < 2 * n + allocs.size(),
                       "placeHeads: walk placed fewer heads than "
                       "ringFits counted");
        }
        CoreState &core = ring[probe % n];
        alloc.core = probe % n;
        alloc.firstRun = kNil;
        allocBlocks(core, alloc, runs, 0, need, is_v);
        applyThreshold(core);
        ++probe;
    }
    cursor = probe % n;
}

std::uint32_t
BlockKvManager::tryAdmitOnce(std::uint64_t seq_id,
                             std::uint64_t initial_tokens)
{
    const std::uint32_t need = blocksFor(initial_tokens);
    // Nothing that could make room happened since an admission needing
    // no more than this failed (capacityEpoch()).
    if (epoch_ == failedEpoch_ && need >= failedNeed_) {
        ++probesSkipped_;
        return kNilSlot;
    }
    ++probes_;
    if (!ringFits(score_, scoreCursor_, need) ||
        !ringFits(context_, contextCursor_, need)) {
        ++probeFailures_;
        if (epoch_ != failedEpoch_ || need < failedNeed_) {
            failedEpoch_ = epoch_;
            failedNeed_ = need;
        }
        return kNilSlot;
    }

    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    SequenceState &seq = slots_[slot];
    const auto heads = static_cast<std::size_t>(model_.numKvHeads);
    seq.seqId = seq_id;
    seq.tokens = initial_tokens;
    seq.k.resize(heads);
    seq.v.resize(heads);
    seq.runs.clear();
    seq.blocksPerHead = need;
    seq.lastBlockFill = static_cast<std::uint32_t>(
            initial_tokens == 0
                ? 0
                : initial_tokens -
                      (static_cast<std::uint64_t>(need) - 1) *
                          tokensPerBlock_);
    placeHeads(score_, seq.k, seq.runs, scoreCursor_, need, false);
    placeHeads(context_, seq.v, seq.runs, contextCursor_, need, true);
    seq.live = true;
    linkMru(slot);
    index_.emplace(seq_id, slot);
    ++admissions_;
    ++epoch_; // the cursors moved
    return slot;
}

bool
BlockKvManager::evictMru(std::vector<std::uint64_t> &evicted)
{
    if (mruTail_ == kNilSlot)
        return false;
    const std::uint32_t victim = mruTail_;
    const std::uint64_t id = slots_[victim].seqId;
    releaseSlot(victim);
    evicted.push_back(id);
    ++evictions_;
    return true;
}

KvResult
BlockKvManager::admit(std::uint64_t seq_id,
                      std::uint64_t initial_tokens)
{
    ouroAssert(!resident(seq_id), "admit: sequence ", seq_id,
               " already resident");
    KvResult result;
    while (true) {
        if (tryAdmitOnce(seq_id, initial_tokens) != kNilSlot) {
            result.ok = true;
            return result;
        }
        if (!evictMru(result.evicted))
            return result; // pool empty yet still no fit
    }
}

bool
BlockKvManager::admitNoEvict(std::uint64_t seq_id,
                             std::uint64_t initial_tokens)
{
    return admitNoEvictHandle(seq_id, initial_tokens).valid();
}

KvHandle
BlockKvManager::admitNoEvictHandle(std::uint64_t seq_id,
                                   std::uint64_t initial_tokens)
{
    ouroAssert(!resident(seq_id), "admitNoEvict: sequence ", seq_id,
               " already resident");
    const std::uint32_t slot = tryAdmitOnce(seq_id, initial_tokens);
    return slot == kNilSlot ? KvHandle{}
                            : KvHandle{slot, slots_[slot].stamp};
}

KvHandle
BlockKvManager::handleOf(std::uint64_t seq_id) const
{
    const auto it = index_.find(seq_id);
    ouroAssert(it != index_.end(), "handleOf: sequence ", seq_id,
               " not resident");
    return KvHandle{it->second, slots_[it->second].stamp};
}

std::uint64_t
BlockKvManager::growRoom(std::uint64_t seq_id) const
{
    return growRoom(handleOf(seq_id));
}

std::uint64_t
BlockKvManager::growRoom(KvHandle handle) const
{
    const SequenceState &seq = slotRef(handle);
    return tokensPerBlock_ - seq.lastBlockFill;
}

void
BlockKvManager::growFast(std::uint64_t seq_id, std::uint64_t n)
{
    growFast(handleOf(seq_id), n);
}

void
BlockKvManager::growFast(KvHandle handle, std::uint64_t n)
{
    SequenceState &seq = slotRef(handle);
    ouroAssert(n <= tokensPerBlock_ - seq.lastBlockFill,
               "growFast: batch exceeds in-block room");
    seq.lastBlockFill += static_cast<std::uint32_t>(n);
    seq.tokens += n;
}

bool
BlockKvManager::fitsOneMoreBlock(const std::vector<CoreState> &ring,
                                 const std::vector<HeadAlloc> &allocs)
{
    for (const HeadAlloc &alloc : allocs)
        ++headsOnCore_[alloc.core];
    bool fits = true;
    for (const HeadAlloc &alloc : allocs)
        fits &= ring[alloc.core].free >= headsOnCore_[alloc.core];
    for (const HeadAlloc &alloc : allocs)
        headsOnCore_[alloc.core] = 0;
    return fits;
}

KvResult
BlockKvManager::grow(std::uint64_t seq_id)
{
    return grow(handleOf(seq_id));
}

KvResult
BlockKvManager::grow(KvHandle handle)
{
    KvResult result;
    SequenceState &seq = slotRef(handle);

    // Fast path: the newest block of every head still has room.
    if (seq.lastBlockFill < tokensPerBlock_) {
        ++seq.lastBlockFill;
        ++seq.tokens;
        result.ok = true;
        return result;
    }

    // Need one more block per head (K and V). Evict other residents
    // (most recent first) until it fits; never evict the grower.
    while (!fitsOneMoreBlock(score_, seq.k) ||
           !fitsOneMoreBlock(context_, seq.v)) {
        // MRU victim other than ourselves: the list tail, or its
        // predecessor when we ARE the tail.
        std::uint32_t victim = mruTail_;
        if (victim == handle.slot_)
            victim = slots_[victim].mruPrev;
        if (victim == kNilSlot)
            return result; // only us left and still no room
        const std::uint64_t vid = slots_[victim].seqId;
        releaseSlot(victim);
        result.evicted.push_back(vid);
        ++evictions_;
    }

    for (auto &alloc : seq.k) {
        allocBlocks(score_[alloc.core], alloc, seq.runs,
                    seq.blocksPerHead, 1, false);
        applyThreshold(score_[alloc.core]);
    }
    for (auto &alloc : seq.v) {
        allocBlocks(context_[alloc.core], alloc, seq.runs,
                    seq.blocksPerHead, 1, true);
        applyThreshold(context_[alloc.core]);
    }
    ++seq.blocksPerHead;
    seq.lastBlockFill = 1;
    ++seq.tokens;
    result.ok = true;
    return result;
}

void
BlockKvManager::release(std::uint64_t seq_id)
{
    release(handleOf(seq_id));
}

void
BlockKvManager::release(KvHandle handle)
{
    slotRef(handle); // validates
    releaseSlot(handle.slot_);
}

void
BlockKvManager::releaseSlot(std::uint32_t slot)
{
    SequenceState &seq = slots_[slot];
    for (const auto &alloc : seq.k)
        releaseAlloc(score_, alloc, seq.runs);
    for (const auto &alloc : seq.v)
        releaseAlloc(context_, alloc, seq.runs);
    unlinkMru(slot);
    index_.erase(seq.seqId);
    // The head storage stays with the slot for its next resident.
    seq.live = false;
    ++seq.stamp; // invalidate outstanding handles (ABA guard)
    freeSlots_.push_back(slot);
    ++epoch_;
}

bool
BlockKvManager::resident(std::uint64_t seq_id) const
{
    return index_.count(seq_id) > 0;
}

HeadPlacement
BlockKvManager::headPlacement(std::uint64_t seq_id,
                              std::uint32_t head) const
{
    const SequenceState &seq = slotRef(handleOf(seq_id));
    ouroAssert(head < seq.k.size(),
               "headPlacement: head out of range");
    return {seq.k[head].core, seq.v[head].core};
}

CoreCoord
BlockKvManager::scoreCoord(std::uint32_t ring_index) const
{
    ouroAssert(ring_index < score_.size(), "scoreCoord: bad index");
    return score_[ring_index].info.coord;
}

CoreCoord
BlockKvManager::contextCoord(std::uint32_t ring_index) const
{
    ouroAssert(ring_index < context_.size(),
               "contextCoord: bad index");
    return context_[ring_index].info.coord;
}

double
BlockKvManager::utilization() const
{
    return totalBlocks_ == 0
               ? 0.0
               : static_cast<double>(usedBlocks_) /
                     static_cast<double>(totalBlocks_);
}

std::vector<std::uint64_t>
BlockKvManager::dropCore(CoreCoord coord)
{
    std::vector<std::uint64_t> lost;
    auto collect = [&](const std::vector<CoreState> &ring,
                       bool is_score) {
        for (std::uint32_t r = 0; r < ring.size(); ++r) {
            if (!(ring[r].info.coord == coord))
                continue;
            for (const auto &[id, slot] : index_) {
                const SequenceState &seq = slots_[slot];
                const auto &allocs = is_score ? seq.k : seq.v;
                for (const auto &alloc : allocs) {
                    if (alloc.core == r) {
                        lost.push_back(id);
                        break;
                    }
                }
            }
        }
    };
    collect(score_, true);
    collect(context_, false);
    std::sort(lost.begin(), lost.end());
    lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
    // Release first (their blocks return to the free lists), THEN
    // fence the core so no future allocation lands on it.
    for (const auto id : lost)
        release(id);
    auto fence = [&](std::vector<CoreState> &ring) {
        for (auto &core : ring) {
            if (!(core.info.coord == coord))
                continue;
            totalBlocks_ -= core.free;
            for (std::uint32_t x = 0; x < core.info.crossbars; ++x)
                core.setFree(x, 0);
            core.markedFull = true;
            core.fenced = true;
        }
    };
    fence(score_);
    fence(context_);
    return lost;
}

std::uint32_t
BlockKvManager::adoptCore(const KvCoreInfo &info, bool score_duty)
{
    // A dropCore()d entry with the same coordinate is inert and may be
    // shadowed; anything else is a double-adopt.
    for (const auto *ring : {&score_, &context_}) {
        for (const auto &core : *ring) {
            ouroAssert(!(core.info.coord == info.coord) || core.fenced,
                       "adoptCore: core (", info.coord.row, ",",
                       info.coord.col, ") is already live in the "
                       "pool");
        }
    }
    auto &ring = score_duty ? score_ : context_;
    ring.push_back(makeCore(info));
    headsOnCore_.resize(std::max(score_.size(), context_.size()), 0);
    ++epoch_;
    return static_cast<std::uint32_t>(ring.size() - 1);
}

void
BlockKvManager::checkInvariants() const
{
    // Blocks held by live heads, per ring core and crossbar.
    using Held = std::vector<std::vector<std::uint64_t>>;
    auto empty_held = [](const std::vector<CoreState> &ring) {
        Held held(ring.size());
        for (std::size_t r = 0; r < ring.size(); ++r)
            held[r].assign(ring[r].info.crossbars, 0);
        return held;
    };
    Held score_held = empty_held(score_);
    Held context_held = empty_held(context_);
    // Returns the number of runs the heads' lists hold.
    auto count_allocs = [&](const SequenceState &seq,
                            const std::vector<HeadAlloc> &allocs,
                            const std::vector<CoreState> &ring,
                            Held &held) {
        const std::vector<XbarRun> &runs = seq.runs;
        ouroAssert(allocs.size() ==
                           static_cast<std::size_t>(model_.numKvHeads),
                   "checkInvariants: head count");
        std::size_t listed = 0;
        for (const HeadAlloc &alloc : allocs) {
            ouroAssert(alloc.core < ring.size(),
                       "checkInvariants: head on a bad ring index");
            ouroAssert(!ring[alloc.core].fenced,
                       "checkInvariants: live head on a fenced core");
            std::uint64_t blocks = 0;
            for (std::uint32_t r = alloc.firstRun; r != kNil;
                 r = runs[r].next) {
                ouroAssert(r < runs.size() && ++listed <= runs.size(),
                           "checkInvariants: broken crossbar run list");
                ouroAssert(runs[r].xbar < ring[alloc.core].info.crossbars,
                           "checkInvariants: bad crossbar");
                held[alloc.core][runs[r].xbar] += runs[r].blocks;
                blocks += runs[r].blocks;
            }
            ouroAssert(blocks == seq.blocksPerHead,
                       "checkInvariants: a head holds ", blocks,
                       " blocks, its sequence ", seq.blocksPerHead);
        }
        return listed;
    };

    std::size_t live = 0;
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
        const SequenceState &seq = slots_[s];
        if (!seq.live)
            continue;
        ++live;
        const auto it = index_.find(seq.seqId);
        ouroAssert(it != index_.end() && it->second == s,
                   "checkInvariants: live slot ", s,
                   " missing from the seq-id index");
        const std::size_t listed =
            count_allocs(seq, seq.k, score_, score_held) +
            count_allocs(seq, seq.v, context_, context_held);
        ouroAssert(listed == seq.runs.size(),
                   "checkInvariants: slot ", s, " lists ", listed,
                   " of its ", seq.runs.size(), " crossbar runs");
        ouroAssert(seq.blocksPerHead >= 1 &&
                       seq.lastBlockFill <= tokensPerBlock_ &&
                       seq.tokens ==
                           static_cast<std::uint64_t>(
                                   seq.blocksPerHead - 1) *
                                   tokensPerBlock_ +
                               seq.lastBlockFill,
                   "checkInvariants: slot ", s, " holds ", seq.tokens,
                   " tokens in ", seq.blocksPerHead,
                   " blocks per head, newest filled to ",
                   seq.lastBlockFill);
    }
    ouroAssert(live == index_.size(),
               "checkInvariants: ", index_.size(),
               " indexed sequences, ", live, " live slots");

    std::uint64_t used = 0;
    std::uint64_t total = 0;
    auto check_ring = [&](const std::vector<CoreState> &ring,
                          const Held &held, std::uint32_t cursor) {
        ouroAssert(cursor < ring.size(), "checkInvariants: cursor");
        for (std::size_t r = 0; r < ring.size(); ++r) {
            const CoreState &core = ring[r];
            std::uint64_t free = 0;
            std::uint32_t top = 0;
            std::uint64_t bucketed = 0;
            for (const std::uint64_t w : core.levelBits)
                bucketed += std::popcount(w);
            ouroAssert(bucketed == core.info.crossbars,
                       "checkInvariants: core ", r, " buckets ",
                       bucketed, " crossbars");
            for (std::uint32_t x = 0; x < core.info.crossbars; ++x) {
                const std::uint32_t f = core.freePerXbar[x];
                ouroAssert(f <= core.info.blocksPerCrossbar &&
                               (core.levelBits[f * core.words + x / 64] >>
                                (x % 64)) & 1,
                           "checkInvariants: core ", r, " crossbar ", x,
                           " missing from its free-count bucket");
                top = std::max(top, f);
                free += f;
                used += held[r][x];
                if (core.fenced) {
                    ouroAssert(f == 0 && held[r][x] == 0,
                               "checkInvariants: fenced core ", r,
                               " holds blocks");
                } else {
                    ouroAssert(f + held[r][x] ==
                                   core.info.blocksPerCrossbar,
                               "checkInvariants: core ", r,
                               " crossbar ", x, " has ", f,
                               " free + ", held[r][x],
                               " held blocks");
                }
            }
            ouroAssert(free == core.free, "checkInvariants: core ", r,
                       " free total ", core.free, " != ", free);
            ouroAssert(top == core.topLevel, "checkInvariants: core ", r,
                       " top level ", core.topLevel, " != ", top);
            ouroAssert(!core.fenced || core.markedFull,
                       "checkInvariants: fenced core not marked full");
            if (!core.fenced) {
                total += static_cast<std::uint64_t>(
                                 core.info.crossbars) *
                         core.info.blocksPerCrossbar;
            }
        }
    };
    check_ring(score_, score_held, scoreCursor_);
    check_ring(context_, context_held, contextCursor_);
    ouroAssert(used == usedBlocks_, "checkInvariants: ", used,
               " blocks held, usedBlocks ", usedBlocks_);
    ouroAssert(total == totalBlocks_, "checkInvariants: capacity ",
               total, ", totalBlocks ", totalBlocks_);

    // MRU list: exactly the live slots, linked both ways.
    std::size_t listed = 0;
    std::uint32_t prev = kNilSlot;
    for (std::uint32_t s = mruHead_; s != kNilSlot;
         s = slots_[s].mruNext) {
        ouroAssert(s < slots_.size() && slots_[s].live &&
                       slots_[s].mruPrev == prev &&
                       ++listed <= live,
                   "checkInvariants: broken MRU list at slot ", s);
        prev = s;
    }
    ouroAssert(prev == mruTail_ && listed == live,
               "checkInvariants: MRU list holds ", listed, " of ",
               live, " residents");

    std::vector<bool> seen(slots_.size(), false);
    for (const std::uint32_t s : freeSlots_) {
        ouroAssert(s < slots_.size() && !slots_[s].live && !seen[s],
                   "checkInvariants: bad free slot ", s);
        seen[s] = true;
    }
    ouroAssert(live + freeSlots_.size() == slots_.size(),
               "checkInvariants: slots leaked");
    ouroAssert(headsOnCore_.size() >=
                           std::max(score_.size(), context_.size()) &&
                   std::all_of(headsOnCore_.begin(), headsOnCore_.end(),
                               [](std::uint32_t n) { return n == 0; }),
               "checkInvariants: dirty per-core scratch");
}

} // namespace ouro
