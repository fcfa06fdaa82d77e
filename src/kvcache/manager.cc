#include "manager.hh"

#include <algorithm>
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

BlockKvManager::CoreState
BlockKvManager::makeCore(const KvCoreInfo &info)
{
    CoreState state;
    state.info = info;
    state.free = info.crossbars * info.blocksPerCrossbar;
    state.homeFree = info.crossbars > 0 ? info.blocksPerCrossbar : 0;
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
                            std::uint32_t held, std::uint32_t blocks,
                            bool is_v)
{
    ouroAssert(core.free >= blocks, "allocBlocks: ", blocks,
               " blocks wanted, ", core.free, " free");
    core.free -= blocks;
    usedBlocks_ += blocks;
    // The anti-thrashing rule: below the threshold the core is full.
    if (static_cast<double>(core.free) < core.fullBelow)
        core.markedFull = true;
    // K grows along output channels: any crossbar works, and no later
    // decision reads which one it took.
    if (!is_v)
        return;
    // V prefers its home crossbar, crossbar 0 (single-pass
    // accumulation). Every block past it costs an extra partial-sum
    // merge, which we count - except a head's very first block, which
    // has no partial sum to merge with.
    const std::uint32_t home = std::min(core.homeFree, blocks);
    core.homeFree -= home;
    alloc.homeBlocks += home;
    const std::uint32_t spilled = blocks - home;
    vSpills_ += spilled - (spilled > 0 && home == 0 && held == 0);
}

void
BlockKvManager::releaseAlloc(std::vector<CoreState> &ring,
                             const HeadAlloc &alloc,
                             std::uint32_t blocks)
{
    CoreState &core = ring[alloc.core];
    core.free += blocks;
    core.homeFree += alloc.homeBlocks;
    ouroAssert(core.free <= core.info.crossbars *
                                    core.info.blocksPerCrossbar,
               "releaseAlloc: double free");
    usedBlocks_ -= blocks;
    // Freed space may clear the full mark.
    if (core.free > core.fullBelow)
        core.markedFull = false;
}

void
BlockKvManager::linkMru(std::uint32_t key)
{
    SequenceState &seq = slots_[key];
    seq.mruPrev = mruTail_;
    seq.mruNext = kNilSlot;
    if (mruTail_ != kNilSlot)
        slots_[mruTail_].mruNext = key;
    else
        mruHead_ = key;
    mruTail_ = key;
}

void
BlockKvManager::unlinkMru(std::uint32_t key)
{
    SequenceState &seq = slots_[key];
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
        alloc.homeBlocks = 0;
        allocBlocks(core, alloc, 0, need, is_v);
        ++probe;
    }
    cursor = probe % n;
}

bool
BlockKvManager::admitSkips(std::uint64_t initial_tokens) const
{
    // Nothing that could make room happened since an admission needing
    // no more than this failed (capacityEpoch()).
    return epoch_ == failedEpoch_ &&
           blocksFor(initial_tokens) >= failedNeed_;
}

bool
BlockKvManager::admit(std::uint32_t key, std::uint64_t initial_tokens)
{
    ouroAssert(!resident(key), "admit: sequence ", key,
               " already resident");
    if (admitSkips(initial_tokens)) {
        ++probesSkipped_;
        return false;
    }
    const std::uint32_t need = blocksFor(initial_tokens);
    ++probes_;
    if (!ringFits(score_, scoreCursor_, need) ||
        !ringFits(context_, contextCursor_, need)) {
        ++probeFailures_;
        if (epoch_ != failedEpoch_ || need < failedNeed_) {
            failedEpoch_ = epoch_;
            failedNeed_ = need;
        }
        return false;
    }

    if (key >= slots_.size())
        slots_.resize(std::size_t{key} + 1);
    SequenceState &seq = slots_[key];
    const auto heads = static_cast<std::size_t>(model_.numKvHeads);
    seq.tokens = initial_tokens;
    seq.k.resize(heads);
    seq.v.resize(heads);
    seq.blocksPerHead = need;
    seq.lastBlockFill = static_cast<std::uint32_t>(
            initial_tokens == 0
                ? 0
                : initial_tokens -
                      (static_cast<std::uint64_t>(need) - 1) *
                          tokensPerBlock_);
    placeHeads(score_, seq.k, scoreCursor_, need, false);
    placeHeads(context_, seq.v, contextCursor_, need, true);
    seq.live = true;
    linkMru(key);
    ++residents_;
    ++admissions_;
    ++epoch_; // the cursors moved
    return true;
}

bool
BlockKvManager::evictMru(std::vector<std::uint32_t> &evicted,
                         std::uint32_t spare)
{
    // The list tail, or its predecessor when that is the spared key.
    std::uint32_t victim = mruTail_;
    if (victim != kNilSlot && victim == spare)
        victim = slots_[victim].mruPrev;
    if (victim == kNilSlot)
        return false;
    releaseSlot(victim);
    evicted.push_back(victim);
    ++evictions_;
    return true;
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
BlockKvManager::grow(std::uint32_t key)
{
    KvResult result;
    SequenceState &seq = residentSlot(key);

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
        if (!evictMru(result.evicted, key))
            return result; // only us left and still no room
    }

    for (auto &alloc : seq.k)
        allocBlocks(score_[alloc.core], alloc, seq.blocksPerHead, 1,
                    false);
    for (auto &alloc : seq.v)
        allocBlocks(context_[alloc.core], alloc, seq.blocksPerHead, 1,
                    true);
    ++seq.blocksPerHead;
    seq.lastBlockFill = 1;
    ++seq.tokens;
    result.ok = true;
    return result;
}

void
BlockKvManager::release(std::uint32_t key)
{
    residentSlot(key); // a checked error unless resident
    releaseSlot(key);
}

void
BlockKvManager::releaseSlot(std::uint32_t key)
{
    SequenceState &seq = slots_[key];
    for (const auto &alloc : seq.k)
        releaseAlloc(score_, alloc, seq.blocksPerHead);
    for (const auto &alloc : seq.v)
        releaseAlloc(context_, alloc, seq.blocksPerHead);
    unlinkMru(key);
    // The head storage stays with the slot for the key's next
    // residency.
    seq.live = false;
    --residents_;
    ++epoch_;
}

HeadPlacement
BlockKvManager::headPlacement(std::uint32_t key,
                              std::uint32_t head) const
{
    const SequenceState &seq = residentSlot(key);
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

std::vector<std::uint32_t>
BlockKvManager::dropCore(CoreCoord coord)
{
    // Every resident with a head on the core, released in one pass
    // over the slots, hence in ascending key order. Release first
    // (their blocks return to the free counts), THEN fence the core
    // so no future allocation lands on it.
    auto on_core = [&](const std::vector<CoreState> &ring,
                       const std::vector<HeadAlloc> &heads) {
        return std::any_of(heads.begin(), heads.end(),
                           [&](const HeadAlloc &alloc) {
                               return ring[alloc.core].info.coord ==
                                      coord;
                           });
    };
    std::vector<std::uint32_t> lost;
    for (std::uint32_t key = 0; key < slots_.size(); ++key) {
        const SequenceState &seq = slots_[key];
        if (seq.live &&
            (on_core(score_, seq.k) || on_core(context_, seq.v))) {
            releaseSlot(key);
            lost.push_back(key);
        }
    }
    auto fence = [&](std::vector<CoreState> &ring) {
        for (auto &core : ring) {
            if (!(core.info.coord == coord))
                continue;
            totalBlocks_ -= core.free;
            core.free = 0;
            core.homeFree = 0;
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
    // Blocks held by live heads per ring core: in all, and on the
    // core's home crossbar (V heads only; K never touches it).
    struct Held
    {
        std::vector<std::uint64_t> all, home;
    };
    Held score_held{std::vector<std::uint64_t>(score_.size()),
                    std::vector<std::uint64_t>(score_.size())};
    Held context_held{std::vector<std::uint64_t>(context_.size()),
                      std::vector<std::uint64_t>(context_.size())};
    auto count_allocs = [&](const SequenceState &seq,
                            const std::vector<HeadAlloc> &allocs,
                            const std::vector<CoreState> &ring,
                            Held &held) {
        ouroAssert(allocs.size() ==
                           static_cast<std::size_t>(model_.numKvHeads),
                   "checkInvariants: head count");
        for (const HeadAlloc &alloc : allocs) {
            ouroAssert(alloc.core < ring.size(),
                       "checkInvariants: head on a bad ring index");
            ouroAssert(!ring[alloc.core].fenced,
                       "checkInvariants: live head on a fenced core");
            ouroAssert(alloc.homeBlocks <= seq.blocksPerHead,
                       "checkInvariants: a head holds ",
                       alloc.homeBlocks, " home-crossbar blocks of ",
                       seq.blocksPerHead);
            held.all[alloc.core] += seq.blocksPerHead;
            held.home[alloc.core] += alloc.homeBlocks;
        }
    };

    std::size_t live = 0;
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
        const SequenceState &seq = slots_[s];
        if (!seq.live)
            continue;
        ++live;
        count_allocs(seq, seq.k, score_, score_held);
        count_allocs(seq, seq.v, context_, context_held);
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
    ouroAssert(live == residents_, "checkInvariants: ", residents_,
               " residents counted, ", live, " live slots");

    std::uint64_t used = 0;
    std::uint64_t total = 0;
    auto check_ring = [&](const std::vector<CoreState> &ring,
                          const Held &held, std::uint32_t cursor) {
        ouroAssert(cursor < ring.size(), "checkInvariants: cursor");
        for (std::size_t r = 0; r < ring.size(); ++r) {
            const CoreState &core = ring[r];
            used += held.all[r];
            if (core.fenced) {
                ouroAssert(core.free == 0 && core.homeFree == 0 &&
                                   held.all[r] == 0 && core.markedFull,
                           "checkInvariants: fenced core ", r,
                           " holds blocks or takes heads");
                continue;
            }
            const std::uint64_t capacity =
                static_cast<std::uint64_t>(core.info.crossbars) *
                core.info.blocksPerCrossbar;
            total += capacity;
            // Block conservation on the core and on its home crossbar.
            ouroAssert(core.free + held.all[r] == capacity &&
                               core.homeFree + held.home[r] ==
                                   (core.info.crossbars > 0
                                        ? core.info.blocksPerCrossbar
                                        : 0),
                       "checkInvariants: core ", r, " has ", core.free,
                       " free + ", held.all[r], " held blocks, ",
                       core.homeFree, " + ", held.home[r],
                       " on its home crossbar");
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

    ouroAssert(headsOnCore_.size() >=
                           std::max(score_.size(), context_.size()) &&
                   std::all_of(headsOnCore_.begin(), headsOnCore_.end(),
                               [](std::uint32_t n) { return n == 0; }),
               "checkInvariants: dirty per-core scratch");
}

} // namespace ouro
