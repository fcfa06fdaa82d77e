/**
 * @file
 * Distributed dynamic KV-cache management (paper Section 4.4).
 *
 * Each transformer block manages its own KV cache independently
 * (attention is block-local). The pool consists of the block's
 * dedicated score cores (holding K, computing Q.K^T) and context
 * cores (holding V, computing S.V), plus the *fragmented* spare
 * crossbars of the block's weight cores. Allocation follows the
 * paper's KV-mapping rules (Section 4.4.3):
 *
 *  - the KV cores form a ring; a new sequence takes one core per
 *    attention head starting at the ring cursor, so consecutive
 *    sequences land on distinct cores (compute/write separation) and
 *    heads on distinct cores (no intra-core concat pressure);
 *  - K grows along output channels: new blocks may come from OTHER
 *    crossbars of the core; V grows along input channels: new blocks
 *    prefer the SAME crossbar so accumulation stays single-pass;
 *  - a logical block (128 rows x 1024 bits) holds 128 tokens of one
 *    head (head_dim <= 128), matching "the head dimensions of
 *    prevalent models";
 *  - when the free space of the ring's current core falls below a
 *    threshold the core is marked full, reserving the residue for
 *    decode-phase growth of already-resident sequences (the
 *    anti-thrashing rule of Section 4.4.4).
 *
 * Eviction (Section 4.4.4): when a resident's growth finds no room,
 * the MOST RECENTLY admitted other resident is evicted and must be
 * re-prefetched by the scheduler (it re-enters the wait queue at the
 * front). Admission never evicts: new scheduling waits instead.
 * Residents are kept on an intrusive admission-order list, so the MRU
 * victim is the list tail - O(1) instead of a scan of every resident.
 *
 * Keys: the caller names a sequence by a dense key - the pipeline
 * engine passes the request's position in its workload - and every
 * call, victim lists included, speaks in keys. The key indexes the
 * pool's slot storage directly. A call on a key that is not resident
 * is a checked error.
 *
 * Bookkeeping: the pool is counts, not block maps. A core keeps its
 * free blocks, a context core also those of crossbar 0 (V's home
 * crossbar), and a V head how many of its blocks sit there. That is
 * all any decision reads: admission, growth and eviction test a
 * core's total, and the V-spill count depends on the home crossbar
 * alone. Which crossbar holds a K block feeds no later decision (the
 * score ring shares no core state with the context ring), so it is
 * not tracked, and allocation and release are O(1) per head. An
 * admission first decides feasibility with a counting pass that
 * mutates nothing, and only then allocates, so a failed admission
 * leaves the pool untouched. A failure is also remembered against the
 * capacity epoch (see capacityEpoch()): retrying an admission that
 * needs at least as many blocks before the epoch moves is answered in
 * O(1). A slot is created on its key's first admission and keeps its
 * per-head storage after release for that key's next residency, so
 * growth, failed admissions and re-admissions allocate no memory.
 */

#ifndef OURO_KVCACHE_MANAGER_HH
#define OURO_KVCACHE_MANAGER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "hw/geometry.hh"
#include "hw/params.hh"
#include "model/llm.hh"

namespace ouro
{

/** One KV storage core in the ring. */
struct KvCoreInfo
{
    CoreCoord coord;
    std::uint32_t crossbars;  ///< attention-capable crossbars
    std::uint32_t blocksPerCrossbar;

    bool operator==(const KvCoreInfo &) const = default;
};

/** Where one head of one sequence lives. */
struct HeadPlacement
{
    std::uint32_t scoreCore;   ///< index into the score ring
    std::uint32_t contextCore; ///< index into the context ring
};

/** Result of a growth attempt. */
struct KvResult
{
    bool ok = false;
    /** Keys of the sequences evicted to make room (most recent
     *  first). */
    std::vector<std::uint32_t> evicted;
};

/** Tokens one logical KV block holds: its 128 rows, one token each
 *  (head_dim <= 128). */
inline constexpr std::uint32_t kKvBlockTokens = 128;

/**
 * Per-block KV manager. Thread-compatible, deterministic; the
 * multi-level translation (page table -> bitmap -> block registers,
 * Fig. 12) is modelled by the seq -> head placement map and per-core
 * free-block counters. Of the crossbars inside a core only V's home
 * crossbar is tracked, because no decision reads where K's blocks
 * sit.
 */
class BlockKvManager
{
  public:
    /**
     * @param tokens_per_block rows of a logical block usable for
     *        tokens (128 for head_dim <= 128).
     * @param threshold fraction of a core's blocks kept in reserve
     *        for growth once the ring cursor visits it (Fig. 17
     *        sweep).
     */
    BlockKvManager(const ModelConfig &model,
                   std::vector<KvCoreInfo> score_cores,
                   std::vector<KvCoreInfo> context_cores,
                   std::uint32_t tokens_per_block = kKvBlockTokens,
                   double threshold = 0.1);

    /**
     * Admit sequence @p key with @p initial_tokens of KV (its
     * prefill). Never evicts (Section 4.4.4: scheduling new requests
     * suspends when the cache is full): returns false when the
     * sequence does not fit as-is. @p key must not be resident.
     */
    bool admit(std::uint32_t key, std::uint64_t initial_tokens);

    /**
     * Whether an admission of @p initial_tokens fails now without a
     * walk, answered from the capacity epoch (probesSkipped). A caller
     * that changes nothing in the pool may answer @p n such attempts
     * itself and count them with countSkippedProbes(n); the counters
     * then read exactly as after n failed admit() calls.
     */
    bool admitSkips(std::uint64_t initial_tokens) const;
    void countSkippedProbes(std::uint64_t n) { probesSkipped_ += n; }

    /**
     * Append one decode token's K/V to resident @p key. At a block
     * boundary, evicts the most recently admitted other residents
     * until one more block per head fits; never the grower itself.
     * ok=false means it does not fit even alone, and @p key stays
     * resident.
     */
    KvResult grow(std::uint32_t key);

    /**
     * Tokens appendable to resident @p key through the in-block fast
     * path alone (no block allocation, hence no eviction): the room
     * left in the newest K/V block, the same for every head. The
     * pipeline engine's decode runs stream a token only while this
     * is nonzero. Inline, as is growFast(): a decode run calls both
     * once per token.
     */
    std::uint64_t growRoom(std::uint32_t key) const;

    /**
     * Append @p n tokens through the fast path; @p n must not exceed
     * growRoom(key). Equivalent to n fast-path grow() calls.
     */
    void growFast(std::uint32_t key, std::uint64_t n);

    /** Release a finished (or externally evicted) sequence. */
    void release(std::uint32_t key);

    bool resident(std::uint32_t key) const
    {
        return key < slots_.size() && slots_[key].live;
    }

    /** Number of resident sequences. */
    std::size_t numResident() const { return residents_; }

    /** Placement of head @p head of resident @p key. */
    HeadPlacement headPlacement(std::uint32_t key,
                                std::uint32_t head) const;

    /** Coordinates for NoC traffic accounting. */
    CoreCoord scoreCoord(std::uint32_t ring_index) const;
    CoreCoord contextCoord(std::uint32_t ring_index) const;

    /** Fraction of all logical blocks currently allocated. */
    double utilization() const;

    /** Total token capacity of the pool (all heads aggregated). */
    std::uint64_t totalBlocks() const { return totalBlocks_; }
    std::uint64_t usedBlocks() const { return usedBlocks_; }

    /** Lifetime counters (for the Fig. 17 thrashing study). */
    std::uint64_t evictionCount() const { return evictions_; }
    std::uint64_t admissionCount() const { return admissions_; }

    /**
     * Admission attempts that walked the rings (admissionProbes), the
     * failed ones among them (probeFailures), and failed attempts
     * answered from the capacity epoch without a walk (probesSkipped).
     * Every attempt is exactly one of: an admission, a probe failure
     * or a skip.
     */
    std::uint64_t admissionProbes() const { return probes_; }
    std::uint64_t probeFailures() const { return probeFailures_; }
    std::uint64_t probesSkipped() const { return probesSkipped_; }

    /**
     * Capacity epoch: bumped by every operation that can turn a failed
     * admission into a successful one - a release (including eviction
     * and the residents dropCore() releases), a successful admission
     * (it moves the ring cursors) and adoptCore(). Growth, fencing and
     * failed admissions only ever take capacity away, so they leave it
     * alone. An admission that failed at epoch E fails again, with the
     * same or a larger block demand, for as long as the epoch stays E.
     */
    std::uint64_t capacityEpoch() const { return epoch_; }

    /**
     * V-spill count: V growth that could not stay in its preferred
     * crossbar and pays the extra partial-sum hop (Section 4.4.3).
     * Counts committed allocations only.
     */
    std::uint64_t vSpills() const { return vSpills_; }

    /**
     * Check the pool's bookkeeping and panic on the first violation:
     * every core's free and allocated blocks add up to its capacity,
     * and so do its home crossbar's, used + free
     * == total, fenced cores hold nothing, and the MRU list holds
     * exactly the live slots, as many as numResident(). O(pool); for
     * tests and debugging.
     */
    void checkInvariants() const;

    /** Remove a failed KV core from the pool (Section 4.3.3);
     *  returns the keys that lost data and were released, in
     *  ascending order. This IS the mid-run shrinkCapacity path:
     *  residents on the core are released (a later call on their keys
     *  is a checked error until they are admitted again), the core's
     *  free blocks leave totalBlocks(), and the fenced entry never
     *  takes another allocation. */
    std::vector<std::uint32_t> dropCore(CoreCoord coord);

    /**
     * Graft a core into the pool mid-run (PR 9: KV capacity borrowed
     * from an adjacent block after a failure). The core joins the
     * score or context ring per @p score_duty - the duty it kept
     * across the recovery service's graft - empty, behind the ring
     * cursor (the cursor reaches it on its next wrap; existing
     * allocations are untouched). Adopting a coordinate
     * that still holds live capacity in either ring is a checked
     * error; re-adopting a previously dropCore()d coordinate is fine
     * (the fenced entry stays inert). Returns the new ring index.
     */
    std::uint32_t adoptCore(const KvCoreInfo &info, bool score_duty);

  private:
    /** Free-block accounting for one ring core. */
    struct CoreState
    {
        KvCoreInfo info;
        std::uint32_t free = 0; ///< free blocks over all crossbars
        /** Free blocks on crossbar 0, V's home crossbar; read on the
         *  context ring only. */
        std::uint32_t homeFree = 0;
        /** Admission residue: ceil(threshold * capacity) blocks. */
        std::uint32_t reserve = 0;
        /** threshold * capacity: below this many free blocks the
         *  core is marked full (the anti-thrashing rule). */
        double fullBelow = 0.0;
        bool markedFull = false;
        bool fenced = false; ///< dropCore()d: never allocates again
    };

    static constexpr std::uint32_t kNilSlot = 0xffffffffu;

    /** Where one (sequence, head) keeps its K or V blocks. */
    struct HeadAlloc
    {
        std::uint32_t core; ///< ring index
        /** Of its blocks, those on the core's home crossbar (V heads;
         *  always 0 for K). */
        std::uint32_t homeBlocks = 0;
    };

    /** One key's slot; kept, storage and all, while not resident. */
    struct SequenceState
    {
        std::uint64_t tokens = 0;
        /** Every head, K and V alike, is admitted with the same
         *  blocks and grows by the same tokens, so block count and
         *  newest-block fill are per sequence:
         *  tokens == (blocksPerHead - 1) * tokensPerBlock
         *            + lastBlockFill. */
        std::uint32_t blocksPerHead = 0;
        std::uint32_t lastBlockFill = 0;
        /** Per head, on score (k) and context (v) cores. A released
         *  slot keeps this storage for its key's next residency. */
        std::vector<HeadAlloc> k;
        std::vector<HeadAlloc> v;
        /** Intrusive admission-order list (head = LRU, tail = MRU). */
        std::uint32_t mruPrev = kNilSlot;
        std::uint32_t mruNext = kNilSlot;
        bool live = false;
    };

    ModelConfig model_;
    std::vector<CoreState> score_;
    std::vector<CoreState> context_;
    std::uint32_t tokensPerBlock_;
    double threshold_;

    std::uint32_t scoreCursor_ = 0;
    std::uint32_t contextCursor_ = 0;
    std::uint64_t totalBlocks_ = 0;
    std::uint64_t usedBlocks_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t admissions_ = 0;
    std::uint64_t vSpills_ = 0;
    std::uint64_t probes_ = 0;
    std::uint64_t probeFailures_ = 0;
    std::uint64_t probesSkipped_ = 0;

    std::uint64_t epoch_ = 0;
    /** The smallest per-head block demand that failed at epoch
     *  failedEpoch_ (no failure recorded while the epochs differ). */
    std::uint64_t failedEpoch_ = ~std::uint64_t{0};
    std::uint32_t failedNeed_ = 0;

    /** Slot storage, indexed by key. */
    std::vector<SequenceState> slots_;
    std::size_t residents_ = 0;
    std::uint32_t mruHead_ = kNilSlot; ///< least recently admitted
    std::uint32_t mruTail_ = kNilSlot; ///< most recently admitted

    /** Scratch per ring index, all zero between calls: heads of one
     *  sequence per core (see fitsOneMoreBlock()). */
    std::vector<std::uint32_t> headsOnCore_;

    /** The slot of resident @p key; a checked error otherwise. */
    SequenceState &residentSlot(std::uint32_t key);
    const SequenceState &residentSlot(std::uint32_t key) const;

    /** A fresh, empty ring core; adds its capacity to totalBlocks_. */
    CoreState makeCore(const KvCoreInfo &info);

    /** Blocks needed to hold @p tokens of one head. */
    std::uint32_t blocksFor(std::uint64_t tokens) const;

    /** Evict the most recently admitted resident other than
     *  @p spare; false if there is none. */
    bool evictMru(std::vector<std::uint32_t> &evicted,
                  std::uint32_t spare);

    /** Release resident @p key (shared by release, eviction and
     *  dropCore). */
    void releaseSlot(std::uint32_t key);

    void linkMru(std::uint32_t key);
    void unlinkMru(std::uint32_t key);

    /** Whether the ring walk from @p cursor places every head at
     *  @p need blocks each; reads the ring only. */
    bool ringFits(const std::vector<CoreState> &ring,
                  std::uint32_t cursor, std::uint32_t need) const;

    /** The same walk, allocating: one HeadAlloc per head, in walk
     *  order. Only called once ringFits() said yes. */
    void placeHeads(std::vector<CoreState> &ring,
                    std::vector<HeadAlloc> &allocs,
                    std::uint32_t &cursor, std::uint32_t need,
                    bool is_v);

    /** Whether every core holding heads of @p allocs has one free
     *  block per such head (several heads may share a core). */
    bool fitsOneMoreBlock(const std::vector<CoreState> &ring,
                          const std::vector<HeadAlloc> &allocs);

    /** Allocate @p blocks more on a ring core to a head that holds
     *  @p held, and apply the full mark; kind selects K/V policy. The
     *  core must hold at least @p blocks free blocks. */
    void allocBlocks(CoreState &core, HeadAlloc &alloc,
                     std::uint32_t held, std::uint32_t blocks,
                     bool is_v);

    /** Return a head's @p blocks to its ring core. */
    void releaseAlloc(std::vector<CoreState> &ring,
                      const HeadAlloc &alloc, std::uint32_t blocks);
};

inline const BlockKvManager::SequenceState &
BlockKvManager::residentSlot(std::uint32_t key) const
{
    ouroAssert(resident(key), "BlockKvManager: sequence ", key,
               " is not resident");
    return slots_[key];
}

inline BlockKvManager::SequenceState &
BlockKvManager::residentSlot(std::uint32_t key)
{
    return const_cast<SequenceState &>(
            std::as_const(*this).residentSlot(key));
}

inline std::uint64_t
BlockKvManager::growRoom(std::uint32_t key) const
{
    return tokensPerBlock_ - residentSlot(key).lastBlockFill;
}

inline void
BlockKvManager::growFast(std::uint32_t key, std::uint64_t n)
{
    SequenceState &seq = residentSlot(key);
    ouroAssert(n <= tokensPerBlock_ - seq.lastBlockFill,
               "growFast: batch exceeds in-block room");
    seq.lastBlockFill += static_cast<std::uint32_t>(n);
    seq.tokens += n;
}

} // namespace ouro

#endif // OURO_KVCACHE_MANAGER_HH
