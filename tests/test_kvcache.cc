/**
 * @file
 * Unit + property tests for the distributed dynamic KV-cache manager:
 * admission/growth/release accounting, ring placement, the K/V growth
 * policies, MRU eviction, thresholds, and failed-core handling; and a
 * randomized op-sequence fuzzer that runs the manager against a naive
 * reference pool (place-then-rollback admission, linear scans, no
 * capacity epoch) and checks its invariants after every step.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/rng.hh"
#include "kvcache/manager.hh"
#include "model/llm.hh"

namespace ouro
{
namespace
{

/** Small model: 4 KV heads so placements are easy to reason about. */
ModelConfig
kvModel()
{
    ModelConfig cfg;
    cfg.name = "kv-test";
    cfg.numBlocks = 2;
    cfg.hiddenDim = 512;
    cfg.numHeads = 4;
    cfg.numKvHeads = 4;
    cfg.headDim = 128;
    cfg.ffnDim = 1024;
    cfg.ffnMatrices = 2;
    cfg.vocabSize = 100;
    cfg.bytesPerParam = 1;
    cfg.attention = AttentionKind::Causal;
    cfg.maxContext = 4096;
    return cfg;
}

std::vector<KvCoreInfo>
pool(std::uint32_t cores, std::uint32_t xbars = 4,
     std::uint32_t blocks = 8, std::uint32_t base_row = 0)
{
    std::vector<KvCoreInfo> infos;
    for (std::uint32_t i = 0; i < cores; ++i)
        infos.push_back({{base_row, i}, xbars, blocks});
    return infos;
}

TEST(KvManager, CapacityAccounting)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    // 8 cores x 4 xbars x 8 blocks = 256 blocks.
    EXPECT_EQ(mgr.totalBlocks(), 256u);
    EXPECT_EQ(mgr.usedBlocks(), 0u);
    EXPECT_DOUBLE_EQ(mgr.utilization(), 0.0);
}

TEST(KvManager, AdmitAllocatesPerHead)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    EXPECT_TRUE(mgr.admit(1, 100)); // 100 tokens -> 1 block/head
    EXPECT_TRUE(mgr.resident(1));
    // 4 heads x 1 block (K) + 4 x 1 (V) = 8 blocks.
    EXPECT_EQ(mgr.usedBlocks(), 8u);
}

TEST(KvManager, MultiBlockPrefill)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    // 300 tokens -> ceil(300/128) = 3 blocks per head per side.
    ASSERT_TRUE(mgr.admit(7, 300));
    EXPECT_EQ(mgr.usedBlocks(), 4u * 3 * 2);
}

TEST(KvManager, HeadsOnDistinctCores)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 64));
    std::set<std::uint32_t> score_cores, context_cores;
    for (std::uint32_t h = 0; h < 4; ++h) {
        const HeadPlacement hp = mgr.headPlacement(1, h);
        score_cores.insert(hp.scoreCore);
        context_cores.insert(hp.contextCore);
    }
    // Fig. 12 / Section 4.4.3: distinct heads on separate cores.
    EXPECT_EQ(score_cores.size(), 4u);
    EXPECT_EQ(context_cores.size(), 4u);
}

TEST(KvManager, RingAdvancesBetweenSequences)
{
    // 8 score cores, 4 heads: sequence 2 should start where sequence
    // 1 ended (compute/write separation of Section 4.4.3).
    BlockKvManager mgr(kvModel(), pool(8), pool(8, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 64));
    ASSERT_TRUE(mgr.admit(2, 64));
    std::set<std::uint32_t> first, second;
    for (std::uint32_t h = 0; h < 4; ++h) {
        first.insert(mgr.headPlacement(1, h).scoreCore);
        second.insert(mgr.headPlacement(2, h).scoreCore);
    }
    for (const auto c : second)
        EXPECT_EQ(first.count(c), 0u)
            << "consecutive sequences share score core " << c;
}

TEST(KvManager, GrowWithinBlockIsFree)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 64)); // 64 of 128 rows used
    const auto before = mgr.usedBlocks();
    EXPECT_TRUE(mgr.grow(1).ok); // token 65 fits the same block
    EXPECT_EQ(mgr.usedBlocks(), before);
}

TEST(KvManager, GrowRoomAndGrowFastMatchGrowLoop)
{
    // growFast(n) must be exactly n fast-path grow() calls: same
    // block accounting, same room left afterwards.
    BlockKvManager a(kvModel(), pool(4), pool(4, 4, 8, 1));
    BlockKvManager b(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(a.admit(1, 64));
    ASSERT_TRUE(b.admit(1, 64));
    EXPECT_EQ(a.growRoom(1), 64u); // 64 of 128 rows used

    for (int i = 0; i < 40; ++i)
        ASSERT_TRUE(a.grow(1).ok);
    b.growFast(1, 40);

    EXPECT_EQ(a.growRoom(1), b.growRoom(1));
    EXPECT_EQ(a.usedBlocks(), b.usedBlocks());
    EXPECT_EQ(a.growRoom(1), 24u);

    // Exhaust the room: the next grow crosses the block boundary.
    b.growFast(1, b.growRoom(1));
    EXPECT_EQ(b.growRoom(1), 0u);
    const auto before = b.usedBlocks();
    EXPECT_TRUE(b.grow(1).ok);
    EXPECT_GT(b.usedBlocks(), before);
}

TEST(KvManager, GrowAcrossBlockBoundaryAllocates)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 128)); // exactly one full block
    const auto before = mgr.usedBlocks();
    EXPECT_TRUE(mgr.grow(1).ok); // token 129 -> new block per head
    EXPECT_EQ(mgr.usedBlocks(), before + 4u * 2);
}

TEST(KvManager, ReleaseReturnsBlocks)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 200));
    ASSERT_TRUE(mgr.admit(2, 200));
    const auto used = mgr.usedBlocks();
    mgr.release(1);
    EXPECT_LT(mgr.usedBlocks(), used);
    mgr.release(2);
    EXPECT_EQ(mgr.usedBlocks(), 0u);
    EXPECT_FALSE(mgr.resident(1));
}

TEST(KvManager, AdmitNeverEvicts)
{
    // Tiny pool: 4 score cores x 1 xbar x 2 blocks; 4 heads ->
    // each sequence takes 1 block per head per side = whole row.
    BlockKvManager mgr(kvModel(), pool(4, 1, 2), pool(4, 1, 2, 1),
                       128, 0.0);
    ASSERT_TRUE(mgr.admit(1, 64));
    ASSERT_TRUE(mgr.admit(2, 64));
    EXPECT_FALSE(mgr.admit(3, 64));
    // Nobody was evicted.
    EXPECT_TRUE(mgr.resident(1));
    EXPECT_TRUE(mgr.resident(2));
    EXPECT_EQ(mgr.evictionCount(), 0u);
}

TEST(KvManager, GrowEvictsOthersNeverSelf)
{
    BlockKvManager mgr(kvModel(), pool(4, 1, 2), pool(4, 1, 2, 1),
                       128, 0.0);
    ASSERT_TRUE(mgr.admit(1, 128)); // full block each head
    ASSERT_TRUE(mgr.admit(2, 128));
    // Growing 1 needs fresh blocks; pool is full; 2 is the MRU.
    const KvResult r = mgr.grow(1);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.evicted, std::vector<std::uint32_t>{2});
    EXPECT_TRUE(mgr.resident(1));
    EXPECT_FALSE(mgr.resident(2));
    EXPECT_EQ(mgr.evictionCount(), 1u);
}

TEST(KvManager, GrowFailsWhenAlone)
{
    // One core, one crossbar, one block per side: sequence 1 fills it.
    BlockKvManager mgr(kvModel(), pool(4, 1, 1), pool(4, 1, 1, 1),
                       128, 0.0);
    ASSERT_TRUE(mgr.admit(1, 128));
    const KvResult r = mgr.grow(1);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.evicted.empty());
    EXPECT_TRUE(mgr.resident(1)); // the caller decides what to do
}

TEST(KvManager, VSpillCountsWhenHomeXbarFull)
{
    // Context cores have 2 crossbars x 2 blocks. A sequence growing
    // past 2 blocks/head must spill V to the second crossbar.
    BlockKvManager mgr(kvModel(), pool(4, 4, 8), pool(4, 2, 2, 1));
    ASSERT_TRUE(mgr.admit(1, 256)); // 2 V blocks -> home xbar full
    EXPECT_EQ(mgr.vSpills(), 0u);
    ASSERT_TRUE(mgr.grow(1).ok); // 257th token: V spills
    EXPECT_GT(mgr.vSpills(), 0u);
}

TEST(KvManager, VSpillClosedForm)
{
    // A V allocation of b blocks by a head holding h takes
    // home = min(home free, b) on crossbar 0 and spills the rest; every
    // spilled block counts except a new head's first (h == 0, home == 0).
    // Four heads on four context cores, one head per core.
    {
        // Home crossbar left with 1 free block: a 3-block admission
        // keeps 1 home and spills 2 per head.
        BlockKvManager mgr(kvModel(), pool(4), pool(4, 2, 4, 1), 128,
                           0.0);
        ASSERT_TRUE(mgr.admit(1, 384));
        EXPECT_EQ(mgr.vSpills(), 0u);
        ASSERT_TRUE(mgr.admit(2, 384));
        EXPECT_EQ(mgr.vSpills(), 4u * 2);
        mgr.checkInvariants();
    }
    {
        // Full home crossbar: a 2-block admission spills both blocks
        // per head, but the first is exempt.
        BlockKvManager mgr(kvModel(), pool(4), pool(4, 2, 2, 1), 128,
                           0.0);
        ASSERT_TRUE(mgr.admit(1, 256));
        ASSERT_TRUE(mgr.admit(2, 256));
        EXPECT_EQ(mgr.vSpills(), 4u * 1);
        mgr.checkInvariants();
    }
    {
        // Growing past a block boundary with the home crossbar full
        // spills one block per head.
        BlockKvManager mgr(kvModel(), pool(4), pool(4, 2, 2, 1), 128,
                           0.0);
        ASSERT_TRUE(mgr.admit(1, 256));
        ASSERT_TRUE(mgr.grow(1).ok);
        EXPECT_EQ(mgr.vSpills(), 4u * 1);
        mgr.checkInvariants();
    }
}

TEST(KvManager, ThresholdReservesSpace)
{
    // threshold 0.25 -> one block of each 4-block core is held in
    // reserve: a second 2-block sequence no longer fits even though
    // raw space exists.
    BlockKvManager strict(kvModel(), pool(4, 1, 4), pool(4, 1, 4, 1),
                          128, 0.25);
    ASSERT_TRUE(strict.admit(1, 256)); // 2 of 4 blocks per core
    EXPECT_FALSE(strict.admit(2, 256));
    // Growth of the resident sequence still works.
    EXPECT_TRUE(strict.grow(1).ok);

    // With threshold 0 the same admission succeeds.
    BlockKvManager loose(kvModel(), pool(4, 1, 4), pool(4, 1, 4, 1),
                         128, 0.0);
    ASSERT_TRUE(loose.admit(1, 256));
    EXPECT_TRUE(loose.admit(2, 256));
}

TEST(KvManager, DropCoreReleasesVictims)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 64));
    ASSERT_TRUE(mgr.admit(2, 64));
    const auto total_before = mgr.totalBlocks();
    // Drop the score core of sequence 1's head 0.
    const auto hp = mgr.headPlacement(1, 0);
    const CoreCoord coord = mgr.scoreCoord(hp.scoreCore);
    const auto lost = mgr.dropCore(coord);
    EXPECT_FALSE(lost.empty());
    for (const auto id : lost)
        EXPECT_FALSE(mgr.resident(id));
    EXPECT_LT(mgr.totalBlocks(), total_before);
    // Remaining sequences are intact and the pool still admits.
    EXPECT_TRUE(mgr.admit(10, 64));
}

TEST(KvManager, UtilizationTracksLoad)
{
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 512));
    const double u1 = mgr.utilization();
    ASSERT_TRUE(mgr.admit(2, 512));
    EXPECT_GT(mgr.utilization(), u1);
    mgr.release(1);
    mgr.release(2);
    EXPECT_DOUBLE_EQ(mgr.utilization(), 0.0);
}

TEST(KvManager, ReadmittedKeyReusesItsSlot)
{
    // A released key keeps its slot; admitting it again allocates
    // exactly what a fresh key would.
    BlockKvManager mgr(kvModel(), pool(6), pool(6, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(3, 300)); // 3 blocks per head per side
    EXPECT_EQ(mgr.usedBlocks(), 4u * 3 * 2);
    mgr.release(3);
    EXPECT_EQ(mgr.usedBlocks(), 0u);
    EXPECT_FALSE(mgr.resident(3));
    ASSERT_TRUE(mgr.admit(3, 64)); // 1 block per head per side
    EXPECT_EQ(mgr.usedBlocks(), 4u * 1 * 2);
    EXPECT_EQ(mgr.growRoom(3), 64u);
    EXPECT_EQ(mgr.numResident(), 1u);
    mgr.checkInvariants();
    mgr.release(3);
    EXPECT_EQ(mgr.usedBlocks(), 0u);
    EXPECT_EQ(mgr.numResident(), 0u);
}

TEST(KvManager, NonResidentKeyIsCheckedError)
{
    // Every per-sequence call names a resident key; anything else is
    // a caller bug, reported with the key.
    BlockKvManager mgr(kvModel(), pool(6), pool(6, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(2, 64));
    mgr.release(2);
    for (const std::uint32_t key : {2u, 5u, 1000u}) {
        SCOPED_TRACE(key);
        const std::string msg =
            "sequence " + std::to_string(key) + " is not resident";
        EXPECT_DEATH({ mgr.grow(key); }, msg);
        EXPECT_DEATH({ mgr.growRoom(key); }, msg);
        EXPECT_DEATH({ mgr.growFast(key, 0); }, msg);
        EXPECT_DEATH({ mgr.release(key); }, msg);
        EXPECT_DEATH({ mgr.headPlacement(key, 0); }, msg);
    }
    ASSERT_TRUE(mgr.admit(4, 64));
    EXPECT_DEATH({ mgr.admit(4, 64); }, "admit: sequence 4 already "
                                        "resident");
}

TEST(KvManager, MruOrderTracksReleases)
{
    // The intrusive MRU list must keep admission order even as
    // residents leave: after releasing the most recent sequence, the
    // next eviction victim is the previous tail.
    BlockKvManager mgr(kvModel(), pool(4, 1, 4), pool(4, 1, 4, 1),
                       128, 0.0);
    ASSERT_TRUE(mgr.admit(0, 128)); // its newest block is full
    ASSERT_TRUE(mgr.admit(1, 64));
    ASSERT_TRUE(mgr.admit(2, 64));
    ASSERT_TRUE(mgr.admit(3, 64)); // every core is full
    mgr.release(3); // tail leaves voluntarily: 1 block free per core
    KvResult r = mgr.grow(0);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.evicted.empty());
    // Each further block of sequence 0 evicts one resident: 2 (the
    // new tail), then 1.
    for (const std::uint32_t victim : {2u, 1u}) {
        mgr.growFast(0, mgr.growRoom(0));
        r = mgr.grow(0);
        EXPECT_TRUE(r.ok);
        EXPECT_EQ(r.evicted, std::vector<std::uint32_t>{victim});
    }
    EXPECT_EQ(mgr.numResident(), 1u);
}

TEST(KvManager, DropCoreSparesOtherResidents)
{
    // Mid-run pool shrink (PR 9): a resident whose KV lived on the
    // dropped core is released - a later call on its key is a checked
    // error - and surviving residents are untouched.
    BlockKvManager mgr(kvModel(), pool(8), pool(8, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 64));
    ASSERT_TRUE(mgr.admit(2, 64));
    // 8 cores, 4 heads: seq 1 occupies score cores 0-3, seq 2 cores
    // 4-7, so dropping seq 1's head-0 core only evicts seq 1.
    const auto hp = mgr.headPlacement(1, 0);
    const auto lost = mgr.dropCore(mgr.scoreCoord(hp.scoreCore));
    EXPECT_EQ(lost, std::vector<std::uint32_t>{1});
    EXPECT_TRUE(mgr.resident(2));
    EXPECT_EQ(mgr.growRoom(2), 64u);
    EXPECT_DEATH({ mgr.growRoom(1); }, "sequence 1 is not resident");
    EXPECT_DEATH({ mgr.grow(1); }, "sequence 1 is not resident");
    EXPECT_DEATH({ mgr.release(1); }, "sequence 1 is not resident");
}

TEST(KvManager, DropCoreOfAnEmptyCoreReleasesNothing)
{
    // 8 cores, 4 heads: seq 1 sits on score and context cores 0-3, so
    // cores 4-7 hold no head. Dropping one fences it - its blocks
    // leave the pool and no later admission lands on it - but
    // releases nothing, so the capacity epoch stays.
    BlockKvManager mgr(kvModel(), pool(8), pool(8, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 64));
    for (const CoreCoord coord : {CoreCoord{0, 6}, CoreCoord{1, 5}}) {
        const auto epoch = mgr.capacityEpoch();
        const auto total = mgr.totalBlocks();
        const auto used = mgr.usedBlocks();
        EXPECT_TRUE(mgr.dropCore(coord).empty());
        EXPECT_EQ(mgr.capacityEpoch(), epoch);
        EXPECT_EQ(mgr.totalBlocks(), total - 4u * 8u);
        EXPECT_EQ(mgr.usedBlocks(), used);
        EXPECT_TRUE(mgr.resident(1));
        mgr.checkInvariants();
    }
    // A coordinate the pool never held changes nothing.
    const auto total = mgr.totalBlocks();
    EXPECT_TRUE(mgr.dropCore({7, 7}).empty());
    EXPECT_EQ(mgr.totalBlocks(), total);
    // Fenced: the next admissions walk past score core 6 and context
    // core 5.
    for (std::uint32_t key = 2; key < 6; ++key) {
        ASSERT_TRUE(mgr.admit(key, 64));
        for (std::uint32_t h = 0; h < 4; ++h) {
            EXPECT_NE(mgr.headPlacement(key, h).scoreCore, 6u);
            EXPECT_NE(mgr.headPlacement(key, h).contextCore, 5u);
        }
    }
    mgr.checkInvariants();
}

TEST(KvManager, DropCoreFindsTheReAdoptedEntry)
{
    // Drop a coordinate, re-adopt it (a new ring index behind the
    // fenced one), let admissions reach the new entry, then drop the
    // coordinate again: exactly the residents on the new entry are
    // lost, and the new entry is fenced too.
    BlockKvManager mgr(kvModel(), pool(8), pool(8, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 64));
    ASSERT_TRUE(mgr.admit(2, 64));
    const CoreCoord coord =
        mgr.scoreCoord(mgr.headPlacement(1, 0).scoreCore);
    ASSERT_EQ(mgr.dropCore(coord), std::vector<std::uint32_t>{1});
    const std::uint32_t fresh = mgr.adoptCore({coord, 4, 8}, true);
    EXPECT_EQ(fresh, 8u);
    std::vector<std::uint32_t> on_fresh;
    for (std::uint32_t key = 3; key < 7; ++key) {
        ASSERT_TRUE(mgr.admit(key, 64));
        for (std::uint32_t h = 0; h < 4; ++h) {
            if (mgr.headPlacement(key, h).scoreCore == fresh) {
                on_fresh.push_back(key);
                break;
            }
        }
    }
    ASSERT_FALSE(on_fresh.empty());
    const auto residents = mgr.numResident();
    const auto total = mgr.totalBlocks();
    EXPECT_EQ(mgr.dropCore(coord), on_fresh);
    EXPECT_EQ(mgr.numResident(), residents - on_fresh.size());
    EXPECT_EQ(mgr.totalBlocks(), total - 4u * 8u);
    mgr.checkInvariants();
    // Both entries of the coordinate are fenced: a third drop finds
    // no live entry and changes nothing.
    const auto epoch = mgr.capacityEpoch();
    EXPECT_TRUE(mgr.dropCore(coord).empty());
    EXPECT_EQ(mgr.totalBlocks(), total - 4u * 8u);
    EXPECT_EQ(mgr.capacityEpoch(), epoch);
}

TEST(KvManager, CoreBelowReserveRefusesUntilReleasesLiftIt)
{
    // 4 cores x 1 crossbar x 8 blocks per ring, threshold 0.25: a
    // reserve of 2 blocks. Each sequence puts one head on every core,
    // so every core sees the same counts. Growth may take a core below
    // its reserve (the paper's full mark); admissions then wait until
    // releases lift its free blocks to need + reserve.
    BlockKvManager mgr(kvModel(), pool(4, 1, 8), pool(4, 1, 8, 1), 128,
                       0.25);
    ASSERT_TRUE(mgr.admit(1, 128)); // 1 block: 7 free
    ASSERT_TRUE(mgr.admit(2, 128)); // 1 block: 6 free
    ASSERT_TRUE(mgr.admit(3, 256)); // 2 blocks: 4 free
    for (int b = 0; b < 3; ++b) {
        mgr.growFast(3, mgr.growRoom(3));
        const KvResult grown = mgr.grow(3);
        ASSERT_TRUE(grown.ok);
        EXPECT_TRUE(grown.evicted.empty());
    }
    // 1 free block per core, below the reserve of 2.
    EXPECT_EQ(mgr.usedBlocks(), 2u * 4u * 7u);
    EXPECT_FALSE(mgr.admit(4, 64));
    mgr.release(1); // 2 free: still short of need 1 + reserve 2
    EXPECT_FALSE(mgr.admit(4, 64));
    mgr.release(2); // 3 free: need + reserve
    EXPECT_TRUE(mgr.admit(4, 64));
    EXPECT_EQ(mgr.usedBlocks(), 2u * 4u * 6u);
    mgr.checkInvariants();
}

TEST(KvManager, AdoptCoreGrowsCapacity)
{
    // adoptCore grafts an empty core behind the ring cursor: the
    // capacity is immediately visible in totalBlocks() and becomes
    // allocatable once the cursor wraps to it.
    BlockKvManager mgr(kvModel(), pool(4, 1, 2), pool(4, 4, 8, 1),
                       128, 0.0);
    // Score side: 4 cores x 1 xbar x 2 blocks. One 128-token seq
    // takes 1 block per head on each of the 4 cores.
    ASSERT_TRUE(mgr.admit(1, 128));
    ASSERT_TRUE(mgr.admit(2, 128));
    const auto total_before = mgr.totalBlocks();
    // Score ring is now full: a third admission would fail. Graft
    // one core per head (head placement probes at most one head per
    // ring pass onto a given core, so a single graft cannot host a
    // whole sequence while the rest of the ring is full).
    for (std::uint32_t i = 0; i < 4; ++i) {
        const std::uint32_t idx =
            mgr.adoptCore({{0, 100 + i}, 4, 8}, true);
        EXPECT_EQ(idx, 4u + i);
        EXPECT_EQ(mgr.scoreCoord(idx), (CoreCoord{0, 100 + i}));
    }
    EXPECT_EQ(mgr.totalBlocks(), total_before + 4u * 4u * 8u);
    // The grafted cores absorb the next admission.
    EXPECT_TRUE(mgr.admit(3, 128));
    EXPECT_TRUE(mgr.resident(1) && mgr.resident(2));
}

TEST(KvManager, AdoptCoreReAdoptsFencedCoord)
{
    // Drop then re-adopt the same coordinate: the fenced entry stays
    // inert and the fresh entry carries the capacity.
    BlockKvManager mgr(kvModel(), pool(8), pool(8, 4, 8, 1));
    ASSERT_TRUE(mgr.admit(1, 64));
    const CoreCoord coord =
        mgr.scoreCoord(mgr.headPlacement(1, 0).scoreCore);
    const auto total_before = mgr.totalBlocks();
    mgr.dropCore(coord);
    EXPECT_LT(mgr.totalBlocks(), total_before);
    mgr.adoptCore({coord, 4, 8}, true);
    EXPECT_EQ(mgr.totalBlocks(), total_before);
    // Pool still serves admissions with the re-grafted core present.
    EXPECT_TRUE(mgr.admit(2, 64));
}

TEST(KvManager, AdoptCoreRejectsLiveDuplicate)
{
    // Grafting a coordinate that still holds live capacity in the
    // pool is a checked error (it would double-count blocks).
    BlockKvManager mgr(kvModel(), pool(4), pool(4, 4, 8, 1));
    EXPECT_DEATH({ mgr.adoptCore({{0, 0}, 4, 8}, true); },
                 "already live in the pool");
    EXPECT_DEATH({ mgr.adoptCore({{1, 2}, 4, 8}, false); },
                 "already live in the pool");
}

TEST(KvManager, FailedAdmissionLeavesPoolUntouched)
{
    // Two managers see the same admissions; `probed` also takes
    // admissions that fail - some at K, some only at V (its context
    // ring is smaller). If a failed trial left anything behind (a
    // cursor, a block count), later placements would diverge.
    auto make = [] {
        return BlockKvManager(kvModel(), pool(6, 2, 4),
                              pool(5, 2, 4, 1), 128, 0.25);
    };
    BlockKvManager plain = make();
    BlockKvManager probed = make();
    std::uint32_t id = 0;
    std::uint64_t failures = 0;
    auto admit_both = [&](std::uint64_t tokens) {
        const bool ok = probed.admit(id, tokens);
        if (ok) {
            EXPECT_TRUE(plain.admit(id, tokens));
        }
        ++id;
        return ok;
    };
    for (const std::uint64_t tokens : {300, 129, 500, 64, 256, 700, 1}) {
        for (const std::uint64_t large : {900, 1000, 600}) {
            const auto epoch = probed.capacityEpoch();
            const auto used = probed.usedBlocks();
            const auto spills = probed.vSpills();
            if (!admit_both(large)) {
                ++failures;
                EXPECT_EQ(probed.capacityEpoch(), epoch);
                EXPECT_EQ(probed.usedBlocks(), used);
                EXPECT_EQ(probed.vSpills(), spills);
            }
            probed.checkInvariants();
        }
        const std::uint32_t this_id = id++;
        const bool ok = plain.admit(this_id, tokens);
        ASSERT_EQ(probed.admit(this_id, tokens), ok);
        if (ok) {
            for (std::uint32_t h = 0; h < 4; ++h) {
                EXPECT_EQ(probed.headPlacement(this_id, h).scoreCore,
                          plain.headPlacement(this_id, h).scoreCore);
                EXPECT_EQ(probed.headPlacement(this_id, h).contextCore,
                          plain.headPlacement(this_id, h).contextCore);
            }
        }
        EXPECT_EQ(probed.usedBlocks(), plain.usedBlocks());
        EXPECT_EQ(probed.vSpills(), plain.vSpills());
    }
    EXPECT_GT(failures, 0u);
    EXPECT_EQ(probed.admissionCount(), plain.admissionCount());
}

TEST(KvManager, CapacityEpochSkipsOnlyDoomedProbes)
{
    // 4 cores x 1 crossbar x 2 blocks per ring, 4 heads, no reserve:
    // two one-block sequences fill the pool.
    BlockKvManager mgr(kvModel(), pool(4, 1, 2), pool(4, 1, 2, 1), 128,
                       0.0);
    ASSERT_TRUE(mgr.admit(1, 64));
    ASSERT_TRUE(mgr.admit(2, 128));
    const auto epoch = mgr.capacityEpoch();

    EXPECT_FALSE(mgr.admit(3, 64));
    EXPECT_EQ(mgr.admissionProbes(), 3u);
    EXPECT_EQ(mgr.probeFailures(), 1u);
    // Same epoch, same or larger demand: answered without a walk.
    EXPECT_FALSE(mgr.admit(3, 64));
    EXPECT_FALSE(mgr.admit(4, 300));
    EXPECT_EQ(mgr.probesSkipped(), 2u);
    EXPECT_EQ(mgr.admissionProbes(), 3u);
    // In-block growth takes nothing from the pool: the epoch stays.
    ASSERT_TRUE(mgr.grow(1).ok);
    EXPECT_EQ(mgr.capacityEpoch(), epoch);
    EXPECT_FALSE(mgr.admit(3, 64));
    EXPECT_EQ(mgr.probesSkipped(), 3u);

    // A release may make room: the next attempt walks again.
    mgr.release(2);
    EXPECT_GT(mgr.capacityEpoch(), epoch);
    EXPECT_TRUE(mgr.admit(3, 64));
    EXPECT_EQ(mgr.admissionProbes(), 4u);
    EXPECT_EQ(mgr.admissionProbes(),
              mgr.admissionCount() + mgr.probeFailures());

    // adoptCore bumps the epoch too.
    EXPECT_FALSE(mgr.admit(5, 64));
    const auto before = mgr.capacityEpoch();
    for (std::uint32_t i = 0; i < 4; ++i)
        mgr.adoptCore({{0, 50 + i}, 1, 2}, true);
    for (std::uint32_t i = 0; i < 4; ++i)
        mgr.adoptCore({{1, 50 + i}, 1, 2}, false);
    EXPECT_GT(mgr.capacityEpoch(), before);
    EXPECT_TRUE(mgr.admit(5, 64));
    mgr.checkInvariants();
}

/**
 * Naive reference pool: the KV-mapping rules of manager.hh written the
 * plain way - per-crossbar free arrays summed on demand, admission
 * placing head by head and rolling back on failure, MRU eviction from
 * an admission-ordered vector, no capacity epoch. The fuzzer below
 * holds BlockKvManager to it op for op.
 */
class RefPool
{
  public:
    RefPool(std::uint32_t heads, const std::vector<KvCoreInfo> &score,
            const std::vector<KvCoreInfo> &context, double threshold)
        : heads_(heads), threshold_(threshold)
    {
        for (const auto &info : score)
            adopt(info, true);
        for (const auto &info : context)
            adopt(info, false);
    }

    std::uint64_t used = 0;
    std::uint64_t total = 0;
    std::uint64_t evictions = 0;
    std::uint64_t admissions = 0;
    std::uint64_t vSpills = 0;

    bool resident(std::uint32_t id) const { return find(id) != nullptr; }

    std::vector<std::uint32_t> residents() const
    {
        std::vector<std::uint32_t> ids;
        for (const Seq &s : seqs_)
            ids.push_back(s.id);
        std::sort(ids.begin(), ids.end());
        return ids;
    }

    HeadPlacement placement(std::uint32_t id, std::uint32_t h) const
    {
        const Seq &s = *find(id);
        return {s.k[h].core, s.v[h].core};
    }

    std::uint64_t room(std::uint32_t id) const
    {
        return kTokensPerBlock - find(id)->fill;
    }

    bool admit(std::uint32_t id, std::uint64_t tokens)
    {
        const std::uint32_t need =
            tokens == 0 ? 1 : static_cast<std::uint32_t>(
                                      (tokens + kTokensPerBlock - 1) /
                                      kTokensPerBlock);
        Seq s;
        s.id = id;
        s.blocks = need;
        s.fill = tokens == 0 ? 0
                             : static_cast<std::uint32_t>(
                                       tokens - (need - 1) *
                                                    kTokensPerBlock);
        const auto saved = std::make_pair(scoreCursor_, contextCursor_);
        const std::uint64_t saved_spills = vSpills;
        const bool ok =
            place(score_, s.k, scoreCursor_, need, false) &&
            place(context_, s.v, contextCursor_, need, true);
        if (!ok) {
            for (const Head &h : s.k)
                free(score_, h);
            for (const Head &h : s.v)
                free(context_, h);
            std::tie(scoreCursor_, contextCursor_) = saved;
            vSpills = saved_spills;
            return false;
        }
        seqs_.push_back(std::move(s));
        ++admissions;
        return true;
    }

    std::pair<bool, std::vector<std::uint32_t>> grow(std::uint32_t id)
    {
        std::vector<std::uint32_t> evicted;
        if (find(id)->fill < kTokensPerBlock) {
            ++find(id)->fill;
            return {true, evicted};
        }
        auto fits = [&] {
            const Seq &s = *find(id);
            std::map<std::uint32_t, std::uint32_t> k_need, v_need;
            for (const Head &h : s.k)
                ++k_need[h.core];
            for (const Head &h : s.v)
                ++v_need[h.core];
            for (const auto &[c, n] : k_need) {
                if (totalFree(score_[c]) < n)
                    return false;
            }
            for (const auto &[c, n] : v_need) {
                if (totalFree(context_[c]) < n)
                    return false;
            }
            return true;
        };
        while (!fits()) {
            std::uint64_t victim = 0;
            bool any = false;
            for (auto it = seqs_.rbegin(); it != seqs_.rend(); ++it) {
                if (it->id != id) {
                    victim = it->id;
                    any = true;
                    break;
                }
            }
            if (!any)
                return {false, evicted};
            release(victim);
            evicted.push_back(victim);
            ++evictions;
        }
        Seq &s = *find(id);
        for (Head &h : s.k) {
            alloc(score_[h.core], h, s.blocks, 1, false);
            markIfFull(score_[h.core]);
        }
        for (Head &h : s.v) {
            alloc(context_[h.core], h, s.blocks, 1, true);
            markIfFull(context_[h.core]);
        }
        ++s.blocks;
        s.fill = 1;
        return {true, evicted};
    }

    void growFast(std::uint32_t id, std::uint64_t n)
    {
        find(id)->fill += static_cast<std::uint32_t>(n);
    }

    void release(std::uint32_t id)
    {
        const auto it =
            std::find_if(seqs_.begin(), seqs_.end(),
                         [&](const Seq &s) { return s.id == id; });
        for (const Head &h : it->k)
            free(score_, h);
        for (const Head &h : it->v)
            free(context_, h);
        seqs_.erase(it);
    }

    std::vector<std::uint32_t> dropCore(CoreCoord coord)
    {
        std::vector<std::uint32_t> lost;
        for (const Seq &s : seqs_) {
            bool hit = false;
            for (const Head &h : s.k)
                hit |= score_[h.core].coord == coord;
            for (const Head &h : s.v)
                hit |= context_[h.core].coord == coord;
            if (hit)
                lost.push_back(s.id);
        }
        std::sort(lost.begin(), lost.end());
        for (const auto id : lost)
            release(id);
        for (auto *ring : {&score_, &context_}) {
            for (Core &c : *ring) {
                if (!(c.coord == coord))
                    continue;
                total -= totalFree(c);
                std::fill(c.free.begin(), c.free.end(), 0);
                c.full = true;
            }
        }
        return lost;
    }

    std::uint32_t adopt(const KvCoreInfo &info, bool score_duty)
    {
        auto &ring = score_duty ? score_ : context_;
        Core c;
        c.coord = info.coord;
        c.free.assign(info.crossbars, info.blocksPerCrossbar);
        c.cap = info.crossbars * info.blocksPerCrossbar;
        total += c.cap;
        ring.push_back(c);
        return static_cast<std::uint32_t>(ring.size() - 1);
    }

  private:
    static constexpr std::uint32_t kTokensPerBlock = 128;

    struct Core
    {
        CoreCoord coord;
        std::vector<std::uint32_t> free;
        std::uint32_t cap = 0;
        bool full = false;
    };
    struct Head
    {
        std::uint32_t core = 0;
        std::vector<std::uint32_t> perXbar; ///< blocks per crossbar
    };
    struct Seq
    {
        std::uint32_t id = 0;
        std::uint32_t blocks = 0;
        std::uint32_t fill = 0;
        std::vector<Head> k, v;
    };

    std::uint32_t heads_;
    double threshold_;
    std::vector<Core> score_, context_;
    std::uint32_t scoreCursor_ = 0, contextCursor_ = 0;
    std::vector<Seq> seqs_; ///< admission order: back is the MRU

    const Seq *find(std::uint32_t id) const
    {
        for (const Seq &s : seqs_) {
            if (s.id == id)
                return &s;
        }
        return nullptr;
    }
    Seq *find(std::uint32_t id)
    {
        return const_cast<Seq *>(std::as_const(*this).find(id));
    }

    static std::uint32_t totalFree(const Core &c)
    {
        std::uint32_t n = 0;
        for (const auto f : c.free)
            n += f;
        return n;
    }

    void markIfFull(Core &c) const
    {
        if (static_cast<double>(totalFree(c)) < threshold_ * c.cap)
            c.full = true;
    }

    void alloc(Core &c, Head &h, std::uint32_t held, std::uint32_t n,
               bool is_v)
    {
        h.perXbar.resize(c.free.size(), 0);
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint32_t x = 0;
            if (is_v) {
                while (c.free[x] == 0)
                    ++x;
                if (x > 0 && held + i > 0)
                    ++vSpills;
            } else {
                for (std::uint32_t y = 1; y < c.free.size(); ++y) {
                    if (c.free[y] > c.free[x])
                        x = y;
                }
            }
            --c.free[x];
            ++h.perXbar[x];
            ++used;
        }
    }

    void free(std::vector<Core> &ring, const Head &h)
    {
        Core &c = ring[h.core];
        for (std::size_t x = 0; x < h.perXbar.size(); ++x) {
            c.free[x] += h.perXbar[x];
            used -= h.perXbar[x];
        }
        if (totalFree(c) > threshold_ * c.cap)
            c.full = false;
    }

    bool place(std::vector<Core> &ring, std::vector<Head> &heads,
               std::uint32_t &cursor, std::uint32_t need, bool is_v)
    {
        const auto n = static_cast<std::uint32_t>(ring.size());
        std::uint32_t probe = cursor;
        std::uint32_t probes = 0;
        while (heads.size() < heads_ && probes < 2 * n + heads_) {
            Core &c = ring[probe % n];
            ++probes;
            const auto reserve = static_cast<std::uint32_t>(
                    std::ceil(threshold_ * c.cap));
            if (!c.full && totalFree(c) >= need + reserve) {
                Head h;
                h.core = probe % n;
                alloc(c, h, 0, need, is_v);
                markIfFull(c);
                heads.push_back(std::move(h));
            }
            ++probe;
        }
        cursor = probe % n;
        return heads.size() == heads_;
    }
};

class KvFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(KvFuzzTest, MatchesReferencePoolStepByStep)
{
    const std::uint64_t seed = GetParam();
    SCOPED_TRACE("replay with seed " + std::to_string(seed));
    Rng rng(seed);
    // Ring sizes around the head count, so heads sometimes share a
    // core; few crossbars and blocks, so the pool fills and thrashes.
    const auto score_cores =
        static_cast<std::uint32_t>(rng.uniformInt(2, 7));
    const auto context_cores =
        static_cast<std::uint32_t>(rng.uniformInt(2, 7));
    const auto xbars = static_cast<std::uint32_t>(rng.uniformInt(1, 4));
    const auto blocks = static_cast<std::uint32_t>(rng.uniformInt(1, 8));
    const double threshold = std::vector<double>{0.0, 0.1, 0.3}
            [rng.uniformInt(0, 2)];
    const auto score = pool(score_cores, xbars, blocks, 0);
    const auto context = pool(context_cores, xbars, blocks, 1);
    BlockKvManager mgr(kvModel(), score, context, 128, threshold);
    RefPool ref(4, score, context, threshold);
    std::uint32_t next_col = 100;
    std::uint64_t last_failed_tokens = 0;

    for (int step = 0; step < 400; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const std::vector<std::uint32_t> ids = ref.residents();
        const auto any_resident = [&] {
            return ids[rng.uniformInt(0, ids.size() - 1)];
        };
        const auto draw_key = [&] {
            return static_cast<std::uint32_t>(rng.uniformInt(0, 39));
        };
        const std::uint64_t op = rng.uniformInt(0, 99);
        if (op < 35 || ids.empty()) {
            // Admission (never evicts); sometimes the exact retry of
            // the last failure (the capacity-epoch skip). Keys come
            // back after release, so slots are reused.
            std::uint32_t id = draw_key();
            while (ref.resident(id))
                id = draw_key();
            const std::uint64_t tokens =
                op < 10 && last_failed_tokens ? last_failed_tokens
                                              : rng.uniformInt(0, 600);
            const bool ok = ref.admit(id, tokens);
            ASSERT_EQ(mgr.admit(id, tokens), ok);
            last_failed_tokens = ok ? 0 : tokens;
        } else if (op < 70) {
            const std::uint32_t id = any_resident();
            const auto [ok, evicted] = ref.grow(id);
            const KvResult got = mgr.grow(id);
            ASSERT_EQ(got.ok, ok);
            ASSERT_EQ(got.evicted, evicted);
            if (!ok) { // the engine's evict-self path
                ref.release(id);
                mgr.release(id);
            }
        } else if (op < 80) {
            const std::uint32_t id = any_resident();
            ASSERT_EQ(mgr.growRoom(id), ref.room(id));
            const std::uint64_t n = rng.uniformInt(0, ref.room(id));
            ref.growFast(id, n);
            mgr.growFast(id, n);
        } else if (op < 92) {
            const std::uint32_t id = any_resident();
            ref.release(id);
            mgr.release(id);
        } else if (op < 97) {
            const bool in_score = rng.bernoulli(0.5);
            const auto c = static_cast<std::uint32_t>(
                    rng.uniformInt(0, (in_score ? score_cores
                                                : context_cores) - 1));
            const CoreCoord coord =
                in_score ? mgr.scoreCoord(c) : mgr.contextCoord(c);
            ASSERT_EQ(mgr.dropCore(coord), ref.dropCore(coord));
        } else {
            const bool duty = rng.bernoulli(0.5);
            const KvCoreInfo info{{duty ? 0u : 1u, next_col++}, xbars,
                                  blocks};
            ASSERT_EQ(mgr.adoptCore(info, duty), ref.adopt(info, duty));
        }

        mgr.checkInvariants();
        ASSERT_EQ(mgr.usedBlocks(), ref.used);
        ASSERT_EQ(mgr.totalBlocks(), ref.total);
        ASSERT_EQ(mgr.evictionCount(), ref.evictions);
        ASSERT_EQ(mgr.admissionCount(), ref.admissions);
        ASSERT_EQ(mgr.vSpills(), ref.vSpills);
        ASSERT_EQ(mgr.admissionProbes(),
                  mgr.admissionCount() + mgr.probeFailures());
        const std::vector<std::uint32_t> now = ref.residents();
        ASSERT_EQ(mgr.numResident(), now.size());
        for (const auto id : now) {
            ASSERT_TRUE(mgr.resident(id));
            ASSERT_EQ(mgr.growRoom(id), ref.room(id));
            for (std::uint32_t h = 0; h < 4; ++h) {
                ASSERT_EQ(mgr.headPlacement(id, h).scoreCore,
                          ref.placement(id, h).scoreCore);
                ASSERT_EQ(mgr.headPlacement(id, h).contextCore,
                          ref.placement(id, h).contextCore);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 41));

/** Property: admit/release round-trips leave zero residue. */
class KvRoundTripTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(KvRoundTripTest, NoLeakedBlocks)
{
    BlockKvManager mgr(kvModel(), pool(6), pool(6, 4, 8, 1));
    const std::uint64_t tokens = GetParam();
    ASSERT_TRUE(mgr.admit(1, tokens));
    for (int i = 0; i < 50; ++i)
        ASSERT_TRUE(mgr.grow(1).ok);
    mgr.release(1);
    EXPECT_EQ(mgr.usedBlocks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(TokenSweep, KvRoundTripTest,
                         ::testing::Values(1, 64, 127, 128, 129, 500,
                                           1000));

} // namespace
} // namespace ouro
