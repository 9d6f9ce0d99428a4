/**
 * @file
 * Property tests for the dense uvm::BlockStore: a long random
 * register/unregister/access/LRU op sequence is mirrored against a
 * trivially-correct reference model (ordered map + std::list), with
 * full-state comparison and the store's own invariant audit
 * interleaved; a seeded op sequence checking the victim index
 * (lruFirstUnpinned/lruFirstEvictable) against the linear LRU walks
 * it replaced after every step; plus targeted tests of relabelling
 * (holes included), the pinned count, free-slot reuse, the rank
 * audit and the registration panics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/rng.hh"
#include "sim/validate.hh"
#include "uvm/block_store.hh"

using namespace deepum;
using namespace deepum::uvm;

namespace {

constexpr mem::BlockId kBase = mem::kUmBase / mem::kBlockBytes;
constexpr std::uint64_t kAreas = 48;   ///< disjoint candidate slots
constexpr std::uint64_t kMaxRun = 24;  ///< longest run per area

/** Base block of candidate area @p a (areas can never overlap). */
constexpr mem::BlockId
areaBase(std::uint64_t a)
{
    return kBase + a * 2 * kMaxRun;
}

/** The trivially-correct shadow of everything BlockStore tracks. */
struct RefModel {
    /** area -> [first, end) of its registered run */
    std::map<std::uint64_t, std::pair<mem::BlockId, mem::BlockId>> runs;
    /** registered block -> last migrateSeq written through at() */
    std::map<mem::BlockId, std::uint64_t> state;
    std::list<mem::BlockId> lru;
    std::set<mem::BlockId> inLru;

    bool
    registered(mem::BlockId b) const
    {
        return state.count(b) != 0;
    }
};

/** Run the store's own audit; a violation panics (fails the test). */
void
audit(const BlockStore &st)
{
    sim::CheckContext ctx("BlockStore", "test",
                          [&](std::ostream &os) { st.dumpState(os); });
    st.checkInvariants(ctx);
    EXPECT_GT(ctx.checks(), 0u);
}

/** Compare every observable store property against the model. */
void
compareAll(const BlockStore &st, const RefModel &m)
{
    ASSERT_EQ(st.size(), m.state.size());
    ASSERT_EQ(st.lruSize(), m.lru.size());

    // Lookup agreement, including misses one past every run end.
    for (const auto &[area, run] : m.runs) {
        for (mem::BlockId b = run.first; b != run.second; ++b) {
            BlockIndex i = st.find(b);
            ASSERT_NE(i, kNoBlockIndex) << "block " << b;
            ASSERT_EQ(st.idAt(i), b);
            ASSERT_EQ(st.at(i).migrateSeq, m.state.at(b));
        }
        ASSERT_FALSE(st.contains(run.second));
        ASSERT_FALSE(st.contains(run.first - 1));
    }

    // Whole-store iteration yields exactly the model's keys, in
    // BlockId order.
    std::vector<mem::BlockId> seen;
    st.forEachBlock(
        [&](mem::BlockId b, BlockIndex i) {
            ASSERT_EQ(st.idAt(i), b);
            seen.push_back(b);
        });
    ASSERT_EQ(seen.size(), m.state.size());
    auto it = m.state.begin();
    for (std::size_t k = 0; k < seen.size(); ++k, ++it)
        ASSERT_EQ(seen[k], it->first);

    // LRU order agreement.
    std::vector<mem::BlockId> lruGot;
    for (mem::BlockId b : st.lruOrder())
        lruGot.push_back(b);
    std::vector<mem::BlockId> lruWant(m.lru.begin(), m.lru.end());
    ASSERT_EQ(lruGot, lruWant);

    audit(st);
}

TEST(BlockStore, RandomOpsMatchReferenceModel)
{
    BlockStore st;
    RefModel m;
    sim::Rng rng(2023);
    std::uint64_t nextSeq = 1;

    for (int step = 0; step < 6000; ++step) {
        std::uint64_t op = rng.below(100);
        std::uint64_t area = rng.below(kAreas);

        if (op < 20) {
            // Register a run in a free area.
            if (m.runs.count(area) != 0)
                continue;
            mem::BlockId first = areaBase(area);
            mem::BlockId end = first + 1 + rng.below(kMaxRun);
            BlockIndex base = st.registerRun(first, end);
            ASSERT_NE(base, kNoBlockIndex);
            m.runs[area] = {first, end};
            for (mem::BlockId b = first; b != end; ++b)
                m.state[b] = 0;
        } else if (op < 32) {
            // Unregister a run (unlinking its blocks first, as the
            // driver does before dropping a range).
            auto it = m.runs.find(area);
            if (it == m.runs.end())
                continue;
            auto [first, end] = it->second;
            for (mem::BlockId b = first; b != end; ++b) {
                if (m.inLru.erase(b) != 0) {
                    st.lruErase(st.find(b));
                    m.lru.remove(b);
                }
                m.state.erase(b);
            }
            st.unregisterRun(first, end);
            m.runs.erase(it);
        } else if (op < 70) {
            // Probe a random block of the area; write through the
            // record when it is live.
            mem::BlockId b = areaBase(area) + rng.below(2 * kMaxRun);
            BlockIndex i = st.find(b);
            ASSERT_EQ(i != kNoBlockIndex, m.registered(b))
                << "block " << b;
            if (i != kNoBlockIndex) {
                st.at(i).migrateSeq = nextSeq;
                m.state[b] = nextSeq;
                ++nextSeq;
            }
        } else if (op < 85) {
            // Link an unlinked block at the MRU end.
            auto it = m.runs.find(area);
            if (it == m.runs.end())
                continue;
            auto [first, end] = it->second;
            mem::BlockId b = first + rng.below(end - first);
            if (m.inLru.count(b) != 0)
                continue;
            st.lruPushBack(st.find(b));
            m.lru.push_back(b);
            m.inLru.insert(b);
        } else if (op < 95) {
            // Unlink a linked block.
            auto it = m.runs.find(area);
            if (it == m.runs.end())
                continue;
            auto [first, end] = it->second;
            mem::BlockId b = first + rng.below(end - first);
            if (m.inLru.count(b) == 0)
                continue;
            st.lruErase(st.find(b));
            m.lru.remove(b);
            m.inLru.erase(b);
        } else {
            compareAll(st, m);
        }
    }
    compareAll(st, m);
}

/** The pre-index victim walks: first LRU slot passing @p ok. */
template <typename Pred>
BlockIndex
walkFirst(const BlockStore &st, Pred ok)
{
    for (mem::BlockId b : st.lruOrder()) {
        BlockIndex i = st.find(b);
        if (ok(st.at(i)))
            return i;
    }
    return kNoBlockIndex;
}

/** The LRU as BlockIds, oldest migration first. */
std::vector<mem::BlockId>
lruIds(const BlockStore &st)
{
    std::vector<mem::BlockId> ids;
    for (mem::BlockId b : st.lruOrder())
        ids.push_back(b);
    return ids;
}

/** Both victim-index queries against the linear LRU walks. */
void
compareVictimIndex(const BlockStore &st)
{
    ASSERT_EQ(st.lruFirstUnpinned(),
              walkFirst(st, [](const BlockInfo &bi) {
                  return !bi.pinned;
              }));
    ASSERT_EQ(st.lruFirstEvictable(),
              walkFirst(st, [](const BlockInfo &bi) {
                  return !bi.pinned && !bi.held;
              }));
}

TEST(BlockStore, VictimIndexMatchesLinearWalk)
{
    BlockStore st;
    sim::Rng rng(1251);
    std::set<BlockIndex> linked;
    std::map<std::uint64_t, std::pair<mem::BlockId, mem::BlockId>> runs;
    std::size_t heldSkips = 0; ///< steps where a held block was skipped
    std::size_t allHeld = 0;   ///< steps where every candidate was held

    /** A random registered slot, or kNoBlockIndex when none. */
    auto pickSlot = [&]() -> BlockIndex {
        if (runs.empty())
            return kNoBlockIndex;
        auto it = runs.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.below(runs.size())));
        auto [first, end] = it->second;
        return st.find(first + rng.below(end - first));
    };

    for (int step = 0; step < 20000; ++step) {
        // Phases sweep the held share from none to all, so runs of
        // "everything held" (the empty evictable query) occur.
        std::uint64_t holdPct = (step / 1000) % 2 == 0
                                    ? 100 * ((step / 2000) % 5) / 4
                                    : 50;
        std::uint64_t op = rng.below(100);
        if (op < 4) {
            // Few areas keep the resident set small enough for the
            // hold phases to cover it.
            std::uint64_t area = rng.below(8);
            if (runs.count(area) != 0)
                continue;
            mem::BlockId first = areaBase(area);
            mem::BlockId end = first + 1 + rng.below(kMaxRun);
            st.registerRun(first, end);
            runs[area] = {first, end};
        } else if (op < 6) {
            if (runs.empty())
                continue;
            auto it = runs.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(
                                 rng.below(runs.size())));
            auto [first, end] = it->second;
            for (mem::BlockId b = first; b != end; ++b) {
                BlockIndex i = st.find(b);
                if (linked.erase(i) != 0)
                    st.lruErase(i);
            }
            st.unregisterRun(first, end);
            runs.erase(it);
        } else if (op < 40) {
            // Migrate in (or re-migrate: requeue at the MRU end).
            BlockIndex i = pickSlot();
            if (i == kNoBlockIndex)
                continue;
            if (linked.count(i) != 0)
                st.lruErase(i);
            st.lruPushBack(i);
            linked.insert(i);
        } else if (op < 55) {
            // Evict.
            BlockIndex i = pickSlot();
            if (i == kNoBlockIndex || linked.erase(i) == 0)
                continue;
            st.lruErase(i);
        } else if (op < 70) {
            BlockIndex i = pickSlot();
            if (i != kNoBlockIndex)
                st.setPinned(i, rng.below(100) < 15);
        } else if (op < 99) {
            // Mostly resident targets, so the all-held phases get
            // there; hold bits on non-resident slots must persist
            // through a later migration, so those are hit too.
            BlockIndex i = kNoBlockIndex;
            if (!linked.empty() && rng.below(100) < 70) {
                auto it = linked.begin();
                std::advance(it, static_cast<std::ptrdiff_t>(
                                     rng.below(linked.size())));
                i = *it;
            } else {
                i = pickSlot();
            }
            if (i != kNoBlockIndex)
                st.setHeld(i, rng.below(100) < holdPct);
        } else {
            st.relabel();
        }
        compareVictimIndex(st);
        if (step % 64 == 0)
            audit(st);
        BlockIndex unpinned = st.lruFirstUnpinned();
        BlockIndex evictable = st.lruFirstEvictable();
        if (unpinned != evictable)
            ++heldSkips;
        if (unpinned != kNoBlockIndex && evictable == kNoBlockIndex)
            ++allHeld;
    }
    audit(st);
    // The sequence must reach the interesting states, not only the
    // trivial ones.
    EXPECT_GT(heldSkips, 1000u);
    EXPECT_GT(allHeld, 100u);
}

TEST(BlockStore, RelabelKeepsVictimsAndSizesToResidentSet)
{
    BlockStore st;
    BlockIndex base = st.registerRun(kBase, kBase + 8);
    for (BlockIndex i = 0; i < 8; ++i)
        st.lruPushBack(base + i);
    st.setPinned(base, true);
    st.setHeld(base + 1, true);
    EXPECT_EQ(st.lruFirstUnpinned(), base + 1);
    EXPECT_EQ(st.lruFirstEvictable(), base + 2);
    // Churn far past the 64-rank minimum: every requeue takes a fresh
    // rank, so the store relabels many times along the way.
    for (int n = 0; n < 1000; ++n) {
        BlockIndex i = base + 2 + static_cast<BlockIndex>(n % 6);
        st.lruErase(i);
        st.lruPushBack(i);
    }
    // Erase two blocks so the relabel compacts over holes, one of
    // them the oldest of the churned blocks.
    std::vector<mem::BlockId> want = lruIds(st);
    ASSERT_EQ(want.size(), 8u);
    mem::BlockId oldest = want[2];
    mem::BlockId middle = want[5];
    st.lruErase(st.find(oldest));
    st.lruErase(st.find(middle));
    std::erase(want, oldest);
    std::erase(want, middle);
    EXPECT_EQ(lruIds(st), want);
    st.relabel();
    EXPECT_EQ(lruIds(st), want);
    EXPECT_EQ(st.lruFirstUnpinned(), base + 1);
    EXPECT_EQ(st.lruFirstEvictable(), st.find(want[2]));
    EXPECT_EQ(st.lruFirstEvictable(), walkFirst(st, [](const BlockInfo &bi) {
                  return !bi.pinned && !bi.held;
              }));
    // Six resident blocks relabel into the 64-rank minimum, ranked
    // 0..5 in LRU order.
    for (std::size_t k = 0; k < want.size(); ++k)
        EXPECT_EQ(st.at(st.find(want[k])).lruRank, k);
    std::ostringstream os;
    st.dumpState(os);
    EXPECT_NE(os.str().find("ranks=64 nextRank=6"), std::string::npos)
        << os.str();
    audit(st);
    // The compacted array keeps taking pushes at the MRU end.
    st.lruPushBack(st.find(oldest));
    want.push_back(oldest);
    EXPECT_EQ(lruIds(st), want);
    audit(st);
}

TEST(BlockStore, PinnedCountIgnoresRepeatsAndDropsOnUnregister)
{
    BlockStore st;
    BlockIndex a = st.registerRun(kBase, kBase + 4);
    BlockIndex b = st.registerRun(kBase + 10, kBase + 12);
    st.lruPushBack(a);
    st.setPinned(a, true);
    st.setPinned(a, true); // repeated: no second count
    st.setPinned(a + 1, true); // not resident: still counted
    st.setPinned(b, true);
    EXPECT_EQ(st.pinnedCount(), 3u);
    st.setPinned(a + 2, false); // clearing a clear bit: no-op
    EXPECT_EQ(st.pinnedCount(), 3u);
    st.setPinned(b, false);
    st.setPinned(b, false);
    EXPECT_EQ(st.pinnedCount(), 2u);
    audit(st);
    // Unregistering a run with pinned blocks drops their pins.
    st.setPinned(b + 1, true);
    EXPECT_EQ(st.pinnedCount(), 3u);
    st.unregisterRun(kBase + 10, kBase + 12);
    EXPECT_EQ(st.pinnedCount(), 2u);
    st.lruErase(a);
    st.unregisterRun(kBase, kBase + 4);
    EXPECT_EQ(st.pinnedCount(), 0u);
    audit(st);
}

TEST(BlockStore, UnregisterReusesSlabSlots)
{
    BlockStore st;
    st.registerRun(kBase, kBase + 8);
    st.registerRun(kBase + 100, kBase + 108);
    std::size_t slab = st.slabSize();

    // Drop the first run and register an equal-sized one elsewhere:
    // the freed slots must be reused, not appended. Each step moves
    // the layout version, since a find() cached across it would now
    // name another block's slot (or a freed one).
    std::uint64_t layout = st.layoutVersion();
    st.unregisterRun(kBase, kBase + 8);
    EXPECT_NE(st.layoutVersion(), layout);
    layout = st.layoutVersion();
    BlockIndex i = st.registerRun(kBase + 200, kBase + 208);
    EXPECT_NE(st.layoutVersion(), layout);
    EXPECT_EQ(st.slabSize(), slab);
    EXPECT_EQ(i, 0u); // first-fit: the lowest freed slot

    // A larger run cannot fit the 8-slot hole and must grow the slab.
    st.registerRun(kBase + 300, kBase + 312);
    EXPECT_EQ(st.slabSize(), slab + 12);
    audit(st);
}

TEST(BlockStore, FreshRecordsAfterReuse)
{
    BlockStore st;
    BlockIndex i = st.registerRun(kBase, kBase + 2);
    st.at(i).migrateSeq = 42;
    st.at(i).pages = 17;
    st.unregisterRun(kBase, kBase + 2);

    // The reused slot must come back default-constructed, not with
    // the previous tenant's state.
    BlockIndex j = st.registerRun(kBase + 50, kBase + 52);
    EXPECT_EQ(i, j);
    EXPECT_EQ(st.at(j).migrateSeq, 0u);
    EXPECT_EQ(st.at(j).pages, 0u);
    EXPECT_EQ(st.at(j).lruRank, kNoLruRank);
    audit(st);
}

TEST(BlockStoreDeath, PinnedBitWrittenPastTheIndexIsCaught)
{
    BlockStore st;
    BlockIndex i = st.registerRun(kBase, kBase + 2);
    st.lruPushBack(i);
    st.lruPushBack(i + 1);
    // Written around setPinned: the bitmaps still offer the slot.
    st.at(i).pinned = true;
    EXPECT_DEATH(audit(st), "unpinned bitmap disagrees");
}

TEST(BlockStoreDeath, RankWrittenPastTheArrayIsCaught)
{
    BlockStore st;
    BlockIndex i = st.registerRun(kBase, kBase + 2);
    st.lruPushBack(i);
    st.lruPushBack(i + 1);
    // Both records claim rank 0: rank 1 no longer names its slot's
    // rank, and the audit must see it from the array side.
    st.at(i + 1).lruRank = 0;
    EXPECT_DEATH(audit(st), "rank 1 names slot 1, whose rank is 0");
}

TEST(BlockStoreDeath, OverlappingRegisterPanics)
{
    BlockStore st;
    st.registerRun(kBase, kBase + 4);
    EXPECT_DEATH(st.registerRun(kBase + 3, kBase + 6),
                 "already registered");
}

TEST(BlockStoreDeath, UnknownUnregisterPanics)
{
    BlockStore st;
    EXPECT_DEATH(st.unregisterRun(kBase, kBase + 1),
                 "unregisterRange: unknown block");
}

TEST(BlockStoreDeath, PartialUnregisterPanics)
{
    BlockStore st;
    st.registerRun(kBase, kBase + 4);
    EXPECT_DEATH(st.unregisterRun(kBase, kBase + 2),
                 "is not a registered run");
}

} // namespace
