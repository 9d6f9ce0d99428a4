/**
 * @file
 * Property tests for the dense correlation engine, mirroring
 * tests/test_block_store.cpp: long random op sequences against
 * trivially-correct reference models (maps and plain vectors), with
 * the tables' own invariant audits interleaved. Exercises the parts
 * the slab layout makes subtle — set-conflict LRU replacement, MRU
 * reordering at successor capacity, range erasure compaction, the
 * occupied-way bitmap behind the fresh-way sweep — plus the SuccView
 * lifetime contract and the allocation-free guarantee of the
 * steady-state record/lookup paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/block_correlation_table.hh"
#include "core/exec_correlation_table.hh"
#include "sim/rng.hh"
#include "sim/validate.hh"

using namespace deepum;
using namespace deepum::core;

namespace deepum::core {

/** Seeds corruption into a table's private state (death tests). */
struct BlockCorrelationTableTestAccess {
    static void
    flipOccupied(BlockCorrelationTable &t, std::size_t way)
    {
        t.occupied_[way / 64] ^= std::uint64_t{1} << (way % 64);
    }
};

} // namespace deepum::core

// successors() must hand out a value-type view, never a reference
// into table internals (the former dangling-reference footgun).
static_assert(
    !std::is_reference_v<decltype(std::declval<const BlockCorrelationTable &>()
                                      .successors(mem::BlockId{}))>,
    "successors() must return a view by value");

namespace {

// ---------------------------------------------------------------
// Global allocation counter, for the zero-allocation steady-state
// tests. Counting is toggled so gtest's own bookkeeping between
// tests never pollutes a measurement window.
// ---------------------------------------------------------------

std::size_t g_allocs = 0;
bool g_count_allocs = false;

struct AllocWindow {
    AllocWindow()
    {
        g_allocs = 0;
        g_count_allocs = true;
    }
    ~AllocWindow() { g_count_allocs = false; }
    std::size_t count() const { return g_allocs; }
};

} // namespace

// The replacements stay out of line: inlined into a container's
// deallocation, free() would meet a pointer gcc traced to operator
// new and warn (-Wmismatched-new-delete), although this file pairs
// malloc with free throughout.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (g_count_allocs)
        ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t n)
{
    if (g_count_allocs)
        ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

/** SplitMix64 avalanche — the table's published set-mapping spec. */
std::uint64_t
mix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Run the table's own audit; a violation fails the test. */
void
audit(const BlockCorrelationTable &t)
{
    sim::CheckContext ctx("BlockCorrelationTable", "test",
                          [&](std::ostream &os) { t.dumpState(os); });
    t.checkInvariants(ctx);
    EXPECT_GT(ctx.checks(), 0u);
}

void
auditExec(const ExecCorrelationTable &t)
{
    sim::CheckContext ctx("ExecCorrelationTable", "test",
                          [&](std::ostream &os) { t.dumpState(os); });
    t.checkInvariants(ctx);
    EXPECT_GT(ctx.checks(), 0u);
}

// ---------------------------------------------------------------
// Block-table reference model: one entry list per set, replicating
// the documented policies (first-invalid-else-strict-LRU victim,
// MRU successor insert with drop-at-capacity) over plain vectors.
// ---------------------------------------------------------------

struct RefEntry {
    mem::BlockId tag;
    std::uint64_t lastUse;
    std::uint32_t lastEpoch;
    std::vector<mem::BlockId> succs; ///< MRU first
};

struct RefTable {
    BlockTableConfig cfg;
    std::vector<std::vector<RefEntry>> sets; ///< each <= cfg.assoc
    std::uint64_t clock = 0;
    std::uint32_t epoch = 0;

    explicit RefTable(const BlockTableConfig &c)
        : cfg(c), sets(c.numRows)
    {}

    std::size_t
    setOf(mem::BlockId b) const
    {
        return static_cast<std::size_t>(mix(b) % cfg.numRows);
    }

    RefEntry *
    find(mem::BlockId b)
    {
        for (RefEntry &e : sets[setOf(b)])
            if (e.tag == b)
                return &e;
        return nullptr;
    }

    void
    record(mem::BlockId prev, mem::BlockId next)
    {
        auto &set = sets[setOf(prev)];
        RefEntry *e = find(prev);
        if (e == nullptr) {
            if (set.size() < cfg.assoc) {
                // First invalid way wins: invalid ways are exactly
                // the tail positions the dense table fills in order.
                set.push_back(RefEntry{prev, 0, 0, {}});
                e = &set.back();
            } else {
                // Strict-< LRU: the earliest minimum survives ties.
                e = &set[0];
                for (RefEntry &c : set)
                    if (c.lastUse < e->lastUse)
                        e = &c;
                e->tag = prev;
                e->succs.clear();
            }
        }
        e->lastUse = ++clock;
        e->lastEpoch = epoch;
        auto it = std::find(e->succs.begin(), e->succs.end(), next);
        if (it != e->succs.end())
            e->succs.erase(it);
        else if (e->succs.size() == cfg.numSuccs)
            e->succs.pop_back(); // drop LRU at capacity
        e->succs.insert(e->succs.begin(), next);
    }

    /** visit(): refresh the entry's use and epoch stamps. */
    void
    visit(mem::BlockId b)
    {
        if (RefEntry *e = find(b)) {
            e->lastUse = ++clock;
            e->lastEpoch = epoch;
        }
    }

    /** Tags touched within the last @p window epochs, any order. */
    std::vector<mem::BlockId>
    freshTags(std::uint32_t window) const
    {
        std::vector<mem::BlockId> out;
        for (const auto &set : sets)
            for (const RefEntry &e : set)
                if (e.lastEpoch + window >= epoch)
                    out.push_back(e.tag);
        std::sort(out.begin(), out.end());
        return out;
    }

    void
    erase(mem::BlockId b)
    {
        auto &set = sets[setOf(b)];
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i].tag == b) {
                set.erase(set.begin() + i);
                return;
            }
        }
    }

    void
    eraseRange(mem::BlockId first, mem::BlockId end)
    {
        auto dead = [&](mem::BlockId b) {
            return b >= first && b < end;
        };
        for (auto &set : sets) {
            for (std::size_t i = set.size(); i-- > 0;) {
                if (dead(set[i].tag)) {
                    set.erase(set.begin() + i);
                    continue;
                }
                auto &sc = set[i].succs;
                sc.erase(std::remove_if(sc.begin(), sc.end(), dead),
                         sc.end());
            }
        }
    }

    std::size_t
    entryCount() const
    {
        std::size_t n = 0;
        for (const auto &set : sets)
            n += set.size();
        return n;
    }
};

/** Compare every block the model knows (and misses) to the table. */
void
compareAll(const BlockCorrelationTable &t, const RefTable &m,
           mem::BlockId universe)
{
    ASSERT_EQ(t.entryCount(), m.entryCount());
    for (mem::BlockId b = 0; b < universe; ++b) {
        const auto *e =
            const_cast<RefTable &>(m).find(b);
        SuccView got = t.successors(b);
        if (e == nullptr) {
            ASSERT_TRUE(got.empty()) << "block " << b;
            continue;
        }
        ASSERT_EQ(got.size(), e->succs.size()) << "block " << b;
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], e->succs[i]) << "block " << b
                                           << " slot " << i;
    }
    audit(t);
}

TEST(CorrelationDense, BlockTableMatchesReferenceModel)
{
    // Tiny geometry so set conflicts and successor capacity are hit
    // constantly: 4 sets x 2 ways, 3 successor slots, 64 blocks.
    BlockTableConfig cfg{4, 2, 3};
    constexpr mem::BlockId kUniverse = 64;
    BlockCorrelationTable t(cfg);
    RefTable m(cfg);
    sim::Rng rng(2024);

    for (int step = 0; step < 8000; ++step) {
        std::uint64_t op = rng.below(100);
        if (op < 80) {
            mem::BlockId prev = rng.below(kUniverse);
            mem::BlockId next = rng.below(kUniverse);
            t.record(prev, next);
            m.record(prev, next);
        } else if (op < 90) {
            mem::BlockId b = rng.below(kUniverse);
            t.erase(b);
            m.erase(b);
        } else {
            mem::BlockId first = rng.below(kUniverse);
            mem::BlockId end =
                std::min<mem::BlockId>(first + 1 + rng.below(8),
                                       kUniverse);
            t.eraseRange(first, end);
            m.eraseRange(first, end);
        }
        if (step % 97 == 0)
            compareAll(t, m, kUniverse);
    }
    compareAll(t, m, kUniverse);
}

TEST(CorrelationDense, SetConflictEvictsStrictLru)
{
    // One set, one way: every distinct tag evicts the previous one,
    // and the survivor's successors never leak into the newcomer.
    BlockTableConfig cfg{1, 1, 4};
    BlockCorrelationTable t(cfg);
    t.record(10, 1);
    t.record(10, 2);
    ASSERT_EQ(t.successors(10).size(), 2u);
    t.record(20, 7); // conflict: evicts tag 10
    EXPECT_TRUE(t.successors(10).empty());
    auto s = t.successors(20);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s[0], 7u);
    audit(t);
}

TEST(CorrelationDense, MruReorderAtCapacityMatchesModel)
{
    // Fill to capacity, then re-record the LRU successor: it must
    // rotate to MRU without growing, exactly like the model.
    BlockTableConfig cfg{2, 2, 3};
    BlockCorrelationTable t(cfg);
    RefTable m(cfg);
    for (mem::BlockId n : {1, 2, 3, 4, 2, 1, 9}) {
        t.record(100, n);
        m.record(100, n);
    }
    auto got = t.successors(100);
    const auto &want = m.find(100)->succs;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "slot " << i;
    EXPECT_EQ(got.size(), 3u); // capped at numSuccs
    audit(t);
}

TEST(CorrelationDense, SuccViewStaysValidAcrossRecord)
{
    // The view aliases the table's stable slab: records into the
    // same entry are *observed* by a held view (same storage), and
    // the data pointer never moves.
    BlockTableConfig cfg{4, 2, 4};
    BlockCorrelationTable t(cfg);
    t.record(5, 1);
    SuccView v = t.successors(5);
    ASSERT_EQ(v.size(), 1u);
    const mem::BlockId *stable = v.begin();
    // Churn block 5's own entry (MRU rotation at capacity) and one
    // other entry; the 2-way set fits both tags, so no eviction.
    for (mem::BlockId n = 2; n < 100; ++n)
        t.record(n % 2 ? 5 : 6, n);
    t.record(5, 42);
    SuccView after = t.successors(5);
    EXPECT_EQ(after.begin(), stable); // storage never moved
    EXPECT_EQ(after.front(), 42u);    // and the view sees updates
    EXPECT_EQ(v.begin()[0], 42u);
}

TEST(CorrelationDense, SteadyStateRecordPathDoesNotAllocate)
{
    BlockTableConfig cfg{64, 2, 4};
    BlockCorrelationTable t(cfg); // slabs sized here, once
    std::vector<std::uint32_t> scratch;
    scratch.reserve(std::size_t(cfg.numRows) * cfg.assoc);

    AllocWindow w;
    std::uint64_t sink = 0;
    for (int i = 0; i < 20000; ++i) {
        mem::BlockId prev = i % 512;
        t.record(prev, (prev + 1) % 512);
        for (mem::BlockId s : t.successors(prev))
            sink += s;
        if (i % 64 == 0) {
            t.freshWays(4, scratch);
            sink += scratch.size();
        }
    }
    EXPECT_EQ(w.count(), 0u) << "sink=" << sink;
}

/**
 * The fresh-way sweep against a reference full scan: the ways it
 * returns must be strictly increasing (way order), occupied, and
 * carry exactly the tags the model says were touched within the
 * window. Tags are unique per table, so the same tag set in way
 * order is the full scan's output.
 */
void
compareFresh(const BlockCorrelationTable &t, const RefTable &m,
             std::uint32_t window)
{
    std::vector<std::uint32_t> ways;
    t.freshWays(window, ways);
    std::vector<mem::BlockId> got;
    for (std::size_t k = 0; k < ways.size(); ++k) {
        if (k > 0) {
            ASSERT_LT(ways[k - 1], ways[k]) << "window " << window;
        }
        ASSERT_NE(t.tagAt(ways[k]), uvm::kNoBlock) << "way " << ways[k];
        got.push_back(t.tagAt(ways[k]));
    }
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, m.freshTags(window)) << "window " << window;
}

std::string
dumpOf(const BlockCorrelationTable &t)
{
    std::ostringstream os;
    t.dumpState(os);
    return os.str();
}

TEST(CorrelationDense, FreshWaySweepMatchesFullScan)
{
    // 37 sets x 3 ways = 111 ways: the occupied bitmap spans two
    // words and its last word is partial. 200 blocks keep every set
    // under conflict pressure.
    BlockTableConfig cfg{37, 3, 3};
    constexpr mem::BlockId kUniverse = 200;
    BlockCorrelationTable t(cfg);
    // Same ops, but refreshes a swept way through refresh(tag): the
    // way-indexed refresh must leave byte-identical state.
    BlockCorrelationTable byTag(cfg);
    RefTable m(cfg);
    sim::Rng rng(16);
    std::vector<std::uint32_t> ways;

    for (int step = 0; step < 20000; ++step) {
        std::uint64_t op = rng.below(100);
        if (op < 50) {
            mem::BlockId prev = rng.below(kUniverse);
            mem::BlockId next = rng.below(kUniverse);
            t.record(prev, next);
            byTag.record(prev, next);
            m.record(prev, next);
        } else if (op < 60) {
            mem::BlockId b = rng.below(kUniverse);
            t.refresh(b);
            byTag.refresh(b);
            m.visit(b);
        } else if (op < 72) {
            t.freshWays(std::uint32_t(rng.below(6)), ways);
            if (!ways.empty()) {
                std::uint32_t way = ways[rng.below(ways.size())];
                mem::BlockId tag = t.tagAt(way);
                t.refreshWay(way);
                byTag.refresh(tag);
                m.visit(tag);
            }
        } else if (op < 80) {
            mem::BlockId b = rng.below(kUniverse);
            t.erase(b);
            byTag.erase(b);
            m.erase(b);
        } else if (op < 84) {
            mem::BlockId first = rng.below(kUniverse);
            mem::BlockId end = std::min<mem::BlockId>(
                first + 1 + rng.below(16), kUniverse);
            t.eraseRange(first, end);
            byTag.eraseRange(first, end);
            m.eraseRange(first, end);
        } else {
            mem::BlockId a = rng.below(kUniverse);
            mem::BlockId b = rng.below(kUniverse);
            auto len = std::uint32_t(1 + rng.below(8));
            t.captureStartEnd(a, b, len);
            byTag.captureStartEnd(a, b, len);
            ++m.epoch;
        }
        for (std::uint32_t window : {0u, 1u, 4u})
            compareFresh(t, m, window);
        if (step % 97 == 0) {
            compareAll(t, m, kUniverse);
            ASSERT_EQ(dumpOf(t), dumpOf(byTag)) << "step " << step;
        }
    }
    compareAll(t, m, kUniverse);
    ASSERT_EQ(dumpOf(t), dumpOf(byTag));
}

TEST(CorrelationDense, SweepSkipsEmptiedWays)
{
    // Every way of a one-set table filled, then all but the last
    // emptied: the sweep returns the one survivor, not the holes.
    BlockTableConfig cfg{1, 4, 2};
    BlockCorrelationTable t(cfg);
    for (mem::BlockId b = 1; b <= 4; ++b)
        t.record(b, b + 10);
    std::vector<std::uint32_t> ways;
    t.freshWays(0, ways);
    EXPECT_EQ(ways, (std::vector<std::uint32_t>{0, 1, 2, 3}));
    for (mem::BlockId b = 1; b <= 3; ++b)
        t.erase(b);
    t.freshWays(0, ways);
    ASSERT_EQ(ways.size(), 1u);
    EXPECT_EQ(t.tagAt(ways[0]), 4u);
    audit(t);
}

// ---------------------------------------------------------------
// Exec-table reference model: per-ExecId record vector, MRU first.
// ---------------------------------------------------------------

struct RefExec {
    std::map<ExecId, std::vector<ExecCorrelationTable::Record>> recs;

    void
    record(ExecId cur, const ExecHistory &hist, ExecId next)
    {
        auto &v = recs[cur];
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (v[i].hist == hist && v[i].next == next) {
                auto hit = v[i];
                v.erase(v.begin() + i);
                v.insert(v.begin(), hit);
                return;
            }
        }
        v.insert(v.begin(), ExecCorrelationTable::Record{hist, next});
    }

    ExecId
    predict(ExecId cur, const ExecHistory &hist) const
    {
        auto it = recs.find(cur);
        if (it == recs.end() || it->second.empty())
            return kNoExecId;
        for (const auto &r : it->second)
            if (r.hist == hist)
                return r.next;
        return it->second.front().next;
    }
};

TEST(CorrelationDense, ExecTableMatchesReferenceModel)
{
    // Few IDs and histories so entries grow long and the MRU dedupe
    // hits records deep in them.
    constexpr ExecId kIds = 6;
    ExecCorrelationTable t;
    RefExec m;
    sim::Rng rng(77);

    auto randHist = [&] {
        return ExecHistory{ExecId(rng.below(kIds)),
                           ExecId(rng.below(kIds)),
                           ExecId(rng.below(kIds))};
    };

    for (int step = 0; step < 4000; ++step) {
        ExecId cur = ExecId(rng.below(kIds));
        ExecHistory h = randHist();
        ExecId next = ExecId(rng.below(kIds));
        t.record(cur, h, next);
        m.record(cur, h, next);

        // Probe with a random (often missing, so MRU-fallback)
        // history, or the just-recorded one.
        ExecHistory q = rng.below(2) ? h : randHist();
        ASSERT_EQ(t.predict(cur, q), m.predict(cur, q));
        ASSERT_EQ(t.recordCount(cur), m.recs[cur].size());
        if (step % 129 == 0)
            auditExec(t);
    }
    ASSERT_EQ(t.entryCount(), m.recs.size());
    auditExec(t);
}

TEST(CorrelationDense, ExecTableSteadyStateDoesNotAllocate)
{
    ExecCorrelationTable t;
    ExecHistory h{1, 2, 3};
    t.record(0, h, 4); // the only history this kernel ever sees
    AllocWindow w;
    ExecId sink = 0;
    for (int i = 0; i < 20000; ++i) {
        t.record(0, h, 4); // duplicate: MRU move, no growth
        sink ^= t.predict(0, h);
    }
    EXPECT_EQ(w.count(), 0u) << "sink=" << sink;
}

TEST(CorrelationDense, TableSetLookupIsDenseAndLazy)
{
    BlockCorrelationTableSet set{BlockTableConfig{8, 2, 4}};
    EXPECT_EQ(set.find(0), nullptr);
    EXPECT_EQ(set.find(kNoExecId), nullptr); // sentinel fails bounds
    auto &t3 = set.getOrCreate(3);
    EXPECT_EQ(set.tableCount(), 1u);
    EXPECT_EQ(set.find(3), &t3);
    EXPECT_EQ(set.find(2), nullptr); // hole: never allocated
    set.getOrCreate(0);
    EXPECT_EQ(set.tableCount(), 2u);

    // forEachTable visits in id order.
    std::vector<ExecId> order;
    set.forEachTable([&](ExecId id, const BlockCorrelationTable &) {
        order.push_back(id);
    });
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0u);
    EXPECT_EQ(order[1], 3u);

    sim::CheckContext ctx("BlockCorrelationTableSet", "test",
                          [&](std::ostream &os) { set.dumpState(os); });
    set.checkInvariants(ctx);
    EXPECT_GT(ctx.checks(), 0u);
}

// ---------------------------------------------------------------
// Seeded corruption of the occupied-way bitmap.
// ---------------------------------------------------------------

TEST(CorrelationDenseDeath, FlippedOccupiedBitIsCaught)
{
    BlockTableConfig cfg{4, 2, 2};
    BlockCorrelationTable t(cfg);
    t.record(1, 2);
    std::vector<std::uint32_t> ways;
    t.freshWays(0, ways);
    ASSERT_EQ(ways.size(), 1u);
    const std::uint32_t live = ways[0];
    const std::uint32_t empty = live == 0 ? 1 : 0;
    audit(t);

    // A cleared bit hides a live entry from the sweep; a set bit
    // offers an empty way to it. The audit must catch both.
    BlockCorrelationTable hidden = t;
    BlockCorrelationTableTestAccess::flipOccupied(hidden, live);
    EXPECT_DEATH(audit(hidden), "occupied bit 0 of way");
    BlockCorrelationTable phantom = t;
    BlockCorrelationTableTestAccess::flipOccupied(phantom, empty);
    EXPECT_DEATH(audit(phantom), "occupied bit 1 of way");
}

} // namespace
