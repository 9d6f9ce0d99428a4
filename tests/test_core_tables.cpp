/**
 * @file
 * Unit tests for DeepUM's table structures: the runtime execution ID
 * table, the execution ID correlation table (variable records of
 * four IDs), and the set-associative UM block correlation tables
 * with MRU successors and start/end capture.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/block_correlation_table.hh"
#include "core/exec_correlation_table.hh"
#include "core/execution_id_table.hh"
#include "gpu/kernel.hh"

using namespace deepum;
using namespace deepum::core;

namespace {

// ------------------------------------------------------- execution IDs

TEST(ExecutionIdTable, SameKernelSameId)
{
    ExecutionIdTable t;
    gpu::KernelInfo k;
    k.name = "gemm";
    k.argHash = 42;
    ExecId a = t.lookupOrAssign(k);
    ExecId b = t.lookupOrAssign(k);
    EXPECT_EQ(a, b);
    EXPECT_EQ(t.size(), 1u);
}

TEST(ExecutionIdTable, DifferentArgsDifferentId)
{
    ExecutionIdTable t;
    gpu::KernelInfo k;
    k.name = "gemm";
    k.argHash = 1;
    ExecId a = t.lookupOrAssign(k);
    k.argHash = 2;
    ExecId b = t.lookupOrAssign(k);
    k.name = "conv";
    ExecId c = t.lookupOrAssign(k);
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    EXPECT_EQ(t.size(), 3u);
}

TEST(ExecutionIdTable, IdsAreDense)
{
    ExecutionIdTable t;
    gpu::KernelInfo k;
    k.name = "k";
    for (ExecId i = 0; i < 10; ++i) {
        k.argHash = i;
        EXPECT_EQ(t.lookupOrAssign(k), i);
    }
}

// --------------------------------------------------- exec correlation

TEST(ExecCorrelationTable, PredictsRecordedSuccessor)
{
    ExecCorrelationTable t;
    ExecHistory h{7, 9, 92};
    t.record(0, h, 75); // the paper's Figure 6 example
    EXPECT_EQ(t.predict(0, h), 75u);
}

TEST(ExecCorrelationTable, HistoryDisambiguates)
{
    ExecCorrelationTable t;
    t.record(5, ExecHistory{1, 2, 3}, 10);
    t.record(5, ExecHistory{4, 2, 3}, 20);
    EXPECT_EQ(t.predict(5, ExecHistory{1, 2, 3}), 10u);
    EXPECT_EQ(t.predict(5, ExecHistory{4, 2, 3}), 20u);
    EXPECT_EQ(t.recordCount(5), 2u);
}

TEST(ExecCorrelationTable, DuplicateRecordMovesToMru)
{
    ExecCorrelationTable t;
    t.record(1, ExecHistory{0, 0, 0}, 10);
    t.record(1, ExecHistory{9, 9, 9}, 20);
    t.record(1, ExecHistory{0, 0, 0}, 10); // refresh
    EXPECT_EQ(t.recordCount(1), 2u);
    // MRU fallback for an unknown history picks the refreshed one.
    EXPECT_EQ(t.predict(1, ExecHistory{5, 5, 5}), 10u);
}

TEST(ExecCorrelationTable, OnlyAnUnrecordedKernelReturnsNoExec)
{
    ExecCorrelationTable t;
    t.record(1, ExecHistory{1, 1, 1}, 2);
    EXPECT_EQ(t.predict(1, ExecHistory{9, 9, 9}), 2u);
    EXPECT_EQ(t.predict(99, ExecHistory{1, 1, 1}), kNoExecId);
}

TEST(ExecCorrelationTable, SizeBytesGrowsWithRecords)
{
    ExecCorrelationTable t;
    auto s0 = t.sizeBytes();
    t.record(1, ExecHistory{1, 1, 1}, 2);
    auto s1 = t.sizeBytes();
    t.record(1, ExecHistory{2, 2, 2}, 3);
    EXPECT_GT(s1, s0);
    EXPECT_GT(t.sizeBytes(), s1);
}

// ---------------------------------------------------- block correlation

BlockTableConfig
smallCfg()
{
    BlockTableConfig c;
    c.numRows = 8;
    c.assoc = 2;
    c.numSuccs = 2;
    return c;
}

TEST(BlockCorrelationTable, RecordsSuccessorsMruFirst)
{
    BlockCorrelationTable t(smallCfg());
    t.record(100, 101);
    t.record(100, 102);
    auto s = t.successors(100);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0], 102u); // most recent first
    EXPECT_EQ(s[1], 101u);
}

TEST(BlockCorrelationTable, SuccessorListCapsAtNumSuccs)
{
    BlockCorrelationTable t(smallCfg());
    t.record(100, 101);
    t.record(100, 102);
    t.record(100, 103); // evicts 101 (LRU of the MRU list)
    auto s = t.successors(100);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0], 103u);
    EXPECT_EQ(s[1], 102u);
}

TEST(BlockCorrelationTable, DuplicateSuccessorRefreshesOrder)
{
    BlockCorrelationTable t(smallCfg());
    t.record(100, 101);
    t.record(100, 102);
    t.record(100, 101); // refresh, no growth
    auto s = t.successors(100);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0], 101u);
}

TEST(BlockCorrelationTable, MissingEntryYieldsEmpty)
{
    BlockCorrelationTable t(smallCfg());
    EXPECT_TRUE(t.successors(555).empty());
}

TEST(BlockCorrelationTable, SetConflictEvictsLruWay)
{
    BlockTableConfig c;
    c.numRows = 1; // everything maps to the same set
    c.assoc = 2;
    c.numSuccs = 2;
    BlockCorrelationTable t(c);
    t.record(1, 10);
    t.record(2, 20);
    t.record(1, 11); // touch 1: 2 becomes LRU
    t.record(3, 30); // evicts 2
    EXPECT_FALSE(t.successors(1).empty());
    EXPECT_TRUE(t.successors(2).empty());
    EXPECT_FALSE(t.successors(3).empty());
    EXPECT_EQ(t.entryCount(), 2u);
}

TEST(BlockCorrelationTable, CaptureCommitsLongSequences)
{
    BlockCorrelationTable t(smallCfg());
    t.captureStartEnd(10, 20, 8);
    EXPECT_EQ(t.start(), 10u);
    EXPECT_EQ(t.end(), 20u);
    EXPECT_EQ(t.bestSequenceLen(), 8u);
}

TEST(BlockCorrelationTable, CaptureHysteresisRejectsStrays)
{
    BlockCorrelationTable t(smallCfg());
    t.captureStartEnd(10, 20, 8);
    // A single stray residual fault must not truncate the pointers.
    t.captureStartEnd(99, 99, 1);
    EXPECT_EQ(t.start(), 10u);
    EXPECT_EQ(t.end(), 20u);
}

TEST(BlockCorrelationTable, CaptureAcceptsHalfOrLonger)
{
    BlockCorrelationTable t(smallCfg());
    t.captureStartEnd(10, 20, 8);
    t.captureStartEnd(30, 40, 4); // exactly half: accepted
    EXPECT_EQ(t.start(), 30u);
}

TEST(BlockCorrelationTable, CaptureAdoptsPersistentlyShorterPattern)
{
    BlockCorrelationTable t(smallCfg());
    t.captureStartEnd(10, 20, 8);
    for (int i = 0; i < 6; ++i)
        t.captureStartEnd(50, 60, 2);
    // After enough consecutive rejections the new pattern wins.
    EXPECT_EQ(t.start(), 50u);
    EXPECT_EQ(t.end(), 60u);
}

TEST(BlockCorrelationTable, FreshWaysTracksRecentEpochs)
{
    BlockCorrelationTable t(smallCfg());
    std::vector<std::uint32_t> ways;
    t.record(1, 2);
    t.captureStartEnd(1, 2, 2); // epoch 1
    t.freshWays(2, ways);
    ASSERT_EQ(ways.size(), 1u);
    EXPECT_EQ(t.tagAt(ways[0]), 1u);
    // Age the entry past the window.
    for (int i = 0; i < 5; ++i)
        t.captureStartEnd(7, 8, 2);
    t.freshWays(2, ways);
    EXPECT_TRUE(ways.empty());
    // A chain visit brings it back.
    t.refresh(1);
    t.freshWays(2, ways);
    ASSERT_EQ(ways.size(), 1u);
    EXPECT_EQ(t.tagAt(ways[0]), 1u);
}

TEST(BlockCorrelationTable, EraseDropsEntry)
{
    BlockCorrelationTable t(smallCfg());
    t.record(1, 2);
    EXPECT_EQ(t.entryCount(), 1u);
    t.erase(1);
    EXPECT_EQ(t.entryCount(), 0u);
    EXPECT_TRUE(t.successors(1).empty());
    t.erase(1); // idempotent
}

TEST(BlockCorrelationTable, SizeBytesMatchesGeometry)
{
    BlockTableConfig a{128, 2, 4};
    BlockTableConfig b{2048, 2, 4};
    BlockCorrelationTable ta(a), tb(b);
    // Subtract the fixed start/end pointer overhead: the entry
    // storage scales exactly with rows (16x here).
    std::uint64_t fixed = 2 * sizeof(mem::BlockId);
    EXPECT_EQ(tb.sizeBytes() - fixed, 16 * (ta.sizeBytes() - fixed));
}

TEST(BlockCorrelationTableSet, LazyAllocationPerExecId)
{
    BlockCorrelationTableSet m(smallCfg());
    EXPECT_EQ(m.tableCount(), 0u);
    EXPECT_EQ(m.find(3), nullptr);
    auto &t = m.getOrCreate(3);
    EXPECT_EQ(m.tableCount(), 1u);
    EXPECT_EQ(m.find(3), &t);
    m.getOrCreate(3);
    EXPECT_EQ(m.tableCount(), 1u);
}

TEST(BlockCorrelationTableSet, TotalSizeScalesWithTables)
{
    BlockCorrelationTableSet m(smallCfg());
    m.getOrCreate(0);
    auto one = m.totalSizeBytes();
    m.getOrCreate(1);
    EXPECT_EQ(m.totalSizeBytes(), 2 * one);
}

} // namespace
