/**
 * @file
 * Unit tests for the UVM driver: range registration, the Figure-3
 * fault pipeline (batch dedupe, unregistered-block faults, blocks
 * freed mid-batch), least-recently-migrated eviction, the inactive
 * invalidation path, prefetch-queue priority, and pre-eviction
 * (including what its completion serves and when it goes idle).
 */

#include <gtest/gtest.h>

#include <vector>

#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "mem/frame_pool.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "uvm/driver.hh"
#include "uvm/listener.hh"

using namespace deepum;
using namespace deepum::uvm;

namespace {

constexpr std::uint64_t kGpuPages = 4 * mem::kPagesPerBlock; // 4 blocks

struct World {
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::TimingConfig cfg;
    gpu::FaultBuffer fb;
    gpu::PcieLink link{cfg};
    mem::FramePool frames{kGpuPages};
    gpu::GpuEngine engine{eq, cfg, fb, stats};
    Driver drv{eq, cfg, fb, link, frames, stats};

    World()
    {
        engine.setBackend(&drv);
        drv.setEngine(&engine);
    }

    /** Register @p blocks full UM blocks starting at block 0 VA. */
    mem::VAddr
    reg(std::uint64_t blocks, mem::VAddr base = mem::kUmBase)
    {
        drv.registerRange(base, blocks * mem::kBlockBytes);
        return base;
    }

    /** Run a one-kernel session touching @p blocks. */
    void
    touch(std::vector<mem::BlockId> blocks,
          sim::Tick compute = 100 * sim::kUsec)
    {
        kernel_.name = "touch";
        kernel_.computeNs = compute;
        kernel_.accesses.clear();
        for (auto b : blocks)
            kernel_.accesses.push_back(
                gpu::BlockAccess{b, 512, false});
        bool done = false;
        engine.launch(&kernel_, [&] { done = true; });
        eq.run();
        ASSERT_TRUE(done);
    }

    gpu::KernelInfo kernel_;
};

TEST(UvmDriver, RegisterCreatesPerBlockRecords)
{
    World w;
    mem::VAddr va = w.reg(2);
    mem::BlockId b0 = mem::blockOf(va);
    EXPECT_TRUE(w.drv.knowsBlock(b0));
    EXPECT_TRUE(w.drv.knowsBlock(b0 + 1));
    EXPECT_FALSE(w.drv.knowsBlock(b0 + 2));
    EXPECT_EQ(w.drv.blockInfo(b0).pages, 512u);
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Unpopulated);
}

TEST(UvmDriver, TailBlockHasPartialPages)
{
    World w;
    w.drv.registerRange(mem::kUmBase,
                        mem::kBlockBytes + 5 * mem::kPageSize);
    mem::BlockId b0 = mem::blockOf(mem::kUmBase);
    EXPECT_EQ(w.drv.blockInfo(b0).pages, 512u);
    EXPECT_EQ(w.drv.blockInfo(b0 + 1).pages, 5u);
}

TEST(UvmDriverDeath, DoubleRegisterPanics)
{
    World w;
    w.reg(1);
    EXPECT_DEATH(w.drv.registerRange(mem::kUmBase, mem::kBlockBytes),
                 "already registered");
}

TEST(UvmDriverDeath, BlockInfoOfUnknownBlockPanics)
{
    World w;
    w.reg(1);
    // One past the only registered run: the dense-store probe must
    // miss and blockInfo must refuse to fabricate a record.
    EXPECT_DEATH(w.drv.blockInfo(mem::blockOf(mem::kUmBase) + 1),
                 "blockInfo: unknown block");
}

TEST(UvmDriverDeath, UnregisterOfUnknownRangePanics)
{
    World w;
    EXPECT_DEATH(
        w.drv.unregisterRange(mem::kUmBase, mem::kBlockBytes),
        "unregisterRange: unknown block");
}

TEST(UvmDriver, DenseStoreMissesOutsideRegisteredRuns)
{
    World w;
    w.reg(2, mem::kUmBase);
    w.reg(2, mem::kUmBase + 8 * mem::kBlockBytes);
    mem::BlockId b0 = mem::blockOf(mem::kUmBase);
    // Probes inside either run resolve; the gap and both flanks miss.
    EXPECT_TRUE(w.drv.knowsBlock(b0 + 1));
    EXPECT_TRUE(w.drv.knowsBlock(b0 + 8));
    EXPECT_FALSE(w.drv.knowsBlock(b0 - 1));
    EXPECT_FALSE(w.drv.knowsBlock(b0 + 2));
    EXPECT_FALSE(w.drv.knowsBlock(b0 + 7));
    EXPECT_FALSE(w.drv.knowsBlock(b0 + 10));
    // Unknown blocks are unpinned, not an error.
    EXPECT_FALSE(w.drv.isPinned(b0 + 2));
}

TEST(UvmDriver, FirstTouchFaultsAndZeroFills)
{
    World w;
    mem::VAddr va = w.reg(2);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1});
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Device);
    EXPECT_EQ(w.stats.get("uvm.zeroFillBlocks"), 2u);
    EXPECT_EQ(w.stats.get("uvm.migratedBlocks"), 0u); // no HtoD copy
    EXPECT_EQ(w.stats.get("uvm.pageFaults"), 1024u);
    EXPECT_EQ(w.stats.get("uvm.replaysSent"), 1u);
    EXPECT_EQ(w.frames.usedPages(), 1024u);
}

TEST(UvmDriver, ResidentAccessDoesNotFault)
{
    World w;
    mem::VAddr va = w.reg(1);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0});
    auto faults = w.stats.get("uvm.pageFaults");
    w.touch({b0});
    EXPECT_EQ(w.stats.get("uvm.pageFaults"), faults);
}

TEST(UvmDriver, EvictionIsLeastRecentlyMigrated)
{
    World w;
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    // Fill the 4-block GPU in order b0..b3.
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    // Touching two more evicts the two oldest migrations: b0, b1.
    w.touch({b0 + 4, b0 + 5});
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Host);
    EXPECT_EQ(w.drv.blockInfo(b0 + 1).loc, Loc::Host);
    EXPECT_EQ(w.drv.blockInfo(b0 + 2).loc, Loc::Device);
    EXPECT_EQ(w.drv.blockInfo(b0 + 4).loc, Loc::Device);
    EXPECT_EQ(w.stats.get("uvm.evictedBlocks"), 2u);
    EXPECT_EQ(w.stats.get("uvm.demandEvictions"), 2u);
}

TEST(UvmDriver, EvictedBlockReloadsWithCopyNotZeroFill)
{
    World w;
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    w.touch({b0 + 4, b0 + 5}); // evicts b0, b1
    auto zf = w.stats.get("uvm.zeroFillBlocks");
    w.touch({b0}); // reload from host
    EXPECT_EQ(w.stats.get("uvm.zeroFillBlocks"), zf);
    EXPECT_EQ(w.stats.get("uvm.migratedBlocks"), 1u);
    EXPECT_EQ(w.stats.get("uvm.migratedPages"), 512u);
}

TEST(UvmDriver, InvalidationSkipsWriteback)
{
    World w;
    w.drv.setInvalidationEnabled(true);
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    // Mark the first two blocks' bytes fully inactive (dead PT data).
    w.drv.markInactiveRange(va, 2 * mem::kBlockBytes, true);
    auto dtoh = w.link.bytesDtoH();
    w.touch({b0 + 4, b0 + 5}); // victims are b0, b1: invalidated
    EXPECT_EQ(w.stats.get("uvm.invalidatedBlocks"), 2u);
    EXPECT_EQ(w.stats.get("uvm.evictedBlocks"), 0u);
    EXPECT_EQ(w.link.bytesDtoH(), dtoh); // no copy-back
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Unpopulated);
}

TEST(UvmDriver, PartiallyInactiveBlockStillWritesBack)
{
    World w;
    w.drv.setInvalidationEnabled(true);
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    // Only half of b0 is inactive: must not be invalidated.
    w.drv.markInactiveRange(va, mem::kBlockBytes / 2, true);
    w.touch({b0 + 4});
    EXPECT_EQ(w.stats.get("uvm.invalidatedBlocks"), 0u);
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Host);
}

TEST(UvmDriver, InvalidationDisabledAlwaysWritesBack)
{
    World w; // invalidation off by default (naive UM)
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    w.drv.markInactiveRange(va, 2 * mem::kBlockBytes, true);
    w.touch({b0 + 4});
    EXPECT_EQ(w.stats.get("uvm.invalidatedBlocks"), 0u);
    EXPECT_EQ(w.stats.get("uvm.evictedBlocks"), 1u);
}

TEST(UvmDriver, InactiveAccountingRoundTrips)
{
    World w;
    mem::VAddr va = w.reg(1);
    mem::BlockId b0 = mem::blockOf(va);
    w.drv.markInactiveRange(va, mem::kBlockBytes, true);
    EXPECT_TRUE(w.drv.blockInfo(b0).fullyInactive());
    w.drv.markInactiveRange(va + 4096, 512, false);
    EXPECT_FALSE(w.drv.blockInfo(b0).fullyInactive());
    w.drv.markInactiveRange(va + 4096, 512, true);
    EXPECT_TRUE(w.drv.blockInfo(b0).fullyInactive());
}

TEST(UvmDriver, PrefetchMigratesWithoutFaults)
{
    World w;
    mem::VAddr va = w.reg(2);
    mem::BlockId b0 = mem::blockOf(va);
    EXPECT_TRUE(w.drv.enqueuePrefetch(b0, 0));
    EXPECT_FALSE(w.drv.enqueuePrefetch(b0, 0)); // duplicate rejected
    w.eq.run();
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Device);
    EXPECT_TRUE(w.drv.blockInfo(b0).prefetched);
    EXPECT_EQ(w.stats.get("uvm.pageFaults"), 0u);
    EXPECT_EQ(w.stats.get("uvm.prefetchCompleted"), 1u);
    // Rejected once resident, too.
    EXPECT_FALSE(w.drv.enqueuePrefetch(b0, 0));
}

TEST(UvmDriver, PrefetchOfUnknownBlockRejected)
{
    World w;
    EXPECT_FALSE(w.drv.enqueuePrefetch(12345, 0));
}

TEST(UvmDriver, AccessedPrefetchCountsUseful)
{
    World w;
    mem::VAddr va = w.reg(1);
    mem::BlockId b0 = mem::blockOf(va);
    w.drv.enqueuePrefetch(b0, 0);
    w.eq.run();
    w.touch({b0});
    EXPECT_EQ(w.stats.get("uvm.prefetchUseful"), 1u);
    EXPECT_FALSE(w.drv.blockInfo(b0).prefetched);
}

TEST(UvmDriver, EvictedUnusedPrefetchCountsWasted)
{
    World w;
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    w.drv.enqueuePrefetch(b0 + 5, 0); // never used
    w.eq.run();
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3}); // evicts the prefetch
    EXPECT_EQ(w.stats.get("uvm.prefetchWasted"), 1u);
}

TEST(UvmDriver, PreEvictionFreesFramesOffTheFaultPath)
{
    World w;
    mem::VAddr va = w.reg(5);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3}); // GPU full
    EXPECT_EQ(w.frames.freePages(), 0u);
    EXPECT_TRUE(w.drv.preEvictOne());
    EXPECT_FALSE(w.drv.preEvictOne()); // migration thread now busy
    w.eq.run();
    EXPECT_EQ(w.frames.freePages(), 512u);
    EXPECT_EQ(w.stats.get("uvm.preEvictions"), 1u);
    EXPECT_EQ(w.stats.get("uvm.demandEvictions"), 0u);
    // The next fault needs no eviction.
    w.touch({b0 + 4});
    EXPECT_EQ(w.stats.get("uvm.demandEvictions"), 0u);
}

/** Counts the migration thread's idle notifications. */
struct IdleCounter : DriverListener {
    int idles = 0;
    void onMigrationIdle() override { ++idles; }
};

TEST(UvmDriver, PreEvictionCompletionServesPrefetchQueuedMeanwhile)
{
    World w;
    IdleCounter idle;
    w.drv.addListener(&idle);
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3}); // GPU full
    idle.idles = 0;
    ASSERT_TRUE(w.drv.preEvictOne());
    // Accepted while the eviction holds the migration thread; only
    // the eviction's completion can start serving it.
    EXPECT_TRUE(w.drv.enqueuePrefetch(b0 + 5, 0));
    EXPECT_FALSE(w.drv.migrationIdle());
    w.eq.run();
    EXPECT_EQ(w.drv.blockInfo(b0 + 5).loc, Loc::Device);
    EXPECT_EQ(w.stats.get("uvm.prefetchCompleted"), 1u);
    EXPECT_EQ(w.stats.get("uvm.demandEvictions"), 0u);
    EXPECT_TRUE(w.drv.migrationIdle());
    // Idle once, after the prefetch, not after the eviction too.
    EXPECT_EQ(idle.idles, 1);
}

TEST(UvmDriver, PreEvictionWithNothingQueuedGoesIdleOnce)
{
    World w;
    IdleCounter idle;
    w.drv.addListener(&idle);
    mem::VAddr va = w.reg(4);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    idle.idles = 0;
    ASSERT_TRUE(w.drv.preEvictOne());
    EXPECT_EQ(idle.idles, 0); // still busy until the completion
    w.eq.run();
    EXPECT_TRUE(w.drv.migrationIdle());
    EXPECT_EQ(idle.idles, 1);
    EXPECT_EQ(w.stats.get("uvm.preEvictions"), 1u);
}

TEST(UvmDriver, UnregisterReleasesResidentFrames)
{
    World w;
    mem::VAddr va = w.reg(2);
    mem::BlockId b0 = mem::blockOf(va);
    w.touch({b0, b0 + 1});
    EXPECT_EQ(w.frames.usedPages(), 1024u);
    w.drv.unregisterRange(va, 2 * mem::kBlockBytes);
    EXPECT_EQ(w.frames.usedPages(), 0u);
    EXPECT_FALSE(w.drv.knowsBlock(b0));
}

TEST(UvmDriver, FaultQueueHasPriorityOverPrefetchQueue)
{
    World w;
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);
    // Queue a slow prefetch, then fault on a different block. The
    // fault must be fully handled even though a prefetch was queued
    // first; the prefetched block also lands eventually.
    w.drv.enqueuePrefetch(b0 + 5, 0);
    w.touch({b0});
    EXPECT_EQ(w.drv.blockInfo(b0).loc, Loc::Device);
    EXPECT_EQ(w.drv.blockInfo(b0 + 5).loc, Loc::Device);
    EXPECT_EQ(w.stats.get("uvm.replaysSent"), 1u);
}

TEST(UvmDriver, DirtyEvictionTrafficIsSymmetric)
{
    World w;
    mem::VAddr va = w.reg(8, mem::kUmBase);
    mem::BlockId b0 = mem::blockOf(va);
    // Two rounds over 8 blocks on a 4-block GPU: every block cycles.
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    w.touch({b0 + 4, b0 + 5, b0 + 6, b0 + 7});
    w.touch({b0, b0 + 1, b0 + 2, b0 + 3});
    // 4 blocks were written back and 4 reloaded in the last step.
    EXPECT_EQ(w.stats.get("uvm.evictedBlocks"),
              w.stats.get("uvm.migratedBlocks") + 4u);
}

/** Records every fault batch the driver hands to its listeners. */
struct BatchRecorder : DriverListener {
    std::vector<std::vector<mem::BlockId>> batches;
    void
    onFaultBatch(const std::vector<mem::BlockId> &blocks) override
    {
        batches.push_back(blocks);
    }
};

TEST(UvmDriver, DuplicateFaultEntriesDedupeInFirstFaultOrder)
{
    World w;
    BatchRecorder rec;
    w.drv.addListener(&rec);
    mem::BlockId b0 = mem::blockOf(w.reg(3));
    // One drained batch: b0+2 faults first, b0+1 twice; the
    // duplicate's pages still count toward the fault total.
    w.fb.push(gpu::FaultEntry{b0 + 2, 512, false, 0});
    w.fb.push(gpu::FaultEntry{b0 + 1, 100, false, 0});
    w.fb.push(gpu::FaultEntry{b0 + 2, 7, false, 0});
    w.fb.push(gpu::FaultEntry{b0 + 1, 1, false, 0});
    w.drv.faultInterrupt();
    w.eq.run();
    EXPECT_EQ(w.stats.get("uvm.faultBatches"), 1u);
    EXPECT_EQ(w.stats.get("uvm.pageFaults"), 512u + 100u + 7u + 1u);
    EXPECT_EQ(w.stats.get("uvm.faultedBlocks"), 2u);
    ASSERT_EQ(rec.batches.size(), 1u);
    EXPECT_EQ(rec.batches[0],
              (std::vector<mem::BlockId>{b0 + 2, b0 + 1}));
}

TEST(UvmDriverDeath, FaultOnUnregisteredBlockPanics)
{
    World w;
    mem::BlockId b0 = mem::blockOf(w.reg(2));
    w.fb.push(gpu::FaultEntry{b0, 512, false, 0});
    w.fb.push(gpu::FaultEntry{b0 + 999, 512, false, 0});
    w.drv.faultInterrupt();
    EXPECT_DEATH(w.eq.run(), "unregistered block");
}

TEST(UvmDriver, DroppedBlockBetweenDrainAndDispatchIsSkipped)
{
    // The re-probe comment in handleFaults promises a freed block is
    // survivable; this pins the skip (it used to panic).
    World w;
    w.drv.registerRange(mem::kUmBase, 2 * mem::kBlockBytes);
    mem::BlockId b0 = mem::blockOf(mem::kUmBase);
    w.fb.push(gpu::FaultEntry{b0, 512, false, 0});
    w.fb.push(gpu::FaultEntry{b0 + 1, 512, false, 0});
    w.drv.faultInterrupt();
    // Drain happens at faultInterruptLatency; dispatch at least
    // faultPreprocessBase later. Free the range in between.
    w.eq.schedule(w.cfg.faultInterruptLatency + 1, [&] {
        w.drv.unregisterRange(mem::kUmBase, 2 * mem::kBlockBytes);
    });
    w.eq.run();
    EXPECT_EQ(w.stats.get("uvm.faultedBlocks"), 2u);
    EXPECT_EQ(w.stats.get("uvm.migratedBlocks"), 0u);
    EXPECT_FALSE(w.drv.knowsBlock(b0));
}

} // namespace
