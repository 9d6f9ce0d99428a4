/**
 * @file
 * Unit tests for the correlator, prefetcher (chaining semantics),
 * DeepUM eviction policy (protected-block skipping, the demand
 * fallback, pinned-resident blocks, agreement with the linear LRU
 * walk it replaced), and pre-evictor, wired to a real driver on a
 * small simulated GPU.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/correlator.hh"
#include "core/deepum.hh"
#include "core/deepum_policy.hh"
#include "core/prefetcher.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "mem/frame_pool.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/validate.hh"
#include "uvm/driver.hh"

using namespace deepum;
using namespace deepum::core;

namespace {

// ---------------------------------------------------------- correlator

struct TableFixture {
    ExecCorrelationTable exec;
    BlockCorrelationTableSet blocks{BlockTableConfig{64, 2, 4}};
    Correlator corr{exec, blocks};
};

TEST(Correlator, TracksCurrentAndHistory)
{
    TableFixture f;
    f.corr.onKernelLaunch(10);
    f.corr.onKernelLaunch(11);
    f.corr.onKernelLaunch(12);
    f.corr.onKernelLaunch(13);
    EXPECT_EQ(f.corr.currentExec(), 13u);
    EXPECT_EQ(f.corr.history(), (ExecHistory{10, 11, 12}));
}

TEST(Correlator, RecordsExecSuccession)
{
    TableFixture f;
    for (ExecId id : {1u, 2u, 3u, 1u, 2u, 3u})
        f.corr.onKernelLaunch(id);
    // After seeing 1->2->3 twice: entry 2's second record carries
    // history {2, 3, 1} (the three launches before the second 2).
    EXPECT_EQ(f.exec.predict(2, ExecHistory{2, 3, 1}, false), 3u);
}

TEST(Correlator, RecordsFaultPairsWithinKernel)
{
    TableFixture f;
    f.corr.onKernelLaunch(5);
    f.corr.onFaultBlocks({100, 101, 102});
    auto *bt = f.blocks.find(5);
    ASSERT_NE(bt, nullptr);
    ASSERT_EQ(bt->successors(100).size(), 1u);
    EXPECT_EQ(bt->successors(100)[0], 101u);
    EXPECT_EQ(bt->successors(101)[0], 102u);
}

TEST(Correlator, CommitsStartEndAtTransition)
{
    TableFixture f;
    f.corr.onKernelLaunch(5);
    f.corr.onFaultBlocks({100, 101, 102});
    f.corr.onKernelLaunch(6); // closes kernel 5
    auto *bt = f.blocks.find(5);
    ASSERT_NE(bt, nullptr);
    EXPECT_EQ(bt->start(), 100u);
    EXPECT_EQ(bt->end(), 102u);
}

TEST(Correlator, NoCrossKernelPairs)
{
    TableFixture f;
    f.corr.onKernelLaunch(5);
    f.corr.onFaultBlocks({100});
    f.corr.onKernelLaunch(6);
    f.corr.onFaultBlocks({200});
    // 100 -> 200 crosses the kernel boundary: chaining handles that
    // through start/end, not successor edges.
    auto *bt5 = f.blocks.find(5);
    EXPECT_TRUE(bt5->successors(100).empty());
}

TEST(Correlator, FaultsBeforeFirstLaunchIgnored)
{
    TableFixture f;
    f.corr.onFaultBlocks({1, 2}); // must not crash or record
    EXPECT_EQ(f.blocks.tableCount(), 0u);
}

// ------------------------------------------------------ full pipeline

constexpr std::uint64_t kGpuBlocks = 8;

/** "k<k>", built with += to dodge a GCC 12 -Wrestrict false positive. */
std::string
kernelName(int k)
{
    std::string name = "k";
    name += std::to_string(k);
    return name;
}

struct DeepUmWorld {
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::TimingConfig cfg;
    gpu::FaultBuffer fb;
    gpu::PcieLink link{cfg};
    mem::FramePool frames{kGpuBlocks * mem::kPagesPerBlock};
    gpu::GpuEngine engine{eq, cfg, fb, stats};
    uvm::Driver drv{eq, cfg, fb, link, frames, stats};
    DeepUmConfig dcfg;
    std::unique_ptr<DeepUm> dum;

    explicit DeepUmWorld(DeepUmConfig c = {})
        : dcfg(c)
    {
        engine.setBackend(&drv);
        drv.setEngine(&engine);
        dum = std::make_unique<DeepUm>(drv, dcfg, stats);
    }

    mem::VAddr
    reg(std::uint64_t blocks)
    {
        drv.registerRange(mem::kUmBase, blocks * mem::kBlockBytes);
        return mem::kUmBase;
    }

    /** Launch a kernel with the DeepUM callback, touching blocks. */
    void
    launch(const std::string &name, std::uint64_t arghash,
           std::vector<mem::BlockId> blocks)
    {
        kernel_.name = name;
        kernel_.argHash = arghash;
        kernel_.computeNs = 1 * sim::kMsec;
        kernel_.accesses.clear();
        for (auto b : blocks)
            kernel_.accesses.push_back(
                gpu::BlockAccess{b, 512, false});
        ids_.push_back(execIds_.lookupOrAssign(kernel_));
        dum->notifyKernelLaunch(ids_.back());
        bool done = false;
        engine.launch(&kernel_, [&] { done = true; });
        eq.run();
        ASSERT_TRUE(done);
    }

    gpu::KernelInfo kernel_;
    ExecutionIdTable execIds_;
    std::vector<ExecId> ids_;
};

TEST(DeepUmPipeline, LearnsAndPrefetchesRepeatedSequence)
{
    DeepUmConfig cfg;
    cfg.preevict = false; // keep the 6 blocks resident on 8 frames
    DeepUmWorld w(cfg);
    mem::VAddr va = w.reg(6);
    mem::BlockId b0 = mem::blockOf(va);

    auto iteration = [&] {
        w.launch("k1", 1, {b0, b0 + 1});
        w.launch("k2", 2, {b0 + 2, b0 + 3});
        w.launch("k3", 3, {b0 + 4, b0 + 5});
    };

    iteration(); // cold: everything faults
    auto cold_faults = w.stats.get("uvm.pageFaults");
    EXPECT_GT(cold_faults, 0u);

    // Everything fits (6 <= 8 blocks): steady iterations are
    // fault-free because the blocks stay resident.
    iteration();
    EXPECT_EQ(w.stats.get("uvm.pageFaults"), cold_faults);
}

TEST(DeepUmPipeline, PrefetchCoversEvictedBlocksAcrossIterations)
{
    DeepUmConfig cfg;
    cfg.preevictWatermarkPages = mem::kPagesPerBlock; // tiny GPU
    // At this 12-block scale the default N would protect the whole
    // working set and strangle eviction; scale the window with the
    // memory, as Figure 11 teaches.
    cfg.lookaheadN = 2;
    DeepUmWorld w(cfg);
    // 12 blocks on an 8-block GPU: capacity misses guaranteed.
    mem::VAddr va = w.reg(12);
    mem::BlockId b0 = mem::blockOf(va);

    auto iteration = [&] {
        for (int k = 0; k < 6; ++k) {
            w.launch(kernelName(k), k,
                     {b0 + 2 * k, b0 + 2 * k + 1});
        }
    };
    for (int i = 0; i < 6; ++i)
        iteration();

    // Prefetching must be doing real work: most migrations in steady
    // state arrive via the prefetch queue, not demand faults.
    EXPECT_GT(w.stats.get("uvm.prefetchCompleted"),
              w.stats.get("uvm.prefetchWasted"));
    EXPECT_GT(w.stats.get("uvm.prefetchUseful"), 10u);
    EXPECT_EQ(w.stats.get("prefetcher.mispredictedLaunches"), 0u);
}

TEST(DeepUmPipeline, PrefetchDisabledIssuesNothing)
{
    DeepUmConfig c;
    c.prefetch = false;
    DeepUmWorld w(c);
    mem::VAddr va = w.reg(12);
    mem::BlockId b0 = mem::blockOf(va);
    for (int i = 0; i < 3; ++i)
        for (int k = 0; k < 6; ++k)
            w.launch(kernelName(k), k,
                     {b0 + 2 * k, b0 + 2 * k + 1});
    EXPECT_EQ(w.stats.get("uvm.prefetchIssued"), 0u);
    EXPECT_EQ(w.stats.get("prefetcher.blocksIssued"), 0u);
}

TEST(DeepUmPipeline, PreevictKeepsFreeWatermark)
{
    DeepUmConfig c;
    c.preevictWatermarkPages = 2 * mem::kPagesPerBlock;
    DeepUmWorld w(c);
    mem::VAddr va = w.reg(12);
    mem::BlockId b0 = mem::blockOf(va);
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 6; ++k)
            w.launch(kernelName(k), k,
                     {b0 + 2 * k, b0 + 2 * k + 1});
    EXPECT_GT(w.stats.get("uvm.preEvictions"), 0u);
}

TEST(DeepUmPipeline, PreevictDisabledNeverPreevicts)
{
    DeepUmConfig c;
    c.preevict = false;
    DeepUmWorld w(c);
    mem::VAddr va = w.reg(12);
    mem::BlockId b0 = mem::blockOf(va);
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 6; ++k)
            w.launch(kernelName(k), k,
                     {b0 + 2 * k, b0 + 2 * k + 1});
    EXPECT_EQ(w.stats.get("uvm.preEvictions"), 0u);
}

TEST(DeepUmPipeline, TableBytesGrowWithDistinctKernels)
{
    DeepUmWorld w;
    mem::VAddr va = w.reg(4);
    mem::BlockId b0 = mem::blockOf(va);
    auto before = w.dum->tableBytes();
    w.launch("a", 1, {b0});
    w.launch("b", 2, {b0 + 1});
    w.launch("c", 3, {b0 + 2});
    EXPECT_GT(w.dum->tableBytes(), before);
    EXPECT_EQ(w.dum->blockTables().tableCount(), 3u);
}

TEST(DeepUmPipeline, ExecPredictionAccurateOnLoop)
{
    DeepUmWorld w;
    mem::VAddr va = w.reg(4);
    mem::BlockId b0 = mem::blockOf(va);
    for (int i = 0; i < 5; ++i) {
        w.launch("x", 1, {b0});
        w.launch("y", 2, {b0 + 1});
        w.launch("z", 3, {b0 + 2});
    }
    // After warmup the window never breaks.
    EXPECT_EQ(w.stats.get("prefetcher.mispredictedLaunches"), 0u);
    const auto &exec = w.dum->execTable();
    EXPECT_EQ(exec.entryCount(), 3u);
}

TEST(DeepUmPipeline, InvalidationFlagReachesDriver)
{
    DeepUmConfig on;
    on.invalidate = true;
    on.preevict = false; // isolate the invalidation path
    DeepUmWorld w(on);
    mem::VAddr va = w.reg(10);
    mem::BlockId b0 = mem::blockOf(va);
    // Touch 8 blocks (fills GPU), mark them dead, touch 2 more.
    std::vector<mem::BlockId> first;
    for (int i = 0; i < 8; ++i)
        first.push_back(b0 + i);
    w.launch("fill1", 1, {first[0], first[1], first[2], first[3]});
    w.launch("fill2", 2, {first[4], first[5], first[6], first[7]});
    w.drv.markInactiveRange(va, 8 * mem::kBlockBytes, true);
    w.launch("more", 3, {b0 + 8, b0 + 9});
    EXPECT_GT(w.stats.get("uvm.invalidatedBlocks"), 0u);
    EXPECT_EQ(w.stats.get("uvm.evictedBlocks"), 0u);
}

/** Run DeepUM's own audit (tables and prefetcher); a violation
 * aborts the test with a state dump. */
void
auditDeepUm(const DeepUm &dum)
{
    sim::CheckContext ctx("DeepUm", "test",
                          [&](std::ostream &os) { dum.dumpState(os); });
    dum.checkInvariants(ctx);
    EXPECT_GT(ctx.checks(), 0u);
}

/** The store's hold bits, slab order. */
std::vector<bool>
holdBits(const uvm::Driver &drv)
{
    std::vector<bool> held;
    for (uvm::BlockIndex i = 0; i < drv.store().slabSize(); ++i)
        held.push_back(drv.store().at(i).held);
    return held;
}

std::string
dumpOf(const Prefetcher &pf)
{
    std::ostringstream os;
    pf.dumpState(os);
    return os.str();
}

TEST(DeepUmPipeline, ChainRestartsInOneKernelKeepTheProtectedSet)
{
    DeepUmConfig cfg;
    cfg.preevictWatermarkPages = mem::kPagesPerBlock;
    cfg.lookaheadN = 2;
    DeepUmWorld w(cfg);
    mem::BlockId b0 = mem::blockOf(w.reg(12));
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 6; ++k)
            w.launch(kernelName(k), k,
                     {b0 + 2 * k, b0 + 2 * k + 1});

    // Enter kernel 0 again and deliver its faults as several batches
    // without running it. Each batch restarts the chain, which
    // re-issues everything the previous chain already protected.
    w.dum->notifyKernelLaunch(w.ids_[0]);
    const Prefetcher &pf = w.dum->prefetcher();
    const auto chains = w.stats.get("prefetcher.chainsStarted");
    const auto issued = w.stats.get("prefetcher.blocksIssued");
    std::size_t protected_first = 0;
    std::vector<bool> held_first;
    std::string dump_first;
    for (int restart = 0; restart < 4; ++restart) {
        w.dum->onFaultBatch({b0, b0 + 1});
        auditDeepUm(*w.dum);
        if (restart == 0) {
            protected_first = pf.protectedCount();
            held_first = holdBits(w.drv);
            dump_first = dumpOf(pf);
            continue;
        }
        EXPECT_EQ(pf.protectedCount(), protected_first) << restart;
        EXPECT_EQ(holdBits(w.drv), held_first) << restart;
        // The slot lists did not grow: each still names a block once.
        EXPECT_EQ(dumpOf(pf), dump_first) << restart;
    }
    EXPECT_EQ(w.stats.get("prefetcher.chainsStarted"), chains + 4);
    // The chain reached past the faulted pair into predicted kernels,
    // and every restart issued its candidates again.
    EXPECT_GT(protected_first, 2u);
    EXPECT_GE(w.stats.get("prefetcher.blocksIssued"),
              issued + 4 * (protected_first - 2));
}

TEST(DeepUmPipeline, FreedRangeScrubsItsProtection)
{
    DeepUmConfig cfg;
    cfg.preevictWatermarkPages = mem::kPagesPerBlock;
    cfg.lookaheadN = 2;
    DeepUmWorld w(cfg);
    mem::BlockId a0 = mem::blockOf(w.reg(6));
    const mem::VAddr vb = mem::kUmBase + 64 * mem::kBlockBytes;
    w.drv.registerRange(vb, 6 * mem::kBlockBytes);
    mem::BlockId b0 = mem::blockOf(vb);
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 6; ++k)
            w.launch(kernelName(k), k, {a0 + k, b0 + k});
    const Prefetcher &pf = w.dum->prefetcher();
    bool b_held = false;
    for (mem::BlockId b = b0; b < b0 + 6; ++b)
        b_held = b_held || pf.isProtected(b);
    ASSERT_TRUE(b_held);

    // Free B while the window still protects some of its blocks; a
    // range registered next reuses B's slab slots and must be
    // protected afresh in the same window slots.
    const uvm::BlockIndex b_slot = w.drv.store().find(b0);
    w.drv.unregisterRange(vb, 6 * mem::kBlockBytes);
    auditDeepUm(*w.dum);
    const mem::VAddr vc = mem::kUmBase + 128 * mem::kBlockBytes;
    w.drv.registerRange(vc, 6 * mem::kBlockBytes);
    mem::BlockId c0 = mem::blockOf(vc);
    ASSERT_EQ(w.drv.store().find(c0), b_slot);
    for (int i = 0; i < 3; ++i) {
        for (int k = 0; k < 6; ++k) {
            w.launch(kernelName(k), 100 + k, {a0 + k, c0 + k});
            auditDeepUm(*w.dum);
        }
    }
    bool c_held = false;
    for (mem::BlockId c = c0; c < c0 + 6; ++c)
        c_held = c_held || pf.isProtected(c);
    EXPECT_TRUE(c_held);
}

// ----------------------------------------------------- eviction policy

/** DeepUM with prefetching and pre-eviction off: holds are set by
 * hand, and nothing but the tests pick victims. */
struct PolicyWorld : DeepUmWorld {
    PolicyWorld() : DeepUmWorld(passive()) {}

    static DeepUmConfig
    passive()
    {
        DeepUmConfig c;
        c.prefetch = false;
        c.preevict = false;
        return c;
    }

    void
    hold(mem::BlockId b, bool on)
    {
        drv.setHeld(drv.store().find(b), on);
    }

    mem::BlockId
    pick(bool demand)
    {
        return policy.pickVictim(drv, demand);
    }

    DeepUmPolicy policy{dum->prefetcher()};
};

TEST(DeepUmPolicy, SkipsHeldBlocksInMigrationOrder)
{
    PolicyWorld w;
    mem::BlockId b0 = mem::blockOf(w.reg(6));
    w.launch("fill", 1, {b0, b0 + 1, b0 + 2, b0 + 3, b0 + 4, b0 + 5});
    std::vector<mem::BlockId> lru;
    for (mem::BlockId b : w.drv.lruOrder())
        lru.push_back(b);
    ASSERT_EQ(lru, (std::vector<mem::BlockId>{b0, b0 + 1, b0 + 2, b0 + 3,
                                              b0 + 4, b0 + 5}));
    EXPECT_EQ(w.pick(false), b0);
    w.hold(b0, true);
    w.hold(b0 + 1, true);
    EXPECT_EQ(w.pick(false), b0 + 2);
    EXPECT_EQ(w.pick(true), b0 + 2);
    w.hold(b0 + 2, true);
    EXPECT_EQ(w.pick(false), b0 + 3);
    w.hold(b0 + 1, false);
    EXPECT_EQ(w.pick(false), b0 + 1);
}

TEST(DeepUmPolicy, DemandFallsBackWhenEverythingIsHeld)
{
    PolicyWorld w;
    mem::BlockId b0 = mem::blockOf(w.reg(4));
    w.launch("fill", 1, {b0, b0 + 1, b0 + 2, b0 + 3});
    for (mem::BlockId b = b0; b != b0 + 4; ++b)
        w.hold(b, true);
    // A prefetch or pre-eviction would rather drop than evict data
    // predicted useful; a demand fault must make progress.
    EXPECT_EQ(w.pick(false), uvm::kNoBlock);
    EXPECT_EQ(w.pick(true), b0);
    w.hold(b0 + 2, false);
    EXPECT_EQ(w.pick(false), b0 + 2);
    EXPECT_EQ(w.pick(true), b0 + 2);
}

/** Picks victims the moment @p target's prefetch lands. */
struct PrefetchLandingProbe : uvm::DriverListener {
    PolicyWorld *w = nullptr;
    mem::BlockId target = uvm::kNoBlock;
    mem::BlockId other = uvm::kNoBlock; ///< held for the second pick
    bool pinnedResident = false;
    mem::BlockId nonDemand = 0, nonDemandAllHeld = 0, demandAllHeld = 0;

    void
    onBlockMigrated(mem::BlockId b, bool was_prefetch) override
    {
        if (b != target || !was_prefetch)
            return;
        pinnedResident = w->drv.isPinned(b) && w->drv.isResident(b);
        nonDemand = w->pick(false);
        w->hold(other, true);
        nonDemandAllHeld = w->pick(false);
        demandAllHeld = w->pick(true);
        w->hold(other, false);
    }
};

TEST(DeepUmPolicy, PinnedResidentBlockIsNeverAVictim)
{
    PolicyWorld w;
    mem::BlockId b0 = mem::blockOf(w.reg(4));
    w.launch("warm", 1, {b0, b0 + 1});
    w.hold(b0, true);
    PrefetchLandingProbe probe;
    probe.w = &w;
    probe.target = b0 + 2;
    probe.other = b0 + 1;
    w.drv.addListener(&probe);
    // The prefetch is in flight when the kernel faults on the same
    // block: the fault pins it, then the prefetch lands it while the
    // demand command is still queued — resident *and* pinned, and
    // the newest block in the LRU.
    ASSERT_TRUE(w.drv.enqueuePrefetch(b0 + 2, 0));
    w.launch("use", 2, {b0 + 2});
    ASSERT_TRUE(probe.pinnedResident);
    EXPECT_EQ(probe.nonDemand, b0 + 1);
    EXPECT_EQ(probe.nonDemandAllHeld, uvm::kNoBlock);
    EXPECT_EQ(probe.demandAllHeld, b0);
    EXPECT_FALSE(w.drv.isPinned(b0 + 2)); // the fault resolved
    EXPECT_EQ(w.pick(true), b0 + 1);
}

/** The linear walk DeepUmPolicy replaced, over the prefetcher. */
mem::BlockId
referenceVictim(const uvm::Driver &drv, const Prefetcher &pf, bool demand)
{
    for (mem::BlockId b : drv.lruOrder())
        if (!drv.isPinned(b) && !pf.isProtected(b))
            return b;
    if (!demand)
        return uvm::kNoBlock;
    for (mem::BlockId b : drv.lruOrder())
        if (!drv.isPinned(b))
            return b;
    return uvm::kNoBlock;
}

/** Checks the policy against the reference walk at every residency
 * change, and the store's hold bits against the protected set. */
struct PolicyAgreement : uvm::DriverListener {
    const uvm::Driver *drv = nullptr;
    const Prefetcher *pf = nullptr;
    DeepUmPolicy *policy = nullptr;
    std::uint64_t checks = 0;
    std::uint64_t protectedSkips = 0;

    void
    check()
    {
        for (bool demand : {false, true}) {
            mem::BlockId want = referenceVictim(*drv, *pf, demand);
            ASSERT_EQ(policy->pickVictim(*drv, demand), want);
            // The walk stepped over the LRU head (held or pinned).
            if (drv->lruOrder().size() != 0 &&
                want != *drv->lruOrder().begin())
                ++protectedSkips;
        }
        for (mem::BlockId b : drv->lruOrder())
            ASSERT_EQ(drv->blockInfo(b).held, pf->isProtected(b));
        ++checks;
    }

    void
    onBlockMigrated(mem::BlockId, bool) override
    {
        check();
    }
    void
    onBlockEvicted(mem::BlockId, bool) override
    {
        check();
    }
};

TEST(DeepUmPolicy, AgreesWithLinearWalkOverALearnedLoop)
{
    DeepUmConfig cfg;
    cfg.preevictWatermarkPages = mem::kPagesPerBlock;
    cfg.lookaheadN = 2;
    DeepUmWorld w(cfg);
    mem::BlockId b0 = mem::blockOf(w.reg(12));
    DeepUmPolicy policy(w.dum->prefetcher());
    PolicyAgreement agree;
    agree.drv = &w.drv;
    agree.pf = &w.dum->prefetcher();
    agree.policy = &policy;
    w.drv.addListener(&agree);
    for (int i = 0; i < 6; ++i)
        for (int k = 0; k < 6; ++k)
            w.launch(kernelName(k), k,
                     {b0 + 2 * k, b0 + 2 * k + 1});
    EXPECT_GT(agree.checks, 100u);
    EXPECT_GT(agree.protectedSkips, 10u);
}

} // namespace
