/**
 * @file
 * Unit tests for the correlator, prefetcher (chaining semantics),
 * DeepUM eviction policy (protected-block skipping, the demand
 * fallback, pinned-resident blocks, agreement with the linear LRU
 * walk it replaced), and pre-evictor, wired to a real driver on a
 * small simulated GPU.
 */

#include <gtest/gtest.h>

#include <functional>
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

namespace deepum::core {

/** Test-only access to the prefetcher's walk plans. */
struct PrefetcherTestAccess {
    /** Walk every transition live, as if no plan could exist. */
    static void disablePlans(Prefetcher &pf) { pf.plansOn_ = false; }

    /** Point one candidate of a replayable plan at the wrong slab
     * slot. @return false if no plan is replayable. */
    static bool
    corruptPlan(Prefetcher &pf)
    {
        for (ExecId id = 0; id < pf.plans_.size(); ++id) {
            Prefetcher::WalkPlan &plan = pf.plans_[id];
            const BlockCorrelationTable *bt = pf.blockTables_.find(id);
            if (bt == nullptr || !pf.planLive(plan, *bt) ||
                plan.steps.size() < 2)
                continue;
            plan.steps[1].idx = plan.steps[0].idx;
            return true;
        }
        return false;
    }
};

} // namespace deepum::core

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

// ---------------------------------------------------------- walk plans

/** Prefetch arrivals in order: the driver queue's order, observed. */
struct ArrivalLog : uvm::DriverListener {
    std::vector<mem::BlockId> blocks;

    void
    onBlockMigrated(mem::BlockId b, bool was_prefetch) override
    {
        if (was_prefetch)
            blocks.push_back(b);
    }
};

/**
 * Four kernels in a loop, driven by hand: kernel k's table covers
 * blocks [b0 + 16k, b0 + 16k + 16). Three hubs a -> a+1 -> a+2, each
 * with two leaves of its own (a+3 .. a+8), so a transition walk
 * issues the hubs on entry and the leaves from its visits. Restarts
 * go to the prefetcher directly, so the correlator never records
 * into a table behind the test's back.
 */
struct PlanWorld : DeepUmWorld {
    static constexpr std::uint64_t kRunBlocks = 64;

    ArrivalLog arrivals;
    mem::BlockId b0;

    PlanWorld(const DeepUmConfig &c, bool plans)
        : DeepUmWorld(c), b0(mem::blockOf(reg(kRunBlocks)))
    {
        if (!plans)
            PrefetcherTestAccess::disablePlans(dum->prefetcher());
        drv.addListener(&arrivals);
        for (int round = 0; round < 3; ++round)
            for (ExecId k = 0; k < 4; ++k)
                dum->notifyKernelLaunch(k);
        for (ExecId k = 0; k < 4; ++k) {
            BlockCorrelationTable &t = table(k);
            const mem::BlockId a = base(k);
            for (mem::BlockId h = 0; h < 3; ++h) {
                t.record(a + h, a + 3 + 2 * h);
                t.record(a + h, a + 4 + 2 * h);
                if (h < 2)
                    t.record(a + h, a + h + 1);
            }
            t.captureStartEnd(a, a + 8, 9);
        }
    }

    mem::BlockId base(ExecId k) const { return b0 + 16 * k; }

    BlockCorrelationTable &
    table(ExecId k)
    {
        return dum->blockTables().getOrCreate(k);
    }

    /** All nine blocks of kernel @p k's walk: a restart with these
     * as its faults issues nothing for the running kernel. */
    std::vector<mem::BlockId>
    walkOf(ExecId k) const
    {
        std::vector<mem::BlockId> v;
        for (mem::BlockId i = 0; i < 9; ++i)
            v.push_back(base(k) + i);
        return v;
    }

    void
    restart(const std::vector<mem::BlockId> &faults)
    {
        dum->prefetcher().onFaultBlocks(faults);
    }

    std::uint64_t replayed() const
    {
        return stats.get("prefetcher.walksReplayed");
    }

    /**
     * Everything a walk leaves behind: the prefetch queue's order
     * (drained through the migration pipeline), the hold bits, the
     * window's slot lists, every table and every stat but the three
     * that count how walks ran.
     */
    std::string
    snapshot()
    {
        eq.run();
        std::ostringstream os;
        os << "arrivals:";
        for (mem::BlockId b : arrivals.blocks)
            os << " " << b;
        os << "\nheld:";
        for (bool h : holdBits(drv))
            os << h;
        os << "\n";
        dum->prefetcher().dumpState(os);
        dum->blockTables().dumpState(os);
        std::ostringstream st;
        stats.dump(st);
        std::istringstream lines(st.str());
        for (std::string line; std::getline(lines, line);) {
            if (line.find("prefetcher.walks") == std::string::npos &&
                line.find("prefetcher.tableVisits") == std::string::npos)
                os << line << "\n";
        }
        return os.str();
    }
};

/**
 * Run @p script on a world that replays walk plans and on one that
 * walks every transition live, auditing the planned world at each
 * snapshot; every snapshot must match.
 */
struct PlanPair {
    PlanWorld planned;
    PlanWorld live;
    std::vector<std::string> plannedSnaps, liveSnaps;

    explicit PlanPair(DeepUmConfig c = config())
        : planned(c, true), live(c, false)
    {}

    static DeepUmConfig
    config()
    {
        DeepUmConfig c;
        c.lookaheadN = 2;
        // No kernel runs, so every prefetch would count as wasted and
        // erase its entry: keep the tables to the test's own edits.
        c.wasteFeedback = false;
        return c;
    }

    /** Apply @p step to both worlds, then snapshot both. */
    void
    step(const std::function<void(PlanWorld &)> &fn)
    {
        fn(planned);
        fn(live);
        plannedSnaps.push_back(planned.snapshot());
        liveSnaps.push_back(live.snapshot());
        auditDeepUm(*planned.dum);
        auditDeepUm(*live.dum);
        EXPECT_EQ(plannedSnaps.back(), liveSnaps.back())
            << "after step " << plannedSnaps.size();
    }

    /** Restart both worlds' chains from kernel @p k's own blocks. */
    void
    restart(ExecId k)
    {
        step([k](PlanWorld &w) { w.restart(w.walkOf(k)); });
    }
};

TEST(WalkPlan, ReplaysAnUnchangedTableAndMatchesTheLiveWalk)
{
    PlanPair p;
    p.step([](PlanWorld &w) { w.dum->notifyKernelLaunch(0); });
    for (int i = 0; i < 4; ++i)
        p.restart(0);
    // The first walk into kernel 1 moves its ways' lastEpoch stamps,
    // so it is not kept; the second records, the last two replay.
    EXPECT_EQ(p.planned.stats.get("prefetcher.walksRecorded"), 1u);
    EXPECT_EQ(p.planned.replayed(), 2u);
    EXPECT_EQ(p.live.replayed(), 0u);
    EXPECT_EQ(p.live.stats.get("prefetcher.walksRecorded"), 0u);
    // A replay probes no table set.
    EXPECT_LT(p.planned.stats.get("prefetcher.tableVisits"),
              p.live.stats.get("prefetcher.tableVisits"));
}

/** Record and replay kernel 1's plan, apply @p mutate, then require
 * a re-record that matches the live walk, and a replay after it. */
void
expectReRecord(const std::function<void(PlanWorld &)> &mutate)
{
    PlanPair p;
    p.step([](PlanWorld &w) { w.dum->notifyKernelLaunch(0); });
    for (int i = 0; i < 3; ++i)
        p.restart(0);
    const std::uint64_t replayed = p.planned.replayed();
    ASSERT_GT(replayed, 0u);
    const std::string before = p.plannedSnaps.back();
    p.step(mutate);
    p.restart(0);
    EXPECT_EQ(p.planned.replayed(), replayed)
        << "a stale plan was replayed";
    // The first walk may itself move lastEpoch stamps (a new epoch),
    // and then it is not kept; the one after it is.
    for (int i = 0; i < 2 && p.planned.replayed() == replayed; ++i)
        p.restart(0);
    EXPECT_EQ(p.planned.replayed(), replayed + 1)
        << "the re-recorded plan was not replayed";
    EXPECT_NE(p.plannedSnaps.back(), before);
}

TEST(WalkPlan, RecordForcesReRecord)
{
    expectReRecord([](PlanWorld &w) {
        w.table(1).record(w.base(1) + 2, w.base(1) + 9);
    });
}

TEST(WalkPlan, EraseForcesReRecord)
{
    expectReRecord([](PlanWorld &w) { w.table(1).erase(w.base(1) + 1); });
}

TEST(WalkPlan, EraseRangeForcesReRecord)
{
    // A scrub with the store untouched: only the table's version
    // can tell the plan that its leaves are gone.
    expectReRecord([](PlanWorld &w) {
        w.dum->blockTables().eraseBlocksInRange(w.base(1) + 7,
                                                w.base(1) + 9);
    });
}

TEST(WalkPlan, CaptureStartEndForcesReRecord)
{
    expectReRecord([](PlanWorld &w) {
        w.table(1).captureStartEnd(w.base(1) + 1, w.base(1) + 8, 9);
    });
}

TEST(WalkPlan, VisitThatMovesLastEpochForcesReRecord)
{
    // An entry no walk reaches goes stale; refreshing it brings it
    // back into the fresh sweep.
    PlanPair p;
    p.step([](PlanWorld &w) {
        BlockCorrelationTable &t = w.table(1);
        t.record(w.base(1) + 10, w.base(1) + 11);
        for (int e = 0; e < 6; ++e)
            t.captureStartEnd(w.base(1), w.base(1) + 8, 9);
        w.dum->notifyKernelLaunch(0);
    });
    for (int i = 0; i < 3; ++i)
        p.restart(0);
    const std::uint64_t replayed = p.planned.replayed();
    ASSERT_GT(replayed, 0u);
    const std::uint64_t version = p.planned.table(1).version();
    // Refreshing a fresh entry moves nothing the walk reads.
    p.step([](PlanWorld &w) { w.table(1).refresh(w.base(1)); });
    EXPECT_EQ(p.planned.table(1).version(), version);
    p.step([](PlanWorld &w) { w.table(1).refresh(w.base(1) + 10); });
    EXPECT_NE(p.planned.table(1).version(), version);
    p.restart(0);
    EXPECT_EQ(p.planned.replayed(), replayed);
    p.restart(0);
    EXPECT_EQ(p.planned.replayed(), replayed + 1);
}

TEST(WalkPlan, RangeRegisterAndUnregisterForceReRecord)
{
    // Kernel 1's table names blocks of a range that is not
    // registered yet: the plan records them as unknown, and the
    // registration must make the next walk resolve them.
    const mem::VAddr vr = mem::kUmBase + 256 * mem::kBlockBytes;
    PlanPair p;
    p.step([vr](PlanWorld &w) {
        w.table(1).record(w.base(1) + 2, mem::blockOf(vr));
        w.table(1).record(mem::blockOf(vr), mem::blockOf(vr) + 1);
        w.dum->notifyKernelLaunch(0);
    });
    for (int i = 0; i < 3; ++i)
        p.restart(0);
    std::uint64_t replayed = p.planned.replayed();
    ASSERT_GT(replayed, 0u);
    p.step([vr](PlanWorld &w) {
        w.drv.registerRange(vr, 2 * mem::kBlockBytes);
    });
    p.restart(0);
    EXPECT_EQ(p.planned.replayed(), replayed);
    p.restart(0);
    EXPECT_EQ(p.planned.replayed(), ++replayed);
    p.restart(0);
    ++replayed;
    // Freeing it scrubs the table and the protection stamps.
    p.step([vr](PlanWorld &w) {
        w.drv.unregisterRange(vr, 2 * mem::kBlockBytes);
    });
    p.restart(0);
    EXPECT_EQ(p.planned.replayed(), replayed);
    p.restart(0);
    EXPECT_EQ(p.planned.replayed(), replayed + 1);
}

TEST(WalkPlan, BudgetCutsMidReplayMatchTheLiveWalk)
{
    // Every cap from "dies on entry" to "never binds": a restart from
    // kernel k's own blocks leaves the whole budget to kernel k+1,
    // one with no faults spends nine candidates on kernel k first.
    // Each kernel takes the short-budget restart first, so a replay
    // cut in a fresh slot generation is followed by a full one in
    // the same generation (the listed prefix must not overreach).
    std::uint32_t cutReplays = 0;
    for (std::uint32_t cap = 1; cap <= 24; ++cap) {
        DeepUmConfig c = PlanPair::config();
        c.chainEnqueueCap = cap;
        PlanPair p(c);
        for (int round = 0; round < 2; ++round) {
            for (ExecId k = 0; k < 4; ++k) {
                p.step([k](PlanWorld &w) {
                    w.dum->notifyKernelLaunch(k);
                });
                const std::uint64_t before = p.planned.replayed();
                p.step([](PlanWorld &w) { w.restart({}); });
                const Prefetcher &pf = p.planned.dum->prefetcher();
                if (p.planned.replayed() > before && !pf.chainActive() &&
                    pf.chainDepth() == 1)
                    ++cutReplays;
                p.restart(k);
                p.restart(k);
                p.step([](PlanWorld &w) {
                    w.dum->prefetcher().onKernelEnd();
                });
            }
        }
        if (::testing::Test::HasFailure())
            FAIL() << "chainEnqueueCap " << cap;
    }
    EXPECT_GE(cutReplays, 4u);
}

TEST(WalkPlan, PausedWalkResumesLiveAfterATableMutation)
{
    // lookaheadN 2: the walk into kernel 2 pauses on entry; its table
    // changes before the running kernel ends and the walk resumes.
    PlanPair p;
    p.step([](PlanWorld &w) { w.dum->notifyKernelLaunch(0); });
    for (int i = 0; i < 3; ++i) {
        p.restart(0);
        ASSERT_TRUE(p.planned.dum->prefetcher().chainActive());
        ASSERT_EQ(p.planned.dum->prefetcher().chainDepth(), 2u);
        p.step([i](PlanWorld &w) {
            w.table(2).record(w.base(2) + 1,
                              w.base(2) + 9 + mem::BlockId(i));
            w.dum->prefetcher().onKernelEnd();
        });
        // The resumed walk and the transitions after it pause again.
        EXPECT_TRUE(p.planned.dum->prefetcher().chainActive());
    }
    EXPECT_GT(p.planned.replayed(), 0u);
}

TEST(WalkPlanDeath, CorruptedPlanEntryIsCaught)
{
    PlanWorld w(PlanPair::config(), true);
    w.dum->notifyKernelLaunch(0);
    for (int i = 0; i < 3; ++i)
        w.restart(w.walkOf(0));
    auditDeepUm(*w.dum);
    ASSERT_TRUE(PrefetcherTestAccess::corruptPlan(w.dum->prefetcher()));
    EXPECT_DEATH(auditDeepUm(*w.dum), "is not its table's walk");
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
