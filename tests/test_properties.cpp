/**
 * @file
 * Property-based tests: randomized sweeps (TEST_P and fuzz loops)
 * over structural invariants — allocator conservation, driver
 * residency conservation, DeepUM's audits under range register/free
 * churn, table geometry invariants, VA-space non-overlap under
 * random workloads.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/block_correlation_table.hh"
#include "core/deepum.hh"
#include "core/execution_id_table.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "harness/experiment.hh"
#include "mem/frame_pool.hh"
#include "mem/va_space.hh"
#include "models/registry.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/validate.hh"
#include "torch/allocator.hh"
#include "uvm/driver.hh"

using namespace deepum;

namespace {

// ------------------------------------------------- allocator fuzzing

class AllocSource : public torch::SegmentSource
{
  public:
    explicit AllocSource(std::uint64_t cap) : va_(cap) {}
    mem::VAddr
    allocSegment(std::uint64_t bytes) override
    {
        return va_.allocate(bytes);
    }
    void freeSegment(mem::VAddr va) override { va_.release(va); }
    void
    noteInactive(mem::VAddr, std::uint64_t bytes, bool inactive) override
    {
        ledger_ += inactive ? static_cast<std::int64_t>(bytes)
                            : -static_cast<std::int64_t>(bytes);
        ASSERT_GE(ledger_, 0);
    }
    mem::VaSpace va_;
    std::int64_t ledger_ = 0;
};

class AllocatorFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AllocatorFuzz, RandomAllocFreeKeepsInvariants)
{
    sim::Rng rng(GetParam());
    sim::StatSet stats;
    AllocSource src(512 * sim::kMiB);
    torch::CachingAllocator alloc(src, stats);

    std::map<mem::VAddr, std::uint64_t> live; // addr -> rounded size
    for (int step = 0; step < 2000; ++step) {
        bool do_alloc = live.empty() || rng.below(100) < 55;
        if (do_alloc) {
            std::uint64_t size = 1 + rng.below(6 * sim::kMiB);
            mem::VAddr p = alloc.malloc(size);
            if (p == 0)
                continue; // OOM is acceptable under fuzz
            std::uint64_t rounded = alloc.sizeOf(p);
            ASSERT_GE(rounded, size);
            // No overlap with any live block.
            auto it = live.upper_bound(p);
            if (it != live.end()) {
                ASSERT_LE(p + rounded, it->first);
            }
            if (it != live.begin()) {
                --it;
                ASSERT_LE(it->first + it->second, p);
            }
            live.emplace(p, rounded);
        } else {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            alloc.free(it->first);
            live.erase(it);
        }
        // Conservation: active tracks the live set exactly.
        std::uint64_t live_bytes = 0;
        for (auto &[a, s] : live)
            live_bytes += s;
        ASSERT_EQ(alloc.activeBytes(), live_bytes);
        ASSERT_EQ(alloc.activeBytes() + alloc.cachedBytes(),
                  alloc.reservedBytes());
        ASSERT_EQ(static_cast<std::uint64_t>(src.ledger_),
                  alloc.cachedBytes());
        if (step % 500 == 499)
            alloc.emptyCache();
    }
    for (auto &[a, s] : live)
        alloc.free(a);
    alloc.emptyCache();
    EXPECT_EQ(alloc.reservedBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorFuzz,
                         ::testing::Values(1u, 7u, 42u, 1234u));

// ------------------------------------------------- driver residency

class DriverFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DriverFuzz, ResidencyConservesFrames)
{
    sim::Rng rng(GetParam());
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::TimingConfig cfg;
    gpu::FaultBuffer fb;
    gpu::PcieLink link(cfg);
    mem::FramePool frames(6 * mem::kPagesPerBlock);
    gpu::GpuEngine engine(eq, cfg, fb, stats);
    uvm::Driver drv(eq, cfg, fb, link, frames, stats);
    engine.setBackend(&drv);
    drv.setEngine(&engine);

    constexpr std::uint64_t kBlocks = 16;
    drv.registerRange(mem::kUmBase, kBlocks * mem::kBlockBytes);
    mem::BlockId b0 = mem::blockOf(mem::kUmBase);

    gpu::KernelInfo k;
    for (int round = 0; round < 60; ++round) {
        k.name = "fuzz";
        k.computeNs = 1 + rng.below(200 * sim::kUsec);
        k.accesses.clear();
        std::uint64_t n = 1 + rng.below(5);
        for (std::uint64_t i = 0; i < n; ++i) {
            k.accesses.push_back(gpu::BlockAccess{
                b0 + rng.below(kBlocks), 512, rng.below(2) == 0});
        }
        // Sprinkle prefetches and pre-evictions.
        if (rng.below(3) == 0)
            drv.enqueuePrefetch(b0 + rng.below(kBlocks),
                                static_cast<std::uint32_t>(round));
        if (rng.below(4) == 0)
            drv.preEvictOne();

        bool done = false;
        engine.launch(&k, [&] { done = true; });
        eq.run();
        ASSERT_TRUE(done);

        // Invariant: used frames == sum of resident block pages,
        // and the LRU list contains exactly the resident blocks.
        std::uint64_t resident_pages = 0;
        std::size_t resident_blocks = 0;
        for (mem::BlockId b = b0; b < b0 + kBlocks; ++b) {
            if (drv.blockInfo(b).loc == uvm::Loc::Device) {
                resident_pages += drv.blockInfo(b).pages;
                ++resident_blocks;
            }
        }
        ASSERT_EQ(frames.usedPages(), resident_pages);
        ASSERT_EQ(drv.lruOrder().size(), resident_blocks);
        ASSERT_LE(frames.usedPages(), frames.totalPages());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriverFuzz,
                         ::testing::Values(3u, 99u, 2026u));

// ------------------------------------------------- deepum range churn

/**
 * DeepUM on a small GPU while UM ranges come and go, as the caching
 * allocator's emptyCache() makes them: a fixed cycle of kernels over
 * random blocks of the live ranges, random frees, and registrations,
 * some at a freed VA (so its BlockIds come back on whichever slab
 * slots are free then). The driver and DeepUM audits run after every
 * step; every block a table names must stay registered.
 */
class DeepUmChurn : public ::testing::TestWithParam<std::uint64_t>
{
};

constexpr std::uint64_t kChurnSeeds[] = {1, 5, 17, 42, 99, 314, 2026, 65537};

/**
 * What the churn reached, summed over the seeds and checked once all
 * of them ran: some free hit a protected block, and some plan was
 * replayed after a registration. (Lookahead 1 caches no plan, so no
 * single seed is bound to replay one.)
 */
struct ChurnCoverage : ::testing::Environment {
    static inline std::size_t seeds = 0;
    static inline std::uint64_t protectedFrees = 0;
    static inline std::uint64_t replaysAfterRegister = 0;

    void
    TearDown() override
    {
        if (seeds < std::size(kChurnSeeds))
            return; // a filtered run
        EXPECT_GT(protectedFrees, 0u) << "no seed freed a protected block";
        EXPECT_GT(replaysAfterRegister, 0u)
            << "no seed replayed a plan after a registration";
    }
};

[[maybe_unused]] ::testing::Environment *const kChurnCoverage =
    ::testing::AddGlobalTestEnvironment(new ChurnCoverage);

TEST_P(DeepUmChurn, AuditsStayCleanUnderRegisterFreeChurn)
{
    const std::uint64_t seed = GetParam();
    sim::Rng rng(seed);
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::TimingConfig cfg;
    gpu::FaultBuffer fb;
    gpu::PcieLink link(cfg);
    mem::FramePool frames(6 * mem::kPagesPerBlock);
    gpu::GpuEngine engine(eq, cfg, fb, stats);
    uvm::Driver drv(eq, cfg, fb, link, frames, stats);
    engine.setBackend(&drv);
    drv.setEngine(&engine);
    core::DeepUmConfig dcfg;
    constexpr std::uint32_t kLookaheads[] = {1, 2, 8};
    dcfg.lookaheadN = kLookaheads[rng.below(3)];
    dcfg.preevictWatermarkPages = mem::kPagesPerBlock;
    core::DeepUm dum(drv, dcfg, stats);
    sim::Validator audit;
    audit.add("driver", drv);
    audit.add("deepum", dum);
    drv.setValidator(&audit);

    // Eight VA slots of up to four blocks each.
    constexpr std::uint64_t kSlots = 8;
    auto vaOf = [](std::uint64_t slot) {
        return mem::kUmBase + slot * 16 * mem::kBlockBytes;
    };
    std::map<std::uint64_t, std::uint64_t> live; // slot -> blocks
    std::vector<std::uint64_t> freed;            // slots, oldest first
    auto registerSlot = [&](std::uint64_t slot) {
        const std::uint64_t blocks = 1 + rng.below(4);
        drv.registerRange(vaOf(slot), blocks * mem::kBlockBytes);
        live.emplace(slot, blocks);
    };
    registerSlot(0);
    registerSlot(1);

    constexpr int kKernels = 5;
    std::vector<std::vector<mem::BlockId>> uses(kKernels);
    auto drawUses = [&](std::vector<mem::BlockId> &v) {
        v.clear();
        for (std::uint64_t n = 1 + rng.below(3); n != 0; --n) {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            v.push_back(mem::blockOf(vaOf(it->first)) + rng.below(it->second));
        }
    };
    for (auto &v : uses)
        drawUses(v);

    core::ExecutionIdTable ids;
    gpu::KernelInfo k;
    int next = 0;
    bool registered = false; // a registration since the last free
    std::uint64_t protectedFrees = 0, replaysAfterRegister = 0;
    for (int step = 0; step < 600; ++step) {
        const std::uint64_t pick = rng.below(20);
        if (pick == 0 && live.size() > 1) {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            const mem::BlockId b0 = mem::blockOf(vaOf(it->first));
            for (mem::BlockId b = b0; b < b0 + it->second; ++b)
                if (dum.prefetcher().isProtected(b)) {
                    ++protectedFrees;
                    break;
                }
            drv.unregisterRange(vaOf(it->first),
                                it->second * mem::kBlockBytes);
            freed.push_back(it->first);
            live.erase(it);
            registered = false;
        } else if (pick == 1 && live.size() < kSlots) {
            std::uint64_t slot = 0;
            if (!freed.empty() && rng.below(2) == 0) {
                slot = freed.front(); // back at a freed VA
            } else {
                while (live.count(slot) != 0)
                    ++slot;
            }
            std::erase(freed, slot);
            registerSlot(slot);
            registered = true;
        } else {
            // The next kernel of the cycle; uses that name a freed
            // block are redrawn over the live ranges.
            std::vector<mem::BlockId> &use = uses[next];
            for (mem::BlockId b : use)
                if (!drv.knowsBlock(b)) {
                    drawUses(use);
                    break;
                }
            k.name = "churn";
            k.argHash = static_cast<std::uint64_t>(next);
            k.computeNs = 1 + rng.below(200 * sim::kUsec);
            k.accesses.clear();
            for (mem::BlockId b : use)
                k.accesses.push_back(gpu::BlockAccess{b, 512, false});
            next = (next + 1) % kKernels;
            const std::uint64_t replayed =
                stats.get("prefetcher.walksReplayed");
            dum.notifyKernelLaunch(ids.lookupOrAssign(k));
            bool done = false;
            engine.launch(&k, [&] { done = true; });
            eq.run();
            ASSERT_TRUE(done) << "seed " << seed << " step " << step;
            if (registered &&
                stats.get("prefetcher.walksReplayed") > replayed)
                ++replaysAfterRegister;
        }
        const std::string where =
            "seed " + std::to_string(seed) + " step " + std::to_string(step);
        audit.runAll(where.c_str());
    }
    ++ChurnCoverage::seeds;
    ChurnCoverage::protectedFrees += protectedFrees;
    ChurnCoverage::replaysAfterRegister += replaysAfterRegister;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepUmChurn,
                         ::testing::ValuesIn(kChurnSeeds),
                         [](const auto &info) {
                             return "seed" + std::to_string(info.param);
                         });

// ------------------------------------------------- table geometry

using Geometry = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

class TableGeometry : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(TableGeometry, CapacityAndMruInvariants)
{
    auto [rows, assoc, succs] = GetParam();
    core::BlockTableConfig cfg{rows, assoc, succs};
    core::BlockCorrelationTable t(cfg);
    sim::Rng rng(rows * 131 + assoc * 7 + succs);

    for (int i = 0; i < 5000; ++i) {
        mem::BlockId a = rng.below(4096);
        mem::BlockId b = rng.below(4096);
        if (a != b)
            t.record(a, b);
        // Entry count can never exceed the configured capacity.
        ASSERT_LE(t.entryCount(),
                  static_cast<std::size_t>(rows) * assoc);
    }
    // Successor lists respect the cap and contain no duplicates.
    for (mem::BlockId a = 0; a < 4096; ++a) {
        const auto &s = t.successors(a);
        ASSERT_LE(s.size(), succs);
        for (std::size_t i = 0; i < s.size(); ++i)
            for (std::size_t j = i + 1; j < s.size(); ++j)
                ASSERT_NE(s[i], s[j]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table6Configs, TableGeometry,
    ::testing::Values(Geometry{128, 2, 4}, Geometry{128, 2, 8},
                      Geometry{128, 4, 4}, Geometry{512, 2, 4},
                      Geometry{1024, 4, 4}, Geometry{2048, 2, 4},
                      Geometry{4096, 2, 4}));

// ------------------------------------------------- va space fuzzing

class VaFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(VaFuzz, RandomRangesNeverOverlap)
{
    sim::Rng rng(GetParam());
    mem::VaSpace va(256 * sim::kMiB);
    std::map<mem::VAddr, std::uint64_t> live;
    for (int i = 0; i < 3000; ++i) {
        if (live.empty() || rng.below(2) == 0) {
            std::uint64_t bytes = 1 + rng.below(8 * sim::kMiB);
            mem::VAddr p = va.allocate(bytes);
            if (p == 0)
                continue;
            std::uint64_t sz = va.sizeOf(p);
            auto it = live.upper_bound(p);
            if (it != live.end()) {
                ASSERT_LE(p + sz, it->first);
            }
            if (it != live.begin()) {
                --it;
                ASSERT_LE(it->first + it->second, p);
            }
            live.emplace(p, sz);
        } else {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            va.release(it->first);
            live.erase(it);
        }
    }
    for (auto &[p, s] : live)
        va.release(p);
    EXPECT_EQ(va.usedBytes(), 0u);
    // A full-capacity allocation must succeed after total release.
    EXPECT_NE(va.allocate(200 * sim::kMiB), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VaFuzz,
                         ::testing::Values(11u, 222u, 3333u));

// ------------------------------------------------- experiment sweep

using BatchCase = std::tuple<const char *, std::uint64_t>;

class ExperimentSweep : public ::testing::TestWithParam<BatchCase>
{
};

TEST_P(ExperimentSweep, DeepUmNeverLosesToUm)
{
    auto [model, batch] = GetParam();
    torch::Tape tape = models::buildModel(model, batch);
    harness::ExperimentConfig cfg;
    cfg.iterations = 12;
    cfg.warmup = 6;
    auto um = harness::runExperiment(tape, harness::SystemKind::Um,
                                     cfg);
    auto dum = harness::runExperiment(
        tape, harness::SystemKind::DeepUm, cfg);
    ASSERT_TRUE(um.ok && dum.ok);
    EXPECT_LE(dum.secPer100Iters, um.secPer100Iters * 1.02)
        << model << " batch " << batch;
    EXPECT_LE(dum.pageFaultsPerIter, um.pageFaultsPerIter * 1.02);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, ExperimentSweep,
    ::testing::Values(BatchCase{"gpt2-xl", 3}, BatchCase{"gpt2-l", 7},
                      BatchCase{"bert-large", 18},
                      BatchCase{"bert-base", 31},
                      BatchCase{"resnet152", 1280},
                      BatchCase{"dlrm", 131072},
                      BatchCase{"mobilenet", 6144}));

} // namespace
