/**
 * @file
 * The Unified Memory driver model.
 *
 * Implements the NVIDIA fault-handling pipeline of paper Figure 3:
 * fetch fault-buffer entries, preprocess (dedupe + group by UM
 * block), check device space, evict when full, populate, transfer,
 * map, replay. Running it bare gives the "naive UM" baseline; the
 * DeepUM components in core/ attach through DriverListener hooks,
 * the prefetch queue, the pluggable eviction policy, and the
 * inactive-range interface — exactly the surfaces the paper's kernel
 * module hooks in the real driver.
 *
 * Two "kernel threads" are modelled as DES actors:
 *  - the fault-handling thread (drain buffer -> fault queue, replay),
 *  - the migration thread (serves the fault queue first, then the
 *    prefetch queue; owns the PCIe link).
 *
 * Per-block metadata lives in a dense BlockStore (block_store.hh):
 * BlockId -> slab index is one range probe, the LRU is the store's
 * rank array, and "pinned by an outstanding fault" is a bit in the
 * record whose count the store keeps — no hashing anywhere on the
 * fault path. The driver replays the GPU when that count reaches
 * zero (maybeReplay), copies every block over the link through one
 * transfer(), and goes idle in one place: migrationStep() with both
 * queues empty.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "gpu/backend.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "gpu/timing.hh"
#include "mem/frame_pool.hh"
#include "sim/sim_object.hh"
#include "sim/spsc_queue.hh"
#include "sim/stats.hh"
#include "uvm/block_info.hh"
#include "uvm/block_store.hh"
#include "uvm/eviction_policy.hh"
#include "uvm/listener.hh"

namespace deepum::sim {
class CheckContext;
class Validator;
}

namespace deepum::uvm {

class ProvenanceLedger;

/** A queued migration request. */
struct MigrateCmd {
    mem::BlockId block = kNoBlock;
    std::uint32_t execId = 0; ///< predicted consumer (prefetch only)
    std::uint32_t depth = 0;  ///< prefetch chain depth (0 = current)
};

/** The UM driver: fault handling, migration, eviction. */
class Driver : public sim::SimObject, public gpu::UvmBackend
{
  public:
    Driver(sim::EventQueue &eq, const gpu::TimingConfig &cfg,
           gpu::FaultBuffer &fb, gpu::PcieLink &link,
           mem::FramePool &frames, sim::StatSet &stats);
    ~Driver() override;

    /** Attach the GPU engine (for replay signals). */
    void setEngine(gpu::GpuEngine *engine) { engine_ = engine; }

    /** Attach an observer; observers outlive the driver's runs. */
    void addListener(DriverListener *l) { listeners_.push_back(l); }

    /** Replace the eviction policy (default: LruMigratedPolicy). */
    void setEvictionPolicy(std::unique_ptr<EvictionPolicy> p);

    /** Enable/disable the inactive-PT-block invalidation path. */
    void setInvalidationEnabled(bool on) { invalidationEnabled_ = on; }

    /**
     * Attach (or detach with nullptr) the provenance ledger. Like
     * the tracer, null (the default) means every hook site is a
     * plain pointer check and runs stay bit-identical to a build
     * without the feature.
     */
    void setLedger(ProvenanceLedger *l) { ledger_ = l; }

    // --- address-space management (called via the runtime) ---------

    /** A UM allocation appeared; create block records for it. */
    void registerRange(mem::VAddr va, std::uint64_t bytes);

    /** A UM allocation was freed; drop its blocks and frames. */
    void unregisterRange(mem::VAddr va, std::uint64_t bytes);

    /**
     * PyTorch marked [va, va+bytes) (in)active (paper Section 5.2).
     * Adjusts per-block inactive page counts used for invalidation.
     */
    void markInactiveRange(mem::VAddr va, std::uint64_t bytes,
                           bool inactive);

    // --- prefetch interface (used by core::Prefetcher) -------------

    /**
     * Enqueue a prefetch command. @p depth is the chain depth the
     * prediction was made at (0 = the running kernel; ledger input).
     * @return false if dropped (full queue, already resident/queued,
     * or unknown block).
     *
     * The prefetcher's DEEPUM_NOALLOC chain walk prunes at this
     * boundary: the command queue is a fixed ring, and the residual
     * drain event / tracer counter it may arm are amortized or
     * opt-in, not per-command costs.
     */
    DEEPUM_ALLOC_OK("fixed command ring; drain event and tracing "
                    "are amortized or opt-in")
    bool enqueuePrefetch(mem::BlockId block, std::uint32_t exec_id,
                         std::uint32_t depth = 0);

    /**
     * enqueuePrefetch for a block the caller already resolved to its
     * slab slot @p i (kNoBlockIndex: unknown, dropped), saving the
     * store probe on the chain walk.
     */
    DEEPUM_ALLOC_OK("fixed command ring; drain event and tracing "
                    "are amortized or opt-in")
    bool enqueuePrefetch(mem::BlockId block, BlockIndex i,
                         std::uint32_t exec_id, std::uint32_t depth);

    /**
     * Set or clear slot @p i's eviction hold (BlockStore::setHeld).
     * DeepUM's prefetcher holds its protected set here so the
     * victim index can skip it; the bit vetoes every victim pick
     * except a demand fault's fallback.
     */
    DEEPUM_NOALLOC void
    setHeld(BlockIndex i, bool on)
    {
        store_.setHeld(i, on);
    }

    /** Commands waiting in the prefetch queue. */
    std::size_t prefetchQueueDepth() const { return prefetchQueue_.size(); }

    /** Commands waiting in the fault queue. */
    std::size_t faultQueueDepth() const { return faultQueue_.size(); }

    // --- pre-eviction interface (used by core::PreEvictor) ---------

    /**
     * Evict one victim off the fault path if the migration thread is
     * idle. @return true if an eviction was started.
     */
    bool preEvictOne();

    /** True if the migration thread has nothing in flight. */
    bool migrationIdle() const { return !migBusy_; }

    // --- queries ----------------------------------------------------

    /** Per-block info; panics on unknown block. */
    const BlockInfo &blockInfo(mem::BlockId b) const;

    /** True if the driver manages @p b. */
    bool knowsBlock(mem::BlockId b) const { return store_.contains(b); }

    /** The dense block store (policies iterate it by index). */
    const BlockStore &store() const { return store_; }

    /** Resident blocks in migration order (oldest first). */
    BlockStore::LruView lruOrder() const { return store_.lruOrder(); }

    /** Blocks pinned by in-flight fault handling. */
    bool
    isPinned(mem::BlockId b) const
    {
        BlockIndex i = store_.find(b);
        return i != kNoBlockIndex && store_.at(i).pinned;
    }

    mem::FramePool &frames() { return frames_; }
    const mem::FramePool &frames() const { return frames_; }
    const gpu::TimingConfig &timing() const { return cfg_; }

    // --- validation (sim/validate.hh) -------------------------------

    /**
     * Attach the validator that DEEPUM_VALIDATE builds re-run after
     * every fault batch and kernel retirement (null detaches; no-op
     * call sites in non-validate builds).
     */
    void setValidator(sim::Validator *v) { validator_ = v; }

    /**
     * Audit the residency bookkeeping: the BlockStore slab itself
     * (run table, free list, backrefs, rank array, pinned count),
     * per-block residency vs the FramePool counts (with in-flight
     * migrations accounted), LRU membership/migrateSeq order, and
     * queued-flag vs queue-content agreement.
     */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Stream the block table and queues (for violation dumps). */
    void dumpState(std::ostream &os) const;

    // --- gpu::UvmBackend --------------------------------------------

    bool isResident(mem::BlockId block) const override;
    void faultInterrupt() override;
    void onKernelBegin(const gpu::KernelInfo &k) override;
    void onKernelEnd(const gpu::KernelInfo &k) override;
    void onBlockAccess(mem::BlockId block) override;

  private:
    /** Fault-handling thread body: fetch + preprocess + dispatch. */
    void handleFaults();

    /**
     * Migration thread body: serve one command, then reschedule; with
     * both queues empty, clear migBusy_ and notify onMigrationIdle.
     */
    void migrationStep();

    /**
     * Copy @p bytes over the link in direction @p dir, starting at
     * @p t; return the completion tick. A @p demand copy (on the
     * fault path) moves fault-granularity chunks, each with a
     * handling round trip; otherwise one bulk copy.
     */
    sim::Tick transfer(sim::Tick t, std::uint64_t bytes, gpu::Dir dir,
                       bool demand);

    /**
     * Evict victims until @p pages frames are free.
     * @param t running completion time (advanced per eviction)
     * @param demand true when on the fault critical path
     * @return false if no progress is possible (nothing evictable)
     */
    bool makeRoom(std::uint64_t pages, sim::Tick &t, bool demand);

    /** Evict one specific block; advances @p t by the eviction cost. */
    void evictBlock(mem::BlockId victim, sim::Tick &t, bool demand);

    /** A demand-faulted block became resident (or already was). */
    void resolveFault(mem::BlockId b);

    /** Schedule one GPU replay if the engine is stalled and none is
     * pending (callers check that no fault is outstanding). */
    void maybeReplay();

    const gpu::TimingConfig &cfg_;
    gpu::FaultBuffer &fb_;
    gpu::PcieLink &link_;
    mem::FramePool &frames_;
    gpu::GpuEngine *engine_ = nullptr;

    BlockStore store_;

    sim::SpscQueue<MigrateCmd> faultQueue_;
    sim::SpscQueue<MigrateCmd> prefetchQueue_;

    std::vector<DriverListener *> listeners_;
    std::unique_ptr<EvictionPolicy> policy_;
    sim::Validator *validator_ = nullptr;
    ProvenanceLedger *ledger_ = nullptr;

    bool invalidationEnabled_ = false;
    bool faultHandlerPending_ = false;
    bool migBusy_ = false;
    bool replayPending_ = false;
    std::uint64_t migrateSeq_ = 0;
    /** Frames reserved for migrations whose completion is in flight. */
    std::uint64_t inFlightPages_ = 0;

    /**
     * Epoch-stamped per-batch fault dedupe, keyed by slab index: a
     * slot seen in the current epoch is a duplicate. Replaces a
     * per-batch hash set with one array read/write per entry.
     */
    std::vector<std::uint64_t> faultSeen_;
    std::uint64_t faultEpoch_ = 0;

    // Statistics (paper Table 5, Figure 10 inputs).
    sim::Scalar pageFaults_;
    sim::Scalar faultBatches_;
    sim::Scalar faultedBlocks_;
    sim::Scalar migratedBlocks_;
    sim::Scalar migratedPages_;
    sim::Scalar zeroFillBlocks_;
    sim::Scalar evictedBlocks_;
    sim::Scalar evictedPages_;
    sim::Scalar invalidatedBlocks_;
    sim::Scalar demandEvictions_;
    sim::Scalar preEvictions_;
    sim::Scalar prefetchIssued_;
    sim::Scalar prefetchCompleted_;
    sim::Scalar prefetchDropped_;
    sim::Scalar prefetchUseful_;
    sim::Scalar prefetchWasted_;
    sim::Scalar replaysSent_;

    // Distributions (paper Table 5 / Figures 9-13 raw series).
    sim::Distribution faultBatchSize_;
    sim::Distribution migrationLatency_;
};

} // namespace deepum::uvm
