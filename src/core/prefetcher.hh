/**
 * @file
 * The prefetching thread (paper Sections 3.1 and 4.2).
 *
 * On every fault batch the prefetcher (re)starts *chaining*: it walks
 * the current kernel's block correlation table from the faulted
 * blocks, enqueueing every successor into the driver's prefetch
 * queue. Once the walk has drained every block it can reach (the
 * kernel's `end` block among them) it consults the execution ID
 * table to predict the next kernel and continues from that kernel's
 * `start` block. Chaining pauses once commands for the
 * next N kernels are enqueued and resumes when the running kernel
 * finishes; it dies when the next kernel cannot be predicted, and is
 * restarted by the next fault.
 *
 * Each kernel's part of the walk runs in two steps. A *traversal*
 * reads the table (start block, fresh-way sweep, tags, successor
 * lists) and the store's id -> slab-slot map, and writes a WalkPlan:
 * per candidate in issue order, its slab index and the way its visit
 * hit, and per visit how many successors it issued. It keeps its own
 * breadth-first queue and epoch-stamped seen-set (a generation bump
 * is the O(1) clear) and changes nothing else. The *executor* then
 * runs the plan: protect, driver enqueue and budget charge per
 * candidate, refreshWay() per swept or visited way, and the budget
 * checks, at the positions the interleaved walk had them. Nothing
 * the executor does changes what a traversal reads (protection and
 * the driver queue touch no table, and a kernel's fresh set is read
 * at its entry, before any refresh), so traversing first issues what
 * an interleaved walk would, in the same order. A traversal stops
 * where the budget will stop the executor, so it spends no probe
 * past the cut.
 *
 * A transition walk (the chain entering a predicted kernel's table
 * with a fresh seen-set) is a function of that table's walk-visible
 * state (BlockCorrelationTable::version()) and the store's layout
 * (BlockStore::layoutVersion()). So it traverses into a per-table
 * plan, tagged with both versions, and the next transition into an
 * unchanged table executes that plan again without traversing. A
 * plan cut by the budget is not kept, and one whose execution moved a
 * way's lastEpoch is stale by its version. Restart walks (from
 * faulted blocks), single-block kernels and the walk that pauses at
 * depth N traverse into one uncached plan; a paused walk appends its
 * visits to it when the running kernel ends, against the table as it
 * is then.
 *
 * The prefetcher also maintains the *protected set* — blocks
 * predicted to be used by the current and next N kernels — which the
 * DeepUM eviction policy honours (Section 5.1). Protection is one
 * 64-bit mask per slab index: bit pos is set exactly when the window
 * slot at ring position pos lists that block (the ring holds N + 2
 * <= 64 slots). So a chain restart that re-issues what a slot
 * already lists pushes nothing (one bit test), a mask going 0<->non-0
 * sets and clears the block's hold bit in the store — all the
 * eviction policy reads — and popping a slot clears its bit in each
 * block it lists, which leaves the recycled ring position blank. A
 * freed range's listings are dropped when it is unregistered, so a
 * list never names a dead slab index.
 *
 * The steady-state chain walk is allocation-free: the prediction
 * window is a fixed ring of slots whose protection lists keep their
 * capacity across reuse, the traversal's queue, seen-set and sweep
 * scratch are reused, plans keep their capacity across re-traversals,
 * successorsAt() returns a view into the table's inline slab, and the
 * pending completion ticks live in an ExecId-indexed dense table
 * whose per-exec vectors are drained with clear() (capacity
 * retained). That contract is machine-checked: the fault/chain entry
 * points are DEEPUM_NOALLOC and tools/analyzer/ proves their call
 * graphs reach allocation only through the documented
 * DEEPUM_ALLOC_OK hatches (scratch/table growth, amortized vector
 * growth, opt-in tracing).
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/block_correlation_table.hh"
#include "core/config.hh"
#include "core/correlator.hh"
#include "core/exec_correlation_table.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/validate.hh"
#include "support/annotations.hh"
#include "uvm/driver.hh"

namespace deepum::core {

/** Issues prefetch commands by chaining through correlation tables. */
class Prefetcher
{
  public:
    Prefetcher(uvm::Driver &drv, ExecCorrelationTable &exec_table,
               BlockCorrelationTableSet &blocks, Correlator &correlator,
               const DeepUmConfig &cfg, sim::StatSet &stats);

    /** The runtime announced the next kernel (actual transition). */
    DEEPUM_NOALLOC void onKernelLaunch(ExecId id);

    /** A preprocessed fault batch arrived: restart chaining. */
    DEEPUM_NOALLOC
    void onFaultBlocks(const std::vector<mem::BlockId> &blocks);

    /** The running kernel finished: resume a paused chain. */
    DEEPUM_NOALLOC void onKernelEnd();

    /**
     * A prefetched block became resident at @p at, predicted for
     * @p exec_id. Feeds the lead-time distribution (how far ahead of
     * the consuming kernel's launch the prefetch completed).
     */
    DEEPUM_NOALLOC void onPrefetchCompleted(mem::BlockId block,
                                            ExecId exec_id, sim::Tick at);

    /**
     * The driver dropped [first, end): drop every listing of a slab
     * slot it freed, before a later registration can reuse the slot.
     */
    void onRangeUnregistered(mem::BlockId first, mem::BlockId end);

    /**
     * @return true if @p b is predicted to be used by the current or
     * next N kernels (the pre-eviction protection test).
     */
    DEEPUM_NOALLOC bool
    isProtected(mem::BlockId b) const
    {
        uvm::BlockIndex i = drv_.store().find(b);
        return i < protMask_.size() && protMask_[i] != 0;
    }

    /** Number of kernels the chain has advanced past the current. */
    std::uint32_t chainDepth() const { return chainDepth_; }

    /** True if a chain is live (possibly paused). */
    bool chainActive() const { return active_; }

    /** Number of distinct blocks currently protected. */
    std::size_t protectedCount() const { return protectedDistinct_; }

    /**
     * Audit the protection bookkeeping (sim/validate.hh): the masks
     * rebuilt from the slot lists must equal protMask_, no slot may
     * list a slab index twice or list a freed one, the count of
     * non-zero masks must equal protectedCount(), every slab slot's
     * store hold bit must equal its mask being non-zero, the window
     * must respect the lookahead bound, the chain cursor must point
     * into the window, and the pending completion table's non-empty
     * counter must match its slots. Every replayable plan must equal
     * a fresh traversal of its table.
     */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Stream the window and protection state (violation dumps). */
    void dumpState(std::ostream &os) const;

  private:
    /** Test-only access to private state (seeded-corruption tests). */
    friend struct PrefetcherTestAccess;

    /** One kernel's slot in the prediction window. */
    struct Slot {
        ExecId exec = kNoExecId;
        std::vector<uvm::BlockIndex> blocks; ///< distinct slab slots held
    };

    /** One walk-plan candidate, in issue order. */
    struct PlanStep {
        uvm::BlockIndex idx = uvm::kNoBlockIndex; ///< slab slot issued
        /** Way its visit hit (BlockCorrelationTable::kNoWay: none). */
        std::uint32_t way = BlockCorrelationTable::kNoWay;
    };

    /**
     * One kernel's walk (see the file comment). Step k is the block
     * at position k of the traversal's queue; visiting step v issues
     * the next succs[v] steps. Steps before `sweep` are not swept: a
     * transition's start block, or a restart's faulted blocks (queued
     * for their visits, never issued). Steps [sweep, entry) are the
     * fresh sweep's, each issued after a refresh of its way.
     */
    struct WalkPlan {
        std::uint64_t version = 0; ///< table version; 0 = no plan
        std::uint64_t layout = 0;  ///< store layout at traversal
        std::uint32_t sweep = 0;
        std::uint32_t entry = 0;
        std::vector<PlanStep> steps;
        std::vector<std::uint8_t> succs;
    };

    /**
     * A traversal's own state: the breadth-first queue, consumed by
     * head, and the seen-set, epoch-stamped by slab index. The
     * prefetcher keeps one across activations (a paused walk resumes
     * from it); the audit builds its own.
     */
    struct Walk {
        std::vector<mem::BlockId> queue;
        std::size_t head = 0;
        std::vector<std::uint64_t> seen;
        std::uint64_t gen = 1;
        /** Scratch for the fresh-way sweep. */
        std::vector<std::uint32_t> fresh;

        /** Start a new walk (keeps every capacity). */
        void
        restart()
        {
            queue.clear();
            head = 0;
            ++gen;
        }

        /**
         * Mark slab slot @p i seen; @return true on first sight.
         * Unknown blocks (kNoBlockIndex) are always new (the driver
         * drops their enqueues).
         */
        DEEPUM_NOALLOC bool
        markSeen(uvm::BlockIndex i)
        {
            if (i == uvm::kNoBlockIndex)
                return true;
            if constexpr (sim::kValidateBuild)
                DEEPUM_ASSERT(i < seen.size(),
                              "slab slot %u registered mid-chain", i);
            if (seen[i] == gen)
                return false;
            seen[i] = gen;
            return true;
        }
    };

    /** Ring position of window slot @p i. */
    std::size_t
    ringPos(std::size_t i) const
    {
        return (slotHead_ + i) % slotBuf_.size();
    }

    /** Window slot @p i (0 = running kernel, then predicted). */
    Slot &slotAt(std::size_t i) { return slotBuf_[ringPos(i)]; }
    const Slot &slotAt(std::size_t i) const { return slotBuf_[ringPos(i)]; }

    /** Append a window slot for @p exec (ring reuse, no allocation). */
    DEEPUM_NOALLOC void pushSlot(ExecId exec);

    /**
     * Size the index-keyed scratch arrays to the driver's slab. Runs
     * once per activation (onFaultBlocks, a resumed onKernelEnd):
     * ranges register between events, never during a chain, so the
     * per-candidate markSeen()/protect() index the arrays directly.
     */
    DEEPUM_ALLOC_OK("scratch arrays grow with the slab, not per fault")
    void
    growScratch()
    {
        std::size_t n = drv_.store().slabSize();
        if (protMask_.size() < n) {
            protMask_.resize(n, 0);
            walk_.seen.resize(n, 0);
        }
    }

    /** Grow the plan table to cover @p exec_id. */
    DEEPUM_ALLOC_OK("plan table grows with the ExecId space")
    WalkPlan &
    planFor(ExecId exec_id)
    {
        if (exec_id >= plans_.size())
            plans_.resize(std::size_t(exec_id) + 1);
        return plans_[exec_id];
    }

    /** True if @p plan is @p bt's current walk. */
    bool
    planLive(const WalkPlan &plan, const BlockCorrelationTable &bt) const
    {
        return plan.version == bt.version() &&
               plan.layout == drv_.store().layoutVersion();
    }

    /** Grow the pending-completion table to cover @p exec_id. */
    DEEPUM_ALLOC_OK("pending table grows with the ExecId space")
    void
    growPending(ExecId exec_id)
    {
        if (exec_id >= pendingDone_.size())
            pendingDone_.resize(std::size_t(exec_id) + 1);
    }

    /** Clear ring position @p pos's bit in slab slot @p i's mask. */
    DEEPUM_NOALLOC void dropProt(uvm::BlockIndex i, std::size_t pos);

    /**
     * Add slab slot @p i to the protection list of the window slot at
     * ring position @p pos unless that slot already lists it (a
     * restarted chain re-issues what its slots hold) or the block is
     * unknown (nothing to hold). Inline: on cached plans the test is
     * most of the per-candidate work.
     */
    DEEPUM_NOALLOC void
    protect(std::size_t pos, uvm::BlockIndex i)
    {
        if (i != uvm::kNoBlockIndex && (protMask_[i] >> pos & 1) == 0)
            addListing(pos, i);
    }

    /** First listing of slab slot @p i at ring position @p pos. */
    DEEPUM_NOALLOC void addListing(std::size_t pos, uvm::BlockIndex i);

    /** Drop the front slot (its kernel retired or mispredicted). */
    DEEPUM_NOALLOC void popFrontSlot();

    /** Drop every slot and kill the chain. */
    DEEPUM_NOALLOC void clearAllSlots();

    /** Queue block @p b (slab slot @p i) as @p plan's next step. */
    DEEPUM_NOALLOC static void offer(Walk &w, WalkPlan &plan,
                                     mem::BlockId b, uvm::BlockIndex i,
                                     std::uint32_t way);

    /**
     * Traverse the entry of @p bt's walk into @p plan: its start block
     * when @p start, then the fresh sweep, which stops once @p plan
     * holds @p cut steps (where the budget runs out).
     */
    DEEPUM_NOALLOC void traverseEntry(const BlockCorrelationTable &bt,
                                      bool start, std::size_t cut,
                                      Walk &w, WalkPlan &plan) const;

    /**
     * Traverse @p w's queued visits of @p bt into @p plan until the
     * queue drains or a visit would start with @p cut steps in the
     * plan. @return the visits made (table probes).
     */
    DEEPUM_NOALLOC std::size_t traverseVisits(const BlockCorrelationTable &bt,
                                              std::size_t cut, Walk &w,
                                              WalkPlan &plan) const;

    /**
     * Execute @p plan for the chain's current slot from step @p next
     * on: issue (protect, enqueue, charge the budget) the steps
     * before its sweep, refresh each swept way before issuing its
     * tag, then run its visits (refresh the way, issue the successors
     * it found), with the budget checks where the interleaved walk
     * had them: after each swept candidate and before each visit.
     */
    DEEPUM_NOALLOC void execute(const WalkPlan &plan,
                                BlockCorrelationTable &bt,
                                std::uint32_t next);

    /** Transition until the chain pauses or dies, or the budget
     * runs out. */
    DEEPUM_NOALLOC void runChain();

    /**
     * The chain's current kernel is walked: predict the next kernel
     * and walk its table, executing its cached plan when one is live.
     * Sets active_ false if the chain dies, paused_ if it pauses.
     */
    DEEPUM_NOALLOC void transitionChain();

    /** Emit the chain-start trace marker (tracing is opt-in). */
    DEEPUM_ALLOC_OK("tracer args build strings; tracing is opt-in")
    void traceChainStart(ExecId cur, std::size_t faulted) const;

    /** Emit the next-kernel-prediction trace marker. */
    DEEPUM_ALLOC_OK("tracer args build strings; tracing is opt-in")
    void tracePredictNext(ExecId next) const;

    uvm::Driver &drv_;
    ExecCorrelationTable &execTable_;
    BlockCorrelationTableSet &blockTables_;
    Correlator &correlator_;
    const DeepUmConfig &cfg_;

    /**
     * The prediction window as a fixed ring: logical slot i lives at
     * slotBuf_[(slotHead_ + i) % capacity]. Slots are recycled with
     * their protection-list capacity intact, so the per-kernel
     * window slide never allocates.
     */
    std::vector<Slot> slotBuf_;
    std::size_t slotHead_ = 0;
    std::size_t slotCount_ = 0;

    /** Per slab index, bit pos set iff the ring slot at pos lists it. */
    std::vector<std::uint64_t> protMask_;
    /** Slab slots with a non-zero protection mask. */
    std::size_t protectedDistinct_ = 0;

    /**
     * Prefetch completion ticks awaiting their predicted launch,
     * indexed by ExecId (dense). Drained slots keep their capacity.
     */
    std::vector<std::vector<sim::Tick>> pendingDone_;
    std::size_t pendingExecs_ = 0; ///< non-empty pendingDone_ slots

    // Chain state.
    bool active_ = false;
    bool paused_ = false;
    ExecId predCur_ = kNoExecId;     ///< kernel being prefetched for
    ExecHistory predHist_{kNoExecId, kNoExecId, kNoExecId};
    std::uint32_t chainDepth_ = 0;   ///< window index being filled
    std::uint32_t budget_ = 0;       ///< enqueue cap per activation
    /** The chain's traversal state. */
    Walk walk_;
    /** Cached transition walks, indexed by ExecId (dense). */
    std::vector<WalkPlan> plans_;
    /** The walk no cache keeps: a restart, a single-block kernel's
     * entry, or the walk paused at depth N. */
    WalkPlan uncached_;
    /** False only in the tests' uncached reference world: no
     * transition walk is cached. */
    bool cachePlans_ = true;

    sim::Scalar chainsStarted_;
    sim::Scalar chainTransitions_;
    sim::Scalar chainExhaustedTransitions_;
    sim::Scalar chainSkippedKernels_;
    sim::Scalar chainDeadNoPrediction_;
    sim::Scalar chainDeadNoTable_;
    sim::Scalar chainPauses_;
    sim::Scalar blocksIssued_;
    sim::Scalar walksRecorded_;
    sim::Scalar walksReplayed_;
    sim::Scalar tableVisits_;
    sim::Scalar protectListings_;
    sim::Scalar mispredictedLaunches_;
    sim::Scalar lateCompletions_;
    sim::Distribution leadTime_;
};

} // namespace deepum::core
