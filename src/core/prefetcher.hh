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
 * The prefetcher also maintains the *protected set* — blocks
 * predicted to be used by the current and next N kernels — which the
 * DeepUM eviction policy honours (Section 5.1). Both the walk
 * dedupe and the protection state are dense arrays keyed by the
 * driver's BlockStore slab indices: the dedupe is epoch-stamped (a
 * generation bump is the O(1) per-activation clear). Protection is
 * one 64-bit mask per slab index: bit pos is set exactly when the
 * window slot at ring position pos lists that block (the ring holds
 * N + 2 <= 64 slots). So a chain restart that re-issues what a slot
 * already lists pushes nothing (one bit test), a mask going 0<->non-0
 * sets and clears the block's hold bit in the store — all the
 * eviction policy reads — and popping a slot clears its bit in each
 * block it lists, which leaves the recycled ring position blank. A
 * freed range's listings are dropped when it is unregistered, so a
 * list never names a dead slab index. Each walked block is resolved
 * to its slab index once, and that index feeds the dedupe, the
 * protection mask and the driver's prefetch enqueue.
 *
 * A transition walk — the chain entering a predicted kernel's table
 * with a fresh seen-set — is a function of that table's walk-visible
 * state (BlockCorrelationTable::version()) and the store's layout
 * (BlockStore::layoutVersion()); the budget, the protection lists
 * and the driver's queue only consume what it issues. So the live
 * walk records each such walk into a per-table plan: per candidate,
 * its slab index, the way its visit hit and how many successors that
 * visit issued (9 bytes). The next transition into the table replays
 * the plan when both versions still match: the same issues and
 * budget checks at the same positions and the same refreshWay()
 * ticks in the same order, without the set probes, the store lookups
 * or the dedupe; protect() runs for every candidate, and on what the
 * slot already lists it is that one bit test. Restart walks (from
 * faulted blocks, into the kernel being recorded), single-block
 * kernels and the walk that pauses at depth N stay live and
 * unplanned. A plan commits only if the recording walk moved no
 * version, so the state it replays from is the state it recorded.
 *
 * The steady-state chain walk is allocation-free: the prediction
 * window is a fixed ring of slots whose protection lists keep their
 * capacity across reuse, the walk queue is a reused vector consumed
 * by index, successorsAt() returns a view into the table's inline
 * slab, walk plans keep their capacity across re-records, the
 * fresh-way sweep fills a reused scratch vector with way indices
 * that are refreshed in place (no second set probe), and the pending
 * completion ticks live in an ExecId-indexed dense table whose
 * per-exec vectors are drained with clear() (capacity retained).
 * That contract is machine-checked: the fault/chain entry points are
 * DEEPUM_NOALLOC and tools/analyzer/ proves their call graphs reach
 * allocation only through the documented DEEPUM_ALLOC_OK hatches
 * (scratch/table growth, amortized vector growth, opt-in tracing).
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
     * a side-effect-free dry walk of its table.
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
     * A recorded transition walk of one kernel's table (see the file
     * comment). Candidates [0, entry) are issued on kernel entry (the
     * start block, then the fresh sweep), the rest by the breadth-
     * first visits: visiting candidate k issues the next succs[k].
     * A walk records into its table's plan in place, so the vectors
     * keep their capacity across re-records.
     */
    struct WalkPlan {
        std::uint64_t version = 0; ///< table version; 0 = no plan
        std::uint64_t layout = 0;  ///< store layout at record time
        std::uint32_t entry = 0;
        std::vector<PlanStep> steps;
        std::vector<std::uint8_t> succs;
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
            seenEpoch_.resize(n, 0);
        }
    }

    /**
     * Mark slab slot @p i visited in this activation; @return true on
     * first visit. Unknown blocks (kNoBlockIndex) count as first
     * visits (the driver drops their enqueues; matches the former
     * hash-set semantics).
     */
    DEEPUM_NOALLOC bool
    markSeen(uvm::BlockIndex i)
    {
        if (i == uvm::kNoBlockIndex)
            return true;
        if constexpr (sim::kValidateBuild)
            DEEPUM_ASSERT(i < seenEpoch_.size(),
                          "slab slot %u registered mid-chain", i);
        if (seenEpoch_[i] == seenGen_)
            return false;
        seenEpoch_[i] = seenGen_;
        return true;
    }

    /** Reset the walk queue (keeps vector capacity). */
    DEEPUM_NOALLOC void
    clearWalk()
    {
        walk_.clear();
        walkHead_ = 0;
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

    /** True if @p plan replays @p bt's current walk. */
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
     * unknown (nothing to hold). Inline: on replays the test is most
     * of the per-candidate work.
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

    /** Hand @p b (slab slot @p i) to the driver for @p slot and
     * charge the budget. */
    DEEPUM_NOALLOC void enqueue(std::size_t slot, mem::BlockId b,
                                uvm::BlockIndex i);

    /**
     * The live walk's candidate step: protect and enqueue @p b (slab
     * slot @p i) for @p slot, queue it for a visit, and append it to
     * the recording, if one is running.
     */
    DEEPUM_NOALLOC void issue(std::size_t slot, mem::BlockId b,
                              uvm::BlockIndex i);

    /** Issue all live entries of @p slot's kernel table. */
    DEEPUM_NOALLOC void enterKernelTable(std::size_t slot);

    /** Walk successors until pause/death/budget-exhaustion. */
    DEEPUM_NOALLOC void runChain();

    /** The recording walk is exhausted: keep it as its table's plan
     * if the walk moved no version. */
    DEEPUM_NOALLOC void commitRecording();

    /**
     * Replay @p plan into the chain's current slot: the live walk's
     * issues, ticks on @p bt and budget checks, stopping where it
     * would stop.
     */
    DEEPUM_NOALLOC void replayPlan(const WalkPlan &plan,
                                   BlockCorrelationTable &bt);

    /** The walk a transition into @p bt would record, computed
     * without side effects (the plan audit). */
    void dryWalk(const BlockCorrelationTable &bt, WalkPlan &out) const;

    /**
     * The kernel's walk is exhausted: predict the next kernel and
     * move the chain to its start block, replaying its table's plan
     * when one is live. @return false if the chain dies.
     */
    DEEPUM_NOALLOC bool transitionChain();

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
    /** Blocks whose successors to visit: a reused vector consumed by
     * walkHead_ (FIFO without deque segment churn). */
    std::vector<mem::BlockId> walk_;
    std::size_t walkHead_ = 0;
    /** Walk plans, indexed by ExecId (dense). */
    std::vector<WalkPlan> plans_;
    /** The table whose plan the walk is recording (kNoExecId: none)
     * and its version when the walk began. */
    ExecId recExec_ = kNoExecId;
    std::uint64_t recVersion_ = 0;
    /** Visit counts fit a PlanStep's byte only below 256 successors;
     * wider tables walk live. */
    bool plansOn_;
    /** Scratch for the fresh-way sweep (reused across activations). */
    std::vector<std::uint32_t> freshScratch_;
    /** Epoch-stamped walk dedupe, keyed by slab index. */
    std::vector<std::uint64_t> seenEpoch_;
    std::uint64_t seenGen_ = 1;      ///< current walk generation
    std::uint32_t budget_ = 0;       ///< enqueue cap per activation

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
