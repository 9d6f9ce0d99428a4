#include "core/prefetcher.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <ostream>

#include "sim/trace.hh"
#include "sim/validate.hh"

namespace deepum::core {

Prefetcher::Prefetcher(uvm::Driver &drv, ExecCorrelationTable &exec_table,
                       BlockCorrelationTableSet &blocks,
                       Correlator &correlator, const DeepUmConfig &cfg,
                       sim::StatSet &stats)
    : drv_(drv),
      execTable_(exec_table),
      blockTables_(blocks),
      correlator_(correlator),
      cfg_(cfg),
      // The window never exceeds lookaheadN + 2 slots (the audited
      // bound below), so the ring is sized once and never grows.
      slotBuf_(std::size_t(cfg.lookaheadN) + 2),
      chainsStarted_(stats, "prefetcher.chainsStarted",
                     "chain (re)starts triggered by fault batches"),
      chainTransitions_(stats, "prefetcher.chainTransitions",
                        "kernel-to-kernel chain transitions"),
      chainExhaustedTransitions_(
          stats, "prefetcher.chainExhaustedTransitions",
          "transitions taken after exhausting a kernel's walk"),
      chainSkippedKernels_(stats, "prefetcher.chainSkippedKernels",
                           "predicted kernels skipped (no fault table)"),
      chainDeadNoPrediction_(stats, "prefetcher.chainDeadNoPrediction",
                             "chains ended: next kernel unpredictable"),
      chainDeadNoTable_(stats, "prefetcher.chainDeadNoTable",
                        "chains ended: predicted kernel has no table"),
      chainPauses_(stats, "prefetcher.chainPauses",
                   "chain pauses at the N-kernel lookahead limit"),
      blocksIssued_(stats, "prefetcher.blocksIssued",
                    "prefetch candidates issued to the driver"),
      walksRecorded_(stats, "prefetcher.walksRecorded",
                     "transition walks stored as walk plans"),
      walksReplayed_(stats, "prefetcher.walksReplayed",
                     "transition walks replayed from a walk plan"),
      tableVisits_(stats, "prefetcher.tableVisits",
                   "block-table set probes by walk traversals"),
      protectListings_(stats, "prefetcher.protectListings",
                       "blocks appended to a slot's protection list"),
      mispredictedLaunches_(stats, "prefetcher.mispredictedLaunches",
                            "actual launches that broke the window"),
      lateCompletions_(stats, "prefetcher.lateCompletions",
                       "prefetches completing after their kernel began"),
      leadTime_(stats, "prefetcher.leadTime",
                "ticks between prefetch completion and consuming-"
                "kernel launch")
{
    DEEPUM_ASSERT(cfg.lookaheadN <= kMaxLookaheadN,
                  "lookahead %u exceeds %u: the window ring would "
                  "outgrow the 64-bit protection mask",
                  cfg.lookaheadN, kMaxLookaheadN);
}

void
Prefetcher::pushSlot(ExecId exec)
{
    DEEPUM_ASSERT(slotCount_ < slotBuf_.size(),
                  "prediction window overflows its ring");
    // A dead slot was emptied when popped, and its ring position's
    // mask bits with it.
    slotAt(slotCount_).exec = exec;
    ++slotCount_;
}

void
Prefetcher::dropProt(uvm::BlockIndex i, std::size_t pos)
{
    const std::uint64_t bit = std::uint64_t{1} << pos;
    DEEPUM_ASSERT(i < protMask_.size() && (protMask_[i] & bit) != 0,
                  "protection mask out of sync");
    if ((protMask_[i] &= ~bit) == 0) {
        --protectedDistinct_;
        drv_.setHeld(i, false);
    }
}

void
Prefetcher::addListing(std::size_t pos, uvm::BlockIndex i)
{
    std::uint64_t &mask = protMask_[i];
    if (mask == 0) {
        ++protectedDistinct_;
        drv_.setHeld(i, true);
    }
    mask |= std::uint64_t{1} << pos;
    support::pushAmortized(slotBuf_[pos].blocks, i);
    ++protectListings_;
}

void
Prefetcher::popFrontSlot()
{
    DEEPUM_ASSERT(slotCount_ > 0, "popping an empty window");
    const std::size_t pos = ringPos(0);
    Slot &front = slotBuf_[pos];
    for (uvm::BlockIndex i : front.blocks)
        dropProt(i, pos);
    front.exec = kNoExecId;
    front.blocks.clear();
    slotHead_ = (slotHead_ + 1) % slotBuf_.size();
    --slotCount_;
    if (chainDepth_ == 0) {
        // The chain was still working on the kernel that just ended.
        active_ = false;
        paused_ = false;
        walk_.restart();
    } else {
        --chainDepth_;
    }
}

void
Prefetcher::clearAllSlots()
{
    while (slotCount_ > 0)
        popFrontSlot();
    DEEPUM_ASSERT(protectedDistinct_ == 0,
                  "protected set nonempty after clearing slots");
    active_ = false;
    paused_ = false;
    chainDepth_ = 0;
    walk_.restart();
}

void
Prefetcher::onRangeUnregistered(mem::BlockId, mem::BlockId)
{
    // The driver has already dropped the run: its slab slots read
    // kNoBlock until a later registration reuses them, which cannot
    // happen before this hook returns. Clearing their bits leaves a
    // reused slot unlisted everywhere.
    const uvm::BlockStore &st = drv_.store();
    for (std::size_t w = 0; w < slotCount_; ++w) {
        const std::size_t pos = ringPos(w);
        std::erase_if(slotBuf_[pos].blocks, [&](uvm::BlockIndex i) {
            if (st.idAt(i) != uvm::kNoBlock)
                return false;
            dropProt(i, pos);
            return true;
        });
    }
}

void
Prefetcher::onPrefetchCompleted(mem::BlockId block, ExecId exec_id,
                                sim::Tick at)
{
    (void)block;
    if (exec_id == kNoExecId)
        return;
    if (slotCount_ != 0 && slotAt(0).exec == exec_id) {
        // The consuming kernel is already running: the prefetch
        // arrived late and saved nothing of its lead time.
        ++lateCompletions_;
        leadTime_.sample(0);
        return;
    }
    growPending(exec_id);
    if (pendingDone_[exec_id].empty())
        ++pendingExecs_;
    support::pushAmortized(pendingDone_[exec_id], at);
}

void
Prefetcher::onKernelLaunch(ExecId id)
{
    if (id < pendingDone_.size() && !pendingDone_[id].empty()) {
        sim::Tick now = drv_.eventq().now();
        for (sim::Tick done_at : pendingDone_[id])
            leadTime_.sample(now >= done_at ? now - done_at : 0);
        pendingDone_[id].clear(); // drained: capacity retained
        --pendingExecs_;
    }

    if (slotCount_ == 0) {
        pushSlot(id);
        return;
    }
    if (slotCount_ >= 2 && slotAt(1).exec == id) {
        // Predicted correctly: slide the window.
        popFrontSlot();
    } else {
        if (slotCount_ >= 2)
            ++mispredictedLaunches_;
        clearAllSlots();
        pushSlot(id);
    }
}

void
Prefetcher::onFaultBlocks(const std::vector<mem::BlockId> &blocks)
{
    if (!cfg_.prefetch)
        return;
    ExecId cur = correlator_.currentExec();
    if (cur == kNoExecId)
        return;
    if (blockTables_.find(cur) == nullptr)
        return; // nothing learned about this kernel yet

    // Paper Section 4.2: a new fault interrupt ends the running chain
    // and starts a fresh one from the faulted blocks.
    growScratch();
    active_ = true;
    paused_ = false;
    predCur_ = cur;
    predHist_ = correlator_.history();
    chainDepth_ = 0;
    budget_ = cfg_.chainEnqueueCap;
    ++chainsStarted_;
    traceChainStart(cur, blocks.size());

    if (slotCount_ == 0)
        pushSlot(cur);
    slotAt(0).exec = cur;

    walk_.restart();
    uncached_.steps.clear();
    uncached_.succs.clear();
    for (mem::BlockId b : blocks) {
        uvm::BlockIndex i = drv_.store().find(b);
        if (!walk_.markSeen(i))
            continue;
        // The faulted blocks are demand-migrating; protect them for
        // the current kernel and walk their successors.
        protect(ringPos(0), i);
        offer(walk_, uncached_, b, i, BlockCorrelationTable::kNoWay);
    }
    BlockCorrelationTable &bt = *blockTables_.find(cur);
    const std::size_t seeds = uncached_.steps.size();
    traverseEntry(bt, false, seeds + budget_, walk_, uncached_);
    tableVisits_ += traverseVisits(bt, seeds + budget_, walk_, uncached_);
    execute(uncached_, bt, static_cast<std::uint32_t>(seeds));
    runChain();
}

void
Prefetcher::offer(Walk &w, WalkPlan &plan, mem::BlockId b,
                  uvm::BlockIndex i, std::uint32_t way)
{
    support::pushAmortized(w.queue, b);
    support::pushAmortized(plan.steps, PlanStep{i, way});
}

void
Prefetcher::traverseEntry(const BlockCorrelationTable &bt, bool start,
                          std::size_t cut, Walk &w, WalkPlan &plan) const
{
    const uvm::BlockStore &st = drv_.store();
    if (start) {
        const uvm::BlockIndex i = st.find(bt.start());
        w.markSeen(i);
        offer(w, plan, bt.start(), i, BlockCorrelationTable::kNoWay);
    }
    plan.sweep = static_cast<std::uint32_t>(plan.steps.size());
    // Issue every live entry of the kernel's table, not only the
    // start component: blocks covered by prefetching stop faulting
    // and would otherwise fall out of the chain (see freshWays()).
    // The ablation chains from the start component only.
    if (cfg_.freshTagChaining) {
        bt.freshWays(kFreshEpochWindow, w.fresh);
        for (std::uint32_t way : w.fresh) {
            const mem::BlockId t = bt.tagAt(way);
            const uvm::BlockIndex i = st.find(t);
            if (!w.markSeen(i))
                continue;
            offer(w, plan, t, i, way);
            if (plan.steps.size() >= cut)
                break;
        }
    }
    plan.entry = static_cast<std::uint32_t>(plan.steps.size());
}

std::size_t
Prefetcher::traverseVisits(const BlockCorrelationTable &bt,
                           std::size_t cut, Walk &w,
                           WalkPlan &plan) const
{
    DEEPUM_ASSERT(plan.steps.size() == w.queue.size(),
                  "walk plan out of step with its queue");
    const uvm::BlockStore &st = drv_.store();
    std::size_t visits = 0;
    for (; w.head < w.queue.size() && plan.steps.size() < cut; ++visits) {
        const std::size_t k = w.head++;
        const std::uint32_t way = bt.wayOf(w.queue[k]);
        plan.steps[k].way = way;
        const std::size_t queued = plan.steps.size();
        if (way != BlockCorrelationTable::kNoWay) {
            for (mem::BlockId s : bt.successorsAt(way)) {
                const uvm::BlockIndex i = st.find(s);
                if (w.markSeen(i))
                    offer(w, plan, s, i, BlockCorrelationTable::kNoWay);
            }
        }
        support::pushAmortized(plan.succs, static_cast<std::uint8_t>(
                                               plan.steps.size() - queued));
    }
    return visits;
}

void
Prefetcher::execute(const WalkPlan &plan, BlockCorrelationTable &bt,
                    std::uint32_t next)
{
    const std::size_t slot = chainDepth_;
    const std::size_t pos = ringPos(slot);
    auto issueNext = [&] {
        const uvm::BlockIndex i = plan.steps[next++].idx;
        protect(pos, i);
        const mem::BlockId b =
            i == uvm::kNoBlockIndex ? uvm::kNoBlock : drv_.store().idAt(i);
        drv_.enqueuePrefetch(b, i, slotAt(slot).exec,
                             static_cast<std::uint32_t>(slot));
        ++blocksIssued_;
        if (budget_ > 0)
            --budget_;
    };
    while (next < plan.sweep)
        issueNext();
    while (next < plan.entry) {
        bt.refreshWay(plan.steps[next].way);
        issueNext();
        if (budget_ == 0)
            return;
    }
    for (std::size_t v = 0; v < plan.succs.size() && budget_ != 0; ++v) {
        const std::uint32_t way = plan.steps[v].way;
        if (way == BlockCorrelationTable::kNoWay)
            continue;
        // A visited entry is live: the refresh keeps it in the fresh
        // window even when prefetching keeps it from faulting again.
        bt.refreshWay(way);
        for (std::uint8_t n = plan.succs[v]; n != 0; --n)
            issueNext();
    }
}

void
Prefetcher::traceChainStart(ExecId cur, std::size_t faulted) const
{
    if (auto *tr = drv_.eventq().tracer())
        tr->instant(sim::Track::PrefetchQueue, "chainStart",
                    drv_.eventq().now(),
                    {sim::Tracer::arg("exec", std::uint64_t(cur)),
                     sim::Tracer::arg("faultedBlocks",
                                      std::uint64_t(faulted))});
}

void
Prefetcher::tracePredictNext(ExecId next) const
{
    if (auto *tr = drv_.eventq().tracer())
        tr->instant(sim::Track::PrefetchQueue, "predictNext",
                    drv_.eventq().now(),
                    {sim::Tracer::arg("exec", std::uint64_t(next)),
                     sim::Tracer::arg("depth",
                                      std::uint64_t(chainDepth_))});
}

void
Prefetcher::onKernelEnd()
{
    if (!active_ || !paused_)
        return;
    paused_ = false;
    growScratch();
    if (budget_ != 0 && walk_.head < walk_.queue.size()) {
        // The paused walk's visits, against its table as it is now.
        BlockCorrelationTable *bt = blockTables_.find(predCur_);
        if (bt == nullptr) {
            active_ = false;
            ++chainDeadNoTable_;
            return;
        }
        const std::uint32_t entry = uncached_.entry;
        tableVisits_ += traverseVisits(*bt, entry + budget_, walk_, uncached_);
        execute(uncached_, *bt, entry);
    }
    runChain();
}

void
Prefetcher::runChain()
{
    // The current kernel's walk has drained its queue, unless the
    // budget cut it.
    while (active_ && !paused_) {
        if (budget_ == 0) {
            // A dead chain keeps no queue.
            active_ = false;
            walk_.restart();
            return;
        }
        ++chainExhaustedTransitions_;
        transitionChain();
    }
}

void
Prefetcher::transitionChain()
{
    for (;;) {
        ++chainTransitions_;
        if (budget_ == 0) {
            active_ = false;
            return;
        }
        ExecId next = execTable_.predict(predCur_, predHist_);
        if (next == kNoExecId) {
            active_ = false;
            ++chainDeadNoPrediction_;
            return;
        }
        predHist_ = ExecHistory{predHist_[1], predHist_[2], predCur_};
        predCur_ = next;
        ++chainDepth_;
        tracePredictNext(next);
        while (slotCount_ <= chainDepth_)
            pushSlot(kNoExecId);
        slotAt(chainDepth_).exec = next;

        const bool pausing = chainDepth_ >= cfg_.lookaheadN;
        walk_.restart();
        BlockCorrelationTable *bt = blockTables_.find(predCur_);
        if (bt == nullptr || bt->start() == uvm::kNoBlock) {
            // This kernel never faulted (its working set is always
            // resident): nothing to prefetch for it. Skip through to
            // the kernel predicted after it instead of dying, or the
            // chain could never cross cheap kernels like optimizer
            // steps.
            ++chainSkippedKernels_;
            if (pausing) {
                paused_ = true;
                ++chainPauses_;
                return;
            }
            continue;
        }

        // A degenerate single-fault kernel has no visits to make. A
        // walk that runs to exhaustion here is cached.
        const bool single_block =
            bt->start() == bt->end() && bt->end() != uvm::kNoBlock;
        const bool exhausts = !pausing && !single_block;
        const bool cached = exhausts && cachePlans_;
        WalkPlan &plan = cached ? planFor(predCur_) : uncached_;
        if (cached && planLive(plan, *bt)) {
            execute(plan, *bt, 0);
            ++walksReplayed_;
            return;
        }
        plan.version = bt->version();
        plan.layout = drv_.store().layoutVersion();
        plan.steps.clear();
        plan.succs.clear();
        traverseEntry(*bt, true, budget_, walk_, plan);
        if (exhausts)
            tableVisits_ += traverseVisits(*bt, budget_, walk_, plan);
        execute(plan, *bt, 0);
        if (pausing) {
            // onKernelEnd traverses the visits.
            paused_ = true;
            ++chainPauses_;
            return;
        }
        if (single_block)
            continue;
        // A cut walk is not a plan; one whose refreshes moved a way's
        // lastEpoch is stale already.
        if (budget_ == 0)
            plan.version = 0;
        else if (cached && planLive(plan, *bt))
            ++walksRecorded_;
        return;
    }
}

void
Prefetcher::checkInvariants(sim::CheckContext &ctx) const
{
    // Rebuild the masks from the slot lists; they must equal the
    // dense protection array exactly.
    const uvm::BlockStore &st = drv_.store();
    std::vector<std::uint64_t> expected(protMask_.size(), 0);
    for (std::size_t w = 0; w < slotCount_; ++w) {
        const std::size_t pos = ringPos(w);
        const std::uint64_t bit = std::uint64_t{1} << pos;
        for (uvm::BlockIndex i : slotAt(w).blocks) {
            ctx.require(i < expected.size(),
                        "slot %zu lists slab index %u beyond the "
                        "%zu-entry mask array",
                        w, i, expected.size());
            if (i >= expected.size())
                continue;
            ctx.require(i < st.slabSize() && st.idAt(i) != uvm::kNoBlock,
                        "slot %zu lists freed slab index %u", w, i);
            ctx.require((expected[i] & bit) == 0,
                        "slot %zu lists slab index %u twice", w, i);
            expected[i] |= bit;
        }
    }
    std::size_t expected_distinct = 0;
    for (std::size_t i = 0; i < protMask_.size(); ++i) {
        expected_distinct += expected[i] != 0;
        if (protMask_[i] == expected[i])
            continue;
        ctx.fail("slab slot %zu protection mask %#llx disagrees with "
                 "slot lists (%#llx)",
                 i, static_cast<unsigned long long>(protMask_[i]),
                 static_cast<unsigned long long>(expected[i]));
    }
    ctx.require(expected_distinct == protectedDistinct_,
                "protection array holds %zu blocks, slots reference "
                "%zu",
                protectedDistinct_, expected_distinct);
    // The store's hold bits are the eviction policy's view of the
    // protected set: exactly the slots with a non-zero mask.
    for (uvm::BlockIndex i = 0; i < st.slabSize(); ++i) {
        const std::uint64_t mask = i < protMask_.size() ? protMask_[i] : 0;
        ctx.require(st.at(i).held == (mask != 0),
                    "slab slot %u hold bit %d disagrees with its "
                    "protection refcount %u",
                    i, int(st.at(i).held),
                    static_cast<unsigned>(std::popcount(mask)));
    }
    ctx.require(slotCount_ <= std::size_t(cfg_.lookaheadN) + 2,
                "prediction window holds %zu slots, lookahead is %u",
                slotCount_, cfg_.lookaheadN);
    ctx.require(slotBuf_.size() == std::size_t(cfg_.lookaheadN) + 2,
                "slot ring holds %zu slots, expected %zu",
                slotBuf_.size(), std::size_t(cfg_.lookaheadN) + 2);
    // Recycled (logically dead) ring slots must be fully drained, or
    // popFrontSlot leaked protection references.
    for (std::size_t i = slotCount_; i < slotBuf_.size(); ++i)
        ctx.require(slotAt(i).blocks.empty(),
                    "dead ring slot %zu still lists %zu blocks", i,
                    slotAt(i).blocks.size());
    ctx.require(chainDepth_ == 0 || chainDepth_ < slotCount_,
                "chain cursor %u outside the %zu-slot window",
                chainDepth_, slotCount_);
    ctx.require(walk_.head <= walk_.queue.size(),
                "walk cursor %zu beyond the %zu-entry queue",
                walk_.head, walk_.queue.size());
    // Replayable plans must be the walk their table yields now.
    Walk w;
    w.seen.resize(st.slabSize(), 0);
    WalkPlan fresh;
    constexpr std::size_t kNoCut = std::numeric_limits<std::size_t>::max();
    for (ExecId id = 0; id < plans_.size(); ++id) {
        const WalkPlan &plan = plans_[id];
        const BlockCorrelationTable *bt = blockTables_.find(id);
        if (bt == nullptr || !planLive(plan, *bt))
            continue;
        w.restart();
        fresh.steps.clear();
        fresh.succs.clear();
        traverseEntry(*bt, true, kNoCut, w, fresh);
        traverseVisits(*bt, kNoCut, w, fresh);
        const bool same =
            plan.sweep == fresh.sweep && plan.entry == fresh.entry &&
            plan.succs == fresh.succs &&
            plan.steps.size() == fresh.steps.size() &&
            std::equal(plan.steps.begin(), plan.steps.end(),
                       fresh.steps.begin(),
                       [](const PlanStep &a, const PlanStep &b) {
                           return a.idx == b.idx && a.way == b.way;
                       });
        ctx.require(same,
                    "exec %u walk plan (%zu candidates, entry %u) is "
                    "not its table's walk (%zu candidates, entry %u)",
                    id, plan.steps.size(), plan.entry, fresh.steps.size(),
                    fresh.entry);
    }
    std::size_t pending = 0;
    for (ExecId id = 0; id < pendingDone_.size(); ++id)
        if (!pendingDone_[id].empty())
            ++pending;
    ctx.require(pending == pendingExecs_,
                "pending-completion counter %zu disagrees with %zu "
                "non-empty slots",
                pendingExecs_, pending);
}

void
Prefetcher::dumpState(std::ostream &os) const
{
    os << "Prefetcher{active=" << active_ << " paused=" << paused_
       << " chainDepth=" << chainDepth_ << " predCur=" << predCur_
       << " budget=" << budget_ << " slots=" << slotCount_
       << " protected=" << protectedDistinct_
       << " walk=" << walk_.queue.size() - walk_.head << "}\n";
    for (std::size_t i = 0; i < slotCount_; ++i) {
        const Slot &s = slotAt(i);
        os << "  slot " << i << ": exec=" << s.exec << " blocks=[";
        for (std::size_t j = 0; j < s.blocks.size(); ++j)
            os << (j != 0 ? " " : "") << drv_.store().idAt(s.blocks[j]);
        os << "]\n";
    }
    os << "  protected:";
    // Slab-index order: deterministic, and the ids are live (a
    // non-zero mask always backs a registered block).
    for (std::size_t i = 0; i < protMask_.size(); ++i) {
        if (protMask_[i] != 0)
            os << " "
               << drv_.store().idAt(
                      static_cast<uvm::BlockIndex>(i))
               << "x" << std::popcount(protMask_[i]);
    }
    os << "\n";
}

} // namespace deepum::core
