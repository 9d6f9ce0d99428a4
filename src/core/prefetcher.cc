#include "core/prefetcher.hh"

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
      mispredictedLaunches_(stats, "prefetcher.mispredictedLaunches",
                            "actual launches that broke the window"),
      lateCompletions_(stats, "prefetcher.lateCompletions",
                       "prefetches completing after their kernel began"),
      leadTime_(stats, "prefetcher.leadTime",
                "ticks between prefetch completion and consuming-"
                "kernel launch")
{
}

void
Prefetcher::pushSlot(ExecId exec)
{
    DEEPUM_ASSERT(slotCount_ < slotBuf_.size(),
                  "prediction window overflows its ring");
    Slot &s = slotAt(slotCount_);
    s.exec = exec;
    s.gen = ++protGen_; // retires every stamp the slot left behind
    s.blocks.clear();   // recycled slot: keep the list's capacity
    ++slotCount_;
}

void
Prefetcher::dropProt(uvm::BlockIndex i)
{
    DEEPUM_ASSERT(i < protCount_.size() && protCount_[i] > 0,
                  "protection refcount out of sync");
    if (--protCount_[i] == 0) {
        --protectedDistinct_;
        drv_.setHeld(i, false);
    }
}

void
Prefetcher::protect(std::size_t slot, mem::BlockId b, uvm::BlockIndex i)
{
    if (i == uvm::kNoBlockIndex)
        return; // unknown block: nothing to hold
    const std::size_t pos = ringPos(slot);
    Slot &s = slotBuf_[pos];
    std::uint64_t &stamp = stampAt(i, pos);
    if (stamp == s.gen)
        return; // a restarted chain re-issued what this slot holds
    stamp = s.gen;
    support::pushAmortized(s.blocks, ProtEntry{b, i});
    if (protCount_[i]++ == 0) {
        ++protectedDistinct_;
        drv_.setHeld(i, true);
    }
}

void
Prefetcher::popFrontSlot()
{
    DEEPUM_ASSERT(slotCount_ > 0, "popping an empty window");
    Slot &front = slotAt(0);
    for (const ProtEntry &e : front.blocks) {
        if (e.idx != uvm::kNoBlockIndex)
            dropProt(e.idx);
    }
    front.exec = kNoExecId;
    front.blocks.clear();
    slotHead_ = (slotHead_ + 1) % slotBuf_.size();
    --slotCount_;
    if (chainDepth_ == 0) {
        // The chain was still working on the kernel that just ended.
        active_ = false;
        paused_ = false;
        clearWalk();
        ++seenGen_;
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
    clearWalk();
    ++seenGen_;
}

void
Prefetcher::onRangeUnregistered(mem::BlockId first, mem::BlockId end)
{
    // Scrub by the recorded protect-time index: the driver has
    // already dropped the run, so the ids no longer resolve, but the
    // slots are not reusable until a later registration — which
    // cannot happen before this hook returns.
    // Their stamps are cleared too, or a block registered later in
    // the same slot would read as already listed.
    for (std::size_t i = 0; i < slotCount_; ++i) {
        for (ProtEntry &e : slotAt(i).blocks) {
            if (e.block >= first && e.block < end &&
                e.idx != uvm::kNoBlockIndex) {
                dropProt(e.idx);
                stampAt(e.idx, ringPos(i)) = 0;
                e.idx = uvm::kNoBlockIndex;
            }
        }
    }
}

void
Prefetcher::issue(std::size_t slot, mem::BlockId b, uvm::BlockIndex i)
{
    protect(slot, b, i);
    drv_.enqueuePrefetch(b, i, slotAt(slot).exec,
                         static_cast<std::uint32_t>(slot));
    ++blocksIssued_;
    if (budget_ > 0)
        --budget_;
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

    clearWalk();
    ++seenGen_;
    for (mem::BlockId b : blocks) {
        uvm::BlockIndex i = drv_.store().find(b);
        if (!markSeen(i))
            continue;
        // The faulted blocks are demand-migrating; protect them for
        // the current kernel and walk their successors.
        protect(0, b, i);
        support::pushAmortized(walk_, b);
    }
    enterKernelTable(0);
    runChain();
}

void
Prefetcher::enterKernelTable(std::size_t slot)
{
    if (!cfg_.freshTagChaining)
        return; // ablation: start-component chaining only
    BlockCorrelationTable *bt = blockTables_.find(slotAt(slot).exec);
    if (bt == nullptr)
        return;
    // Issue every live entry of the kernel's table, not only the
    // start component: blocks covered by prefetching stop faulting
    // and would otherwise fall out of the chain (see freshWays()).
    // issue() never touches the block tables, so the swept ways keep
    // their tags through the loop.
    bt->freshWays(cfg_.freshEpochWindow, freshScratch_);
    for (std::uint32_t way : freshScratch_) {
        mem::BlockId t = bt->tagAt(way);
        uvm::BlockIndex i = drv_.store().find(t);
        if (!markSeen(i))
            continue;
        bt->refreshWay(way);
        issue(slot, t, i);
        support::pushAmortized(walk_, t);
        if (budget_ == 0)
            return;
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
    if (active_ && paused_) {
        paused_ = false;
        growScratch();
        runChain();
    }
}

void
Prefetcher::runChain()
{
    while (active_ && !paused_) {
        if (budget_ == 0) {
            active_ = false;
            return;
        }
        if (walkHead_ == walk_.size()) {
            // Correlations for this kernel are exhausted without
            // meeting the end block (it may sit in a replaced table
            // way). Everything known is enqueued, so move on to the
            // predicted next kernel rather than killing the chain.
            ++chainExhaustedTransitions_;
            if (!transitionChain())
                return;
            continue;
        }
        mem::BlockId p = walk_[walkHead_++];

        BlockCorrelationTable *bt = blockTables_.find(predCur_);
        if (bt == nullptr) {
            active_ = false;
            ++chainDeadNoTable_;
            return;
        }
        // A visited entry is live: visit() keeps it in the fresh
        // window even when prefetching keeps it from ever faulting
        // again. The view aliases the table's successor slab.
        // issue() only pushes into the driver's queue and the
        // protection lists — it never touches the block tables — so
        // iterating the slab in place is safe; no defensive copy.
        SuccView succs = bt->visit(p);
        bool end_met = false;
        for (mem::BlockId s : succs) {
            uvm::BlockIndex i = drv_.store().find(s);
            if (!markSeen(i))
                continue;
            issue(chainDepth_, s, i);
            if (s == bt->end())
                end_met = true;
            support::pushAmortized(walk_, s);
        }
        // Meeting the end block signals the kernel's chain is
        // complete, but residual-fault "shortcut" edges can surface
        // it early in an MRU list; drain the remaining known blocks
        // before transitioning so one stray edge cannot truncate the
        // kernel's coverage.
        if (end_met && walkHead_ == walk_.size()) {
            if (!transitionChain())
                return;
        }
    }
}

bool
Prefetcher::transitionChain()
{
    for (;;) {
        ++chainTransitions_;
        if (budget_ == 0) {
            active_ = false;
            return false;
        }
        ExecId next = execTable_.predict(predCur_, predHist_,
                                         cfg_.execPredictMruFallback);
        if (next == kNoExecId) {
            active_ = false;
            ++chainDeadNoPrediction_;
            return false;
        }
        predHist_ = ExecHistory{predHist_[1], predHist_[2], predCur_};
        predCur_ = next;
        ++chainDepth_;
        tracePredictNext(next);
        while (slotCount_ <= chainDepth_)
            pushSlot(kNoExecId);
        slotAt(chainDepth_).exec = next;

        const BlockCorrelationTable *bt = blockTables_.find(predCur_);
        if (bt == nullptr || bt->start() == uvm::kNoBlock) {
            // This kernel never faulted (its working set is always
            // resident): nothing to prefetch for it. Skip through to
            // the kernel predicted after it instead of dying, or the
            // chain could never cross cheap kernels like optimizer
            // steps.
            ++chainSkippedKernels_;
            if (chainDepth_ >= cfg_.lookaheadN) {
                paused_ = true;
                ++chainPauses_;
                clearWalk();
                ++seenGen_;
                return true;
            }
            continue;
        }

        clearWalk();
        ++seenGen_;
        uvm::BlockIndex start = drv_.store().find(bt->start());
        markSeen(start);
        issue(chainDepth_, bt->start(), start);
        support::pushAmortized(walk_, bt->start());
        enterKernelTable(chainDepth_);

        if (chainDepth_ >= cfg_.lookaheadN) {
            paused_ = true;
            ++chainPauses_;
            return true;
        }
        bool single_block =
            bt->start() == bt->end() && bt->end() != uvm::kNoBlock;
        if (!single_block)
            return true;
        // Degenerate single-fault kernel: keep transitioning.
    }
}

void
Prefetcher::checkInvariants(sim::CheckContext &ctx) const
{
    // Rebuild the refcounts from the slot lists; they must agree
    // with the dense protection array exactly.
    std::vector<std::uint32_t> expected(protCount_.size(), 0);
    std::size_t expected_distinct = 0;
    const std::size_t ring = slotBuf_.size();
    ctx.require(protStamp_.size() == protCount_.size() * ring,
                "protection stamps hold %zu entries for %zu slab "
                "slots x %zu ring positions",
                protStamp_.size(), protCount_.size(), ring);
    // The window slot that last listed each index (dedupe check).
    std::vector<std::size_t> listedIn(protCount_.size(), ring);
    for (std::size_t w = 0; w < slotCount_; ++w) {
        const Slot &s = slotAt(w);
        const std::size_t pos = ringPos(w);
        ctx.require(s.gen != 0 && s.gen <= protGen_,
                    "slot %zu generation %llu outside (0, %llu]", w,
                    static_cast<unsigned long long>(s.gen),
                    static_cast<unsigned long long>(protGen_));
        // Each listed index carries the slot's stamp, and only listed
        // indices do: counting the stamps proves both directions.
        std::size_t listed = 0;
        for (const ProtEntry &e : s.blocks) {
            if (e.idx == uvm::kNoBlockIndex)
                continue;
            ctx.require(e.idx < expected.size(),
                        "slot entry for block %llu names slab index "
                        "%u beyond the %zu-entry refcount array",
                        static_cast<unsigned long long>(e.block),
                        e.idx, expected.size());
            if (e.idx >= expected.size())
                continue;
            ctx.require(e.idx < drv_.store().slabSize() &&
                            drv_.store().idAt(e.idx) == e.block,
                        "slot entry for block %llu holds stale slab "
                        "index %u",
                        static_cast<unsigned long long>(e.block),
                        e.idx);
            const std::uint64_t st = protStamp_[e.idx * ring + pos];
            ctx.require(st == s.gen,
                        "slot %zu entry for block %llu carries stamp "
                        "%llu, slot generation %llu",
                        w, static_cast<unsigned long long>(e.block),
                        static_cast<unsigned long long>(st),
                        static_cast<unsigned long long>(s.gen));
            ++listed;
            ctx.require(listedIn[e.idx] != w,
                        "slot %zu lists slab index %u twice", w, e.idx);
            listedIn[e.idx] = w;
            if (expected[e.idx]++ == 0)
                ++expected_distinct;
        }
        std::size_t stamped = 0;
        for (std::size_t i = 0; i < protCount_.size(); ++i)
            stamped += protStamp_[i * ring + pos] == s.gen;
        ctx.require(stamped == listed,
                    "slot %zu generation stamps %zu slab slots, its "
                    "list names %zu",
                    w, stamped, listed);
    }
    ctx.require(expected_distinct == protectedDistinct_,
                "protection array holds %zu blocks, slots reference "
                "%zu",
                protectedDistinct_, expected_distinct);
    for (std::size_t i = 0; i < protCount_.size(); ++i) {
        if (protCount_[i] == expected[i])
            continue;
        ctx.fail("slab slot %zu refcount %u disagrees with slot "
                 "lists (%u)",
                 i, protCount_[i], expected[i]);
    }
    // The store's hold bits are the eviction policy's view of the
    // protected set: exactly the slots with a nonzero refcount.
    const uvm::BlockStore &st = drv_.store();
    for (uvm::BlockIndex i = 0; i < st.slabSize(); ++i) {
        bool prot = i < protCount_.size() && protCount_[i] != 0;
        ctx.require(st.at(i).held == prot,
                    "slab slot %u hold bit %d disagrees with its "
                    "protection refcount %u",
                    i, int(st.at(i).held),
                    i < protCount_.size() ? protCount_[i] : 0u);
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
    ctx.require(walkHead_ <= walk_.size(),
                "walk cursor %zu beyond the %zu-entry queue",
                walkHead_, walk_.size());
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
       << " walk=" << walk_.size() - walkHead_ << "}\n";
    for (std::size_t i = 0; i < slotCount_; ++i) {
        const Slot &s = slotAt(i);
        os << "  slot " << i << ": exec=" << s.exec << " blocks=[";
        for (std::size_t j = 0; j < s.blocks.size(); ++j)
            os << (j != 0 ? " " : "") << s.blocks[j].block;
        os << "]\n";
    }
    os << "  protected:";
    // Slab-index order: deterministic, and the ids are live (slots
    // with a refcount always back a registered block).
    for (std::size_t i = 0; i < protCount_.size(); ++i) {
        if (protCount_[i] != 0)
            os << " "
               << drv_.store().idAt(
                      static_cast<uvm::BlockIndex>(i))
               << "x" << protCount_[i];
    }
    os << "\n";
}

} // namespace deepum::core
