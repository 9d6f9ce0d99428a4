#include "core/prefetcher.hh"

#include <algorithm>
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
      plansOn_(cfg.table.numSuccs <=
               std::numeric_limits<std::uint8_t>::max()),
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
                   "block-table set probes by the live walk"),
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
    ++protectListings_;
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
Prefetcher::enqueue(std::size_t slot, mem::BlockId b, uvm::BlockIndex i)
{
    drv_.enqueuePrefetch(b, i, slotAt(slot).exec,
                         static_cast<std::uint32_t>(slot));
    ++blocksIssued_;
    if (budget_ > 0)
        --budget_;
}

void
Prefetcher::issue(std::size_t slot, mem::BlockId b, uvm::BlockIndex i)
{
    protect(slot, b, i);
    enqueue(slot, b, i);
    support::pushAmortized(walk_, b);
    if (recExec_ != kNoExecId)
        support::pushAmortized(plans_[recExec_].steps, PlanStep{i});
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

    recExec_ = kNoExecId;
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
            // A dead chain keeps no queue (as after a cut replay),
            // and a cut walk is not a plan.
            active_ = false;
            clearWalk();
            recExec_ = kNoExecId;
            return;
        }
        if (walkHead_ == walk_.size()) {
            // Correlations for this kernel are exhausted. Everything
            // known is enqueued, so move on to the predicted next
            // kernel rather than killing the chain.
            commitRecording();
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
        // A visited entry is live: the refresh keeps it in the fresh
        // window even when prefetching keeps it from ever faulting
        // again. The view aliases the table's successor slab.
        // issue() only pushes into the driver's queue, the protection
        // lists and the walk — it never touches the block tables — so
        // iterating the slab in place is safe; no defensive copy.
        const std::uint32_t way = bt->wayOf(p);
        ++tableVisits_;
        const std::size_t queued = walk_.size();
        if (way != BlockCorrelationTable::kNoWay) {
            bt->refreshWay(way);
            for (mem::BlockId s : bt->successorsAt(way)) {
                uvm::BlockIndex i = drv_.store().find(s);
                if (markSeen(i))
                    issue(chainDepth_, s, i);
            }
        }
        if (recExec_ != kNoExecId) {
            WalkPlan &rec = plans_[recExec_];
            rec.steps[walkHead_ - 1].way = way;
            support::pushAmortized(
                rec.succs, static_cast<std::uint8_t>(walk_.size() - queued));
        }
    }
}

void
Prefetcher::commitRecording()
{
    if (recExec_ == kNoExecId)
        return;
    const BlockCorrelationTable *bt = blockTables_.find(recExec_);
    // A walk that moved a way's lastEpoch may have changed the fresh
    // set the next walk sweeps: only an unmoved version replays.
    if (bt->version() == recVersion_) {
        WalkPlan &plan = plans_[recExec_];
        plan.version = recVersion_;
        plan.layout = drv_.store().layoutVersion();
        plan.listedGen = slotAt(chainDepth_).gen;
        plan.listed = static_cast<std::uint32_t>(plan.steps.size());
        ++walksRecorded_;
    }
    recExec_ = kNoExecId;
}

void
Prefetcher::replayPlan(WalkPlan &plan, BlockCorrelationTable &bt)
{
    const std::size_t slot = chainDepth_;
    const std::uint64_t gen = slotAt(slot).gen;
    // The prefix already listed in this slot generation would find
    // stamp == gen in protect(): skip the call, not just its work.
    const std::uint32_t listed = plan.listedGen == gen ? plan.listed : 0;
    std::uint32_t next = 0; // the next candidate to issue
    auto issueNext = [&] {
        const uvm::BlockIndex i = plan.steps[next].idx;
        const mem::BlockId b =
            i == uvm::kNoBlockIndex ? uvm::kNoBlock : drv_.store().idAt(i);
        if (next >= listed)
            protect(slot, b, i);
        enqueue(slot, b, i);
        ++next;
    };
    // Kernel entry: the start block, then the fresh sweep, whose ways
    // are the ones those candidates' visits hit.
    issueNext();
    while (next < plan.entry) {
        bt.refreshWay(plan.steps[next].way);
        issueNext();
        if (budget_ == 0)
            break;
    }
    // The breadth-first visits, each behind runChain's budget check.
    for (std::size_t v = 0; v < plan.steps.size() && budget_ != 0; ++v) {
        const std::uint32_t way = plan.steps[v].way;
        if (way == BlockCorrelationTable::kNoWay)
            continue;
        bt.refreshWay(way);
        for (std::uint8_t n = plan.succs[v]; n != 0; --n)
            issueNext();
    }
    if (plan.listedGen != gen) {
        plan.listedGen = gen;
        plan.listed = next;
    } else {
        plan.listed = std::max(plan.listed, next);
    }
    ++walksReplayed_;
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

        BlockCorrelationTable *bt = blockTables_.find(predCur_);
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

        const bool pausing = chainDepth_ >= cfg_.lookaheadN;
        const bool single_block =
            bt->start() == bt->end() && bt->end() != uvm::kNoBlock;
        // A walk that runs to exhaustion here is plannable.
        const bool planned = plansOn_ && !pausing && !single_block;
        clearWalk();
        ++seenGen_;
        if (planned) {
            WalkPlan &plan = planFor(predCur_);
            if (planLive(plan, *bt)) {
                // runChain finds the walk queue empty: its budget
                // check, then the next transition, as after a live
                // walk.
                replayPlan(plan, *bt);
                return true;
            }
            // Record over the stale plan in place; version 0 keeps
            // it from replaying until the walk commits.
            plan.version = 0;
            plan.steps.clear();
            plan.succs.clear();
            recExec_ = predCur_;
            recVersion_ = bt->version();
        }
        uvm::BlockIndex start = drv_.store().find(bt->start());
        markSeen(start);
        issue(chainDepth_, bt->start(), start);
        enterKernelTable(chainDepth_);
        if (recExec_ != kNoExecId)
            plans_[recExec_].entry = static_cast<std::uint32_t>(walk_.size());

        if (pausing) {
            paused_ = true;
            ++chainPauses_;
            return true;
        }
        if (!single_block)
            return true;
        // Degenerate single-fault kernel: keep transitioning.
    }
}

void
Prefetcher::dryWalk(const BlockCorrelationTable &bt, WalkPlan &out) const
{
    // transitionChain + enterKernelTable + runChain without a budget,
    // ticks, issues or the shared dedupe.
    const uvm::BlockStore &st = drv_.store();
    std::vector<bool> seen(st.slabSize(), false);
    std::vector<mem::BlockId> queue;
    out.steps.clear();
    out.succs.clear();
    auto offer = [&](mem::BlockId b, bool always) {
        const uvm::BlockIndex i = st.find(b);
        if (i != uvm::kNoBlockIndex) {
            if (seen[i] && !always)
                return std::size_t{0};
            seen[i] = true;
        }
        out.steps.push_back(PlanStep{i});
        queue.push_back(b);
        return std::size_t{1};
    };
    offer(bt.start(), true);
    if (cfg_.freshTagChaining) {
        std::vector<std::uint32_t> ways;
        bt.freshWays(cfg_.freshEpochWindow, ways);
        for (std::uint32_t way : ways)
            offer(bt.tagAt(way), false);
    }
    out.entry = static_cast<std::uint32_t>(out.steps.size());
    for (std::size_t k = 0; k < queue.size(); ++k) {
        const std::uint32_t way = bt.wayOf(queue[k]);
        out.steps[k].way = way;
        std::size_t n = 0;
        if (way != BlockCorrelationTable::kNoWay) {
            for (mem::BlockId s : bt.successorsAt(way))
                n += offer(s, false);
        }
        out.succs.push_back(static_cast<std::uint8_t>(n));
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
    // Replayable plans must be the walk their table yields now, and
    // the prefix they claim listed must still be listed.
    WalkPlan dry;
    for (ExecId id = 0; id < plans_.size(); ++id) {
        const WalkPlan &plan = plans_[id];
        const BlockCorrelationTable *bt = blockTables_.find(id);
        if (bt == nullptr || !planLive(plan, *bt))
            continue;
        dryWalk(*bt, dry);
        const bool same =
            plan.entry == dry.entry && plan.succs == dry.succs &&
            plan.steps.size() == dry.steps.size() &&
            std::equal(plan.steps.begin(), plan.steps.end(),
                       dry.steps.begin(),
                       [](const PlanStep &a, const PlanStep &b) {
                           return a.idx == b.idx && a.way == b.way;
                       });
        ctx.require(same,
                    "exec %u walk plan (%zu candidates, entry %u) is "
                    "not its table's walk (%zu candidates, entry %u)",
                    id, plan.steps.size(), plan.entry, dry.steps.size(),
                    dry.entry);
        ctx.require(plan.listed <= plan.steps.size(),
                    "exec %u plan lists %u of %zu candidates", id,
                    plan.listed, plan.steps.size());
        for (std::size_t w = 0; w < slotCount_; ++w) {
            if (slotAt(w).gen != plan.listedGen)
                continue;
            const std::size_t pos = ringPos(w);
            for (std::uint32_t k = 0;
                 k < plan.listed && k < plan.steps.size(); ++k) {
                const uvm::BlockIndex i = plan.steps[k].idx;
                if (i == uvm::kNoBlockIndex)
                    continue;
                const std::uint64_t stamp =
                    std::size_t(i) * ring + pos < protStamp_.size()
                        ? protStamp_[std::size_t(i) * ring + pos]
                        : 0;
                ctx.require(stamp == plan.listedGen,
                            "exec %u plan candidate %u (slab index %u) "
                            "listed in generation %llu carries stamp "
                            "%llu",
                            id, k, i,
                            static_cast<unsigned long long>(
                                plan.listedGen),
                            static_cast<unsigned long long>(stamp));
            }
        }
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
