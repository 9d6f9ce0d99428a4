#include "uvm/driver.hh"

#include <ostream>
#include <unordered_set>

#include "sim/logging.hh"
#include "sim/trace.hh"
#include "sim/validate.hh"
#include "uvm/provenance.hh"

#ifdef DEEPUM_VALIDATE
#define DEEPUM_VALIDATE_HOOK(where)                                    \
    do {                                                               \
        if (validator_ != nullptr)                                     \
            validator_->runAll(where);                                 \
    } while (0)
#else
#define DEEPUM_VALIDATE_HOOK(where)                                    \
    do {                                                               \
    } while (0)
#endif

namespace deepum::uvm {

namespace {

/// Depth of the demand fault queue (blocks, deduped).
constexpr std::size_t kFaultQueueDepth = 8192;

/// Depth of the prefetch queue; overflow is counted and dropped.
constexpr std::size_t kPrefetchQueueDepth = 1 << 16;

} // namespace

Driver::Driver(sim::EventQueue &eq, const gpu::TimingConfig &cfg,
               gpu::FaultBuffer &fb, gpu::PcieLink &link,
               mem::FramePool &frames, sim::StatSet &stats)
    : SimObject(eq, "uvm.driver"),
      cfg_(cfg),
      fb_(fb),
      link_(link),
      frames_(frames),
      faultQueue_(kFaultQueueDepth),
      prefetchQueue_(kPrefetchQueueDepth),
      policy_(std::make_unique<LruMigratedPolicy>()),
      pageFaults_(stats, "uvm.pageFaults",
                  "pages covered by faulted accesses"),
      faultBatches_(stats, "uvm.faultBatches",
                    "fault-buffer drain/preprocess passes"),
      faultedBlocks_(stats, "uvm.faultedBlocks",
                     "deduped faulted UM blocks"),
      migratedBlocks_(stats, "uvm.migratedBlocks",
                      "UM blocks migrated host->device"),
      migratedPages_(stats, "uvm.migratedPages",
                     "pages migrated host->device"),
      zeroFillBlocks_(stats, "uvm.zeroFillBlocks",
                      "blocks populated by zero-fill (first touch)"),
      evictedBlocks_(stats, "uvm.evictedBlocks",
                     "UM blocks written back device->host"),
      evictedPages_(stats, "uvm.evictedPages",
                    "pages written back device->host"),
      invalidatedBlocks_(stats, "uvm.invalidatedBlocks",
                         "victim blocks dropped without write-back"),
      demandEvictions_(stats, "uvm.demandEvictions",
                       "evictions on the fault critical path"),
      preEvictions_(stats, "uvm.preEvictions",
                    "evictions performed off the fault path"),
      prefetchIssued_(stats, "uvm.prefetchIssued",
                      "prefetch commands accepted into the queue"),
      prefetchCompleted_(stats, "uvm.prefetchCompleted",
                         "prefetch migrations completed"),
      prefetchDropped_(stats, "uvm.prefetchDropped",
                       "prefetch commands dropped as stale/duplicate"),
      prefetchUseful_(stats, "uvm.prefetchUseful",
                      "prefetched blocks later touched by the GPU"),
      prefetchWasted_(stats, "uvm.prefetchWasted",
                      "prefetched blocks evicted before any use"),
      replaysSent_(stats, "uvm.replaysSent",
                   "replay signals sent to the GPU"),
      faultBatchSize_(stats, "uvm.faultBatchSize",
                      "deduped faulted blocks per fault batch"),
      migrationLatency_(stats, "uvm.migrationLatency",
                        "ticks from migration dequeue to completion")
{
}

Driver::~Driver() = default;

void
Driver::setEvictionPolicy(std::unique_ptr<EvictionPolicy> p)
{
    DEEPUM_ASSERT(p != nullptr, "null eviction policy");
    policy_ = std::move(p);
}

// --------------------------------------------------------------------
// Address-space management
// --------------------------------------------------------------------

void
Driver::registerRange(mem::VAddr va, std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    mem::BlockId first = mem::firstBlock(va, bytes);
    mem::BlockId end = mem::endBlock(va, bytes);
    BlockIndex base = store_.registerRun(first, end);
    BlockIndex i = base;
    for (mem::BlockId b = first; b != end; ++b, ++i)
        store_.at(i).pages = static_cast<std::uint32_t>(
            mem::pagesInBlock(b, va, bytes));
}

void
Driver::unregisterRange(mem::VAddr va, std::uint64_t bytes)
{
    mem::BlockId first = mem::firstBlock(va, bytes);
    mem::BlockId end = mem::endBlock(va, bytes);
    if (first == end)
        return;
    const BlockStore::Range *r = store_.rangeContaining(first);
    if (r == nullptr)
        sim::panic("unregisterRange: unknown block %llu",
                   static_cast<unsigned long long>(first));
    BlockIndex i = r->base;
    for (mem::BlockId b = first; b != end; ++b, ++i) {
        BlockInfo &bi = store_.at(i);
        if (ledger_ != nullptr)
            ledger_->onBlockFreed(b, curTick(),
                                  bi.loc == Loc::Device);
        if (bi.loc == Loc::Device) {
            frames_.release(bi.pages);
            store_.lruErase(i);
        }
    }
    store_.unregisterRun(first, end);
    for (auto *l : listeners_)
        l->onRangeUnregistered(first, end);
}

void
Driver::markInactiveRange(mem::VAddr va, std::uint64_t bytes,
                          bool inactive)
{
    if (bytes == 0)
        return;
    for (mem::BlockId b = mem::firstBlock(va, bytes),
                      e = mem::endBlock(va, bytes);
         b != e; ++b) {
        BlockIndex i = store_.find(b);
        if (i == kNoBlockIndex)
            sim::panic("markInactiveRange: unknown block %llu",
                       static_cast<unsigned long long>(b));
        BlockInfo &bi = store_.at(i);
        std::uint64_t n = mem::bytesInBlock(b, va, bytes);
        if (inactive) {
            bi.inactiveBytes += n;
            DEEPUM_ASSERT(bi.inactiveBytes <=
                              std::uint64_t(bi.pages) * mem::kPageSize,
                          "inactive bytes exceed block bytes");
        } else {
            DEEPUM_ASSERT(bi.inactiveBytes >= n,
                          "activating bytes that were not inactive");
            bi.inactiveBytes -= n;
        }
    }
}

// --------------------------------------------------------------------
// Prefetch and pre-eviction interfaces
// --------------------------------------------------------------------

bool
Driver::enqueuePrefetch(mem::BlockId block, std::uint32_t exec_id,
                        std::uint32_t depth)
{
    return enqueuePrefetch(block, store_.find(block), exec_id, depth);
}

bool
Driver::enqueuePrefetch(mem::BlockId block, BlockIndex i,
                        std::uint32_t exec_id, std::uint32_t depth)
{
    if (i == kNoBlockIndex)
        return false;
    BlockInfo &bi = store_.at(i);
    if (bi.loc == Loc::Device || bi.queuedPrefetch || bi.queuedFault)
        return false;
    if (!prefetchQueue_.push(MigrateCmd{block, exec_id, depth}))
        return false;
    bi.queuedPrefetch = true;
    ++prefetchIssued_;
    if (auto *tr = eventq().tracer())
        tr->counter(sim::Track::PrefetchQueue, "prefetchQueueDepth",
                    curTick(), prefetchQueue_.size());
    if (!migBusy_) {
        migBusy_ = true;
        scheduleIn(0, [this] { migrationStep(); });
    }
    return true;
}

bool
Driver::preEvictOne()
{
    if (migBusy_ || !faultQueue_.empty() || !prefetchQueue_.empty())
        return false;
    mem::BlockId victim = policy_->pickVictim(*this, /*demand=*/false);
    if (victim == kNoBlock)
        return false;

    migBusy_ = true;
    sim::Tick t = curTick();
    evictBlock(victim, t, /*demand=*/false);
    ++preEvictions_;
    // migBusy_ stays set until then, so commands queued meanwhile
    // wait for this step to serve them.
    eventq().schedule(t, [this] { migrationStep(); });
    return true;
}

// --------------------------------------------------------------------
// Queries
// --------------------------------------------------------------------

const BlockInfo &
Driver::blockInfo(mem::BlockId b) const
{
    BlockIndex i = store_.find(b);
    if (i == kNoBlockIndex)
        sim::panic("blockInfo: unknown block %llu",
                   static_cast<unsigned long long>(b));
    return store_.at(i);
}

// --------------------------------------------------------------------
// gpu::UvmBackend
// --------------------------------------------------------------------

bool
Driver::isResident(mem::BlockId block) const
{
    BlockIndex i = store_.find(block);
    return i != kNoBlockIndex && store_.at(i).loc == Loc::Device;
}

void
Driver::faultInterrupt()
{
    if (faultHandlerPending_)
        return;
    faultHandlerPending_ = true;
    scheduleIn(cfg_.faultInterruptLatency, [this] { handleFaults(); });
}

void
Driver::onKernelBegin(const gpu::KernelInfo &k)
{
    if (ledger_ != nullptr)
        ledger_->onKernelBegin(curTick());
    for (auto *l : listeners_)
        l->onKernelBegin(k);
}

void
Driver::onKernelEnd(const gpu::KernelInfo &k)
{
    for (auto *l : listeners_)
        l->onKernelEnd(k);
    DEEPUM_VALIDATE_HOOK("kernel-end");
}

void
Driver::onBlockAccess(mem::BlockId block)
{
    BlockIndex i = store_.find(block);
    if (i == kNoBlockIndex)
        return;
    BlockInfo &bi = store_.at(i);
    if (bi.prefetched) {
        bi.prefetched = false;
        ++prefetchUseful_;
        if (ledger_ != nullptr)
            ledger_->onPrefetchTouched(block, curTick());
        for (auto *l : listeners_)
            l->onPrefetchUseful(block, bi.prefetchExecId);
    }
    for (auto *l : listeners_)
        l->onBlockAccessed(block);
}

// --------------------------------------------------------------------
// Fault-handling thread
// --------------------------------------------------------------------

void
Driver::handleFaults()
{
    faultHandlerPending_ = false;
    auto entries = fb_.drain();
    if (entries.empty())
        return;

    ++faultBatches_;

    // Step 2 of Figure 3: dedupe entries and group them by UM block,
    // preserving first-fault order. The dedupe is an epoch-stamped
    // array keyed by slab index — bumping the epoch is the O(1)
    // "clear" between batches.
    if (faultSeen_.size() < store_.slabSize())
        faultSeen_.resize(store_.slabSize(), 0);
    ++faultEpoch_;
    std::vector<mem::BlockId> ordered;
    std::uint64_t pages = 0;
    for (const auto &e : entries) {
        pages += e.pages;
        BlockIndex i = store_.find(e.block);
        if (i == kNoBlockIndex)
            sim::panic("fault on unregistered block %llu",
                       static_cast<unsigned long long>(e.block));
        if (faultSeen_[i] != faultEpoch_) {
            faultSeen_[i] = faultEpoch_;
            ordered.push_back(e.block);
        }
    }
    pageFaults_ += pages;
    faultedBlocks_ += ordered.size();
    faultBatchSize_.sample(ordered.size());

    sim::Tick cost = cfg_.faultFetchPerEntry * entries.size() +
                     cfg_.faultPreprocessBase +
                     cfg_.faultPreprocessPerBlock * ordered.size();

    if (auto *tr = eventq().tracer())
        tr->duration(sim::Track::FaultHandler, "faultBatch",
                     curTick(), curTick() + cost,
                     {sim::Tracer::arg("entries",
                                       std::uint64_t(entries.size())),
                      sim::Tracer::arg("blocks",
                                       std::uint64_t(ordered.size())),
                      sim::Tracer::arg("pages", pages)});

    eventq().scheduleIn(cost, [this, ordered = std::move(ordered)]() mutable {
        // A free may run during the modelled preprocess delay: drop
        // its blocks here, once, so neither the listeners nor the
        // fault queue ever see an unregistered block.
        std::erase_if(ordered, [this](mem::BlockId b) {
            return !store_.contains(b);
        });
        for (auto *l : listeners_)
            l->onFaultBatch(ordered);

        for (mem::BlockId b : ordered) {
            BlockIndex i = store_.find(b);
            DEEPUM_ASSERT(i != kNoBlockIndex,
                          "a listener freed faulted block %llu",
                          static_cast<unsigned long long>(b));
            BlockInfo &bi = store_.at(i);
            if (bi.loc == Loc::Device)
                continue; // a prefetch landed it meanwhile
            if (ledger_ != nullptr)
                ledger_->onDemandFault(b, curTick());
            store_.setPinned(i, true);
            if (!bi.queuedFault) {
                bool ok = faultQueue_.push(MigrateCmd{b, 0});
                DEEPUM_ASSERT(ok, "fault queue overflow");
                bi.queuedFault = true;
            }
        }
        if (auto *tr = eventq().tracer())
            tr->counter(sim::Track::FaultHandler, "faultQueueDepth",
                        curTick(), faultQueue_.size());
        DEEPUM_VALIDATE_HOOK("fault-batch");

        if (store_.pinnedCount() == 0) {
            // Everything already resident: replay immediately.
            maybeReplay();
            return;
        }

        if (!migBusy_) {
            migBusy_ = true;
            scheduleIn(0, [this] { migrationStep(); });
        }
    });
}

void
Driver::resolveFault(mem::BlockId b)
{
    BlockIndex i = store_.find(b);
    if (i != kNoBlockIndex)
        store_.setPinned(i, false);
    if (store_.pinnedCount() == 0)
        maybeReplay();
}

void
Driver::maybeReplay()
{
    if (engine_ != nullptr && engine_->stalled() && !replayPending_) {
        replayPending_ = true;
        scheduleIn(cfg_.replayLatency, [this] {
            replayPending_ = false;
            ++replaysSent_;
            engine_->replay();
        });
    }
}

// --------------------------------------------------------------------
// Migration thread
// --------------------------------------------------------------------

void
Driver::migrationStep()
{
    for (;;) {
        MigrateCmd cmd;
        bool demand;
        if (faultQueue_.pop(cmd)) {
            demand = true;
        } else if (prefetchQueue_.pop(cmd)) {
            demand = false;
        } else {
            migBusy_ = false;
            for (auto *l : listeners_)
                l->onMigrationIdle();
            return;
        }

        BlockIndex idx = store_.find(cmd.block);
        if (idx == kNoBlockIndex) {
            // Freed while queued.
            if (!demand)
                ++prefetchDropped_;
            continue;
        }
        BlockInfo &bi = store_.at(idx);
        if (demand)
            bi.queuedFault = false;
        else
            bi.queuedPrefetch = false;

        if (bi.loc == Loc::Device) {
            if (demand)
                resolveFault(cmd.block);
            else
                ++prefetchDropped_;
            continue;
        }

        // Steps 3-7 of Figure 3: space check, eviction, populate,
        // transfer, map.
        sim::Tick t0 = curTick();
        sim::Tick t = t0;
        if (!makeRoom(bi.pages, t, demand)) {
            if (demand) {
                sim::panic("no evictable block for a demand fault "
                           "(GPU memory too small for one batch?)");
            }
            // Drop the prefetch: everything resident is protected.
            ++prefetchDropped_;
            continue;
        }
        bool ok = frames_.reserve(bi.pages);
        DEEPUM_ASSERT(ok, "frame reservation failed after makeRoom");
        inFlightPages_ += bi.pages;

        bool htod = (bi.loc == Loc::Host);
        std::uint32_t pages = bi.pages;
        if (htod) {
            t = transfer(t, std::uint64_t(pages) * mem::kPageSize,
                         gpu::Dir::HostToDev, demand);
        } else {
            t += cfg_.zeroFillPerPage * pages;
        }
        t += cfg_.mapBlock;

        migrationLatency_.sample(t - t0);
        if (auto *tr = eventq().tracer()) {
            tr->duration(
                sim::Track::Migration, "migrate", t0, t,
                {sim::Tracer::arg("phase",
                                  demand ? "demand" : "prefetch"),
                 sim::Tracer::arg("kind", htod ? "copy" : "zerofill"),
                 sim::Tracer::arg("block", cmd.block),
                 sim::Tracer::arg("pages", std::uint64_t(pages))});
            tr->counter(sim::Track::FaultHandler, "faultQueueDepth",
                        curTick(), faultQueue_.size());
            tr->counter(sim::Track::PrefetchQueue,
                        "prefetchQueueDepth", curTick(),
                        prefetchQueue_.size());
        }

        mem::BlockId b = cmd.block;
        std::uint32_t exec_id = cmd.execId;
        std::uint32_t depth = cmd.depth;
        eventq().schedule(t, [this, b, demand, htod, pages, exec_id,
                              depth] {
            DEEPUM_ASSERT(inFlightPages_ >= pages,
                          "in-flight page accounting underflow");
            inFlightPages_ -= pages;
            BlockIndex i = store_.find(b);
            if (i == kNoBlockIndex) {
                // Freed mid-flight: hand the frames back.
                frames_.release(pages);
            } else {
                BlockInfo &info = store_.at(i);
                info.loc = Loc::Device;
                info.migrateSeq = ++migrateSeq_;
                info.prefetched = !demand;
                info.prefetchExecId = exec_id;
                store_.lruPushBack(i);
                if (htod) {
                    ++migratedBlocks_;
                    migratedPages_ += pages;
                } else {
                    ++zeroFillBlocks_;
                }
                if (!demand)
                    ++prefetchCompleted_;
                if (ledger_ != nullptr)
                    ledger_->onArrival(
                        b,
                        demand ? ArrivalCause::DemandFault
                               : ArrivalCause::Prefetch,
                        exec_id, depth, curTick());
                for (auto *l : listeners_)
                    l->onBlockMigrated(b, !demand);
                if (demand)
                    resolveFault(b);
            }
            migrationStep();
        });
        return; // busy until the completion event fires
    }
}

sim::Tick
Driver::transfer(sim::Tick t, std::uint64_t bytes, gpu::Dir dir,
                 bool demand)
{
    if (!demand) // driver-initiated bulk copy at full block size
        return link_.acquire(t, bytes, dir);
    // Fault-path copy: fault-granularity chunks, each with a handling
    // round trip (see TimingConfig).
    std::uint64_t chunk = cfg_.demandChunkBytes;
    while (bytes > 0) {
        std::uint64_t n = bytes < chunk ? bytes : chunk;
        t = link_.acquire(t, n, dir) + cfg_.demandChunkOverhead;
        bytes -= n;
    }
    return t;
}

bool
Driver::makeRoom(std::uint64_t pages, sim::Tick &t, bool demand)
{
    while (frames_.freePages() < pages) {
        mem::BlockId victim = policy_->pickVictim(*this, demand);
        if (victim == kNoBlock)
            return false;
        evictBlock(victim, t, demand);
    }
    return true;
}

void
Driver::evictBlock(mem::BlockId victim, sim::Tick &t, bool demand)
{
    BlockIndex i = store_.find(victim);
    DEEPUM_ASSERT(i != kNoBlockIndex, "evicting unknown block");
    BlockInfo &bi = store_.at(i);
    DEEPUM_ASSERT(bi.loc == Loc::Device, "evicting non-resident block");
    DEEPUM_ASSERT(!bi.pinned, "evicting a pinned block");

    store_.lruErase(i);

    sim::Tick evict_start = t;

    if (bi.prefetched) {
        bi.prefetched = false;
        ++prefetchWasted_;
        for (auto *l : listeners_)
            l->onPrefetchWasted(victim, bi.prefetchExecId);
    }

    bool invalidate = invalidationEnabled_ && bi.fullyInactive();
    if (invalidate) {
        // Paper Section 5.2: the pages hold dead PyTorch pool data;
        // unmap and drop them instead of copying back.
        t += cfg_.mapBlock;
        bi.loc = Loc::Unpopulated;
        ++invalidatedBlocks_;
    } else {
        // A demand write-back is the expensive critical-path work
        // pre-eviction exists to avoid (paper Section 5.1).
        t = transfer(t, std::uint64_t(bi.pages) * mem::kPageSize,
                     gpu::Dir::DevToHost, demand);
        t += cfg_.mapBlock;
        bi.loc = Loc::Host;
        ++evictedBlocks_;
        evictedPages_ += bi.pages;
    }
    frames_.release(bi.pages);
    if (demand)
        ++demandEvictions_;
    if (ledger_ != nullptr)
        ledger_->onDeparture(victim,
                             invalidate ? DepartureCause::Invalidate
                             : demand   ? DepartureCause::DemandEvict
                                        : DepartureCause::PreEvict,
                             t);
    if (auto *tr = eventq().tracer())
        tr->duration(
            sim::Track::Migration, "evict", evict_start, t,
            {sim::Tracer::arg("phase", demand ? "demand" : "pre"),
             sim::Tracer::arg("kind",
                              invalidate ? "invalidate" : "writeback"),
             sim::Tracer::arg("block", victim),
             sim::Tracer::arg("pages", std::uint64_t(bi.pages))});
    for (auto *l : listeners_)
        l->onBlockEvicted(victim, invalidate);
}

// --------------------------------------------------------------------
// Validation
// --------------------------------------------------------------------

void
Driver::checkInvariants(sim::CheckContext &ctx) const
{
    // The slab itself first: run table, free list, backrefs, the
    // rank array, the pinned count. Everything below may rely on it.
    store_.checkInvariants(ctx);

    // Walk the LRU once, marking membership and checking residency
    // plus migrateSeq order (oldest migration first). migrateSeq is
    // never renumbered, so this also proves relabelling kept order.
    std::vector<char> in_lru(store_.slabSize(), 0);
    std::uint64_t prev_seq = 0;
    bool have_prev = false;
    for (mem::BlockId b : store_.lruOrder()) {
        BlockIndex i = store_.find(b);
        in_lru[i] = 1;
        const BlockInfo &bi = store_.at(i);
        ctx.require(bi.loc == Loc::Device,
                    "LRU block %llu not resident",
                    static_cast<unsigned long long>(store_.idAt(i)));
        ctx.require(bi.migrateSeq <= migrateSeq_,
                    "block %llu migrateSeq %llu beyond counter %llu",
                    static_cast<unsigned long long>(store_.idAt(i)),
                    static_cast<unsigned long long>(bi.migrateSeq),
                    static_cast<unsigned long long>(migrateSeq_));
        ctx.require(!have_prev || bi.migrateSeq > prev_seq,
                    "LRU order broken: block %llu migrateSeq %llu "
                    "not after predecessor's %llu",
                    static_cast<unsigned long long>(store_.idAt(i)),
                    static_cast<unsigned long long>(bi.migrateSeq),
                    static_cast<unsigned long long>(prev_seq));
        prev_seq = bi.migrateSeq;
        have_prev = true;
    }

    // Residency vs FramePool: every frame in use belongs to a
    // resident block or to a migration whose completion event is in
    // flight. This is the double-count/leak check the related UVM
    // oversubscription studies motivate.
    std::uint64_t device_pages = 0;
    std::size_t device_blocks = 0;
    store_.forEachBlock([&](mem::BlockId b, BlockIndex i) {
        const BlockInfo &bi = store_.at(i);
        if (bi.loc == Loc::Device) {
            device_pages += bi.pages;
            ++device_blocks;
            ctx.require(in_lru[i] != 0,
                        "resident block %llu missing from LRU",
                        static_cast<unsigned long long>(b));
        } else {
            ctx.require(in_lru[i] == 0,
                        "non-resident block %llu present in LRU",
                        static_cast<unsigned long long>(b));
        }
        ctx.require(bi.inactiveBytes <=
                        std::uint64_t(bi.pages) * mem::kPageSize,
                    "block %llu inactive bytes %llu exceed its size",
                    static_cast<unsigned long long>(b),
                    static_cast<unsigned long long>(bi.inactiveBytes));
    });
    ctx.require(device_pages + inFlightPages_ == frames_.usedPages(),
                "frame accounting drift: %llu resident + %llu in "
                "flight != %llu frames used",
                static_cast<unsigned long long>(device_pages),
                static_cast<unsigned long long>(inFlightPages_),
                static_cast<unsigned long long>(frames_.usedPages()));
    ctx.require(migBusy_ || inFlightPages_ == 0,
                "migration thread idle with %llu pages in flight",
                static_cast<unsigned long long>(inFlightPages_));
    ctx.require(store_.lruSize() == device_blocks,
                "LRU holds %zu blocks, %zu are resident",
                store_.lruSize(), device_blocks);

    // Queued-flag agreement: a set flag means the block really is in
    // the respective queue. (The reverse is legal: a queued command
    // can outlive its block being freed and re-registered.)
    std::unordered_set<mem::BlockId> in_fault;
    faultQueue_.forEach(
        [&](const MigrateCmd &c) { in_fault.insert(c.block); });
    std::unordered_set<mem::BlockId> in_prefetch;
    prefetchQueue_.forEach(
        [&](const MigrateCmd &c) { in_prefetch.insert(c.block); });
    store_.forEachBlock([&](mem::BlockId b, BlockIndex i) {
        const BlockInfo &bi = store_.at(i);
        ctx.require(!bi.queuedFault || in_fault.count(b) != 0,
                    "block %llu flagged fault-queued but absent from "
                    "the fault queue",
                    static_cast<unsigned long long>(b));
        ctx.require(!bi.queuedPrefetch || in_prefetch.count(b) != 0,
                    "block %llu flagged prefetch-queued but absent "
                    "from the prefetch queue",
                    static_cast<unsigned long long>(b));
    });
}

void
Driver::dumpState(std::ostream &os) const
{
    os << "Driver{blocks=" << store_.size()
       << " lru=" << store_.lruSize()
       << " faultQueue=" << faultQueue_.size()
       << " prefetchQueue=" << prefetchQueue_.size()
       << " migBusy=" << migBusy_ << " inFlightPages=" << inFlightPages_
       << " migrateSeq=" << migrateSeq_ << "}\n";
    os << "  frames: used=" << frames_.usedPages()
       << " free=" << frames_.freePages()
       << " total=" << frames_.totalPages() << "\n";
    store_.dumpState(os);

    // forEachBlock iterates the sorted run table: BlockId order.
    store_.forEachBlock([&](mem::BlockId b, BlockIndex i) {
        const BlockInfo &bi = store_.at(i);
        os << "  block " << b << ": pages=" << bi.pages << " loc="
           << (bi.loc == Loc::Device
                   ? "device"
                   : bi.loc == Loc::Host ? "host" : "unpopulated")
           << " seq=" << bi.migrateSeq
           << (bi.prefetched ? " prefetched" : "")
           << (bi.queuedFault ? " qF" : "")
           << (bi.queuedPrefetch ? " qP" : "")
           << (bi.pinned ? " pinned" : "") << "\n";
    });
    os << "  lru:";
    for (mem::BlockId b : store_.lruOrder())
        os << " " << b;
    os << "\n";
}

} // namespace deepum::uvm
