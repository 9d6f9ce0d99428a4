#include "core/deepum.hh"

#include <ostream>

#include "core/deepum_policy.hh"
#include "mem/addr.hh"
#include "sim/validate.hh"

namespace deepum::core {

namespace {

std::uint64_t
effectiveWatermark(const DeepUmConfig &cfg)
{
    if (cfg.preevictWatermarkPages != 0)
        return cfg.preevictWatermarkPages;
    return 4 * mem::kPagesPerBlock;
}

} // namespace

DeepUm::DeepUm(uvm::Driver &drv, const DeepUmConfig &cfg,
               sim::StatSet &stats)
    : drv_(drv),
      cfg_(cfg),
      blockTables_(cfg.table),
      correlator_(execTable_, blockTables_),
      prefetcher_(drv, execTable_, blockTables_, correlator_, cfg_,
                  stats),
      preEvictor_(drv, effectiveWatermark(cfg), stats)
{
    drv_.addListener(this);
    correlator_.setCaptureHysteresis(cfg_.captureHysteresis);
    // The protected-aware victim selection is the paper's "new page
    // pre-eviction policy coupled with correlation prefetching"
    // (Section 5.1): it ships with the pre-eviction feature. Without
    // it the driver keeps its stock least-recently-migrated policy.
    if (cfg_.preevict) {
        drv_.setEvictionPolicy(
            std::make_unique<DeepUmPolicy>(prefetcher_));
    }
    drv_.setInvalidationEnabled(cfg_.invalidate);
}

DeepUm::~DeepUm() = default;

void
DeepUm::notifyKernelLaunch(ExecId id)
{
    correlator_.onKernelLaunch(id);
    prefetcher_.onKernelLaunch(id);
}

std::uint64_t
DeepUm::tableBytes() const
{
    return execTable_.sizeBytes() + blockTables_.totalSizeBytes();
}

void
DeepUm::onFaultBatch(const std::vector<mem::BlockId> &blocks)
{
    // The correlator must run first so the prefetcher chains over
    // up-to-date tables.
    correlator_.onFaultBlocks(blocks);
    prefetcher_.onFaultBlocks(blocks);
}

void
DeepUm::onKernelEnd(const gpu::KernelInfo &k)
{
    (void)k;
    prefetcher_.onKernelEnd();
    if (cfg_.preevict)
        preEvictor_.poke();
}

void
DeepUm::onBlockMigrated(mem::BlockId block, bool was_prefetch)
{
    if (!was_prefetch)
        return;
    // Feed the lead-time distribution: how long before its predicted
    // consumer launches did this prefetch land?
    prefetcher_.onPrefetchCompleted(block,
                                    drv_.blockInfo(block).prefetchExecId,
                                    drv_.eventq().now());
}

void
DeepUm::onRangeUnregistered(mem::BlockId first, mem::BlockId end)
{
    // The freed blocks' VA range can be handed out again; scrub every
    // learned reference so stale correlations never chain onto a
    // reused (or dead) address. The prefetcher also drops its
    // listings of the freed blocks' slab slots before those slots
    // can be reassigned.
    blockTables_.eraseBlocksInRange(first, end);
    correlator_.onRangeUnregistered(first, end);
    prefetcher_.onRangeUnregistered(first, end);
}

void
DeepUm::onMigrationIdle()
{
    if (cfg_.preevict)
        preEvictor_.poke();
}

void
DeepUm::onBlockAccessed(mem::BlockId block)
{
    // A block touched by the running kernel is live in that kernel's
    // table: keep it in the fresh window even though, being resident,
    // it neither faults nor gets prefetched.
    BlockCorrelationTable *bt =
        blockTables_.find(correlator_.currentExec());
    if (bt != nullptr)
        bt->refresh(block);
}

void
DeepUm::onPrefetchUseful(mem::BlockId block, std::uint32_t exec_id)
{
    // Confirmed prediction: keep the entry in the fresh window even
    // though successful coverage means it never faults again.
    BlockCorrelationTable *bt = blockTables_.find(exec_id);
    if (bt != nullptr)
        bt->refresh(block);
}

void
DeepUm::checkInvariants(sim::CheckContext &ctx) const
{
    execTable_.checkInvariants(ctx);
    blockTables_.checkInvariants(ctx);
    prefetcher_.checkInvariants(ctx);

    // Chain start/end pointers are followed by the prefetcher; a
    // committed pointer naming a block the driver no longer manages
    // means the unregister scrub was missed.
    blockTables_.forEachTable(
        [&](ExecId id, const BlockCorrelationTable &t) {
            ctx.require(t.start() == uvm::kNoBlock ||
                            drv_.knowsBlock(t.start()),
                        "exec %u chain start points at dead block "
                        "%llu",
                        id,
                        static_cast<unsigned long long>(t.start()));
            ctx.require(t.end() == uvm::kNoBlock ||
                            drv_.knowsBlock(t.end()),
                        "exec %u chain end points at dead block %llu",
                        id,
                        static_cast<unsigned long long>(t.end()));
        });
}

void
DeepUm::dumpState(std::ostream &os) const
{
    os << "DeepUm{tableBytes=" << tableBytes() << "}\n";
    execTable_.dumpState(os);
    blockTables_.dumpState(os);
    prefetcher_.dumpState(os);
}

void
DeepUm::onPrefetchWasted(mem::BlockId block, std::uint32_t exec_id)
{
    if (!cfg_.wasteFeedback)
        return; // ablation: keep stale entries
    // The predicted consumer ran without touching the block: the
    // entry is stale; stop feeding it to the chain.
    BlockCorrelationTable *bt = blockTables_.find(exec_id);
    if (bt != nullptr)
        bt->erase(block);
}

} // namespace deepum::core
