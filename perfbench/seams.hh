/**
 * @file
 * Proxies the traced run places at the public seams between layers.
 *
 * Each one forwards every call unchanged, so the simulation (and its
 * StatSet) is the same as without it; it only counts calls or opens
 * and closes spans around them.
 */

#pragma once

#include <cstdint>
#include <memory>

#include "gpu/backend.hh"
#include "spans.hh"
#include "torch/segment_source.hh"
#include "uvm/driver.hh"
#include "uvm/eviction_policy.hh"
#include "uvm/listener.hh"

namespace perfbench {

/**
 * gpu::UvmBackend between GpuEngine and uvm::Driver: counts the
 * engine's calls and stamps the host time at which the kernel ending
 * the warmup iterations retires.
 */
class CountingBackend : public deepum::gpu::UvmBackend
{
  public:
    CountingBackend(deepum::gpu::UvmBackend &inner,
                    std::uint64_t warmup_kernel_ends)
        : inner_(inner), warmupKernelEnds_(warmup_kernel_ends)
    {
    }

    bool
    isResident(deepum::mem::BlockId block) const override
    {
        ++residencyChecks;
        return inner_.isResident(block);
    }

    void
    faultInterrupt() override
    {
        ++faultInterrupts;
        inner_.faultInterrupt();
    }

    void
    onKernelBegin(const deepum::gpu::KernelInfo &k) override
    {
        ++kernels;
        inner_.onKernelBegin(k);
    }

    void
    onKernelEnd(const deepum::gpu::KernelInfo &k) override
    {
        inner_.onKernelEnd(k);
        if (++kernelEnds == warmupKernelEnds_)
            warmupEndNs = nowNs();
    }

    void
    onBlockAccess(deepum::mem::BlockId block) override
    {
        inner_.onBlockAccess(block);
    }

    mutable std::uint64_t residencyChecks = 0;
    std::uint64_t faultInterrupts = 0;
    std::uint64_t kernels = 0;
    std::uint64_t kernelEnds = 0;
    std::int64_t warmupEndNs = 0; ///< 0 until the boundary is reached

  private:
    deepum::gpu::UvmBackend &inner_;
    std::uint64_t warmupKernelEnds_;
};

/**
 * One edge of a pair of driver listeners bracketing core::DeepUm:
 * the one registered before it opens a span per hook, the one
 * registered after it closes the span, so the span covers exactly
 * DeepUM's handling of that hook.
 */
class ListenerEdge : public deepum::uvm::DriverListener
{
  public:
    /** Registers itself with @p drv. */
    ListenerEdge(deepum::uvm::Driver &drv, SpanRecorder &rec, bool opens)
        : rec_(rec), opens_(opens)
    {
        drv.addListener(this);
    }

    void
    onFaultBatch(const std::vector<deepum::mem::BlockId> &) override
    {
        edge(Layer::CoreFaultBatch);
    }

    void
    onKernelEnd(const deepum::gpu::KernelInfo &) override
    {
        edge(Layer::CoreKernelEnd);
    }

    void
    onBlockMigrated(deepum::mem::BlockId, bool) override
    {
        edge(Layer::CoreBlockMigrated);
    }

    void onMigrationIdle() override { edge(Layer::CoreMigrationIdle); }

  private:
    void
    edge(Layer l)
    {
        if (opens_)
            rec_.open(l);
        else
            rec_.close(l);
    }

    SpanRecorder &rec_;
    bool opens_;
};

/** uvm::EvictionPolicy decorator timing each victim pick. */
class TimedPolicy : public deepum::uvm::EvictionPolicy
{
  public:
    TimedPolicy(std::unique_ptr<deepum::uvm::EvictionPolicy> inner,
                SpanRecorder &rec)
        : inner_(std::move(inner)), rec_(rec)
    {
    }

    deepum::mem::BlockId
    pickVictim(const deepum::uvm::Driver &drv, bool demand) override
    {
        rec_.open(Layer::UvmVictim);
        deepum::mem::BlockId v = inner_->pickVictim(drv, demand);
        rec_.close(Layer::UvmVictim);
        return v;
    }

    const char *name() const override { return inner_->name(); }

  private:
    std::unique_ptr<deepum::uvm::EvictionPolicy> inner_;
    SpanRecorder &rec_;
};

/** torch::SegmentSource proxy timing the allocator's backing calls. */
class TimedSegmentSource : public deepum::torch::SegmentSource
{
  public:
    TimedSegmentSource(deepum::torch::SegmentSource &inner,
                       SpanRecorder &rec)
        : inner_(inner), rec_(rec)
    {
    }

    deepum::mem::VAddr
    allocSegment(std::uint64_t bytes) override
    {
        rec_.open(Layer::TorchSegment);
        deepum::mem::VAddr va = inner_.allocSegment(bytes);
        rec_.close(Layer::TorchSegment);
        return va;
    }

    void
    freeSegment(deepum::mem::VAddr va) override
    {
        rec_.open(Layer::TorchSegment);
        inner_.freeSegment(va);
        rec_.close(Layer::TorchSegment);
    }

    void
    noteInactive(deepum::mem::VAddr va, std::uint64_t bytes,
                 bool inactive) override
    {
        rec_.open(Layer::TorchSegment);
        inner_.noteInactive(va, bytes, inactive);
        rec_.close(Layer::TorchSegment);
    }

  private:
    deepum::torch::SegmentSource &inner_;
    SpanRecorder &rec_;
};

} // namespace perfbench
