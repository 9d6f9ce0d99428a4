/**
 * @file
 * The simulator stack rebuilt from public classes, in the order
 * harness::runExperiment builds it, with the seam proxies spliced in
 * when a span recorder is given.
 *
 * Only UM and DeepUM are supported: those are the systems the
 * workloads use.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/deepum.hh"
#include "core/runtime.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "harness/experiment.hh"
#include "harness/session.hh"
#include "mem/frame_pool.hh"
#include "mem/va_space.hh"
#include "seams.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "spans.hh"
#include "torch/allocator.hh"
#include "torch/tape.hh"
#include "torch/um_source.hh"
#include "uvm/driver.hh"

namespace perfbench {

/** One simulator stack, ready to run a session. */
class Stack
{
  public:
    /**
     * Build the stack for @p tape under @p kind. With @p rec null the
     * stack is the one runExperiment builds; otherwise the seam
     * proxies are attached and record into @p rec.
     */
    Stack(const deepum::torch::Tape &tape, deepum::harness::SystemKind kind,
          const deepum::harness::ExperimentConfig &cfg,
          SpanRecorder *rec = nullptr);

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    deepum::sim::EventQueue eq;
    deepum::sim::StatSet stats;
    deepum::gpu::FaultBuffer fb;
    deepum::gpu::PcieLink link;
    deepum::mem::FramePool frames;
    deepum::mem::VaSpace va;
    deepum::gpu::GpuEngine engine;
    deepum::uvm::Driver driver;
    std::unique_ptr<CountingBackend> backend; ///< traced only
    std::unique_ptr<ListenerEdge> beforeDeepUm; ///< traced DeepUM only
    std::unique_ptr<deepum::core::DeepUm> deepum;
    std::unique_ptr<ListenerEdge> afterDeepUm;  ///< traced DeepUM only
    deepum::core::Runtime runtime;
    deepum::torch::UmSegmentSource umSource;
    std::unique_ptr<TimedSegmentSource> segments; ///< traced only
    deepum::torch::CachingAllocator alloc;
    deepum::harness::Session session;
};

/** What one traced run observed. */
struct TracedRun {
    bool ok = false;       ///< session completed, every kernel retired
    bool deepUm = false;   ///< DeepUM was attached
    double runS = 0.0;     ///< host time: stack build through stats dump
    std::string statsJson; ///< StatSet::dumpJson of the run
    SpanRecorder spans;
    std::int64_t warmupEndNs = 0;
    std::uint64_t kernels = 0;
    std::uint64_t kernelEnds = 0;
    std::uint64_t faultInterrupts = 0;
    std::uint64_t residencyChecks = 0;
    std::uint64_t events = 0;
    std::uint64_t tableBytes = 0;
};

/** Build a traced stack for @p tape, run it, and collect the spans. */
TracedRun runTraced(const deepum::torch::Tape &tape,
                    deepum::harness::SystemKind kind,
                    const deepum::harness::ExperimentConfig &cfg);

} // namespace perfbench
