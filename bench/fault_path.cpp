/**
 * @file
 * Fault-path throughput benchmark.
 *
 * Two measurements:
 *
 *  1. End-to-end: a bare Driver + GpuEngine stack runs a sliding
 *     window of kernels over more blocks than the GPU holds, so every
 *     kernel faults, migrates, and evicts. Reports simulated page
 *     faults handled per wall-clock second (the whole Figure-3
 *     pipeline probes block metadata on every drain, dedupe, evict,
 *     and map step).
 *
 *  2. Correlation-heavy end-to-end: the same oversubscribed stack
 *     with the full DeepUM machinery attached and a *repeating*
 *     kernel sequence, so the correlator records successor pairs on
 *     every fault batch and the prefetcher chain-walks the block
 *     correlation tables continuously.
 *
 * --json writes machine-readable perf numbers (plus host_cores: the
 * figures are wall-clock and meaningless to compare across machines
 * without it). --stats-json dumps the end-to-end run's StatSet; the
 * run is deterministic, so CI runs the benchmark twice and requires
 * the two dumps to be byte-identical.
 *
 * Usage:
 *   fault_path [--kernels N] [--blocks N] [--gpu-blocks N]
 *              [--corr-kernels N] [--json file]
 *              [--stats-json file] [--corr-stats-json file]
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "core/deepum.hh"
#include "core/execution_id_table.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/pcie_link.hh"
#include "mem/frame_pool.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "uvm/driver.hh"

using namespace deepum;
using namespace deepum::bench;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** End-to-end result: faults/sec through the full pipeline. */
struct EndToEnd {
    std::uint64_t pageFaults = 0;
    std::uint64_t evictedBlocks = 0;
    std::uint64_t kernels = 0;
    sim::Tick simTicks = 0;
    std::uint64_t eventsExecuted = 0;
    double wallSec = 0;
    double faultsPerSec = 0;
};

/**
 * Drive @p kernels kernels over @p totalBlocks registered blocks on a
 * @p gpuBlocks-block GPU. Kernel i touches the @p gpuBlocks-wide
 * window starting at i * gpuBlocks/2 (mod totalBlocks): half of every
 * window is new, so the steady state is continuous faulting with an
 * eviction per migration — the worst-case Figure-3 load.
 */
EndToEnd
runEndToEnd(std::uint64_t kernels, std::uint64_t totalBlocks,
            std::uint64_t gpuBlocks, const std::string &statsJson)
{
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::TimingConfig cfg;
    gpu::FaultBuffer fb;
    gpu::PcieLink link{cfg};
    mem::FramePool frames{gpuBlocks * mem::kPagesPerBlock};
    gpu::GpuEngine engine{eq, cfg, fb, stats};
    uvm::Driver drv{eq, cfg, fb, link, frames, stats};
    engine.setBackend(&drv);
    drv.setEngine(&engine);

    drv.registerRange(mem::kUmBase, totalBlocks * mem::kBlockBytes);
    mem::BlockId b0 = mem::blockOf(mem::kUmBase);

    gpu::KernelInfo kernel;
    kernel.name = "fault_path";
    kernel.computeNs = 10 * sim::kUsec;

    std::uint64_t stride = gpuBlocks / 2 ? gpuBlocks / 2 : 1;
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kernels; ++i) {
        kernel.accesses.clear();
        for (std::uint64_t j = 0; j < gpuBlocks; ++j)
            kernel.accesses.push_back(gpu::BlockAccess{
                b0 + (i * stride + j) % totalBlocks,
                static_cast<std::uint32_t>(mem::kPagesPerBlock),
                false});
        bool done = false;
        engine.launch(&kernel, [&] { done = true; });
        eq.run();
        if (!done) {
            std::fprintf(stderr, "error: kernel %llu never retired\n",
                         static_cast<unsigned long long>(i));
            std::exit(1);
        }
    }

    EndToEnd r;
    r.wallSec = secondsSince(t0);
    r.pageFaults = stats.get("uvm.pageFaults");
    r.evictedBlocks = stats.get("uvm.evictedBlocks");
    r.kernels = kernels;
    r.simTicks = eq.now();
    r.eventsExecuted = eq.executed();
    r.faultsPerSec = r.wallSec > 0
                         ? static_cast<double>(r.pageFaults) / r.wallSec
                         : 0.0;
    if (!statsJson.empty()) {
        std::ofstream os(statsJson);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n",
                         statsJson.c_str());
            std::exit(1);
        }
        stats.dumpJson(os);
    }
    return r;
}

/** Correlation-heavy result: the DeepUM engine on the hot path. */
struct CorrHeavy {
    std::uint64_t pageFaults = 0;
    std::uint64_t prefetchIssued = 0;
    std::uint64_t blocksIssued = 0;
    std::uint64_t chainsStarted = 0;
    std::uint64_t kernels = 0;
    sim::Tick simTicks = 0;
    std::uint64_t eventsExecuted = 0;
    double wallSec = 0;
    double faultsPerSec = 0;
};

/**
 * The same oversubscribed sliding-window load as runEndToEnd, but
 * with DeepUM attached and the window sequence repeating every
 * iteration: the execution ID stream loops, so after the first
 * iteration every fault batch drives record() into a learned block
 * table and restarts a chain walk that prefetches kernels ahead.
 * Steady state keeps all three correlation-engine hot paths busy at
 * once — record (correlator), successors + exec predict (chain
 * walk), and the protection bookkeeping (eviction policy).
 */
CorrHeavy
runCorrHeavy(std::uint64_t kernels, std::uint64_t totalBlocks,
             std::uint64_t gpuBlocks, const std::string &statsJson)
{
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::TimingConfig cfg;
    gpu::FaultBuffer fb;
    gpu::PcieLink link{cfg};
    mem::FramePool frames{gpuBlocks * mem::kPagesPerBlock};
    gpu::GpuEngine engine{eq, cfg, fb, stats};
    uvm::Driver drv{eq, cfg, fb, link, frames, stats};
    engine.setBackend(&drv);
    drv.setEngine(&engine);
    core::DeepUmConfig dcfg;
    core::DeepUm dum{drv, dcfg, stats};
    core::ExecutionIdTable execIds;

    drv.registerRange(mem::kUmBase, totalBlocks * mem::kBlockBytes);
    mem::BlockId b0 = mem::blockOf(mem::kUmBase);

    gpu::KernelInfo kernel;
    kernel.computeNs = 10 * sim::kUsec;

    // Distinct kernels per iteration: the window wraps totalBlocks in
    // stride steps, so the sequence (and the exec ID stream) repeats
    // exactly every perIter launches.
    std::uint64_t stride = gpuBlocks / 2 ? gpuBlocks / 2 : 1;
    std::uint64_t perIter = (totalBlocks + stride - 1) / stride;
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kernels; ++i) {
        std::uint64_t k = i % perIter;
        kernel.name = "corr_k" + std::to_string(k);
        kernel.argHash = k;
        kernel.accesses.clear();
        for (std::uint64_t j = 0; j < gpuBlocks; ++j)
            kernel.accesses.push_back(gpu::BlockAccess{
                b0 + (k * stride + j) % totalBlocks,
                static_cast<std::uint32_t>(mem::kPagesPerBlock),
                false});
        dum.notifyKernelLaunch(execIds.lookupOrAssign(kernel));
        bool done = false;
        engine.launch(&kernel, [&] { done = true; });
        eq.run();
        if (!done) {
            std::fprintf(stderr,
                         "error: corr kernel %llu never retired\n",
                         static_cast<unsigned long long>(i));
            std::exit(1);
        }
    }

    CorrHeavy r;
    r.wallSec = secondsSince(t0);
    r.pageFaults = stats.get("uvm.pageFaults");
    r.prefetchIssued = stats.get("uvm.prefetchIssued");
    r.blocksIssued = stats.get("prefetcher.blocksIssued");
    r.chainsStarted = stats.get("prefetcher.chainsStarted");
    r.kernels = kernels;
    r.simTicks = eq.now();
    r.eventsExecuted = eq.executed();
    r.faultsPerSec = r.wallSec > 0
                         ? static_cast<double>(r.pageFaults) / r.wallSec
                         : 0.0;
    if (!statsJson.empty()) {
        std::ofstream os(statsJson);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n",
                         statsJson.c_str());
            std::exit(1);
        }
        stats.dumpJson(os);
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t kernels = 16384;
    std::uint64_t corrKernels = 2048;
    std::uint64_t totalBlocks = 1024;
    std::uint64_t gpuBlocks = 256;
    std::string json, statsJson, corrStatsJson;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--kernels" && i + 1 < argc) {
            kernels = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--corr-kernels" && i + 1 < argc) {
            corrKernels = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--blocks" && i + 1 < argc) {
            totalBlocks = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--gpu-blocks" && i + 1 < argc) {
            gpuBlocks = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--json" && i + 1 < argc) {
            json = argv[++i];
        } else if (a == "--stats-json" && i + 1 < argc) {
            statsJson = argv[++i];
        } else if (a == "--corr-stats-json" && i + 1 < argc) {
            corrStatsJson = argv[++i];
        } else {
            std::fprintf(
                stderr,
                "usage: fault_path [--kernels N] [--blocks N] "
                "[--gpu-blocks N] [--corr-kernels N] "
                "[--json file] [--stats-json file] "
                "[--corr-stats-json file]\n");
            return 2;
        }
    }
    if (gpuBlocks >= totalBlocks) {
        std::fprintf(stderr,
                     "error: --gpu-blocks must be < --blocks (no "
                     "eviction pressure otherwise)\n");
        return 2;
    }

    unsigned cores = std::max(1u, std::thread::hardware_concurrency());

    banner("fault-path throughput (full Figure-3 pipeline)");
    EndToEnd e = runEndToEnd(kernels, totalBlocks, gpuBlocks,
                             statsJson);
    std::printf("host cores           %u\n", cores);
    std::printf("kernels              %llu\n",
                static_cast<unsigned long long>(e.kernels));
    std::printf("page faults          %llu\n",
                static_cast<unsigned long long>(e.pageFaults));
    std::printf("evicted blocks       %llu\n",
                static_cast<unsigned long long>(e.evictedBlocks));
    std::printf("wall time            %.3f s\n", e.wallSec);
    std::printf("faults/sec           %.3e\n", e.faultsPerSec);

    CorrHeavy c;
    if (corrKernels > 0) {
        banner("correlation-heavy fault path (DeepUM attached)");
        c = runCorrHeavy(corrKernels, totalBlocks, gpuBlocks,
                         corrStatsJson);
        std::printf("kernels              %llu\n",
                    static_cast<unsigned long long>(c.kernels));
        std::printf("page faults          %llu\n",
                    static_cast<unsigned long long>(c.pageFaults));
        std::printf("prefetches issued    %llu\n",
                    static_cast<unsigned long long>(c.prefetchIssued));
        std::printf("chain blocks issued  %llu\n",
                    static_cast<unsigned long long>(c.blocksIssued));
        std::printf("chains started       %llu\n",
                    static_cast<unsigned long long>(c.chainsStarted));
        std::printf("wall time            %.3f s\n", c.wallSec);
        std::printf("faults/sec           %.3e\n", c.faultsPerSec);
        std::printf("events executed      %llu\n",
                    static_cast<unsigned long long>(c.eventsExecuted));
    }

    if (!json.empty()) {
        std::ofstream os(json);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n", json.c_str());
            return 1;
        }
        os << "{\n"
           << "  \"host_cores\": " << cores << ",\n"
           << "  \"kernels\": " << e.kernels << ",\n"
           << "  \"total_blocks\": " << totalBlocks << ",\n"
           << "  \"gpu_blocks\": " << gpuBlocks << ",\n"
           << "  \"page_faults\": " << e.pageFaults << ",\n"
           << "  \"evicted_blocks\": " << e.evictedBlocks << ",\n"
           << "  \"sim_ticks\": " << e.simTicks << ",\n"
           << "  \"wall_sec\": " << e.wallSec << ",\n"
           << "  \"faults_per_sec\": " << e.faultsPerSec;
        if (corrKernels > 0) {
            os << ",\n"
               << "  \"corr\": {\"kernels\": " << c.kernels
               << ", \"page_faults\": " << c.pageFaults
               << ", \"prefetch_issued\": " << c.prefetchIssued
               << ", \"chain_blocks_issued\": " << c.blocksIssued
               << ", \"chains_started\": " << c.chainsStarted
               << ", \"sim_ticks\": " << c.simTicks
               << ", \"events_executed\": " << c.eventsExecuted
               << ", \"wall_sec\": " << c.wallSec
               << ", \"faults_per_sec\": " << c.faultsPerSec << "}";
        }
        os << "\n}\n";
    }
    return 0;
}
