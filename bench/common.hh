/**
 * @file
 * Shared grid definitions and helpers for the benchmark binaries.
 *
 * Each binary regenerates one table or figure of the paper's
 * evaluation (Section 6); the model/batch grid below mirrors
 * Figure 9's, with the paper's batch-size labels.
 */

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/runner.hh"
#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/report.hh"
#include "models/registry.hh"

namespace deepum::bench {

/** One evaluated workload cell. */
struct Cell {
    const char *model;
    std::uint64_t batch;
};

/** The Figure 9 grid (paper batch-size labels). */
inline std::vector<Cell>
fig9Grid()
{
    return {
        {"gpt2-xl", 3},      {"gpt2-xl", 5},      {"gpt2-xl", 7},
        {"gpt2-l", 3},       {"gpt2-l", 5},       {"gpt2-l", 7},
        {"bert-large", 14},  {"bert-large", 16},  {"bert-large", 18},
        {"bert-base", 29},   {"bert-base", 30},   {"bert-base", 31},
        {"dlrm", 96 * 1024}, {"dlrm", 128 * 1024},
        {"dlrm", 160 * 1024}, {"dlrm", 192 * 1024},
        {"dlrm", 224 * 1024},
        {"resnet152", 1280}, {"resnet152", 1536}, {"resnet152", 1792},
        {"resnet200", 1024}, {"resnet200", 1280}, {"resnet200", 1536},
    };
}

/** A reduced one-batch-per-model grid for sweeps. */
inline std::vector<Cell>
sweepGrid()
{
    return {
        {"gpt2-xl", 5},     {"gpt2-l", 5},    {"bert-large", 16},
        {"bert-base", 30},  {"dlrm", 128 * 1024},
        {"resnet152", 1536}, {"resnet200", 1280},
    };
}

/** The Figure 13 / Table 7 workloads on the 16 GB-class GPU. */
inline std::vector<Cell>
fig13Grid()
{
    return {
        {"resnet200-cifar", 4096},
        {"bert-large-cola", 40},
        {"dcgan", 3584},
        {"mobilenet", 5120},
    };
}

/** Default full-scale experiment configuration (V100-32GB class). */
inline harness::ExperimentConfig
defaultConfig()
{
    return harness::ExperimentConfig{};
}

/** The 16 GB-class configuration used by Figure 13 / Table 7. */
inline harness::ExperimentConfig
smallGpuConfig()
{
    harness::ExperimentConfig cfg;
    cfg.gpuMemBytes = 128 * sim::kMiB;
    // The prefetch-degree sweet spot scales with device memory
    // (Figure 11 discussion): half the memory, half the window.
    cfg.deepum.lookaheadN = 4;
    return cfg;
}

/** SwapConfig matching an ExperimentConfig. */
inline baselines::SwapConfig
swapConfig(const harness::ExperimentConfig &cfg)
{
    baselines::SwapConfig s;
    s.capacityBytes = cfg.gpuMemBytes;
    s.hostBytes = cfg.hostMemBytes;
    s.timing = cfg.timing;
    s.energy = cfg.energy;
    return s;
}

/** "model/batch" row label like the paper's axis labels. */
inline std::string
cellLabel(const Cell &c)
{
    return std::string(c.model) + "/" + harness::fmtBatch(c.batch);
}

/** Print a section banner. */
inline void
banner(const char *what)
{
    std::printf("\n==== %s ====\n\n", what);
}

/**
 * Parse the shared bench flags: `--jobs N` (harness::parseJobs: N in
 * [0, harness::kMaxJobs], 0 means one job per hardware thread).
 * Default is 1 — single-threaded, byte-identical to the historical
 * serial output; any `--jobs` value produces the same bytes anyway
 * because cells are independent and results are collected in grid
 * order (see harness/parallel.hh). Anything else exits 2 with usage.
 */
inline unsigned
jobsFromArgs(int argc, char **argv)
{
    unsigned jobs = 1;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *val = nullptr;
        if (a == "--jobs" && i + 1 < argc)
            val = argv[++i];
        else if (a.rfind("--jobs=", 0) == 0)
            val = argv[i] + 7;
        if (val == nullptr || !harness::parseJobs(argv[0], val, jobs)) {
            std::fprintf(stderr, "usage: %s [--jobs N]\n", argv[0]);
            std::exit(2);
        }
    }
    return jobs;
}

/**
 * Evaluate @p fn over every cell of @p grid on @p pool; the result
 * vector is in grid order regardless of scheduling.
 */
template <typename T, typename Fn>
inline std::vector<T>
mapCells(harness::ParallelRunner &pool, const std::vector<Cell> &grid,
         Fn fn)
{
    return pool.map<T>(grid.size(),
                       [&](std::size_t i) { return fn(grid[i]); });
}

} // namespace deepum::bench
