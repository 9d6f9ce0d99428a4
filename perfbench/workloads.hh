/**
 * @file
 * The benchmark's workloads: paper-scale training cells chosen so
 * that each one puts most of its host time in a different layer.
 */

#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "harness/experiment.hh"

namespace perfbench {

/** One simulated training run: a model cell under one memory system. */
struct Workload {
    const char *name;
    const char *model;
    std::uint64_t batch;
    std::uint64_t gpuMiB;
    std::uint64_t hostMiB;
    deepum::harness::SystemKind kind;
    /** The layer this workload is meant to expose, and why. */
    const char *why;
};

/** The benchmark's workloads, in the order `run.py --all` runs them. */
std::span<const Workload> workloads();

/** @return the workload named @p name, or nullptr. */
const Workload *findWorkload(std::string_view name);

/**
 * The configuration `simctl` uses for @p w: every knob at its
 * default except the memory sizes, so the sim_* metrics equal
 * simctl's output for the same cell and seed.
 */
deepum::harness::ExperimentConfig configFor(const Workload &w,
                                            std::uint64_t seed);

} // namespace perfbench
