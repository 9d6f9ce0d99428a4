#include "workloads.hh"

#include <array>

#include "sim/types.hh"

namespace perfbench {

namespace {

using deepum::harness::SystemKind;

// The seed only draws the irregular gather kernels (DLRM embeddings);
// bert-base and resnet152 have none, so every seed simulates the
// same run and the sim_* metrics are seed-independent.
constexpr std::array<Workload, 3> kWorkloads{{
    {"bert-v100-deepum", "bert-base", 4520, 32 * 1024, 128 * 1024,
     SystemKind::DeepUm,
     "paper scale (32 GiB V100, 1.13x oversubscribed) regular "
     "transformer; host time sits in DeepUM's fault-batch listener, "
     "so core changes show here"},
    {"resnet-4g-deepum", "resnet152", 24576, 4 * 1024, 64 * 1024,
     SystemKind::DeepUm,
     "deep (1.89x) oversubscription on a CNN; host time sits in "
     "DeepUmPolicy::pickVictim, so uvm victim-selection changes "
     "show here"},
    {"bert-v100-um", "bert-base", 4520, 32 * 1024, 128 * 1024,
     SystemKind::Um,
     "same cell under naive UM, no DeepUM attached: core changes "
     "must not move it; host time is the driver demand pipeline, "
     "GPU engine and event queue"},
}};

} // namespace

std::span<const Workload>
workloads()
{
    return kWorkloads;
}

const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

deepum::harness::ExperimentConfig
configFor(const Workload &w, std::uint64_t seed)
{
    deepum::harness::ExperimentConfig cfg;
    cfg.gpuMemBytes = w.gpuMiB * deepum::sim::kMiB;
    cfg.hostMemBytes = w.hostMiB * deepum::sim::kMiB;
    cfg.seed = seed;
    return cfg;
}

} // namespace perfbench
