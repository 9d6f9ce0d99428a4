#include "baselines/runner.hh"

#include "baselines/autotm.hh"
#include "baselines/capuchin.hh"
#include "baselines/lms.hh"
#include "baselines/sentinel.hh"
#include "baselines/swapadvisor.hh"
#include "baselines/vdnn.hh"
#include "harness/experiment.hh"
#include "models/registry.hh"
#include "sim/logging.hh"

namespace deepum::baselines {

std::vector<BaselineKind>
allBaselines()
{
    return {BaselineKind::Lms,         BaselineKind::LmsMod,
            BaselineKind::Vdnn,        BaselineKind::AutoTm,
            BaselineKind::SwapAdvisor, BaselineKind::Capuchin,
            BaselineKind::Sentinel};
}

const char *
baselineName(BaselineKind kind)
{
    switch (kind) {
      case BaselineKind::Lms:
        return "LMS";
      case BaselineKind::LmsMod:
        return "LMS-mod";
      case BaselineKind::Vdnn:
        return "vDNN";
      case BaselineKind::AutoTm:
        return "AutoTM";
      case BaselineKind::SwapAdvisor:
        return "SwapAdvisor";
      case BaselineKind::Capuchin:
        return "Capuchin";
      case BaselineKind::Sentinel:
        return "Sentinel";
    }
    return "?";
}

std::unique_ptr<SwapPolicy>
makePolicy(BaselineKind kind)
{
    switch (kind) {
      case BaselineKind::Lms:
        return std::make_unique<LmsPolicy>();
      case BaselineKind::LmsMod:
        return std::make_unique<LmsModPolicy>();
      case BaselineKind::Vdnn:
        return std::make_unique<VdnnPolicy>();
      case BaselineKind::AutoTm:
        return std::make_unique<AutoTmPolicy>();
      case BaselineKind::SwapAdvisor:
        return std::make_unique<SwapAdvisorPolicy>();
      case BaselineKind::Capuchin:
        return std::make_unique<CapuchinPolicy>();
      case BaselineKind::Sentinel:
        return std::make_unique<SentinelPolicy>();
    }
    sim::panic("bad BaselineKind");
}

SwapResult
runBaseline(BaselineKind kind, const torch::Tape &tape,
            const SwapConfig &cfg)
{
    auto policy = makePolicy(kind);
    return runSwapBaseline(tape, *policy, cfg);
}

std::uint64_t
maxBatchBaseline(BaselineKind kind, const std::string &model,
                 const SwapConfig &cfg, std::uint64_t lo,
                 std::uint64_t hi)
{
    SwapConfig quick = cfg;
    quick.iterations = 3;
    quick.warmup = 1;
    return harness::searchMaxBatch(lo, hi, [&](std::uint64_t batch) {
        torch::Tape tape = models::buildModel(model, batch);
        return runBaseline(kind, tape, quick).ok;
    });
}

} // namespace deepum::baselines
