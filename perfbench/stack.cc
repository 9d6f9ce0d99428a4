#include "stack.hh"

#include <sstream>

#include "core/deepum_policy.hh"
#include "sim/logging.hh"

namespace perfbench {

namespace dh = deepum::harness;

namespace {

std::unique_ptr<ListenerEdge>
edgeIf(bool on, deepum::uvm::Driver &drv, SpanRecorder *rec, bool opens)
{
    return on ? std::make_unique<ListenerEdge>(drv, *rec, opens) : nullptr;
}

/** Kernel launches in the prologue plus @p iters iterations of @p tape. */
std::uint64_t
kernelsThrough(const deepum::torch::Tape &tape, std::uint32_t iters)
{
    auto launches = [](const std::vector<deepum::torch::TapeStep> &v) {
        std::uint64_t n = 0;
        for (const auto &s : v)
            n += s.kind == deepum::torch::StepKind::Launch;
        return n;
    };
    return launches(tape.prologue) + iters * launches(tape.iteration);
}

} // namespace

Stack::Stack(const deepum::torch::Tape &tape, dh::SystemKind kind,
             const dh::ExperimentConfig &cfg, SpanRecorder *rec)
    : link(cfg.timing),
      frames(cfg.gpuMemBytes / deepum::mem::kPageSize),
      va(cfg.hostMemBytes),
      engine(eq, cfg.timing, fb, stats),
      driver(eq, cfg.timing, fb, link, frames, stats),
      backend(rec != nullptr
                  ? std::make_unique<CountingBackend>(
                        driver, kernelsThrough(tape, cfg.warmup))
                  : nullptr),
      beforeDeepUm(edgeIf(rec != nullptr && kind == dh::SystemKind::DeepUm,
                          driver, rec, true)),
      deepum(kind == dh::SystemKind::DeepUm
                 ? std::make_unique<deepum::core::DeepUm>(
                       driver, cfg.deepum, stats)
                 : nullptr),
      afterDeepUm(edgeIf(beforeDeepUm != nullptr, driver, rec, false)),
      runtime(va, driver, engine, deepum.get()),
      umSource(runtime),
      segments(rec != nullptr
                   ? std::make_unique<TimedSegmentSource>(umSource, *rec)
                   : nullptr),
      alloc(segments != nullptr
                ? static_cast<deepum::torch::SegmentSource &>(*segments)
                : umSource,
            stats),
      session(eq, runtime, alloc, stats, link, tape, cfg.iterations,
              cfg.seed, /*manual_prefetch=*/false)
{
    if (kind != dh::SystemKind::Um && kind != dh::SystemKind::DeepUm)
        deepum::sim::fatal("perfbench stacks support UM and DeepUM only");
    engine.setBackend(backend != nullptr
                          ? static_cast<deepum::gpu::UvmBackend *>(
                                backend.get())
                          : &driver);
    driver.setEngine(&engine);
    if (rec != nullptr) {
        // Re-install the policy the driver already has (DeepUm picks
        // DeepUmPolicy exactly when pre-eviction is on), wrapped.
        std::unique_ptr<deepum::uvm::EvictionPolicy> inner;
        if (deepum != nullptr && cfg.deepum.preevict)
            inner = std::make_unique<deepum::core::DeepUmPolicy>(
                deepum->prefetcher());
        else
            inner = std::make_unique<deepum::uvm::LruMigratedPolicy>();
        driver.setEvictionPolicy(
            std::make_unique<TimedPolicy>(std::move(inner), *rec));
    }
}

TracedRun
runTraced(const deepum::torch::Tape &tape, dh::SystemKind kind,
          const dh::ExperimentConfig &cfg)
{
    TracedRun out;
    SpanRecorder &rec = out.spans;
    std::int64_t t0 = nowNs();
    {
        Stack st(tape, kind, cfg, &rec);
        rec.open(Layer::Run);
        bool ok = st.session.run();
        rec.close(Layer::Run);

        out.ok = ok &&
                 st.session.snapshots().size() == cfg.iterations &&
                 st.backend->kernels == st.backend->kernelEnds;
        std::ostringstream os;
        st.stats.dumpJson(os);
        out.statsJson = os.str();
        out.warmupEndNs = st.backend->warmupEndNs;
        out.kernels = st.backend->kernels;
        out.kernelEnds = st.backend->kernelEnds;
        out.faultInterrupts = st.backend->faultInterrupts;
        out.residencyChecks = st.backend->residencyChecks;
        out.events = st.eq.executed();
        out.deepUm = st.deepum != nullptr;
        if (out.deepUm)
            out.tableBytes = st.deepum->tableBytes();
    }
    out.runS = static_cast<double>(nowNs() - t0) * 1e-9;
    return out;
}

} // namespace perfbench
