#include "measure.hh"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <iterator>
#include <memory>

#include "models/registry.hh"
#include "sim/types.hh"

namespace perfbench {

namespace dh = deepum::harness;
using deepum::sim::kMiB;

namespace {

/**
 * Set-ups (and tape builds) timed before every training run. One
 * takes well under a millisecond, so a burst of them would all land
 * in whatever state the shared host is in at that moment; spread over
 * the whole run they see the same quiet stretches the runs do.
 */
constexpr int kSetupsPerRun = 3;

/** Least number of training runs timed with tracing off. */
constexpr std::size_t kMinRuns = 3;

/** Failure messages kept per run; the count is what gets gated. */
constexpr std::size_t kMaxErrors = 4;

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
fail(Report &rep, std::string why)
{
    ++rep.failed;
    if (rep.errors.size() < kMaxErrors)
        rep.errors.push_back(std::move(why));
}

/** Check one untraced run against the first good one (@p ref). */
void
checkUntraced(Report &rep, const dh::RunResult &r,
              const dh::ExperimentConfig &cfg, std::string json,
              std::string &ref)
{
    ++rep.attempted;
    if (!r.ok || r.measuredIters != cfg.iterations - cfg.warmup)
        fail(rep, "run did not complete (OOM)");
    else if (ref.empty())
        ref = std::move(json);
    else if (json != ref)
        fail(rep, "StatSet differs from the first repetition");
}

/** Add "run_s_pNN" for the highest percentile with >= 10 samples past it. */
void
addTailPercentile(Report &rep, const std::string &name,
                  const std::vector<double> &v)
{
    static constexpr std::array<std::pair<double, const char *>, 3> kPcts{
        {{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}}};
    for (const auto &[q, label] : kPcts) {
        if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0) {
            rep.info.push_back({name + "_" + label, quantile(v, q), "s"});
            return;
        }
    }
}

/**
 * Append kSetupsPerRun timings of @p fn to @p out. @p untimed runs
 * before each one, outside the timed region (teardown of the last).
 */
template <typename Untimed, typename Fn>
void
timeSetups(std::vector<double> &out, Untimed untimed, Fn fn)
{
    for (int i = 0; i < kSetupsPerRun; ++i) {
        untimed();
        std::int64_t t0 = nowNs();
        fn();
        out.push_back(secondsSince(t0));
    }
}

double
failRatio(const Report &rep)
{
    return static_cast<double>(rep.failed) /
           static_cast<double>(rep.attempted);
}

dh::ExperimentConfig
benchConfig(const Workload &w, std::uint64_t seed,
            const std::string &stats_dir)
{
    dh::ExperimentConfig cfg = configFor(w, seed);
    cfg.statsJsonFile = stats_dir + "/" + w.name + ".stats.json";
    return cfg;
}

} // namespace

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t
statValue(std::string_view stats_json, std::string_view name)
{
    std::string key = "\"" + std::string(name) + "\": ";
    std::size_t at = stats_json.find(key);
    if (at == std::string_view::npos)
        return 0;
    const char *p = stats_json.data() + at + key.size();
    std::uint64_t v = 0;
    std::from_chars(p, stats_json.data() + stats_json.size(), v);
    return v;
}

std::vector<Metric>
layerMetrics(const TracedRun &r, std::string &error)
{
    SpanSummary s = summarize(r.spans.spans());
    if (!r.spans.balanced())
        error = "spans were not closed in order";
    else if (!s.error.empty())
        error = s.error;

    auto at = [&](Layer l) -> const LayerTime & {
        return s.layers[static_cast<std::size_t>(l)];
    };
    auto self_s = [&](Layer l) {
        return static_cast<double>(at(l).selfNs) * 1e-9;
    };
    auto stat = [&](std::string_view name) {
        return static_cast<double>(statValue(r.statsJson, name));
    };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    const LayerTime &run = at(Layer::Run);
    const LayerTime &victim = at(Layer::UvmVictim);
    std::int64_t run_start =
        r.spans.spans().empty() ? 0 : r.spans.spans().front().startNs;
    std::int64_t run_end = run_start + run.totalNs;

    double fault_batches = stat("uvm.faultBatches");
    double fb_calls = static_cast<double>(at(Layer::CoreFaultBatch).calls);
    if (error.empty() && fb_calls != (r.deepUm ? fault_batches : 0.0))
        error = "core.fault_batch.calls != uvm.faultBatches";
    if (error.empty() &&
        static_cast<double>(r.kernels) != stat("gpu.kernelsLaunched"))
        error = "gpu.kernels != gpu.kernelsLaunched";
    if (error.empty() &&
        (r.warmupEndNs < run_start || r.warmupEndNs > run_end))
        error = "warmup boundary outside the run span";

    double issued = stat("uvm.prefetchIssued");
    double chain = stat("prefetcher.blocksIssued");
    return {
        {"sim.events", static_cast<double>(r.events), "count"},
        {"sim.ns_per_event",
         ratio(static_cast<double>(run.totalNs),
               static_cast<double>(r.events)),
         "ns"},
        {"gpu.kernels", static_cast<double>(r.kernels), "count"},
        {"gpu.fault_interrupts", static_cast<double>(r.faultInterrupts),
         "count"},
        {"gpu.residency_checks", static_cast<double>(r.residencyChecks),
         "count"},
        {"uvm.victim.calls", static_cast<double>(victim.calls), "count"},
        {"uvm.victim.s", self_s(Layer::UvmVictim), "s"},
        {"uvm.victim.ns_per_call",
         ratio(static_cast<double>(victim.totalNs),
               static_cast<double>(victim.calls)),
         "ns"},
        {"uvm.self_s", self_s(Layer::Run), "s"},
        {"uvm.page_faults", stat("uvm.pageFaults"), "count"},
        {"uvm.fault_batches", fault_batches, "count"},
        {"uvm.migrated_blocks", stat("uvm.migratedBlocks"), "count"},
        {"uvm.evicted_blocks", stat("uvm.evictedBlocks"), "count"},
        {"uvm.demand_evictions", stat("uvm.demandEvictions"), "count"},
        {"uvm.invalidated_blocks", stat("uvm.invalidatedBlocks"),
         "count"},
        {"uvm.prefetch_issued", issued, "count"},
        {"uvm.prefetch_dropped", stat("uvm.prefetchDropped"), "count"},
        {"uvm.prefetch_useful_ratio",
         ratio(stat("uvm.prefetchUseful"), issued), "ratio"},
        {"core.fault_batch.calls", fb_calls, "count"},
        {"core.fault_batch.s", self_s(Layer::CoreFaultBatch), "s"},
        {"core.kernel_end.s", self_s(Layer::CoreKernelEnd), "s"},
        {"core.migration_idle.s", self_s(Layer::CoreMigrationIdle), "s"},
        {"core.block_migrated.s", self_s(Layer::CoreBlockMigrated), "s"},
        {"core.chain_blocks", chain, "count"},
        {"core.chain_blocks_per_prefetch", ratio(chain, issued), "ratio"},
        {"core.table_mib",
         static_cast<double>(r.tableBytes) / static_cast<double>(kMiB),
         "MiB"},
        {"torch.segment.calls",
         static_cast<double>(at(Layer::TorchSegment).calls), "count"},
        {"torch.segment.s", self_s(Layer::TorchSegment), "s"},
        {"harness.warmup_s",
         static_cast<double>(r.warmupEndNs - run_start) * 1e-9, "s"},
        {"harness.steady_s",
         static_cast<double>(run_end - r.warmupEndNs) * 1e-9, "s"},
    };
}

Report
measureEndToEnd(const Workload &w, std::uint64_t seed, double seconds,
                const std::string &stats_dir)
{
    Report rep;
    dh::ExperimentConfig cfg = benchConfig(w, seed, stats_dir);

    const deepum::torch::Tape tape =
        deepum::models::buildModel(w.model, w.batch);
    deepum::torch::Tape setup_tape;
    std::unique_ptr<Stack> st;

    std::vector<double> setup, runs;
    std::string ref;
    dh::RunResult first;
    std::int64_t start = nowNs();
    while (runs.size() < kMinRuns || secondsSince(start) < seconds) {
        // Set-up: the tape and the stack, up to the first simulated
        // event.
        timeSetups(
            setup,
            [&] {
                st.reset();
                setup_tape = {};
            },
            [&] {
                setup_tape = deepum::models::buildModel(w.model, w.batch);
                st = std::make_unique<Stack>(setup_tape, w.kind, cfg);
            });
        st.reset();

        std::int64_t t0 = nowNs();
        dh::RunResult r = dh::runExperiment(tape, w.kind, cfg);
        runs.push_back(secondsSince(t0));
        if (runs.size() == 1)
            first = r;
        checkUntraced(rep, r, cfg, readFile(cfg.statsJsonFile), ref);
    }

    // The gated host times are best-of-N: co-tenant cache and memory
    // contention on a shared host slows stretches of seconds to
    // minutes by 20-65%, which moves a whole run's median by as much,
    // while the fastest repetition mostly stays put. Medians and
    // quartiles go in the info record beside them.
    rep.metrics = {
        {"setup_s", quantile(setup, 0.0), "s"},
        {"run_s", quantile(runs, 0.0), "s"},
        {"peak_rss_mib", peakRssMiB(), "MiB"},
        {"sim_s_per_100iter", first.secPer100Iters, "sim_s"},
        {"sim_faults_per_iter", first.pageFaultsPerIter, "faults"},
        {"sim_htod_mib_per_iter",
         static_cast<double>(first.bytesHtoDPerIter) /
             static_cast<double>(kMiB),
         "MiB"},
    };
    rep.info = {
        {"fail_ratio", failRatio(rep), "ratio"},
        {"setup_s_samples", static_cast<double>(setup.size()), "count"},
        {"setup_s_median", quantile(setup, 0.5), "s"},
        {"run_s_samples", static_cast<double>(runs.size()), "count"},
        {"run_s_median", quantile(runs, 0.5), "s"},
        {"run_s_q1", quantile(runs, 0.25), "s"},
        {"run_s_q3", quantile(runs, 0.75), "s"},
        {"footprint_mib",
         static_cast<double>(tape.footprintBytes()) /
             static_cast<double>(kMiB),
         "MiB"},
    };
    addTailPercentile(rep, "run_s", runs);
    return rep;
}

Report
measureLayers(const Workload &w, std::uint64_t seed, double seconds,
              const std::string &stats_dir)
{
    Report rep;
    dh::ExperimentConfig cfg = benchConfig(w, seed, stats_dir);

    const deepum::torch::Tape tape =
        deepum::models::buildModel(w.model, w.batch);
    deepum::torch::Tape build_tape;

    std::vector<double> build, untraced, traced;
    std::vector<std::vector<Metric>> layers;
    std::string ref;
    auto run_untraced = [&] {
        std::int64_t t0 = nowNs();
        dh::RunResult r = dh::runExperiment(tape, w.kind, cfg);
        untraced.push_back(secondsSince(t0));
        checkUntraced(rep, r, cfg, readFile(cfg.statsJsonFile), ref);
    };
    auto run_traced = [&] {
        TracedRun tr = runTraced(tape, w.kind, cfg);
        traced.push_back(tr.runS);
        ++rep.attempted;
        std::string error;
        layers.push_back(layerMetrics(tr, error));
        if (!tr.ok)
            fail(rep, "traced run did not complete");
        else if (!error.empty())
            fail(rep, error);
        else if (!ref.empty() && tr.statsJson != ref)
            fail(rep, "traced StatSet differs from the untraced one");
    };
    // Alternate which side goes first so drift hits both equally. The
    // first pair starts untraced, so every traced StatSet has a
    // reference to match.
    std::int64_t start = nowNs();
    for (std::size_t pair = 0; pair == 0 || secondsSince(start) < seconds;
         ++pair) {
        timeSetups(
            build, [&] { build_tape = {}; },
            [&] { build_tape = deepum::models::buildModel(w.model, w.batch); });
        if (pair % 2 == 0) {
            run_untraced();
            run_traced();
        } else {
            run_traced();
            run_untraced();
        }
    }

    // Counts repeat exactly; times are reported as medians over runs.
    rep.metrics.push_back({"models.build_s", quantile(build, 0.5), "s"});
    for (std::size_t m = 0; m < layers.front().size(); ++m) {
        std::vector<double> v;
        for (const auto &run : layers)
            v.push_back(run[m].value);
        rep.metrics.push_back({layers.front()[m].name, quantile(v, 0.5),
                               layers.front()[m].unit});
    }
    rep.metrics.push_back({"trace_overhead",
                           quantile(traced, 0.5) /
                               quantile(untraced, 0.5),
                           "ratio"});

    static constexpr std::array<const char *, 7> kSelfTimes{
        "uvm.self_s",        "uvm.victim.s",          "core.fault_batch.s",
        "core.kernel_end.s", "core.migration_idle.s", "core.block_migrated.s",
        "torch.segment.s"};
    double best = -1.0;
    for (const Metric &m : rep.metrics) {
        if (std::find(kSelfTimes.begin(), kSelfTimes.end(), m.name) !=
                kSelfTimes.end() &&
            m.value > best) {
            best = m.value;
            rep.dominantLayer = m.name;
        }
    }
    rep.info = {
        {"fail_ratio", failRatio(rep), "ratio"},
        {"traced_runs", static_cast<double>(traced.size()), "count"},
        {"untraced_runs", static_cast<double>(untraced.size()), "count"},
        {"traced_run_s", quantile(traced, 0.5), "s"},
        {"untraced_run_s", quantile(untraced, 0.5), "s"},
    };
    return rep;
}

} // namespace perfbench
