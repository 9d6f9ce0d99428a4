/**
 * @file
 * Tests of the benchmark's seams and span accounting, on the fast
 * 256 MiB bert-base/30 cell (the repository's golden cell).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "measure.hh"
#include "models/registry.hh"
#include "spans.hh"
#include "stack.hh"

namespace {

using namespace perfbench;
namespace dh = deepum::harness;

const deepum::torch::Tape &
smallTape()
{
    static const deepum::torch::Tape tape =
        deepum::models::buildModel("bert-base", 30);
    return tape;
}

dh::ExperimentConfig
smallConfig()
{
    dh::ExperimentConfig cfg; // 256 MiB GPU, 4 GiB host
    cfg.iterations = 6;
    cfg.warmup = 2;
    return cfg;
}

double
metric(const std::vector<Metric> &ms, const std::string &name)
{
    for (const Metric &m : ms)
        if (m.name == name)
            return m.value;
    ADD_FAILURE() << "no metric " << name;
    return -1;
}

TEST(PerfbenchSeams, CountsReconcileWithStatSet)
{
    for (dh::SystemKind kind : {dh::SystemKind::DeepUm, dh::SystemKind::Um}) {
        TracedRun r = runTraced(smallTape(), kind, smallConfig());
        ASSERT_TRUE(r.ok);
        std::string error;
        std::vector<Metric> ms = layerMetrics(r, error);
        EXPECT_EQ(error, "");

        double batches = static_cast<double>(
            statValue(r.statsJson, "uvm.faultBatches"));
        ASSERT_GT(batches, 0);
        EXPECT_EQ(metric(ms, "core.fault_batch.calls"),
                  kind == dh::SystemKind::DeepUm ? batches : 0.0);
        EXPECT_EQ(metric(ms, "gpu.kernels"),
                  static_cast<double>(
                      statValue(r.statsJson, "gpu.kernelsLaunched")));
        EXPECT_EQ(r.kernelEnds, r.kernels);
        EXPECT_GT(metric(ms, "uvm.victim.calls"), 0);
        EXPECT_GT(metric(ms, "torch.segment.calls"), 0);
    }
}

TEST(PerfbenchSeams, TracedStatSetEqualsRunExperiment)
{
    for (dh::SystemKind kind : {dh::SystemKind::DeepUm, dh::SystemKind::Um}) {
        dh::ExperimentConfig cfg = smallConfig();
        cfg.statsJsonFile = testing::TempDir() + "perfbench_stats.json";
        ASSERT_TRUE(dh::runExperiment(smallTape(), kind, cfg).ok);
        std::ifstream is(cfg.statsJsonFile, std::ios::binary);
        std::string untraced{std::istreambuf_iterator<char>(is),
                             std::istreambuf_iterator<char>()};

        TracedRun r = runTraced(smallTape(), kind, cfg);
        ASSERT_FALSE(untraced.empty());
        EXPECT_EQ(r.statsJson, untraced);
    }
}

TEST(PerfbenchSpans, ChildrenNestAndSelfTimesSumToRun)
{
    TracedRun r = runTraced(smallTape(), dh::SystemKind::DeepUm,
                            smallConfig());
    ASSERT_TRUE(r.spans.balanced());
    const std::vector<Span> &spans = r.spans.spans();
    ASSERT_FALSE(spans.empty());
    ASSERT_EQ(spans.front().layer, Layer::Run);

    std::map<Layer, int> victim_parents;
    for (const Span &s : spans) {
        if (s.parent < 0)
            continue;
        const Span &p = spans[s.parent];
        EXPECT_LE(p.startNs, s.startNs);
        EXPECT_LE(s.endNs, p.endNs);
        if (s.layer == Layer::UvmVictim)
            ++victim_parents[p.layer];
    }
    // Pre-eviction picks victims from inside DeepUM's hooks: the
    // recorder must see that nesting, not flatten it onto the run.
    EXPECT_GT(victim_parents[Layer::CoreKernelEnd] +
                  victim_parents[Layer::CoreMigrationIdle],
              0);

    SpanSummary sum = summarize(spans);
    EXPECT_EQ(sum.error, "");
    std::int64_t self = 0;
    for (const LayerTime &lt : sum.layers) {
        EXPECT_GE(lt.selfNs, 0);
        self += lt.selfNs;
    }
    EXPECT_EQ(self, spans.front().endNs - spans.front().startNs);
}

TEST(PerfbenchSpans, SummarizeRejectsBrokenTrees)
{
    std::vector<Span> escaped{{Layer::Run, -1, 0, 100},
                              {Layer::UvmVictim, 0, 50, 150}};
    EXPECT_NE(summarize(escaped).error, "");

    std::vector<Span> two_roots{{Layer::Run, -1, 0, 100},
                                {Layer::TorchSegment, -1, 100, 120}};
    EXPECT_NE(summarize(two_roots).error, "");

    SpanRecorder rec;
    rec.open(Layer::Run);
    rec.open(Layer::CoreFaultBatch);
    rec.close(Layer::Run); // out of order
    EXPECT_FALSE(rec.balanced());
}

TEST(PerfbenchStats, QuantileAndStatValue)
{
    EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.25), 2.0);
    std::string json = "{\n  \"scalars\": {\n    \"a.b\": 12,\n"
                       "    \"a.bc\": 7\n  }\n}\n";
    EXPECT_EQ(statValue(json, "a.b"), 12u);
    EXPECT_EQ(statValue(json, "a.bc"), 7u);
    EXPECT_EQ(statValue(json, "missing"), 0u);
}

} // namespace
