/**
 * @file
 * Tests for the harness layer: session snapshots, the OC-DNN manual
 * prefetch mode, the mechanism-ablation flags, the energy model, the
 * text reporters, and the max-batch search.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "harness/energy.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "models/registry.hh"

using namespace deepum;
using namespace deepum::harness;

namespace {

ExperimentConfig
quick()
{
    ExperimentConfig cfg;
    cfg.iterations = 12;
    cfg.warmup = 6;
    return cfg;
}

// ---------------------------------------------------------- session

TEST(Harness, SnapshotsAreMonotonic)
{
    torch::Tape tape = models::buildModel("bert-base", 30);
    RunResult r = runExperiment(tape, SystemKind::Um, quick());
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.ticksPerIter, 0u);
    EXPECT_GT(r.computeTicksPerIter, 0u);
}

TEST(Harness, OcDnnBeatsUmButTrailsDeepUm)
{
    torch::Tape tape = models::buildModel("gpt2-l", 5);
    ExperimentConfig cfg = quick();
    RunResult um = runExperiment(tape, SystemKind::Um, cfg);
    RunResult oc = runExperiment(tape, SystemKind::OcDnn, cfg);
    RunResult dum = runExperiment(tape, SystemKind::DeepUm, cfg);
    ASSERT_TRUE(um.ok && oc.ok && dum.ok);
    // Manual per-op prefetch (OC-DNN, related work) helps over naive
    // UM but cannot look far enough ahead to match DeepUM.
    EXPECT_LT(oc.secPer100Iters, 0.9 * um.secPer100Iters);
    EXPECT_LT(dum.secPer100Iters, oc.secPer100Iters);
    EXPECT_EQ(um.stats.at("uvm.prefetchIssued"), 0u);
    EXPECT_GT(oc.stats.at("uvm.prefetchIssued"), 0u);
}

TEST(Harness, SystemNamesArePrintable)
{
    EXPECT_STREQ(systemName(SystemKind::Um), "UM");
    EXPECT_STREQ(systemName(SystemKind::OcDnn), "OC-DNN");
    EXPECT_STREQ(systemName(SystemKind::DeepUm), "DeepUM");
    EXPECT_STREQ(systemName(SystemKind::Ideal), "Ideal");
}

// ------------------------------------------------- mechanism flags

TEST(Harness, MechanismFlagsAreHonored)
{
    torch::Tape tape = models::buildModel("bert-base", 30);
    // Each ablation must still produce a working (ok) run that does
    // not beat the full configuration by more than noise.
    ExperimentConfig full = quick();
    RunResult r_full = runExperiment(tape, SystemKind::DeepUm, full);
    ASSERT_TRUE(r_full.ok);

    for (int which = 0; which < 3; ++which) {
        ExperimentConfig cfg = quick();
        if (which == 0)
            cfg.deepum.captureHysteresis = false;
        if (which == 1)
            cfg.deepum.freshTagChaining = false;
        if (which == 2)
            cfg.deepum.wasteFeedback = false;
        RunResult r = runExperiment(tape, SystemKind::DeepUm, cfg);
        ASSERT_TRUE(r.ok) << which;
        EXPECT_GT(r.secPer100Iters, 0.85 * r_full.secPer100Iters)
            << "ablation " << which
            << " should not massively beat the full config";
    }
}

TEST(Harness, FreshTagChainingReducesFaults)
{
    torch::Tape tape = models::buildModel("resnet152", 1536);
    ExperimentConfig with = quick();
    ExperimentConfig without = quick();
    without.deepum.freshTagChaining = false;
    RunResult a = runExperiment(tape, SystemKind::DeepUm, with);
    RunResult b = runExperiment(tape, SystemKind::DeepUm, without);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_LT(a.pageFaultsPerIter, b.pageFaultsPerIter);
}

// ------------------------------------------------------- energy

TEST(Energy, BaselinePowerDominatesIdleTime)
{
    EnergyModel m;
    double idle = m.joules(sim::kSec, 0, 0, 0);
    EXPECT_DOUBLE_EQ(idle, m.basePowerW);
}

TEST(Energy, ActivityAddsOnTop)
{
    EnergyModel m;
    double busy = m.joules(sim::kSec, sim::kSec, sim::kSec,
                           1'000'000'000);
    EXPECT_NEAR(busy,
                m.basePowerW + m.gpuPowerW + m.linkPowerW +
                    m.perByteNj * 1e-9 * 1e9,
                1e-9);
}

// ------------------------------------------------------ reporters

TEST(Report, TextTableAlignsColumns)
{
    TextTable t({"name", "value"});
    t.row({"a", "1"});
    t.row({"long-name", "23456"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    // Header, separator, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    // Right-aligned numeric column: "1" sits at the line end.
    EXPECT_NE(out.find("a              1"), std::string::npos);
}

TEST(ReportDeath, RowWidthMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.row({"only-one"}), "width");
}

TEST(Report, Formatters)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtSpeedup(2.5), "2.50x");
    EXPECT_EQ(fmtSpeedup(0.0), "-");
    EXPECT_EQ(fmtMiB(512 * 1024), "0.5 MiB");
    EXPECT_EQ(fmtBatch(96 * 1024), "96K");
    EXPECT_EQ(fmtBatch(1500), "1.5K");
    EXPECT_EQ(fmtBatch(31), "31");
}

TEST(Report, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
}

// ----------------------------------------------------- max batch

TEST(Harness, SearchMaxBatchOnSyntheticPredicates)
{
    // lo fails: 0, after that one probe.
    int probes = 0;
    EXPECT_EQ(searchMaxBatch(8, 4096,
                             [&](std::uint64_t) {
                                 ++probes;
                                 return false;
                             }),
              0u);
    EXPECT_EQ(probes, 1);

    // Everything fits: hi, also when hi is no power-of-two multiple
    // of lo, and when the range is one batch.
    auto always = [](std::uint64_t) { return true; };
    EXPECT_EQ(searchMaxBatch(3, 1000, always), 1000u);
    EXPECT_EQ(searchMaxBatch(5, 5, always), 5u);

    // A sharp edge inside the range: the answer fits and is closer
    // to the edge than max(1, answer/64), so it is exact below 128.
    const std::uint64_t kEdges[] = {2,    3,     5,     63,    64,
                                    65,   100,   127,   128,   1000,
                                    1023, 4095,  9999,  65537, 100000,
                                    199999};
    for (std::uint64_t edge : kEdges) {
        std::uint64_t got = searchMaxBatch(
            2, 200000, [&](std::uint64_t b) { return b <= edge; });
        EXPECT_LE(got, edge) << "edge " << edge;
        EXPECT_LT(edge - got, std::max<std::uint64_t>(1, got / 64))
            << "edge " << edge;
        if (edge < 128) {
            EXPECT_EQ(got, edge);
        }
    }
}

TEST(Harness, MaxBatchReturnsZeroWhenLoFails)
{
    ExperimentConfig cfg = quick();
    cfg.hostMemBytes = 64 * sim::kMiB; // nothing fits
    EXPECT_EQ(maxBatch("bert-large", SystemKind::Um, cfg, 8, 64), 0u);
}

TEST(Harness, MaxBatchHitsUpperBoundWhenEverythingFits)
{
    ExperimentConfig cfg = quick();
    cfg.hostMemBytes = 8 * sim::kGiB;
    EXPECT_EQ(maxBatch("bert-base", SystemKind::DeepUm, cfg, 2, 8),
              8u);
}

} // namespace
