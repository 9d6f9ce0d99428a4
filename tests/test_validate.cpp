/**
 * @file
 * Tests for the invariant-validation layer (sim/validate.hh).
 *
 * Covers the CheckContext/Validator machinery with a toy component,
 * drives the full simulator stack under a Validator (every subsystem
 * audits clean after each kernel and at end of run, in every build
 * flavour), and seeds deliberate corruption to prove violations are
 * caught and reported with a structure dump.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "core/deepum.hh"
#include "core/runtime.hh"
#include "gpu/fault_buffer.hh"
#include "gpu/gpu_engine.hh"
#include "gpu/kernel.hh"
#include "gpu/pcie_link.hh"
#include "harness/experiment.hh"
#include "harness/session.hh"
#include "mem/frame_pool.hh"
#include "mem/va_space.hh"
#include "models/registry.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/validate.hh"
#include "torch/allocator.hh"
#include "torch/um_source.hh"
#include "uvm/driver.hh"
#include "uvm/listener.hh"

using namespace deepum;

namespace {

class SilentLogs : public ::testing::Test
{
  protected:
    void SetUp() override { sim::setLogLevel(sim::LogLevel::Silent); }
};

// ---------------------------------------------------------------------
// CheckContext / Validator machinery, via a toy component.
// ---------------------------------------------------------------------

struct ToyCounter {
    int value = 42;

    void
    checkInvariants(sim::CheckContext &ctx) const
    {
        ctx.require(value >= 0, "value %d went negative", value);
        ctx.require(value == 42, "value is %d not 42", value);
    }

    void
    dumpState(std::ostream &os) const
    {
        os << "ToyCounter{value=" << value << "}\n";
    }
};

TEST(Validate, CheckContextCountsEveryCondition)
{
    ToyCounter toy;
    sim::CheckContext ctx("toy", "unit-test", nullptr);
    toy.checkInvariants(ctx);
    toy.checkInvariants(ctx);
    EXPECT_EQ(ctx.checks(), 4u);
    EXPECT_STREQ(ctx.component(), "toy");
    EXPECT_STREQ(ctx.where(), "unit-test");
}

TEST(Validate, ValidatorAccumulatesPassesAndChecks)
{
    ToyCounter a;
    ToyCounter b;
    sim::Validator v;
    v.add("toy.a", a);
    v.add("toy.b", b);
    ASSERT_EQ(v.componentCount(), 2u);
    v.runAll("sweep-1");
    v.runAll("sweep-2");
    EXPECT_EQ(v.passes(), 2u);
    EXPECT_EQ(v.checks(), 8u);
}

using ValidateDeath = SilentLogs;

TEST_F(ValidateDeath, ViolationPanicsWithStructureDump)
{
    ToyCounter toy;
    toy.value = 7;
    sim::Validator v;
    v.add("toy", toy);
    // The report names the component, the hook, the formatted
    // condition, and brackets the component's state dump.
    EXPECT_DEATH(v.runAll("unit-test"),
                 "invariant violated in toy \\(unit-test\\): "
                 "value is 7 not 42");
    EXPECT_DEATH(v.runAll("unit-test"), "---- state dump ----");
    EXPECT_DEATH(v.runAll("unit-test"), "ToyCounter\\{value=7\\}");
}

TEST_F(ValidateDeath, FailIsUnconditional)
{
    sim::CheckContext ctx("toy", "unit-test", nullptr);
    EXPECT_DEATH(ctx.fail("gave up after %d retries", 3),
                 "invariant violated in toy \\(unit-test\\): "
                 "gave up after 3 retries");
}

// ---------------------------------------------------------------------
// Full-stack audits: wire the simulator exactly like the experiment
// harness does, attach a Validator in every build flavour, and audit
// after each kernel retirement plus once at end of run.
// ---------------------------------------------------------------------

/** Audits the whole stack every time a kernel retires. */
struct AuditOnKernelEnd : uvm::DriverListener {
    sim::Validator *validator = nullptr;
    std::uint64_t audits = 0;

    void
    onKernelEnd(const gpu::KernelInfo &k) override
    {
        (void)k;
        validator->runAll("kernel-end");
        ++audits;
    }
};

/** The experiment.cc stack, exposed for tampering from tests. */
struct Stack {
    harness::ExperimentConfig cfg;
    sim::EventQueue eq;
    sim::StatSet stats;
    gpu::FaultBuffer fb;
    gpu::PcieLink link;
    mem::FramePool frames;
    mem::VaSpace va;
    gpu::GpuEngine engine;
    uvm::Driver driver;
    std::unique_ptr<core::DeepUm> deepum;
    sim::Validator validator;
    core::Runtime runtime;
    torch::UmSegmentSource source;
    torch::CachingAllocator alloc;

    explicit Stack(bool with_deepum = true)
        : link(cfg.timing),
          frames(cfg.gpuMemBytes / mem::kPageSize),
          va(cfg.hostMemBytes),
          engine(eq, cfg.timing, fb, stats),
          driver(eq, cfg.timing, fb, link, frames, stats),
          deepum(with_deepum
                     ? std::make_unique<core::DeepUm>(
                           driver, cfg.deepum, stats)
                     : nullptr),
          runtime(va, driver, engine, deepum.get()),
          source(runtime),
          alloc(source, stats)
    {
        engine.setBackend(&driver);
        driver.setEngine(&engine);
        validator.add("sim.eventq", eq);
        validator.add("mem.frames", frames);
        validator.add("mem.va", va);
        validator.add("uvm.driver", driver);
        if (deepum != nullptr)
            validator.add("core.deepum", *deepum);
    }

    /** Run @p iterations of @p model and audit at the end. */
    bool
    train(const char *model, std::uint64_t batch,
          std::uint32_t iterations)
    {
        torch::Tape tape = models::buildModel(model, batch);
        harness::Session session(eq, runtime, alloc, stats, link,
                                 tape, iterations, cfg.seed);
        bool ok = session.run();
        validator.runAll("end-of-run");
        return ok;
    }
};

TEST(Validate, FullStackAuditsCleanUnderDeepUm)
{
    Stack s;
    AuditOnKernelEnd audit;
    audit.validator = &s.validator;
    s.driver.addListener(&audit);
    ASSERT_TRUE(s.train("mobilenet", 16, 2));
    EXPECT_GT(audit.audits, 0u);
    EXPECT_EQ(s.validator.passes(), audit.audits + 1);
    EXPECT_GT(s.validator.checks(), 0u);
}

TEST(Validate, FullStackAuditsCleanUnderNaiveUm)
{
    Stack s(/*with_deepum=*/false);
    ASSERT_TRUE(s.train("mobilenet", 16, 2));
    EXPECT_EQ(s.validator.passes(), 1u);
    EXPECT_GT(s.validator.checks(), 0u);
}

// ---------------------------------------------------------------------
// Seeded corruption: tamper with a structure behind the owner's back
// and prove the audit catches it with a dump (ISSUE acceptance).
// ---------------------------------------------------------------------

TEST_F(ValidateDeath, FramePoolDriftIsCaught)
{
    Stack s;
    ASSERT_TRUE(s.train("mobilenet", 16, 1));
    // Steal frames behind the driver's back: the pool's used count no
    // longer matches the driver's resident + in-flight pages.
    ASSERT_TRUE(s.driver.frames().reserve(4));
    EXPECT_DEATH(s.validator.runAll("tampered"),
                 "frame accounting drift");
    EXPECT_DEATH(s.validator.runAll("tampered"),
                 "---- state dump ----");
}

TEST_F(ValidateDeath, DanglingChainStartIsCaught)
{
    Stack s;
    ASSERT_TRUE(s.train("mobilenet", 16, 1));
    // Point an execution chain at a block id the driver has never
    // registered: the liveness cross-check must trip.
    constexpr mem::BlockId kDeadBlock = 0xdeadbeef;
    ASSERT_FALSE(s.driver.knowsBlock(kDeadBlock));
    s.deepum->blockTables().getOrCreate(1).setStart(kDeadBlock);
    EXPECT_DEATH(s.validator.runAll("tampered"),
                 "chain start points at dead block");
}

TEST_F(ValidateDeath, StrayHoldBitIsCaught)
{
    Stack s;
    ASSERT_TRUE(s.train("mobilenet", 16, 1));
    // Hold a block the prefetcher never protected: the victim index
    // would skip it, so the hold-bit mirror audit must trip.
    ASSERT_NE(s.driver.lruOrder().size(), 0u);
    mem::BlockId b = *s.driver.lruOrder().begin();
    ASSERT_FALSE(s.deepum->prefetcher().isProtected(b));
    s.driver.setHeld(s.driver.store().find(b), true);
    EXPECT_DEATH(s.validator.runAll("tampered"),
                 "hold bit 1 disagrees with its protection refcount 0");
}

// ---------------------------------------------------------------------
// DEEPUM_VALIDATE builds: the harness wires the hooks itself and
// exports proof that they fired.
// ---------------------------------------------------------------------

#ifdef DEEPUM_VALIDATE
TEST(Validate, BuildFlagIsVisible) { EXPECT_TRUE(sim::kValidateBuild); }

TEST(Validate, ExperimentExportsAuditCounters)
{
    torch::Tape tape = models::buildModel("mobilenet", 16);
    harness::ExperimentConfig cfg;
    cfg.iterations = 3;
    cfg.warmup = 1;
    harness::RunResult r =
        harness::runExperiment(tape, harness::SystemKind::DeepUm, cfg);
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.stats.at("validate.passes"), 0u);
    EXPECT_GT(r.stats.at("validate.checks"),
              r.stats.at("validate.passes"));
}
#endif

} // namespace
