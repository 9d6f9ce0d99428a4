/**
 * @file
 * Quickstart: train one model under naive UM, DeepUM, and an ideal
 * (no-oversubscription) GPU, and print the headline comparison.
 *
 * Usage: quickstart [model] [batch] [-v] [lookahead]
 *   model defaults to bert-base, batch to 30 (about 6% GPU memory
 *   oversubscription at the simulator's 256 MiB scale). -v prints
 *   DeepUM's driver counters after the table; pass - in its place to
 *   set the lookahead (DeepUM's N, default 8, at most 62) without
 *   them.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/config.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "models/registry.hh"

using namespace deepum;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: quickstart [model] [batch] [-v] [lookahead]\n"
                 "  batch      a positive number (default 30)\n"
                 "  -v         print DeepUM's driver counters (- to "
                 "skip)\n"
                 "  lookahead  DeepUM's N, at most %u (default 8)\n",
                 core::kMaxLookaheadN);
    std::exit(2);
}

/** Decimal @p s in [@p min, @p max], or a usage error naming @p arg. */
std::uint64_t
number(const char *arg, const char *s, std::uint64_t min,
       std::uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(s, &end, 10);
    if (*s >= '0' && *s <= '9' && *end == '\0' && errno != ERANGE &&
        v >= min && v <= max)
        return v;
    std::fprintf(stderr,
                 "quickstart: %s expects a number in [%llu, %llu], got "
                 "'%s'\n",
                 arg, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), s);
    usage();
}

} // namespace

int
main(int argc, char **argv)
{
    // Every argument is checked before anything is built or run.
    if (argc > 5)
        usage();
    std::string model = argc > 1 ? argv[1] : "bert-base";
    const std::uint64_t batch =
        argc > 2 ? number("batch", argv[2], 1, ~std::uint64_t{0}) : 30;
    const bool verbose = argc > 3 && std::string(argv[3]) == "-v";
    if (argc > 3 && !verbose && std::string(argv[3]) != "-") {
        std::fprintf(stderr, "quickstart: expected -v or -, got '%s'\n",
                     argv[3]);
        usage();
    }
    harness::ExperimentConfig cfg;
    if (argc > 4)
        cfg.deepum.lookaheadN = static_cast<std::uint32_t>(
            number("lookahead", argv[4], 0, core::kMaxLookaheadN));

    torch::Tape tape = models::buildModel(model, batch);
    std::printf("model %s, batch %llu\n", model.c_str(),
                static_cast<unsigned long long>(batch));
    std::printf("  footprint      : %s\n",
                harness::fmtMiB(tape.footprintBytes()).c_str());
    std::printf("  persistent     : %s\n",
                harness::fmtMiB(tape.persistentBytes()).c_str());
    std::printf("  kernels/iter   : %zu\n",
                tape.launchesPerIteration());

    std::printf("  GPU memory     : %s (oversubscription %.2fx)\n\n",
                harness::fmtMiB(cfg.gpuMemBytes).c_str(),
                static_cast<double>(tape.footprintBytes()) /
                    static_cast<double>(cfg.gpuMemBytes));

    auto ideal =
        harness::runExperiment(tape, harness::SystemKind::Ideal, cfg);
    auto um = harness::runExperiment(tape, harness::SystemKind::Um, cfg);
    auto dum =
        harness::runExperiment(tape, harness::SystemKind::DeepUm, cfg);

    harness::TextTable t({"system", "s/100iter", "speedup vs UM",
                          "faults/iter", "HtoD MiB/iter",
                          "DtoH MiB/iter", "energy J/iter"});
    auto add = [&](const char *name, const harness::RunResult &r) {
        if (!r.ok) {
            t.row({name, "OOM", "-", "-", "-", "-", "-"});
            return;
        }
        t.row({name, harness::fmtDouble(r.secPer100Iters),
               harness::fmtSpeedup(um.secPer100Iters /
                                   r.secPer100Iters),
               harness::fmtDouble(r.pageFaultsPerIter, 0),
               harness::fmtDouble(static_cast<double>(
                                      r.bytesHtoDPerIter) /
                                      (1024.0 * 1024.0),
                                  1),
               harness::fmtDouble(static_cast<double>(
                                      r.bytesDtoHPerIter) /
                                      (1024.0 * 1024.0),
                                  1),
               harness::fmtDouble(r.energyJPerIter, 1)});
    };
    add("UM", um);
    add("DeepUM", dum);
    add("Ideal", ideal);
    t.print(std::cout);

    if (verbose) {
        std::printf("\nDeepUM driver counters:\n");
        for (const auto &[name, v] : dum.stats) {
            if (name.rfind("uvm.", 0) == 0 ||
                name.rfind("prefetcher.", 0) == 0 ||
                name.rfind("preevictor.", 0) == 0 ||
                name.rfind("gpu.", 0) == 0) {
                std::printf("  %-40s %llu\n", name.c_str(),
                            static_cast<unsigned long long>(v));
            }
        }
    }
    return 0;
}
