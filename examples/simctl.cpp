/**
 * @file
 * simctl — command-line front end for the simulator.
 *
 * Run any registered model under any memory system with any
 * configuration, and optionally dump the full statistics registry —
 * the tool a downstream user reaches for before scripting the C++
 * API directly.
 *
 * Usage:
 *   simctl --model gpt2-xl --batch 5 --system deepum \
 *          [--gpu-mib 256] [--host-mib 4096] [--iters 18 --warmup 8]
 *          [--lookahead 8] [--rows 2048 --assoc 2 --succs 4]
 *          [--no-prefetch] [--no-preevict] [--no-invalidate]
 *          [--seed 12345] [--dump-stats]
 *          [--trace trace.json] [--stats-json stats.json]
 *          [--ledger] [--report report.txt|-] [--thrash-window N]
 *          [--timeseries series.csv] [--sample-interval N]
 *
 * A comma-separated `--batches 16,32,64` sweeps several batch sizes
 * in one invocation and prints one row per batch; `--jobs N` runs
 * the sweep cells on N threads (results are identical to --jobs 1 —
 * each cell owns a private simulator, see harness/parallel.hh).
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/report.hh"
#include "models/registry.hh"
#include "sim/logging.hh"

using namespace deepum;

namespace {

/** Bound for the flags that fill 32-bit fields. */
constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
/** Bound for --gpu-mib/--host-mib: the byte count must fit 64 bits. */
constexpr std::uint64_t kMaxMib =
    std::numeric_limits<std::uint64_t>::max() / sim::kMiB;

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: simctl --model <name> [--batch N] [--system "
        "um|deepum|ocdnn|ideal]\n"
        "              [--gpu-mib N] [--host-mib N] [--iters N] "
        "[--warmup N]\n"
        "              [--lookahead N] [--rows N] [--assoc N] "
        "[--succs N]\n"
        "              [--no-prefetch] [--no-preevict] "
        "[--no-invalidate]\n"
        "              [--seed N] [--dump-stats] [--list-models]\n"
        "              [--trace <file>] [--stats-json <file>]\n"
        "              [--ledger] [--report <file|->] "
        "[--thrash-window N]\n"
        "              [--timeseries <file>] [--sample-interval N]\n"
        "              [--batches N,N,...] [--jobs N]\n"
        "\n"
        "  --trace <file>       write a Chrome/Perfetto trace of the "
        "run\n"
        "  --stats-json <file>  write the full stat registry as "
        "JSON\n"
        "  --ledger             attach the migration provenance "
        "ledger\n"
        "  --report <file|->    per-run accuracy report (implies "
        "--ledger)\n"
        "  --thrash-window N    re-fault window in ticks for thrash "
        "classing\n"
        "  --timeseries <file>  sampled series, CSV (or JSON by "
        "extension)\n"
        "  --sample-interval N  ticks between time-series samples\n"
        "  --batches N,N,...    sweep several batch sizes, one row "
        "each\n"
        "  --jobs N             threads for the sweep (0 = one per "
        "core, at most 256)\n");
    std::exit(2);
}

std::string
strArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "simctl: %s requires an argument\n",
                     argv[i]);
        usage();
    }
    return argv[++i];
}

/**
 * Parse decimal @p s into @p out. False on a non-digit start (so a
 * "-1" never wraps), trailing junk, or a value above @p max.
 */
bool
parseNum(const char *s, const char *end_at, std::uint64_t max,
         std::uint64_t &out)
{
    if (*s < '0' || *s > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s, &end, 10);
    return end == end_at && errno != ERANGE && out <= max;
}

/**
 * The number after flag argv[i], in [@p min, @p max]: at most the
 * largest value the flag's destination holds, so nothing narrows or
 * wraps.
 */
std::uint64_t
numArg(int argc, char **argv, int &i,
       std::uint64_t max = std::numeric_limits<std::uint64_t>::max(),
       std::uint64_t min = 0)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "simctl: %s requires an argument\n",
                     argv[i]);
        usage();
    }
    const char *s = argv[++i];
    std::uint64_t v = 0;
    if (!parseNum(s, s + std::strlen(s), max, v) || v < min) {
        std::fprintf(stderr,
                     "simctl: %s expects a number in [%llu, %llu], got "
                     "'%s'\n",
                     argv[i - 1], static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), s);
        usage();
    }
    return v;
}

/**
 * Fail fast on an unwritable output path, naming the flag — a typo'd
 * directory should not surface as a warning after minutes of
 * simulation. Probes by opening for append (creates the file when
 * missing, never truncates existing content). "-" and "" are skipped.
 */
void
requireWritable(const char *flag, const std::string &path)
{
    if (path.empty() || path == "-")
        return;
    std::ofstream probe(path, std::ios::binary | std::ios::app);
    if (!probe) {
        std::fprintf(stderr,
                     "simctl: cannot open %s file '%s' for writing\n",
                     flag, path.c_str());
        std::exit(1);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string model = "bert-base";
    std::uint64_t batch = 30;
    std::vector<std::uint64_t> batches;
    unsigned jobs = 1;
    std::string system = "deepum";
    bool dump_stats = false;
    std::string report_path;
    harness::ExperimentConfig cfg;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--model") {
            model = strArg(argc, argv, i);
        } else if (a == "--batch") {
            batch = numArg(argc, argv, i);
        } else if (a == "--batches") {
            std::string list = strArg(argc, argv, i);
            for (std::size_t pos = 0; pos < list.size();) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                std::uint64_t v = 0;
                if (!parseNum(list.c_str() + pos, list.c_str() + comma,
                              std::numeric_limits<std::uint64_t>::max(),
                              v)) {
                    std::fprintf(stderr,
                                 "simctl: --batches expects a "
                                 "comma-separated number list\n");
                    usage();
                }
                batches.push_back(v);
                pos = comma + 1;
            }
        } else if (a == "--jobs") {
            if (!harness::parseJobs("simctl", strArg(argc, argv, i).c_str(),
                                   jobs))
                usage();
        } else if (a == "--system") {
            system = strArg(argc, argv, i);
        } else if (a == "--gpu-mib") {
            cfg.gpuMemBytes =
                numArg(argc, argv, i, kMaxMib) * sim::kMiB;
        } else if (a == "--host-mib") {
            cfg.hostMemBytes =
                numArg(argc, argv, i, kMaxMib) * sim::kMiB;
        } else if (a == "--iters") {
            cfg.iterations =
                static_cast<std::uint32_t>(
                    numArg(argc, argv, i, kU32Max));
        } else if (a == "--warmup") {
            cfg.warmup =
                static_cast<std::uint32_t>(
                    numArg(argc, argv, i, kU32Max));
        } else if (a == "--lookahead") {
            cfg.deepum.lookaheadN =
                static_cast<std::uint32_t>(
                    numArg(argc, argv, i, core::kMaxLookaheadN));
        } else if (a == "--rows") {
            cfg.deepum.table.numRows =
                static_cast<std::uint32_t>(
                    numArg(argc, argv, i, kU32Max, 1));
        } else if (a == "--assoc") {
            cfg.deepum.table.assoc =
                static_cast<std::uint32_t>(
                    numArg(argc, argv, i, kU32Max, 1));
        } else if (a == "--succs") {
            cfg.deepum.table.numSuccs =
                static_cast<std::uint32_t>(
                    numArg(argc, argv, i, core::kMaxNumSuccs, 1));
        } else if (a == "--no-prefetch") {
            cfg.deepum.prefetch = false;
        } else if (a == "--no-preevict") {
            cfg.deepum.preevict = false;
        } else if (a == "--no-invalidate") {
            cfg.deepum.invalidate = false;
        } else if (a == "--seed") {
            cfg.seed = numArg(argc, argv, i);
        } else if (a == "--dump-stats") {
            dump_stats = true;
        } else if (a == "--trace") {
            cfg.traceFile = strArg(argc, argv, i);
        } else if (a == "--stats-json") {
            cfg.statsJsonFile = strArg(argc, argv, i);
        } else if (a == "--ledger") {
            cfg.ledger = true;
        } else if (a == "--report") {
            report_path = strArg(argc, argv, i);
            cfg.ledger = true;
        } else if (a == "--thrash-window") {
            cfg.thrashWindowTicks = numArg(argc, argv, i);
        } else if (a == "--timeseries") {
            cfg.timeseriesFile = strArg(argc, argv, i);
        } else if (a == "--sample-interval") {
            cfg.timeseriesInterval = numArg(argc, argv, i);
            if (cfg.timeseriesInterval == 0)
                sim::fatal("--sample-interval must be positive");
        } else if (a == "--list-models") {
            for (const auto &m : models::modelNames())
                std::printf("%s\n", m.c_str());
            return 0;
        } else {
            std::fprintf(stderr, "simctl: unknown option '%s'\n",
                         a.c_str());
            usage();
        }
    }

    harness::SystemKind kind;
    if (system == "um")
        kind = harness::SystemKind::Um;
    else if (system == "deepum")
        kind = harness::SystemKind::DeepUm;
    else if (system == "ocdnn")
        kind = harness::SystemKind::OcDnn;
    else if (system == "ideal")
        kind = harness::SystemKind::Ideal;
    else
        usage();

    if (!models::haveModel(model))
        sim::fatal("unknown model %s (try --list-models)",
                   model.c_str());
    if (cfg.warmup >= cfg.iterations)
        sim::fatal("--warmup must be smaller than --iters");

    // Validate every output path before simulating anything: a typo
    // must fail in milliseconds, naming the flag, not minutes later.
    requireWritable("--trace", cfg.traceFile);
    requireWritable("--stats-json", cfg.statsJsonFile);
    requireWritable("--report", report_path);
    requireWritable("--timeseries", cfg.timeseriesFile);

    if (!batches.empty()) {
        if (!cfg.traceFile.empty() || !cfg.statsJsonFile.empty() ||
            !report_path.empty() || !cfg.timeseriesFile.empty())
            sim::fatal("--trace/--stats-json/--report/--timeseries "
                       "write one file per run; not supported with "
                       "--batches");
        std::printf("%s system=%s gpu=%s jobs=%u\n", model.c_str(),
                    harness::systemName(kind),
                    harness::fmtMiB(cfg.gpuMemBytes).c_str(), jobs);
        harness::ParallelRunner pool(jobs);
        std::vector<harness::RunResult> results =
            pool.map<harness::RunResult>(
                batches.size(), [&](std::size_t i) {
                    torch::Tape t =
                        models::buildModel(model, batches[i]);
                    return harness::runExperiment(t, kind, cfg);
                });
        harness::TextTable t({"batch", "s/100iter", "faults/iter",
                              "MiB HtoD/iter", "J/iter"});
        for (std::size_t i = 0; i < batches.size(); ++i) {
            const harness::RunResult &r = results[i];
            if (!r.ok) {
                t.row({harness::fmtBatch(batches[i]), "OOM", "-",
                       "-", "-"});
                continue;
            }
            t.row({harness::fmtBatch(batches[i]),
                   harness::fmtDouble(r.secPer100Iters),
                   harness::fmtDouble(r.pageFaultsPerIter, 0),
                   harness::fmtDouble(
                       static_cast<double>(r.bytesHtoDPerIter) /
                       1048576.0, 1),
                   harness::fmtDouble(r.energyJPerIter, 1)});
        }
        t.print(std::cout);
        return 0;
    }

    torch::Tape tape = models::buildModel(model, batch);
    std::printf("%s batch=%llu system=%s footprint=%s gpu=%s\n",
                model.c_str(),
                static_cast<unsigned long long>(batch),
                harness::systemName(kind),
                harness::fmtMiB(tape.footprintBytes()).c_str(),
                harness::fmtMiB(cfg.gpuMemBytes).c_str());

    harness::RunResult r = harness::runExperiment(tape, kind, cfg);

    if (!report_path.empty()) {
        std::string title = model + "/" +
                            harness::fmtBatch(batch) + " " +
                            harness::systemName(kind);
        if (report_path == "-") {
            harness::printRunReport(std::cout, title, r);
        } else {
            std::ofstream os(report_path, std::ios::binary);
            if (!os)
                sim::fatal("cannot open --report file '%s'",
                           report_path.c_str());
            harness::printRunReport(os, title, r);
        }
    }

    if (!r.ok) {
        std::printf("result: OUT OF MEMORY\n");
        return 1;
    }
    std::printf("result: %.2f s/100iter, %.0f faults/iter, "
                "%.1f MiB HtoD/iter, %.1f MiB DtoH/iter, "
                "%.1f J/iter",
                r.secPer100Iters, r.pageFaultsPerIter,
                static_cast<double>(r.bytesHtoDPerIter) / 1048576.0,
                static_cast<double>(r.bytesDtoHPerIter) / 1048576.0,
                r.energyJPerIter);
    if (r.tableBytes > 0)
        std::printf(", tables %s",
                    harness::fmtMiB(r.tableBytes).c_str());
    std::printf("\n");

    if (dump_stats) {
        std::printf("\n# full counter dump\n");
        for (const auto &[name, v] : r.stats)
            std::printf("%-44s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(v));
    }
    return 0;
}
