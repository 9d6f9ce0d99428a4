/**
 * @file
 * perfbench — one benchmark run of one workload.
 *
 *   perfbench --workload bert-v100-deepum --seed 1 --seconds 20 \
 *             --trace 0 --stats-dir DIR
 *
 * Prints an info record (`{"info": ...}`: host, build, workload and
 * the figures that are not gated), then, as the last line, the
 * result: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones, with --trace 1 the
 * per-layer ones. perfbench/run.py builds this binary and calls it.
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness/experiment.hh"
#include "measure.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> --seed N "
                 "--seconds N --trace 0|1 --stats-dir DIR\n",
                 why);
    std::exit(2);
}

std::string
num(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += (i ? ", " : "") + quoted(ms[i].name) + ": {\"value\": " +
               num(ms[i].value) + ", \"unit\": " + quoted(ms[i].unit) +
               "}";
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *w = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string stats_dir;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            w = findWorkload(v);
            if (w == nullptr)
                usage((std::string("unknown workload ") + v).c_str());
        } else if (a == "--seed") {
            seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            seconds = std::strtod(v, nullptr);
        } else if (a == "--trace") {
            trace = std::strcmp(v, "1") == 0   ? 1
                    : std::strcmp(v, "0") == 0 ? 0
                                               : -1;
        } else if (a == "--stats-dir") {
            stats_dir = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (w == nullptr || trace < 0 || seconds <= 0 || stats_dir.empty())
        usage("--workload, --seconds > 0, --trace 0|1 and --stats-dir "
              "are required");

    Report rep = trace == 1 ? measureLayers(*w, seed, seconds, stats_dir)
                            : measureEndToEnd(*w, seed, seconds, stats_dir);

    std::string dominant =
        rep.dominantLayer.empty() ? "null" : quoted(rep.dominantLayer);
    std::string errors = "[";
    for (std::size_t i = 0; i < rep.errors.size(); ++i)
        errors += (i ? ", " : "") + quoted(rep.errors[i]);
    errors += "]";
    std::printf(
        "{\"info\": {\"workload\": %s, \"why\": %s, \"model\": %s, "
        "\"batch\": %llu, \"gpu_mib\": %llu, \"host_mib\": %llu, "
        "\"system\": %s, \"seed\": %llu, \"trace\": %d, "
        "\"host_cores\": %u, \"compiler\": %s, \"build_type\": %s, "
        "\"dominant_layer\": %s, \"errors\": %s, \"figures\": %s}}\n",
        quoted(w->name).c_str(), quoted(w->why).c_str(),
        quoted(w->model).c_str(),
        static_cast<unsigned long long>(w->batch),
        static_cast<unsigned long long>(w->gpuMiB),
        static_cast<unsigned long long>(w->hostMiB),
        quoted(deepum::harness::systemName(w->kind)).c_str(),
        static_cast<unsigned long long>(seed), trace,
        std::thread::hardware_concurrency(),
        quoted(PERFBENCH_COMPILER).c_str(),
        quoted(PERFBENCH_BUILD_TYPE).c_str(),
        dominant.c_str(), errors.c_str(), metricsJson(rep.info).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                rep.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                metricsJson(rep.metrics).c_str());
    return 0;
}
