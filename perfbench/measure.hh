/**
 * @file
 * The two measurement modes of one benchmark run.
 *
 * End to end (tracing off) times harness::runExperiment, the path
 * simctl and the figure benches take. The layer mode alternates an
 * untraced runExperiment with a traced rebuild of the same stack
 * (stack.hh), and reduces the traced run's spans and seam counts to
 * per-layer metrics. Both modes check their outputs: every
 * repetition's StatSet JSON must equal the first one, and the traced
 * StatSet must equal the untraced one byte for byte.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hh"
#include "stack.hh"
#include "workloads.hh"

namespace perfbench {

struct Metric {
    std::string name;
    double value;
    const char *unit;
};

/** The outcome of one benchmark run in either mode. */
struct Report {
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; ///< why runs failed, first few
    /** Extra lines for the human-readable info record. */
    std::vector<Metric> info;
    std::string dominantLayer; ///< layer mode only
};

/** Value of the scalar @p name in a StatSet JSON dump (0 if absent). */
std::uint64_t statValue(std::string_view stats_json,
                        std::string_view name);

/**
 * Per-layer metrics of one traced run, checking the span tree and
 * reconciling the seam counts with the run's StatSet. @p error gets
 * the first failed check (left empty when all pass).
 */
std::vector<Metric> layerMetrics(const TracedRun &r, std::string &error);

/** Time runExperiment for @p seconds (tracing off). */
Report measureEndToEnd(const Workload &w, std::uint64_t seed,
                       double seconds, const std::string &stats_dir);

/** Alternate untraced and traced runs for @p seconds. */
Report measureLayers(const Workload &w, std::uint64_t seed,
                     double seconds, const std::string &stats_dir);

/** Linear-interpolated quantile @p q in [0, 1] of @p v. */
double quantile(std::vector<double> v, double q);

} // namespace perfbench
