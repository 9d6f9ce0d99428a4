/**
 * @file
 * Event-queue throughput benchmark.
 *
 * Drives the EventQueue (a binary min-heap) through a
 * self-rescheduling event pattern and reports events/sec. The pattern
 * mixes three delay classes: 10% zero-delay, 70% short (1-2000
 * ticks), 20% long (10k-210k ticks), over 16 concurrent chains, so
 * the queue holds 16 pending events throughout. A tick-sum checksum
 * of the firing sequence is reported so two runs (or two builds) can
 * be checked for identical order.
 *
 * With --grid it also measures wall-clock for a reduced-iteration
 * sweepGrid() run serially and on a thread pool, reporting the
 * parallel speedup (bounded by the machine's core count).
 *
 * Usage:
 *   sim_throughput [--events N] [--grid] [--jobs N] [--out file.json]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace deepum;
using namespace deepum::bench;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One throughput measurement: events/sec plus a firing checksum. */
struct QueueScore {
    double eventsPerSec = 0;
    std::uint64_t executed = 0;
    std::uint64_t checksum = 0; ///< sum of firing ticks
};

/** Run the self-rescheduling chain pattern on the event queue. */
QueueScore
runPattern(std::uint64_t total_events,
           const std::vector<sim::Tick> &delays)
{
    sim::EventQueue q;
    std::uint64_t fired = 0, checksum = 0;

    struct Chain {
        sim::EventQueue *q;
        const sim::Tick *delays;
        std::uint64_t *fired, *checksum;
        std::uint64_t limit;
        void
        operator()() const
        {
            std::uint64_t n = ++*fired;
            *checksum += q->now();
            if (n >= limit)
                return;
            q->scheduleIn(delays[n & 1023], *this);
        }
    };

    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 16; ++i)
        q.schedule(i, Chain{&q, delays.data(), &fired, &checksum,
                            total_events});
    q.run();
    double sec = secondsSince(t0);

    QueueScore s;
    s.executed = q.executed();
    s.checksum = checksum;
    s.eventsPerSec = sec > 0 ? static_cast<double>(s.executed) / sec
                             : 0.0;
    return s;
}

/** The mixed delay ring (deterministic; see file comment). */
std::vector<sim::Tick>
makeDelays()
{
    std::vector<sim::Tick> delays(1024);
    sim::Rng rng(42);
    for (auto &d : delays) {
        std::uint64_t r = rng.below(100);
        if (r < 10)
            d = 0;
        else if (r < 80)
            d = 1 + rng.below(2000);
        else
            d = 10'000 + rng.below(200'000);
    }
    return delays;
}

/** Wall-clock one sweepGrid pass (reduced iterations) on @p jobs. */
double
gridSeconds(unsigned jobs)
{
    harness::ExperimentConfig cfg = defaultConfig();
    cfg.iterations = 6;
    cfg.warmup = 2;
    harness::ParallelRunner pool(jobs);
    auto t0 = std::chrono::steady_clock::now();
    auto results = mapCells<harness::RunResult>(
        pool, sweepGrid(), [&](const Cell &c) {
            torch::Tape tape = models::buildModel(c.model, c.batch);
            return harness::runExperiment(
                tape, harness::SystemKind::DeepUm, cfg);
        });
    double sec = secondsSince(t0);
    for (const auto &r : results)
        if (!r.ok)
            std::fprintf(stderr, "warning: grid cell reported OOM\n");
    return sec;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t events = 20'000'000;
    bool grid = false;
    unsigned jobs = harness::hardwareJobs();
    std::string out;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--events" && i + 1 < argc) {
            events = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--grid") {
            grid = true;
        } else if (a == "--jobs" && i + 1 < argc &&
                   harness::parseJobs("sim_throughput", argv[i + 1],
                                      jobs)) {
            ++i;
        } else if (a == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: sim_throughput [--events N] [--grid] "
                         "[--jobs N] [--out file.json]\n");
            return 2;
        }
    }
    const auto delays = makeDelays();

    banner("event-queue throughput");
    QueueScore q = runPattern(events, delays);
    std::printf("events               %llu\n",
                static_cast<unsigned long long>(q.executed));
    std::printf("event queue          %.3e events/sec\n",
                q.eventsPerSec);
    std::printf("firing checksum      %llu\n",
                static_cast<unsigned long long>(q.checksum));

    double grid_serial = 0, grid_parallel = 0;
    if (grid) {
        banner("sweepGrid wall-clock (reduced iterations)");
        grid_serial = gridSeconds(1);
        grid_parallel = gridSeconds(jobs);
        std::printf("serial (1 job)       %.2f s\n", grid_serial);
        std::printf("parallel (%u jobs)   %.2f s\n", jobs,
                    grid_parallel);
        std::printf("speedup              %.2fx\n",
                    grid_parallel > 0 ? grid_serial / grid_parallel
                                      : 0.0);
    }

    if (!out.empty()) {
        std::ofstream os(out);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n", out.c_str());
            return 1;
        }
        // Wall-clock figures are meaningless across machines without
        // the core count; record it first.
        os << "{\n"
           << "  \"host_cores\": "
           << std::max(1u, std::thread::hardware_concurrency())
           << ",\n"
           << "  \"events\": " << q.executed << ",\n"
           << "  \"events_per_sec\": " << q.eventsPerSec << ",\n"
           << "  \"checksum\": " << q.checksum;
        if (grid) {
            os << ",\n  \"grid\": {\"jobs\": " << jobs
               << ", \"serial_sec\": " << grid_serial
               << ", \"parallel_sec\": " << grid_parallel
               << ", \"speedup\": "
               << (grid_parallel > 0 ? grid_serial / grid_parallel
                                     : 0.0)
               << "}";
        }
        os << "\n}\n";
    }
    return 0;
}
