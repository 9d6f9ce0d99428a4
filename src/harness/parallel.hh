/**
 * @file
 * Parallel experiment runner.
 *
 * Every (model, batch, system) cell of the paper's evaluation is an
 * independent simulation: runExperiment() builds a private
 * EventQueue, StatSet and RNG per call and shares nothing, so cells
 * can run concurrently with zero coordination. ParallelRunner is the
 * thread pool the bench binaries fan cells out onto;
 * results land in caller-indexed slots, so the output order (and,
 * because each cell is deterministic in isolation, every value in
 * it) is identical whether the grid runs on one thread or many.
 *
 * Threading model (see DESIGN.md "Threading model"): simulations are
 * share-nothing — one EventQueue per run, never crossed between
 * threads. The pool only parallelizes *across* runs.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace deepum::harness {

/**
 * A fixed-size thread pool running one index-sharded job at a time.
 *
 * The calling thread participates in the work, so ParallelRunner(1)
 * (or a pool asked for work from inside one of its own workers)
 * executes the body inline on the caller with no thread handoff at
 * all — the degenerate case is exactly the old serial loop.
 *
 * One job runs at a time: forEach() must not be entered from two
 * unrelated threads concurrently (nested calls from inside a body
 * are fine — they run inline).
 */
class ParallelRunner
{
  public:
    /**
     * @param jobs worker count; 0 means one per hardware thread.
     */
    explicit ParallelRunner(unsigned jobs = 0);
    ~ParallelRunner();

    ParallelRunner(const ParallelRunner &) = delete;
    ParallelRunner &operator=(const ParallelRunner &) = delete;

    /** Effective worker count (calling thread included). */
    unsigned jobs() const { return jobs_; }

    /**
     * Run @p body(i) for every i in [0, n), distributed over the
     * pool; returns when all calls finished. Indices are claimed
     * dynamically, so completion order is arbitrary — write results
     * into slot i to keep output deterministic. The first exception
     * thrown by any call is rethrown here after the job drains.
     *
     * Nested calls from inside a worker run inline serially (no
     * deadlock), so a parallel bench row may itself call forEach().
     */
    void forEach(std::size_t n, const std::function<void(std::size_t)> &body);

    /**
     * Map convenience: returns {fn(0), ..., fn(n-1)} in index order
     * regardless of execution order. T must be default-constructible
     * and movable.
     */
    template <typename T, typename Fn>
    std::vector<T>
    map(std::size_t n, Fn fn)
    {
        std::vector<T> out(n);
        forEach(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

  private:
    void workerLoop();

    /** Claim and run indices until the current job is exhausted. */
    void runShare();

    unsigned jobs_;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable cvWork_;
    std::condition_variable cvDone_;

    // Current job; next_/pending_ are claimed/retired lock-free.
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t total_ = 0;
    std::atomic<std::size_t> next_{0};
    std::atomic<std::size_t> pending_{0};
    std::uint64_t generation_ = 0;
    unsigned activeWorkers_ = 0;
    std::exception_ptr firstError_;
    bool stop_ = false;
};

} // namespace deepum::harness
