#include "harness/parallel.hh"

#include <algorithm>

namespace deepum::harness {

namespace {

/** Set while the current thread is inside a pool worker. */
thread_local bool tls_in_worker = false;

} // namespace

ParallelRunner::ParallelRunner(unsigned jobs)
    : jobs_(jobs != 0
                ? jobs
                : std::max(1u, std::thread::hardware_concurrency()))
{
    // The calling thread is worker #0; spawn the rest.
    workers_.reserve(jobs_ - 1);
    for (unsigned i = 1; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ParallelRunner::~ParallelRunner()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cvWork_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ParallelRunner::runShare()
{
    // The caller thread runs shares too; while it does, it counts
    // as a worker so nested forEach() calls from inside a body take
    // the serial-inline path instead of clobbering the active job.
    const bool prev_in_worker = tls_in_worker;
    tls_in_worker = true;
    for (;;) {
        std::size_t i = next_.fetch_add(1, std::memory_order_acq_rel);
        if (i >= total_) {
            tls_in_worker = prev_in_worker;
            return;
        }
        try {
            (*body_)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Lock so the notify cannot slip between the waiter's
            // predicate check and its sleep.
            std::lock_guard<std::mutex> lk(mu_);
            cvDone_.notify_all();
        }
    }
}

void
ParallelRunner::workerLoop()
{
    tls_in_worker = true;
    std::unique_lock<std::mutex> lk(mu_);
    std::uint64_t seen = 0;
    for (;;) {
        cvWork_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        ++activeWorkers_;
        lk.unlock();
        runShare();
        lk.lock();
        if (--activeWorkers_ == 0)
            cvDone_.notify_all();
    }
}

void
ParallelRunner::forEach(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (jobs_ <= 1 || n == 1 || tls_in_worker) {
        // Serial fallback: exactly the old loop, same thread. Nested
        // calls from a worker take this path, so a parallel row may
        // itself use pool-aware helpers without deadlocking.
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    {
        std::lock_guard<std::mutex> lk(mu_);
        body_ = &body;
        total_ = n;
        pending_.store(n, std::memory_order_relaxed);
        next_.store(0, std::memory_order_release);
        firstError_ = nullptr;
        ++generation_;
    }
    cvWork_.notify_all();

    // The caller is worker #0.
    runShare();

    std::unique_lock<std::mutex> lk(mu_);
    cvDone_.wait(lk, [&] {
        return pending_.load(std::memory_order_acquire) == 0 &&
               activeWorkers_ == 0;
    });
    body_ = nullptr;
    if (firstError_)
        std::rethrow_exception(firstError_);
}

} // namespace deepum::harness
