/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are small-buffer inline callables (sim/inline_fn.hh — no
 * heap allocation for the captures the simulator schedules) ordered
 * by (tick, sequence number); the sequence number makes simultaneous
 * events run in scheduling order, so identical inputs always produce
 * identical simulations. This is the spine every simulated component
 * (GPU, driver threads, PCIe link) hangs off.
 *
 * Internally the queue is one binary min-heap. The simulator never
 * holds more than a couple of pending events, and at that depth a
 * heap push or pop is a handful of compares. See
 * DESIGN.md "Event-queue core" for the design and the determinism
 * contract.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/inline_fn.hh"
#include "sim/types.hh"
#include "support/annotations.hh"

namespace deepum::sim {

class CheckContext;
class Tracer;

/** Callback type executed when an event fires. */
using EventFn = InlineFn;

/**
 * A priority queue of timed callbacks with a deterministic tie-break.
 *
 * Components schedule closures at absolute or relative ticks; run()
 * drains the queue, advancing the simulated clock monotonically.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return the current simulated time. */
    Tick now() const { return curTick_; }

    /**
     * Schedule @p fn at absolute tick @p when.
     * Scheduling in the past aborts with the offending tick.
     */
    void schedule(Tick when, EventFn fn);

    /** Schedule @p fn @p delay ticks from now. */
    void scheduleIn(Tick delay, EventFn fn) { schedule(curTick_ + delay, std::move(fn)); }

    /** @return true if no events remain. */
    bool empty() const { return heap_.empty(); }

    /** @return number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Run until the queue drains or @p limit events have executed.
     * @return the final simulated time.
     *
     * The pop/dispatch machinery is DEEPUM_NOALLOC: draining the
     * queue never allocates (heap pops are in place, invoking the
     * inline callable is one indirect call). The contract covers the
     * queue itself, not the dispatched closure bodies — those are
     * type-erased and audited at their own definition sites.
     */
    DEEPUM_NOALLOC Tick run(std::uint64_t limit = ~std::uint64_t(0));

    /**
     * Execute at most one event.
     * @return true if an event was executed.
     */
    DEEPUM_NOALLOC bool step();

    /**
     * Drop all pending events and return the queue to its freshly
     * constructed state: the clock, the tie-break sequence counter
     * and the executed counter all reset to zero, so independent
     * runs sharing one queue object stay bit-identical to runs on a
     * fresh queue.
     */
    void clear();

    /**
     * Attach (or detach with nullptr) the Tracer that components
     * hanging off this queue emit into. The queue does not own it;
     * null means tracing is off (the default).
     */
    void setTracer(Tracer *t) { tracer_ = t; }

    /** The attached tracer, or nullptr when tracing is disabled. */
    Tracer *tracer() const { return tracer_; }

    /**
     * Audit the heap (sim/validate.hh): no pending event predates the
     * clock (monotonicity), every seq is below the next one to be
     * handed out, and the min-heap property holds.
     */
    void checkInvariants(CheckContext &ctx) const;

    /** Stream a summary of the queue internals (for violation dumps). */
    void dumpState(std::ostream &os) const;

  private:
    struct Entry {
        Tick when;
        std::uint64_t seq;
        EventFn fn;
    };

    /** True when @p a fires after @p b (the (tick, seq) contract). */
    static bool
    later(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    /** Min-heap (via later()) of pending events; front() fires next. */
    std::vector<Entry> heap_;

    Tracer *tracer_ = nullptr;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace deepum::sim
