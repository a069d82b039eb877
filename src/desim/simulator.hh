/**
 * @file
 * A minimal discrete-event simulation kernel.
 *
 * Events are (time, callback) pairs processed in time order; ties are
 * broken by insertion order so runs are fully deterministic. The kernel
 * underlies the circuit-level experiments: pipelined clock propagation
 * (several events in flight on a buffered tree, A7/A8), the Section VII
 * inverter-string chip, register setup/hold failure detection, and the
 * Section VI handshake network.
 */

#ifndef VSYNC_DESIM_SIMULATOR_HH
#define VSYNC_DESIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "obs/probe.hh"

namespace vsync::desim
{

/** Discrete-event simulator with a deterministic event order. */
class Simulator
{
  public:
    using Callback = std::function<void()>;

    Simulator() = default;

    /** Current simulation time (ns). */
    Time now() const { return currentTime; }

    /** Schedule @p fn to run @p delay after now. @pre delay >= 0. */
    void schedule(Time delay, Callback fn);

    /**
     * Schedule @p fn at absolute time @p t. @pre t >= now.
     *
     * t == now() is legal: a zero-delay event is queued behind every
     * already-queued event at the current time (insertion order breaks
     * ties) and runs within the same run() call, after the currently
     * executing callback returns.
     */
    void scheduleAt(Time t, Callback fn);

    /**
     * Run until the event queue drains or @p until is reached.
     *
     * Boundary semantics (pinned by test_desim):
     *  - the stop time is *inclusive*: events scheduled exactly at
     *    @p until are processed by this call (the queue condition is
     *    time <= until), and only events strictly later stay queued;
     *  - when the queue drains before a finite @p until, now() advances
     *    to @p until (the horizon is fully consumed); with the default
     *    infinite horizon now() rests at the last processed event.
     *
     * @param until stop time (events after it stay queued); infinity
     *              runs to completion.
     * @return number of events processed by this call.
     */
    std::uint64_t run(Time until = infinity);

    /** True when no events are pending. */
    bool idle() const { return queue.empty(); }

    /** Total events processed since construction. */
    std::uint64_t eventsProcessed() const { return processed; }

    /**
     * Attach an observability probe (nullptr detaches). While
     * attached, run() reports every dispatched event (with the queue
     * depth), measures wall time, and delay elements report their
     * fires; detached, the hot loop pays exactly one branch per event.
     */
    void setProbe(obs::SimProbe *p) { simProbe = p; }

    /** The attached probe (nullptr when observability is off). */
    obs::SimProbe *probe() const { return simProbe; }

  private:
    struct Event
    {
        Time time;
        std::uint64_t seq;
        Callback fn;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    /** Binary heap under Later (std::push_heap / std::pop_heap): a
     *  plain vector so run() can move each callback out instead of
     *  copying it. */
    std::vector<Event> queue;
    Time currentTime = 0.0;
    std::uint64_t nextSeq = 0;
    std::uint64_t processed = 0;
    obs::SimProbe *simProbe = nullptr;
};

} // namespace vsync::desim

#endif // VSYNC_DESIM_SIMULATOR_HH
