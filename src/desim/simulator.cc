#include "desim/simulator.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"

namespace vsync::desim
{

void
Simulator::schedule(Time delay, Callback fn)
{
    VSYNC_ASSERT(delay >= 0.0, "negative event delay %g", delay);
    scheduleAt(currentTime + delay, std::move(fn));
}

void
Simulator::scheduleAt(Time t, Callback fn)
{
    VSYNC_ASSERT(t >= currentTime, "event in the past (%g < %g)",
                 t, currentTime);
    queue.push_back({t, nextSeq++, std::move(fn)});
    std::push_heap(queue.begin(), queue.end(), Later{});
}

std::uint64_t
Simulator::run(Time until)
{
    // Wall-clock accounting exists only while a probe is attached.
    std::chrono::steady_clock::time_point wall0;
    if (simProbe)
        wall0 = std::chrono::steady_clock::now();

    std::uint64_t count = 0;
    while (!queue.empty() && queue.front().time <= until) {
        if (simProbe)
            simProbe->onEventDispatched(queue.front().time, queue.size());
        // Move the event out before running it so it may schedule more.
        std::pop_heap(queue.begin(), queue.end(), Later{});
        Event ev = std::move(queue.back());
        queue.pop_back();
        currentTime = ev.time;
        ev.fn();
        ++count;
        ++processed;
    }
    if (queue.empty() && until != infinity && currentTime < until)
        currentTime = until;

    if (simProbe) {
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall0)
                .count();
        simProbe->onRunEnd(currentTime, wall, count);
    }
    return count;
}

} // namespace vsync::desim
