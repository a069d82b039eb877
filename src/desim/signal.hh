/**
 * @file
 * Boolean signals with change notification.
 */

#ifndef VSYNC_DESIM_SIGNAL_HH
#define VSYNC_DESIM_SIGNAL_HH

#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace vsync::desim
{

class Simulator;

/**
 * A single-bit signal. Writing a new value notifies listeners
 * immediately (zero-delay); delay elements model their latency by
 * scheduling the write itself.
 */
class Signal
{
  public:
    /** (time, new value) change listener. */
    using Listener = std::function<void(Time, bool)>;

    explicit Signal(std::string name = "", bool initial = false)
        : signalName(std::move(name)), current(initial)
    {
    }

    /** Current logic value. */
    bool value() const { return current; }

    /** Time of the most recent value change (-inf before any). */
    Time lastChange() const { return lastChangeTime; }

    /** Number of value changes so far. */
    std::uint64_t transitions() const { return transitionCount; }

    /** Register a change listener. */
    void onChange(Listener fn) { listeners.push_back(std::move(fn)); }

    /**
     * Drive the signal to @p v at time @p t. No-op when the value is
     * unchanged or the signal is stuck. Listeners run synchronously.
     */
    void set(Time t, bool v);

    /**
     * Freeze the signal at @p v from time @p t on (a stuck-at fault):
     * the value changes to @p v now (listeners notified as usual) and
     * every later set() is ignored until releaseStuck(). This is the
     * fault subsystem's stuck-at-clock-net seam.
     */
    void forceStuck(Time t, bool v);

    /** Undo forceStuck (the next set() takes effect normally). */
    void releaseStuck() { stuck = false; }

    /** True while the signal is frozen by forceStuck. */
    bool isStuck() const { return stuck; }

    /** Signal name (for diagnostics). */
    const std::string &name() const { return signalName; }

  private:
    std::string signalName;
    bool current;
    bool stuck = false;
    Time lastChangeTime = -infinity;
    std::uint64_t transitionCount = 0;
    std::vector<Listener> listeners;
};

} // namespace vsync::desim

#endif // VSYNC_DESIM_SIGNAL_HH
