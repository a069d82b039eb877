/**
 * @file
 * Delay elements: wires, buffers and inverters.
 *
 * All three propagate transitions from an input signal to an output
 * signal after a delay that may differ for rising and falling edges --
 * the asymmetry at the heart of the Section VII analysis. An optional
 * per-transition jitter models a violation of A8 (time-invariant path
 * delay); with jitter, pipelined clocking mis-spaces events, which the
 * ABL3 bench demonstrates.
 */

#ifndef VSYNC_DESIM_ELEMENTS_HH
#define VSYNC_DESIM_ELEMENTS_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "desim/signal.hh"
#include "desim/simulator.hh"

namespace vsync::desim
{

/** Timing of a delay element. */
struct EdgeDelays
{
    /** Output-rising propagation delay (ns). */
    Time rise = 0.0;
    /** Output-falling propagation delay (ns). */
    Time fall = 0.0;

    /** Symmetric delays. */
    static EdgeDelays same(Time d) { return {d, d}; }
};

/**
 * A delay element propagating @p in to @p out, optionally inverting.
 *
 * Transport-delay semantics: every input transition produces an output
 * transition after the corresponding edge delay; events may be in
 * flight simultaneously (that is the point of pipelined clocking).
 */
class DelayElement
{
  public:
    /** Per-transition delay perturbation (models breaking A8). */
    using JitterFn = std::function<Time()>;

    /**
     * @param sim       simulator to schedule on.
     * @param in        input signal (listener attached).
     * @param out       output signal driven by this element.
     * @param delays    rise/fall delays measured at the *output*.
     * @param invert    true for an inverter.
     */
    DelayElement(Simulator &sim, Signal &in, Signal &out,
                 EdgeDelays delays, bool invert = false);

    // The input signal holds a listener bound to `this`; the element
    // must stay at a fixed address (construct in a std::deque or via
    // unique_ptr).
    DelayElement(const DelayElement &) = delete;
    DelayElement &operator=(const DelayElement &) = delete;

    /** Set a jitter source (nullptr restores A8). */
    void setJitter(JitterFn fn) { jitter = std::move(fn); }

    /**
     * Kill or revive the element (a dead-buffer fault): while dead,
     * input transitions are ignored, so nothing downstream of this
     * stage ever switches again. Output events already in flight still
     * fire. Fault-injection seam used by fault::FaultInjector.
     */
    void setDead(bool dead) { this->dead = dead; }

    /** True while the element is killed by setDead. */
    bool isDead() const { return dead; }

    /**
     * Scale both edge delays by @p scale from now on (a delay-drift
     * fault; 1 restores nominal timing). Applied before jitter.
     * Fault-injection seam used by fault::FaultInjector. @pre scale > 0.
     */
    void setDelayScale(double scale);

    /** Current delay-drift factor (1 when nominal). */
    double delayScale() const { return driftScale; }

    /**
     * Enable inertial-delay semantics: an output pulse narrower than
     * @p width is swallowed (the pending opposite transition is
     * cancelled together with the new one), as a real restoring stage
     * would. 0 restores pure transport delay.
     */
    void setMinPulse(Time width) { minPulse = width; }

    /** The element's rise/fall delays. */
    const EdgeDelays &delays() const { return edgeDelays; }

    /** Output transitions swallowed by the inertial filter. */
    std::uint64_t swallowedPulses() const { return swallowed; }

  private:
    Simulator &sim;
    Signal &out;
    EdgeDelays edgeDelays;
    bool invert;
    bool dead = false;
    double driftScale = 1.0;
    JitterFn jitter;
    Time minPulse = 0.0;
    std::uint64_t swallowed = 0;

    /** Pending (not yet fired) output event, for inertial filtering;
     *  transport-delay events (minPulse == 0) are never tracked. */
    struct Pending
    {
        Time at = -1.0;
        bool value = false;
        /** Shared cancellation flag read by the scheduled closure. */
        std::shared_ptr<bool> cancelled;
    };
    Pending pending;

    void onInput(Time t, bool v);
};

} // namespace vsync::desim

#endif // VSYNC_DESIM_ELEMENTS_HH
