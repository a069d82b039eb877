#include "desim/elements.hh"

#include "common/logging.hh"

namespace vsync::desim
{

DelayElement::DelayElement(Simulator &sim, Signal &in, Signal &out,
                           EdgeDelays delays, bool invert)
    : sim(sim), out(out), edgeDelays(delays), invert(invert)
{
    VSYNC_ASSERT(delays.rise >= 0.0 && delays.fall >= 0.0,
                 "negative element delay (rise=%g fall=%g)",
                 delays.rise, delays.fall);
    in.onChange([this](Time t, bool v) { onInput(t, v); });
}

void
DelayElement::setDelayScale(double scale)
{
    VSYNC_ASSERT(scale > 0.0, "non-positive delay scale %g", scale);
    driftScale = scale;
}

void
DelayElement::onInput(Time t, bool v)
{
    if (dead)
        return;
    const bool out_value = invert ? !v : v;
    Time delay = (out_value ? edgeDelays.rise : edgeDelays.fall) *
                 driftScale;
    if (jitter)
        delay += jitter();
    if (delay < 0.0)
        delay = 0.0;
    const Time at = t + delay;

    if (minPulse <= 0.0) {
        // Pure transport delay: nothing can cancel this event, so it
        // needs no shared flag, and the closure fits std::function's
        // inline buffer -- no heap allocation per event. run() sets
        // now() to the event time before calling it, so sim.now() is
        // exactly `at`.
        sim.scheduleAt(at, [this, out_value]() {
            out.set(sim.now(), out_value);
        });
        if (obs::SimProbe *p = sim.probe())
            p->onElementFired(this, t);
        return;
    }

    // Inertial filtering: if the previous output event has not fired
    // yet and this one follows it by less than the minimum pulse width
    // with opposite polarity, the pulse between them is unphysical --
    // cancel both (the stage never switches).
    if (pending.cancelled && !*pending.cancelled &&
        pending.at >= sim.now() && out_value != pending.value &&
        at - pending.at < minPulse) {
        *pending.cancelled = true;
        pending.cancelled.reset();
        ++swallowed;
        return;
    }

    auto cancelled = std::make_shared<bool>(false);
    pending.at = at;
    pending.value = out_value;
    pending.cancelled = cancelled;

    Signal *target = &out;
    sim.scheduleAt(at, [target, out_value, at, cancelled]() {
        if (!*cancelled)
            target->set(at, out_value);
    });
    if (obs::SimProbe *p = sim.probe())
        p->onElementFired(this, t);
}

} // namespace vsync::desim
