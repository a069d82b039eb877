#include "desim/signal.hh"

namespace vsync::desim
{

void
Signal::set(Time t, bool v)
{
    if (stuck || v == current)
        return;
    current = v;
    lastChangeTime = t;
    ++transitionCount;
    for (const Listener &fn : listeners)
        fn(t, v);
}

void
Signal::forceStuck(Time t, bool v)
{
    stuck = false; // a new stuck-at fault overrides an earlier one
    set(t, v);
    stuck = true;
}

} // namespace vsync::desim
