/**
 * @file
 * Tests for the discrete-event kernel, signals, delay elements,
 * registers and the periodic clock source.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "desim/clock_source.hh"
#include "desim/elements.hh"
#include "desim/register.hh"
#include "desim/signal.hh"
#include "desim/simulator.hh"

namespace
{

using namespace vsync;
using namespace vsync::desim;

TEST(Simulator, ProcessesInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(3.0, [&order]() { order.push_back(3); });
    sim.schedule(1.0, [&order]() { order.push_back(1); });
    sim.schedule(2.0, [&order]() { order.push_back(2); });
    EXPECT_EQ(sim.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SimultaneousEventsKeepInsertionOrder)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        sim.schedule(1.0, [&order, i]() { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleMoreEvents)
{
    Simulator sim;
    int count = 0;
    std::function<void()> tick = [&]() {
        if (++count < 10)
            sim.schedule(1.0, tick);
    };
    sim.schedule(0.0, tick);
    sim.run();
    EXPECT_EQ(count, 10);
    EXPECT_DOUBLE_EQ(sim.now(), 9.0);
}

TEST(Simulator, RunUntilLeavesFutureEvents)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(1.0, [&fired]() { ++fired; });
    sim.schedule(5.0, [&fired]() { ++fired; });
    sim.run(2.0);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(sim.idle());
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Signal, NotifiesOnChangeOnly)
{
    Signal s("s");
    int changes = 0;
    s.onChange([&changes](Time, bool) { ++changes; });
    s.set(1.0, true);
    s.set(2.0, true); // no change
    s.set(3.0, false);
    EXPECT_EQ(changes, 2);
    EXPECT_EQ(s.transitions(), 2u);
    EXPECT_DOUBLE_EQ(s.lastChange(), 3.0);
}

TEST(DelayElement, BufferPropagatesWithEdgeDelays)
{
    Simulator sim;
    Signal in("in"), out("out");
    DelayElement buf(sim, in, out, {2.0, 5.0}, false);
    std::vector<std::pair<Time, bool>> events;
    out.onChange([&events](Time t, bool v) { events.emplace_back(t, v); });

    sim.schedule(0.0, [&in, &sim]() { in.set(sim.now(), true); });
    sim.schedule(10.0, [&in, &sim]() { in.set(sim.now(), false); });
    sim.run();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_DOUBLE_EQ(events[0].first, 2.0);  // rise after 2
    EXPECT_TRUE(events[0].second);
    EXPECT_DOUBLE_EQ(events[1].first, 15.0); // fall after 5
    EXPECT_FALSE(events[1].second);
}

TEST(DelayElement, InverterFlipsPolarity)
{
    Simulator sim;
    Signal in("in"), out("out");
    DelayElement inv(sim, in, out, {1.0, 1.0}, true);
    sim.schedule(0.0, [&in, &sim]() { in.set(sim.now(), true); });
    sim.run();
    EXPECT_FALSE(out.value()); // input rose -> output falls (from 0, no
                               // transition recorded but stays low)
    EXPECT_EQ(out.transitions(), 0u);

    // Drive input low: output should rise.
    sim.schedule(0.0, [&in, &sim]() { in.set(sim.now(), false); });
    sim.run();
    EXPECT_TRUE(out.value());
}

TEST(DelayElement, MultipleEventsInFlight)
{
    // Transport delay: edges queued faster than the delay all arrive.
    Simulator sim;
    Signal in("in"), out("out");
    DelayElement buf(sim, in, out, {10.0, 10.0}, false);
    int transitions = 0;
    out.onChange([&transitions](Time, bool) { ++transitions; });
    for (int k = 0; k < 6; ++k) {
        sim.schedule(k * 1.0, [&in, &sim, k]() {
            in.set(sim.now(), k % 2 == 0);
        });
    }
    sim.run();
    EXPECT_EQ(transitions, 6);
}

TEST(DelayElement, JitterBreaksInvariance)
{
    Simulator sim;
    Signal in("in"), out("out");
    DelayElement buf(sim, in, out, {1.0, 1.0}, false);
    double next_jitter = 0.0;
    buf.setJitter([&next_jitter]() { return next_jitter; });
    std::vector<Time> arrivals;
    out.onChange([&arrivals](Time t, bool) { arrivals.push_back(t); });

    next_jitter = 0.5;
    sim.schedule(0.0, [&in, &sim]() { in.set(sim.now(), true); });
    sim.run();
    next_jitter = 0.0;
    sim.schedule(0.0, [&in, &sim]() { in.set(sim.now(), false); });
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_DOUBLE_EQ(arrivals[0], 1.5);
}

TEST(DelayElement, InertialModeSwallowsNarrowPulses)
{
    Simulator sim;
    Signal in("in"), out("out");
    DelayElement buf(sim, in, out, {1.0, 1.0}, false);
    buf.setMinPulse(2.0);
    int transitions = 0;
    out.onChange([&transitions](Time, bool) { ++transitions; });

    // A 0.5-wide pulse: narrower than the 2.0 inertia -> swallowed.
    sim.schedule(0.0, [&in, &sim]() { in.set(sim.now(), true); });
    sim.schedule(0.5, [&in, &sim]() { in.set(sim.now(), false); });
    sim.run();
    EXPECT_EQ(transitions, 0);
    EXPECT_EQ(buf.swallowedPulses(), 1u);

    // A 5-wide pulse passes intact.
    sim.schedule(0.0, [&in, &sim]() { in.set(sim.now(), true); });
    sim.schedule(5.0, [&in, &sim]() { in.set(sim.now(), false); });
    sim.run();
    EXPECT_EQ(transitions, 2);
}

TEST(DelayElement, InertialModeKeepsWidePulseTrains)
{
    Simulator sim;
    Signal in("in"), out("out");
    DelayElement buf(sim, in, out, {1.0, 1.0}, false);
    buf.setMinPulse(0.5);
    int transitions = 0;
    out.onChange([&transitions](Time, bool) { ++transitions; });
    for (int k = 0; k < 8; ++k) {
        sim.schedule(k * 2.0, [&in, &sim, k]() {
            in.set(sim.now(), k % 2 == 0);
        });
    }
    sim.run();
    EXPECT_EQ(transitions, 8);
    EXPECT_EQ(buf.swallowedPulses(), 0u);
}

TEST(Register, CapturesOnRisingEdge)
{
    Simulator sim;
    Signal d("d"), clk("clk"), q("q");
    Register reg(sim, d, clk, q, 1.0, 0.5, 0.25);

    sim.schedule(0.0, [&d, &sim]() { d.set(sim.now(), true); });
    sim.schedule(5.0, [&clk, &sim]() { clk.set(sim.now(), true); });
    sim.schedule(7.0, [&clk, &sim]() { clk.set(sim.now(), false); });
    sim.run();
    EXPECT_TRUE(q.value());
    EXPECT_EQ(reg.edgesSeen(), 1u);
    EXPECT_TRUE(reg.violations().empty());
}

TEST(Register, DetectsSetupViolation)
{
    Simulator sim;
    Signal d("d"), clk("clk"), q("q");
    Register reg(sim, d, clk, q, 1.0, 0.5, 0.25);

    sim.schedule(4.5, [&d, &sim]() { d.set(sim.now(), true); });
    sim.schedule(5.0, [&clk, &sim]() { clk.set(sim.now(), true); });
    sim.run();
    ASSERT_EQ(reg.violations().size(), 1u);
    EXPECT_TRUE(reg.violations()[0].setup);
    EXPECT_DOUBLE_EQ(reg.violations()[0].separation, 0.5);
}

TEST(Register, DetectsHoldViolation)
{
    Simulator sim;
    Signal d("d"), clk("clk"), q("q");
    Register reg(sim, d, clk, q, 1.0, 0.5, 0.25);

    sim.schedule(1.0, [&d, &sim]() { d.set(sim.now(), true); });
    sim.schedule(5.0, [&clk, &sim]() { clk.set(sim.now(), true); });
    sim.schedule(5.3, [&d, &sim]() { d.set(sim.now(), false); });
    sim.run();
    ASSERT_EQ(reg.violations().size(), 1u);
    EXPECT_FALSE(reg.violations()[0].setup);
    EXPECT_NEAR(reg.violations()[0].separation, 0.3, 1e-12);
}

TEST(Register, CleanTimingHasNoViolations)
{
    Simulator sim;
    Signal d("d"), clk("clk"), q("q");
    Register reg(sim, d, clk, q, 1.0, 0.5, 0.25);
    // Data changes well before each edge and stays stable after.
    for (int k = 0; k < 4; ++k) {
        const Time base = k * 10.0;
        sim.schedule(base + 2.0, [&d, &sim, k]() {
            d.set(sim.now(), k % 2 == 0);
        });
        sim.schedule(base + 6.0,
                     [&clk, &sim]() { clk.set(sim.now(), true); });
        sim.schedule(base + 8.0,
                     [&clk, &sim]() { clk.set(sim.now(), false); });
    }
    sim.run();
    EXPECT_EQ(reg.edgesSeen(), 4u);
    EXPECT_TRUE(reg.violations().empty());
}

TEST(Simulator, RunUntilIsInclusiveOfTheStopTime)
{
    // Boundary semantics pinned by simulator.hh: events exactly at the
    // stop time are processed; strictly later ones stay queued.
    Simulator sim;
    std::vector<int> ran;
    sim.schedule(1.0, [&ran]() { ran.push_back(1); });
    sim.schedule(2.0, [&ran]() { ran.push_back(2); });
    sim.schedule(3.0, [&ran]() { ran.push_back(3); });
    EXPECT_EQ(sim.run(2.0), 2u);
    EXPECT_EQ(ran, (std::vector<int>{1, 2}));
    EXPECT_FALSE(sim.idle());
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, DrainingBeforeAFiniteUntilAdvancesNowToUntil)
{
    Simulator sim;
    sim.schedule(1.0, []() {});
    EXPECT_EQ(sim.run(5.0), 1u);
    EXPECT_DOUBLE_EQ(sim.now(), 5.0); // horizon fully consumed
    // With the default infinite horizon now() rests at the last event.
    Simulator sim2;
    sim2.schedule(1.0, []() {});
    sim2.run();
    EXPECT_DOUBLE_EQ(sim2.now(), 1.0);
}

TEST(Simulator, ScheduleAtNowRunsInTheSameRunAfterQueuedPeers)
{
    // A zero-delay event queues behind already-queued events at the
    // same time (insertion order) and still runs within this run().
    Simulator sim;
    std::vector<int> order;
    sim.schedule(1.0, [&sim, &order]() {
        order.push_back(1);
        sim.scheduleAt(sim.now(), [&order]() { order.push_back(3); });
    });
    sim.schedule(1.0, [&order]() { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(DelayElement, TransportAndInertialEventsLandAtTheSameTimes)
{
    // The allocation-free transport path (no minimum pulse) and the
    // cancellable inertial path must deliver identical edges when no
    // pulse is narrow enough to swallow.
    std::vector<std::vector<Time>> edges(2);
    for (int inertial = 0; inertial < 2; ++inertial) {
        Simulator sim;
        Signal in("in"), mid("mid"), out("out");
        DelayElement a(sim, in, mid, {0.3, 0.7}, false);
        DelayElement b(sim, mid, out, {1.1, 0.2}, true);
        if (inertial) {
            a.setMinPulse(1e-9);
            b.setMinPulse(1e-9);
        }
        out.onChange([&edges, inertial](Time t, bool) {
            edges[inertial].push_back(t);
        });
        for (int k = 0; k < 6; ++k)
            sim.schedule(0.1 + 2.0 * k, [&in, &sim, k]() {
                in.set(sim.now(), k % 2 == 0);
            });
        sim.run();
    }
    // Six input edges; the inverter's output starts low, so the first
    // (low-going) one is no change.
    EXPECT_EQ(edges[0].size(), 5u);
    EXPECT_EQ(edges[0], edges[1]);
}

TEST(PeriodicClock, EmitsRequestedEdges)
{
    Simulator sim;
    Signal clk("clk");
    std::vector<std::pair<Time, bool>> events;
    clk.onChange([&events](Time t, bool v) { events.emplace_back(t, v); });
    PeriodicClock src(sim, clk, 10.0, 3, 4.0, 100.0);
    sim.run();
    ASSERT_EQ(events.size(), 6u);
    EXPECT_DOUBLE_EQ(events[0].first, 100.0);
    EXPECT_DOUBLE_EQ(events[1].first, 104.0);
    EXPECT_DOUBLE_EQ(events[2].first, 110.0);
    EXPECT_EQ(src.risingEdgeTimes().size(), 3u);
}

} // namespace
