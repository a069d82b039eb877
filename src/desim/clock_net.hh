/**
 * @file
 * Circuit-level model of a buffered clock distribution tree.
 *
 * A ClockNet instantiates one signal per site of a BufferedClockTree
 * and one delay element per segment (wire delay plus, at buffer sites,
 * the buffer's own rise/fall delays). Driving the root with a
 * PeriodicClock then reproduces pipelined clock distribution: with a
 * period shorter than the root-to-leaf latency several clock events
 * travel the tree at once, which the instrumentation exposes as
 * events-in-flight counts, and per-node arrival times give the realised
 * skew between any two cells.
 */

#ifndef VSYNC_DESIM_CLOCK_NET_HH
#define VSYNC_DESIM_CLOCK_NET_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "clocktree/buffering.hh"
#include "desim/clock_source.hh"
#include "desim/elements.hh"
#include "desim/signal.hh"
#include "desim/simulator.hh"

namespace vsync::desim
{

/** A simulated buffered clock tree. */
class ClockNet
{
  public:
    /**
     * Per-site delay assignment: maps a site (and its index) to the
     * rise/fall delay of the segment-plus-buffer stage feeding it.
     * Callers sample process variation here.
     */
    using DelayFn = std::function<EdgeDelays(
        const clocktree::BufferedSite &, std::size_t)>;

    /**
     * Build the circuit for @p tree on @p sim.
     *
     * @param delay_of per-site stage delays (called once per non-root
     *                 site, in site order -- a deterministic order
     *                 callers may draw variation in).
     */
    ClockNet(Simulator &sim, const clocktree::BufferedClockTree &tree,
             const DelayFn &delay_of);

    ClockNet(const ClockNet &) = delete;
    ClockNet &operator=(const ClockNet &) = delete;

    /** The root signal (drive this with a PeriodicClock). */
    Signal &rootSignal() { return signals.front(); }

    /** Signal at original clock-tree node @p node. */
    Signal &nodeSignal(NodeId node);

    /** Rising-edge arrival times recorded at tree node @p node. */
    const std::vector<Time> &risingArrivals(NodeId node) const;

    /**
     * Emit @p cycles rising edges at @p period into the root and run
     * the simulation to completion.
     *
     * @param start time of the first rising edge (lets callers stage
     *              data before the clock starts).
     * @return times at which the source emitted rising edges.
     */
    const std::vector<Time> &drive(Time period, int cycles,
                                   Time start = 0.0);

    /**
     * Maximum number of clock events simultaneously in flight between
     * the root and @p node during the last drive() (1 means
     * equipotential-like operation; >1 demonstrates pipelining).
     */
    int maxEventsInFlight(NodeId node) const;

    /**
     * Apply @p jitter to every delay element (breaking A8); pass an
     * empty function to restore invariance.
     */
    void setJitter(const DelayElement::JitterFn &jitter);

    /** Number of sites (signals) in the net. */
    std::size_t siteCount() const { return signals.size(); }

    /** Number of delay elements (one per non-root site). */
    std::size_t elementCount() const { return elements.size(); }

    /**
     * Delay element feeding site @p i + 1 of the buffered tree (element
     * i spans the segment from site i+1's parent). Fault-injection
     * seam: fault::FaultInjector kills (dead buffer) or derates
     * (delay drift) stages through this hook.
     */
    DelayElement &element(std::size_t i) { return elements.at(i); }

    /**
     * Signal at buffered-tree site @p i (site 0 is the root).
     * Fault-injection seam for stuck-at nets and transient glitches.
     */
    Signal &siteSignal(std::size_t i) { return signals.at(i); }

  private:
    Simulator &sim;
    const clocktree::BufferedClockTree &tree;
    // Deques: address-stable (listeners point into them) and filled in
    // a few block allocations rather than one per signal or element.
    std::deque<Signal> signals; // per site
    std::deque<DelayElement> elements;
    std::vector<std::vector<Time>> arrivals; // per site, rising edges
    std::unique_ptr<PeriodicClock> source;
    std::vector<Time> sourceEdges;
};

} // namespace vsync::desim

#endif // VSYNC_DESIM_CLOCK_NET_HH
