#include "desim/clock_net.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vsync::desim
{

ClockNet::ClockNet(Simulator &sim, const clocktree::BufferedClockTree &tree,
                   const DelayFn &delay_of)
    : sim(sim), tree(tree)
{
    const auto &sites = tree.sites();
    VSYNC_ASSERT(!sites.empty(), "empty buffered tree");
    arrivals.resize(sites.size());

    for (std::size_t i = 0; i < sites.size(); ++i) {
        signals.emplace_back(csprintf("site%zu", i));
        // Record rising-edge arrivals at every site.
        std::vector<Time> *record = &arrivals[i];
        signals.back().onChange([record](Time t, bool v) {
            if (v)
                record->push_back(t);
        });
    }

    for (std::size_t i = 1; i < sites.size(); ++i)
        elements.emplace_back(sim, signals[sites[i].parent], signals[i],
                              delay_of(sites[i], i), false);
}

Signal &
ClockNet::nodeSignal(NodeId node)
{
    return signals.at(tree.siteOfNode(node));
}

const std::vector<Time> &
ClockNet::risingArrivals(NodeId node) const
{
    return arrivals.at(tree.siteOfNode(node));
}

const std::vector<Time> &
ClockNet::drive(Time period, int cycles, Time start)
{
    source = std::make_unique<PeriodicClock>(sim, rootSignal(), period,
                                             cycles, -1.0, start);
    sourceEdges = source->risingEdgeTimes();
    sim.run();
    return sourceEdges;
}

int
ClockNet::maxEventsInFlight(NodeId node) const
{
    const std::vector<Time> &arr = risingArrivals(node);
    int peak = 0;
    // Just after the k-th emission (1-based), events in flight toward
    // this node = k minus arrivals no later than that emission time.
    for (std::size_t k = 0; k < sourceEdges.size(); ++k) {
        const Time t = sourceEdges[k];
        const auto arrived = static_cast<std::size_t>(
            std::upper_bound(arr.begin(), arr.end(), t) - arr.begin());
        const int in_flight = static_cast<int>(k + 1 - arrived);
        peak = std::max(peak, in_flight);
    }
    return peak;
}

void
ClockNet::setJitter(const DelayElement::JitterFn &jitter)
{
    for (DelayElement &el : elements)
        el.setJitter(jitter);
}

} // namespace vsync::desim
