#include "fault/trix_grid.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vsync::fault
{

TrixGrid::TrixGrid(desim::Simulator &sim, int rows, int cols,
                   const LinkDelayFn &delay_of)
    : sim(sim), gridRows(rows), gridCols(cols)
{
    VSYNC_ASSERT(rows >= 1 && cols >= 1, "bad grid %dx%d", rows, cols);
    root = &signals.emplace_back("trix_root");
    // Construct every node up front; listeners capture Node pointers,
    // so the vector must never reallocate after this resize.
    nodes.resize(static_cast<std::size_t>(rows) *
                 static_cast<std::size_t>(cols));

    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            Node &node = nodes[static_cast<std::size_t>(r) * cols + c];
            node.out = &signals.emplace_back(csprintf("trix%d_%d", r, c));
            // Record the node's real firing times off the signal, not
            // the voter, so a stuck-at-low output reports "never
            // clocked" and a stuck-at-high fault reports its premature
            // arrival.
            std::vector<Time> *firings = &node.firings;
            node.out->onChange([firings](Time t, bool v) {
                if (v)
                    firings->push_back(t);
            });
            for (int k = 0; k < 3; ++k) {
                // Predecessor column c-1+k, clamped at the edges (edge
                // nodes carry a doubled link from the clamped
                // neighbour -- still a physically distinct buffer, so
                // a single dead link never silences the node).
                const int pc = std::clamp(c - 1 + k, 0, cols - 1);
                desim::Signal &src =
                    r == 0
                        ? *root
                        : *nodes[static_cast<std::size_t>(r - 1) * cols +
                                 pc].out;
                node.linkOut[k] = &signals.emplace_back(
                    csprintf("trix%d_%d.l%d", r, c, k));
                node.links[k] = &elements.emplace_back(
                    sim, src, *node.linkOut[k],
                    desim::EdgeDelays::same(delay_of(r, c, k)));
                Node *np = &node;
                node.linkOut[k]->onChange([np, k](Time t, bool v) {
                    if (v)
                        onLinkRise(*np, k, t);
                });
            }
        }
    }
}

void
TrixGrid::onLinkRise(Node &node, int k, Time t)
{
    ++node.seen[k];
    // Median vote: the node's next pulse fires the moment a second
    // link has delivered a not-yet-consumed rising edge.
    int ready = 0;
    for (int j = 0; j < 3; ++j)
        ready += node.seen[j] > node.fired;
    if (ready >= 2) {
        ++node.fired;
        node.out->set(t, true);
    }
}

std::size_t
TrixGrid::linkIndex(int row, int col, int k) const
{
    VSYNC_ASSERT(row >= 0 && row < gridRows && col >= 0 &&
                     col < gridCols && k >= 0 && k < 3,
                 "bad link (%d,%d,%d)", row, col, k);
    return (static_cast<std::size_t>(row) * gridCols + col) * 3 +
           static_cast<std::size_t>(k);
}

FaultUniverse
TrixGrid::universe(int rows, int cols)
{
    FaultUniverse u;
    const std::size_t n =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    u.bufferSites = 3 * n;
    u.clockNets = n + 1; // node outputs plus the root driver
    u.handshakeWires = 0;
    return u;
}

desim::DelayElement &
TrixGrid::link(std::size_t index)
{
    Node &node = nodes.at(index / 3);
    return *node.links[index % 3];
}

desim::Signal &
TrixGrid::nodeSignal(int row, int col)
{
    return *nodes.at(static_cast<std::size_t>(row) * gridCols + col).out;
}

desim::Signal &
TrixGrid::netSignal(std::size_t index)
{
    if (index == nodes.size())
        return *root;
    return *nodes.at(index).out;
}

void
TrixGrid::pulse(Time start)
{
    desim::Signal *r = root;
    sim.scheduleAt(start, [r, start]() { r->set(start, true); });
    sim.run();
}

Time
TrixGrid::arrival(int row, int col) const
{
    const Node &node =
        nodes.at(static_cast<std::size_t>(row) * gridCols + col);
    return node.firings.empty() ? infinity : node.firings.front();
}

void
TrixGrid::cellArrivals(std::vector<Time> &out) const
{
    out.resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i)
        out[i] = nodes[i].firings.empty() ? infinity
                                          : nodes[i].firings.front();
}

} // namespace vsync::fault
