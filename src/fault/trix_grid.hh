/**
 * @file
 * TRIX-style redundant clock distribution grid with median voting
 * (after Wiederhake & Lenzen's TRIX and Lenzen & Srinivas' Gradient
 * TRIX).
 *
 * Clock pulses propagate layer by layer through a rows x cols grid of
 * nodes. Every node receives the pulse over three physically distinct
 * links from the previous layer (columns c-1, c, c+1, clamped at the
 * grid edge, so edge nodes carry a doubled link from the clamped
 * neighbour; layer 0 takes all three links from the root driver) and
 * fires on the MEDIAN of its three arrivals -- the second link pulse
 * to arrive. A single dead or slow link is therefore outvoted: the
 * median of {a, b, dead} is max(a, b) and with nominal delays equals
 * the nominal arrival exactly, so any single buffer fault causes zero
 * skew degradation. A binary clock tree, by contrast, loses the whole
 * subtree below a dead buffer.
 *
 * The grid is simulated on desim with the same DelayElement/Signal
 * primitives as ClockNet, so fault::FaultInjector's seams (setDead,
 * setDelayScale, forceStuck, glitches) apply to tree and grid alike,
 * and core::skewFromArrivals consumes both through the identical
 * per-cell arrival-time surface.
 */

#ifndef VSYNC_FAULT_TRIX_GRID_HH
#define VSYNC_FAULT_TRIX_GRID_HH

#include <array>
#include <deque>
#include <functional>
#include <vector>

#include "desim/elements.hh"
#include "desim/signal.hh"
#include "desim/simulator.hh"
#include "fault/fault_plan.hh"

namespace vsync::fault
{

/** A simulated redundant median-voting clock grid. */
class TrixGrid
{
  public:
    /**
     * Per-link delay assignment: maps (row, col, k) -- link k in
     * {0, 1, 2} feeding node (row, col) -- to that link's delay.
     * Callers sample process variation here, like ClockNet::DelayFn.
     */
    using LinkDelayFn = std::function<Time(int row, int col, int k)>;

    /**
     * Build the grid circuit on @p sim.
     *
     * @param delay_of per-link stage delay (called once per link in
     *                 row-major (row, col, k) order -- a deterministic
     *                 order callers may draw variation in).
     */
    TrixGrid(desim::Simulator &sim, int rows, int cols,
             const LinkDelayFn &delay_of);

    TrixGrid(const TrixGrid &) = delete;
    TrixGrid &operator=(const TrixGrid &) = delete;

    int rows() const { return gridRows; }
    int cols() const { return gridCols; }

    /** Grid nodes (= cells clocked, row-major). */
    std::size_t nodeCount() const { return nodes.size(); }

    /** Redundant links (3 per node). */
    std::size_t linkCount() const { return 3 * nodes.size(); }

    /** Flat index of link @p k feeding node (row, col). */
    std::size_t linkIndex(int row, int col, int k) const;

    /** The fault universe of a rows x cols grid (net index nodeCount()
     *  is the root driver). */
    static FaultUniverse universe(int rows, int cols);

    /** Same universe for this instance. */
    FaultUniverse universe() const
    {
        return universe(gridRows, gridCols);
    }

    /** Link delay element @p index (fault-injection seam). */
    desim::DelayElement &link(std::size_t index);

    /** Output signal of node (row, col) (fault-injection seam). */
    desim::Signal &nodeSignal(int row, int col);

    /** Net signal by flat index; index nodeCount() is the root. */
    desim::Signal &netSignal(std::size_t index);

    /** The root clock driver signal. */
    desim::Signal &rootSignal() { return *root; }

    /**
     * Emit one rising edge into the root at @p start and run the
     * simulation to completion.
     */
    void pulse(Time start = 0.0);

    /** First firing time of node (row, col); infinity if it never
     *  fired. */
    Time arrival(int row, int col) const;

    /**
     * Per-cell first arrival times for a row-major rows x cols layout
     * (cell r * cols + c is clocked by node (r, c)) -- the surface
     * core::skewFromArrivals consumes, shared with the faulty-tree
     * driver so tree and grid compare under identical fault plans.
     * Written into @p out, resized to the node count (its capacity is
     * reused across trials).
     */
    void cellArrivals(std::vector<Time> &out) const;

    /** Nominal root-to-layer-@p row delay when every link has delay
     *  @p link_delay (layer r is r + 1 links deep). */
    static Time nominalArrival(int row, Time link_delay)
    {
        return static_cast<Time>(row + 1) * link_delay;
    }

  private:
    /** One grid node: 3 incoming links and a median-voted output. */
    struct Node
    {
        std::array<desim::Signal *, 3> linkOut{};
        std::array<desim::DelayElement *, 3> links{};
        desim::Signal *out = nullptr;
        /** Rising edges seen per link. */
        std::array<int, 3> seen{{0, 0, 0}};
        /** Pulses fired so far. */
        int fired = 0;
        /** Firing times. */
        std::vector<Time> firings;
    };

    desim::Simulator &sim;
    int gridRows;
    int gridCols;
    // Deques: address-stable (nodes and listeners point into them) and
    // filled in a few block allocations rather than one per object.
    std::deque<desim::Signal> signals;       // root, then per node
    std::deque<desim::DelayElement> elements; // 3 links per node
    desim::Signal *root = nullptr;
    std::vector<Node> nodes; // row-major; stable after construction

    static void onLinkRise(Node &node, int k, Time t);
};

} // namespace vsync::fault

#endif // VSYNC_FAULT_TRIX_GRID_HH
