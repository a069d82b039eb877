/**
 * @file
 * Faulty clock pulses evaluated net by net instead of event by event,
 * eight trials at a time.
 *
 * A buffered clock tree (desim::ClockNet) and a TRIX grid
 * (fault::TrixGrid) are DAGs that carry one pulse. Under a fault plan
 * each net's waveform is still a short sorted list of transitions, so
 * one pass in topological order -- a tree's sites parent before child,
 * a grid layer by layer -- computes what the desim event queue would,
 * bit for bit:
 *
 *  - a stage shifts its input's transitions by exactly desim's
 *    `t + d * scale`; a dead or drift fault applies to the input
 *    transitions at or after its onset;
 *  - a stuck-at net freezes at its onset; a glitch inverts the level
 *    the net holds and restores it `width` later;
 *  - a TRIX node fires on the second link rise it has not consumed;
 *  - every write follows desim::Signal::set: a write that does not
 *    change the value, or hits a stuck net, does nothing.
 *
 * Writes that land on one net at one time are ordered as desim orders
 * them: first what was scheduled while the plan was armed (fault
 * onsets in plan order, and the rises an onset-0 stuck-high pushes
 * into the stages below it), then the clock source's edges, then the
 * events scheduled during the run -- earlier-scheduled first, and in
 * transition order when one stage writes twice. When two run-time
 * writes from different sources hit one net at one time with
 * different values, and they were scheduled at the same time, their
 * order is not fixed by the structure: the pass reports failure and
 * the caller reruns the trial on a freshly built desim circuit
 * (simulateTreeUnderFaults / simulateGridUnderFaults, the oracle).
 *
 * One pass carries up to eight trials (lanes), each with its own plan
 * and stage delays. Most nets' waveforms are *simple*: `[]`, `[R up]`
 * or, on a tree, `[R up, F down]`, every transition written during the
 * run (or by the clock source). A stage reading such a net looks only
 * at its times, values and indices, so a simple net is kept as two
 * lane-major rows of times -- first rise R and fall F, infinity where
 * absent -- and one SIMD step per net computes all eight lanes: a tree
 * net is `R_parent + d`, `F_parent + d`; a TRIX node is the second
 * smallest of its three `R_up + d`. A stage fault due at once (onset
 * <= 0) acts on every run-time input the same way, so it folds into
 * the lane's stage delay: dead is `+inf`, drift is `d * scale` of the
 * last such drift in plan order. Only a (lane, net) pair whose net has
 * a net fault, whose feeding stage has a later-onset fault, or whose
 * input is not simple in that lane runs the transition-list code; a
 * simple result goes back into the rows.
 */

#ifndef VSYNC_FAULT_LEVELIZED_HH
#define VSYNC_FAULT_LEVELIZED_HH

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "clocktree/buffering.hh"
#include "common/logging.hh"
#include "desim/elements.hh"
#include "fault/fault_plan.hh"

namespace vsync::fault
{

/**
 * Workspace for levelized faulty pulses. One instance runs any number
 * of passes (its buffers keep their capacity); it is not thread-safe,
 * so use one per thread.
 */
class LevelizedPulse
{
  public:
    /** Trials one pass carries. */
    static constexpr std::size_t lanes = 8;

    /**
     * The stage delays of the next treeLanes() / gridLanes() call,
     * stage-major: element s * lanes + j is lane j's delay of stage s
     * (tree stage s feeds site s + 1; grid link (row * cols + col) * 3
     * + k). Sized to @p stages rows; fill the lanes you run before
     * every call, since a pass folds faults into it.
     */
    std::span<double> laneDelays(std::size_t stages);

    /**
     * Drive one pulse (rise at 0, fall at 0.5: desim::ClockNet::drive
     * with period 1 and one cycle) through @p btree once per lane,
     * lane j with plans[j] armed and laneDelays() column j as its
     * stage delays (rise and fall alike). Nets are the tree's sites.
     * @pre 1 <= plans.size() <= lanes.
     * @return bit j set when lane j met a same-time tie that is not
     *         fixed by structure (its nets are then unspecified).
     */
    std::uint8_t treeLanes(const clocktree::BufferedClockTree &btree,
                           std::span<const FaultPlan> plans);

    /**
     * Drive one rising edge at 0 (TrixGrid::pulse) through a rows x
     * cols TRIX grid once per lane, as treeLanes() does. Net n < rows *
     * cols is node (n / cols, n % cols); net rows * cols is the root
     * driver.
     */
    std::uint8_t gridLanes(int rows, int cols,
                           std::span<const FaultPlan> plans);

    /**
     * One trial through @p btree: treeLanes() on one lane.
     *
     * @param delay_of per-site stage delays with ClockNet::DelayFn's
     *                 signature (any callable, so a sweep's lambda
     *                 inlines), called once per non-root site in site
     *                 order, as ClockNet's constructor does; rise and
     *                 fall delays must be equal.
     * @return false when a same-time tie is not fixed by structure.
     */
    template <class DelayOf>
    bool
    tree(const clocktree::BufferedClockTree &btree, DelayOf &&delay_of,
         const FaultPlan &plan)
    {
        const std::vector<clocktree::BufferedSite> &sites = btree.sites();
        const std::span<double> d = laneDelays(sites.size() - 1);
        for (std::size_t i = 1; i < sites.size(); ++i) {
            const desim::EdgeDelays e = delay_of(sites[i], i);
            VSYNC_ASSERT(e.rise == e.fall,
                         "site %zu: levelized stages are symmetric", i);
            d[(i - 1) * lanes] = e.rise;
        }
        return treeLanes(btree, {&plan, 1}) == 0;
    }

    /**
     * One trial through a rows x cols TRIX grid: gridLanes() on one
     * lane.
     *
     * @param delay_of per-link delays with TrixGrid::LinkDelayFn's
     *                 signature (any callable), called once per link in
     *                 (row, col, k) order, as TrixGrid's constructor
     *                 does.
     * @return false as for tree().
     */
    template <class DelayOf>
    bool
    grid(int rows, int cols, DelayOf &&delay_of, const FaultPlan &plan)
    {
        const std::span<double> d = laneDelays(
            3 * static_cast<std::size_t>(rows) *
            static_cast<std::size_t>(cols));
        std::size_t link = 0;
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < cols; ++c)
                for (int k = 0; k < 3; ++k)
                    d[lanes * link++] = delay_of(r, c, k);
        return gridLanes(rows, cols, {&plan, 1}) == 0;
    }

    /** Lane @p lane's first rising edge on net @p net; infinity if it
     *  never rose. */
    Time
    firstRise(std::size_t net, std::size_t lane = 0) const
    {
        return rise[net * lanes + lane];
    }

    /** firstRise() of net @p net in every lane, lane j at [j]; lanes
     *  past the last call's width are unspecified. */
    const Time *
    firstRiseRow(std::size_t net) const
    {
        return rise.data() + net * lanes;
    }

    /** Lane @p lane's rising edges on net @p net, in order (what
     *  ClockNet::risingArrivals records for a site). */
    std::vector<Time> risingArrivals(std::size_t net,
                                     std::size_t lane = 0) const;

    /** The (lane, net) pairs of the last call that ran the
     *  transition-list code instead of the lane rows. */
    std::size_t scalarNets() const { return scalarCount; }

  private:
    /** Where a write sits in desim's event order at its time. */
    enum Phase : std::uint8_t
    {
        /** Applied while arming, before any event (onset <= 0). */
        Armed,
        /** Scheduled while arming; ord is the plan index. */
        Scheduled,
        /** A clock-source edge; ord is the edge index. */
        Source,
        /** Scheduled during the run at time sched; ord orders the
         *  writes of one source. */
        Run,
    };

    enum Op : std::uint8_t
    {
        Set,
        Stuck,
        Glitch,
    };

    /** One value change of a net and the write that caused it. */
    struct Transition
    {
        Time t;
        Time sched;
        std::uint32_t ord;
        Phase phase;
        bool value;
    };

    /** One write to a net. */
    struct Write
    {
        Time t;
        Time sched;
        std::uint32_t ord;
        /** 0 for the stage or voter driving the net, 1 + plan index
         *  for a glitch's restore. */
        std::uint32_t src;
        Phase phase;
        Op op;
        bool value;
        /** Glitch width (Glitch only). */
        Time width;
    };

    static bool before(const Write &a, const Write &b);
    /** The order in which a TRIX node's vote consumes link rises (ties
     *  go to the lower link, which is tried first). */
    static bool transBefore(const Transition &a, const Transition &b);
    static bool sameRunSlot(const Write &a, const Write &b);
    /** True when stage fault @p idx took effect before @p tr. */
    bool onsetBefore(std::uint32_t idx, const Transition &tr) const;

    /**
     * Start a pass: index every lane's faults by net and by stage, mark
     * the nets whose lanes must run the transition-list code, fold the
     * stage faults due at once into `delay`, and size the rows.
     */
    void begin(std::span<const FaultPlan> plans, std::size_t nets,
               std::size_t stages, bool tree);
    /** End a pass: undo begin()'s list heads and marks (only the
     *  entries it touched). */
    void end(bool tree);

    /** Lane j's plan index i is fault g = faultBase[j] + i of the
     *  running pass. */
    std::uint32_t
    planIndex(std::int32_t g) const
    {
        return static_cast<std::uint32_t>(static_cast<std::size_t>(g) -
                                          faultBase[selLane]);
    }
    /** The selected lane's first fault on a net or stage, and the one
     *  after fault @p g on the same site; -1 when there is none. */
    std::int32_t
    netHead(std::size_t net) const
    {
        return netFaultHead[net * lanes + selLane];
    }
    std::int32_t
    stageHead(std::size_t stage) const
    {
        return stageFaultHead[stage * lanes + selLane];
    }
    std::int32_t
    nextOf(std::int32_t g) const
    {
        return nextFault[static_cast<std::size_t>(g)];
    }
    /** The selected lane's unfolded delay of stage @p stage. */
    desim::EdgeDelays stageDelay(std::size_t stage) const;

    /** The transition-list code for net @p net in each lane of
     *  @p mask: @p eval appends the selected lane's waveform to `waves`
     *  (false on an unresolvable tie), and commit() records it. */
    template <class Eval>
    void eachLane(std::size_t net, std::uint8_t mask, Eval &&eval);
    /** Net @p net's waveform in the selected lane into inWave[k]. */
    void loadInput(int k, std::size_t net);
    /** The selected lane's waveform of the root @p net (the clock
     *  source and its net faults), of tree site @p net below
     *  @p parent, or of grid node @p node fed by nets @p up, appended
     *  to `waves`; false on an unresolvable tie. */
    bool rootNet(std::size_t net);
    bool treeNet(std::size_t net, std::size_t parent);
    bool gridNode(std::size_t node, const std::size_t (&up)[3]);
    /** Record waves[first, end) as the selected lane's waveform of
     *  net @p net: in the rows when simple, else kept as a list. */
    void commit(std::size_t net, std::size_t first, bool ok);

    /** Append to `writes` the writes stage @p stage makes on its
     *  output net for input transitions [first, last). */
    void stageWrites(const Transition *first, const Transition *last,
                     std::size_t stage, const desim::EdgeDelays &d);
    /** A stage without faults driving a net without faults: its
     *  output for @p in, appended to @p out -- what stageWrites +
     *  settle would produce, without the general case. */
    static void shiftInto(const std::vector<Transition> &in,
                          const desim::EdgeDelays &d,
                          std::vector<Transition> &out);
    /** Append the stuck-at and glitch writes aimed at net @p net. */
    void netFaultWrites(std::size_t net);
    /** Apply `writes` to a net that starts low, appending its value
     *  changes to @p out; false on an unresolvable tie. */
    bool settle(std::vector<Transition> &out);

    /** The plans of the running pass, and the lane the
     *  transition-list code is evaluating. */
    std::span<const FaultPlan> armedPlans;
    std::size_t selLane = 0;
    /** Per (net or stage, lane) at index * lanes + lane: the lane's
     *  first fault there, or -1; per fault: the lane's next on the same
     *  site, or -1. */
    std::vector<std::int32_t> netFaultHead;
    std::vector<std::int32_t> stageFaultHead;
    std::vector<std::int32_t> nextFault;
    std::array<std::size_t, lanes> faultBase{};
    /** Per net: lanes with a net fault there or a later-onset fault on
     *  a stage feeding it. */
    std::vector<std::uint8_t> forced;

    /** Stage-major lane delays (see laneDelays()), and at the head of
     *  each lane's stage list the caller's delay before folding. */
    std::vector<double> delay;
    std::vector<double> unfolded;

    /** Net-major lane rows: first rise and (trees) fall; infinity
     *  where absent. */
    std::vector<Time> rise;
    std::vector<Time> fall;
    /** Per net: lanes whose waveform is not simple. Lane j's is then
     *  waves[begin, end) of spanOf(net, j): the net's spans start at
     *  spans[spanAt[net]], one per such lane in lane order. */
    struct Span
    {
        std::uint32_t begin;
        std::uint32_t end;
    };
    const Span &
    spanOf(std::size_t net, std::size_t lane) const
    {
        const unsigned below = nonSimple[net] & ((1u << lane) - 1u);
        return spans[spanAt[net] +
                     static_cast<std::size_t>(std::popcount(below))];
    }
    std::vector<std::uint8_t> nonSimple;
    std::vector<std::uint32_t> spanAt;
    std::vector<Span> spans;
    std::vector<Transition> waves;
    /** Longest simple waveform: 2 on a tree, 1 on a grid. */
    std::size_t simpleLen = 2;
    /** Lanes of the running pass that met an unresolvable tie. */
    std::uint8_t failed = 0;
    std::size_t scalarCount = 0;

    std::vector<Write> writes;
    /** Scalar scratch: a net's input waveforms, and a grid node's
     *  three link waveforms. */
    std::vector<Transition> inWave[3];
    std::vector<Transition> linkWave[3];
};

} // namespace vsync::fault

#endif // VSYNC_FAULT_LEVELIZED_HH
