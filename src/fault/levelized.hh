/**
 * @file
 * Faulty clock pulses evaluated net by net instead of event by event.
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
 */

#ifndef VSYNC_FAULT_LEVELIZED_HH
#define VSYNC_FAULT_LEVELIZED_HH

#include <cstdint>
#include <vector>

#include "clocktree/buffering.hh"
#include "desim/elements.hh"
#include "fault/fault_plan.hh"

namespace vsync::fault
{

/**
 * Workspace for levelized faulty pulses. One instance runs any number
 * of trials (its buffers keep their capacity); it is not thread-safe,
 * so use one per thread.
 */
class LevelizedPulse
{
  public:
    /**
     * Drive one pulse (rise at 0, fall at 0.5: desim::ClockNet::drive
     * with period 1 and one cycle) through @p btree with @p plan armed.
     * Nets are the buffered tree's sites.
     *
     * @param delay_of per-site stage delays with ClockNet::DelayFn's
     *                 signature (any callable, so a sweep's lambda
     *                 inlines), called once per non-root site in site
     *                 order, as ClockNet's constructor does.
     * @return false when a same-time tie is not fixed by structure (the
     *         nets' waveforms are then unspecified).
     */
    template <class DelayOf>
    bool
    tree(const clocktree::BufferedClockTree &btree, DelayOf &&delay_of,
         const FaultPlan &plan)
    {
        const std::vector<clocktree::BufferedSite> &sites = btree.sites();
        delays.resize(sites.size());
        for (std::size_t i = 1; i < sites.size(); ++i)
            delays[i] = delay_of(sites[i], i);
        return runTree(btree, plan);
    }

    /**
     * Drive one rising edge at 0 (TrixGrid::pulse) through a rows x
     * cols TRIX grid with @p plan armed. Net n < rows * cols is node
     * (n / cols, n % cols); net rows * cols is the root driver.
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
        delays.resize(3 * static_cast<std::size_t>(rows) *
                      static_cast<std::size_t>(cols));
        std::size_t link = 0;
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < cols; ++c)
                for (int k = 0; k < 3; ++k)
                    delays[link++] =
                        desim::EdgeDelays::same(delay_of(r, c, k));
        return runGrid(rows, cols, plan);
    }

    /** First rising edge on net @p net; infinity if it never rose. */
    Time
    firstRise(std::size_t net) const
    {
        // Every net starts low, so its first transition is a rise.
        return netBegin[net] < netEnd[net] ? waves[netBegin[net]].t
                                           : infinity;
    }

    /** Every rising edge on net @p net, in order (what
     *  ClockNet::risingArrivals records for a site). */
    std::vector<Time> risingArrivals(std::size_t net) const;

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

    /** tree() and grid() once `delays` holds the stage delays. */
    bool runTree(const clocktree::BufferedClockTree &btree,
                 const FaultPlan &plan);
    bool runGrid(int rows, int cols, const FaultPlan &plan);

    static bool before(const Write &a, const Write &b);
    /** The order in which a TRIX node's vote consumes link rises (ties
     *  go to the lower link, which is tried first). */
    static bool transBefore(const Transition &a, const Transition &b);
    static bool sameRunSlot(const Write &a, const Write &b);
    /** True when stage fault @p idx took effect before @p tr. */
    bool onsetBefore(std::uint32_t idx, const Transition &tr) const;

    /** Index the plan's faults by net and by stage. */
    void armPlan(const FaultPlan &plan, std::size_t nets,
                 std::size_t stages);
    /** Undo armPlan's list heads (only the entries it touched). */
    void disarmPlan();

    /** Append to `writes` the writes stage @p stage makes on its
     *  output net for input transitions [first, last). */
    void stageWrites(const Transition *first, const Transition *last,
                     std::size_t stage, const desim::EdgeDelays &d);
    /** A stage without faults driving a net without faults: its
     *  output for @p tr, the @p index-th transition of its input. */
    static Transition shifted(const Transition &tr, std::uint32_t index,
                              const desim::EdgeDelays &d);
    /** The fast path of stageWrites + settle for a stage and output
     *  net without faults: append waves[first, last) shifted. */
    void shiftInto(std::uint32_t first, std::uint32_t last,
                   const desim::EdgeDelays &d,
                   std::vector<Transition> &out) const;
    /**
     * The vote of grid node @p node when it has no net fault, none of
     * its links has a stage fault, and each upstream net @p up[k]
     * carries at most one rise: the node fires once, at the second of
     * its links' shifted rises in transBefore order -- what the merge
     * loop of runGrid computes, without link waveforms. Returns false
     * and changes nothing when the node does not qualify.
     */
    bool voteHealthyNode(std::size_t node, const std::size_t (&up)[3]);
    /** Append the stuck-at and glitch writes aimed at net @p net. */
    void netFaultWrites(std::size_t net);
    /** Apply `writes` to a net that starts low, appending its value
     *  changes to @p out; false on an unresolvable tie. */
    bool settle(std::vector<Transition> &out);

    const FaultPlan *armedPlan = nullptr;
    /** Per net / per stage: first fault index, or -1. */
    std::vector<std::int32_t> netFaultHead;
    std::vector<std::int32_t> stageFaultHead;
    /** Per plan fault: next fault on the same net or stage, or -1. */
    std::vector<std::int32_t> nextFault;

    /** Per stage: tree site i's feeding stage at i (0 unused), grid
     *  link (row * cols + col) * 3 + k at that index. */
    std::vector<desim::EdgeDelays> delays;
    std::vector<Write> writes;
    /** Settled waveforms, net by net: net i owns
     *  waves[netBegin[i], netEnd[i]). */
    std::vector<Transition> waves;
    std::vector<std::uint32_t> netBegin;
    std::vector<std::uint32_t> netEnd;
    /** Grid scratch: one node's three link waveforms. */
    std::vector<Transition> linkWave[3];
};

} // namespace vsync::fault

#endif // VSYNC_FAULT_LEVELIZED_HH
