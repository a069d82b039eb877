/**
 * @file
 * Resilience sweeps: yield and graceful degradation under faults.
 *
 * Where sweeps.hh asks "how fast is a healthy chip", these sweeps ask
 * "how much survives a broken one". Each trial draws a FaultPlan from
 * its private substream (fault::FaultPlan, so plans are bit-identical
 * at any thread count), arms it on a simulated clock distribution --
 * a buffered H-tree or spine (ClockNet) or the redundant TRIX grid --
 * and measures the realised per-cell arrival surface: the fraction of
 * cells still correctly clocked and the maximum skew between
 * communicating cells that both got a clock. Sweeping the fault rate
 * yields the graceful-degradation curves BENCH_fault_tolerance plots;
 * hybridSurvivalSweep does the same for the Section VI handshake
 * network under severed wires.
 *
 * All sweeps obey the Monte-Carlo determinism contract: results are
 * bit-identical for any cfg.threads.
 */

#ifndef VSYNC_MC_RESILIENCE_HH
#define VSYNC_MC_RESILIENCE_HH

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "clocktree/buffering.hh"
#include "clocktree/clock_tree.hh"
#include "core/skew_kernel.hh"
#include "core/wire_delay.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "hybrid/network.hh"
#include "layout/layout.hh"
#include "mc/montecarlo.hh"

namespace vsync::obs
{
class Counter;
} // namespace vsync::obs

namespace vsync::mc
{

/** The clock distribution schemes the resilience sweeps compare. */
enum class DistributionKind
{
    /** Buffered equidistant H-tree (Theorem 2's scheme). */
    HTree,
    /** Buffered spine along the array (Theorem 3's scheme). */
    Spine,
    /** Redundant median-voting grid (fault::TrixGrid). */
    TrixGrid,
};

/** Human-readable distribution name. */
std::string distributionKindName(DistributionKind kind);

/** Physical constants of the simulated distributions. */
struct ResilienceConfig
{
    /** Per-unit wire-delay spread (the Section III m and eps). */
    core::WireDelay delay{0.05, 0.005};
    /** Buffer insertion delay per stage (ns). */
    Time bufferDelay = 0.2;
    /** Buffer spacing along tree wires (lambda, A7). */
    Length bufferSpacing = 4.0;
};

/** One point of a graceful-degradation curve. */
struct ResiliencePoint
{
    /** Per-site fault rate this point was measured at. */
    double faultRate = 0.0;
    /** Max skew over fully clocked comm pairs, per trial. */
    McResult maxCommSkew;
    /** Fraction of cells still clocked, per trial. */
    McResult clockedFraction;
    /** Mean number of faults injected per trial. */
    double meanFaults = 0.0;
};

/**
 * The immutable half of a resilience experiment: the distribution under
 * test (a buffered tree, or the grid dimensions), its fault universe,
 * the net that clocks each cell, and the compiled kernel. It does not
 * depend on the fault rates or the wire-delay spread, so one instance
 * serves every rate: serve::ScenarioCache keeps one per shape, and a
 * repeated shape only sets its rates. Safe to share across threads.
 */
struct ResilienceDistribution
{
    DistributionKind kind = DistributionKind::HTree;
    int rows = 0;
    int cols = 0;
    /** Tree distributions only; empty for TrixGrid. */
    clocktree::BufferedClockTree btree;
    fault::FaultUniverse universe;
    /** Per cell, the net that clocks it: the buffered-tree site of its
     *  tree node, or grid node r * cols + c for cell r * cols + c. */
    std::vector<std::size_t> cellNet;
    /** Tree-compiled, or pairs-only for TrixGrid. */
    std::shared_ptr<const core::SkewKernel> kernel;
};

/**
 * Build the distribution for @p kind over a rows x cols mesh layout
 * @p l (cells row-major): tree distributions are buffered every
 * @p buffer_spacing, and the kernel comes from @p kernels
 * (tree-compiled, or pairs-only for TrixGrid).
 */
std::shared_ptr<const ResilienceDistribution>
compileResilienceDistribution(const layout::Layout &l, int rows, int cols,
                              DistributionKind kind, Length buffer_spacing,
                              const core::KernelProvider &kernels);

/**
 * The shared read-only state of one resilience experiment, built once
 * before the trial fan-out: a shared ResilienceDistribution plus the
 * fault rates and delay constants of this experiment. serve::
 * SweepService builds one per resilience request around the cached
 * distribution of its shape and runs its trials on the shared pool.
 */
struct ResilienceScenario
{
    ResilienceScenario(std::shared_ptr<const ResilienceDistribution> d,
                       const fault::FaultRates &r,
                       const ResilienceConfig &config);
    /** Declared so that no move constructor is: a moved-from scenario
     *  would keep btree and kernel while its dist no longer holds
     *  what they refer to. */
    ResilienceScenario(const ResilienceScenario &) = default;

    /** The distribution under test, never null. */
    std::shared_ptr<const ResilienceDistribution> dist;
    /** dist's buffered tree and kernel. */
    const clocktree::BufferedClockTree &btree;
    const std::shared_ptr<const core::SkewKernel> &kernel;
    fault::FaultRates rates;
    ResilienceConfig rc;

    /**
     * One trial, bit-identical for any thread count: draws the fault
     * plan and the wire delays from disjoint substreams of
     * Rng::forTrial(seed, trial), arms the plan on a freshly built
     * desim circuit and drives one clock pulse -- the event-driven
     * oracle runTrialBlock's levelized pass is tested against.
     * @p kind_counters, when set, receives one inc() per planned fault
     * on the counter of its kind.
     */
    fault::DistributionOutcome
    runTrial(std::uint64_t seed, std::uint64_t trial,
             const std::array<obs::Counter *, fault::faultKindCount>
                 *kind_counters = nullptr) const;

    /**
     * The trial-range entry point every resilience sweep runs on:
     * trials [first_trial, first_trial + count) for any count, in
     * core::SkewKernel::blockWidth() lane blocks plus one narrower
     * remainder. A block draws its trials' fault plans together
     * (fault::FaultPlan::generateBlock) and their wire delays through
     * RngLanes8 into a stage-major lane matrix -- the draws runTrial
     * makes, bit for bit -- and evaluates the eight faulty pulses
     * together in one levelized lane pass
     * (fault::LevelizedPulse::treeLanes / gridLanes) instead of a
     * desim event queue. The block's per-cell
     * first arrivals are one lane-row copy per cell into a lane-major
     * matrix reduced by a single core::SkewKernel::arrivalSkewBlock
     * call: trial j's slots are bitwise what runTrial would have
     * produced, whatever range the caller cuts. A trial whose pass
     * meets a same-time tie desim orders by event sequence reruns on a
     * freshly built desim circuit and counts one inc() on @p fallbacks
     * when set; @p scalar_nets, when set, gets one inc() per call with
     * the (trial, net) pairs that took the pass's transition-list
     * path. @p lane_scratch is reusable across calls on the same
     * thread, and so are the pass's own buffers, which the calling
     * thread keeps for shapes up to a fixed size. Returns the RNG draws
     * the range consumed (plan plus delay substreams).
     */
    std::uint64_t
    runTrialBlock(std::uint64_t seed, std::uint64_t first_trial,
                  std::size_t count, std::span<double> out_skew,
                  std::span<double> out_clocked,
                  std::span<double> out_faults,
                  const std::array<obs::Counter *, fault::faultKindCount>
                      *kind_counters,
                  std::vector<Time> &lane_scratch,
                  obs::Counter *fallbacks = nullptr,
                  obs::Counter *scalar_nets = nullptr) const;
};

/**
 * compileResilienceDistribution for @p rc.bufferSpacing around
 * fault::FaultRates::mixed(fault_rate): the state resilienceAtRate
 * fans trials over.
 */
ResilienceScenario
compileResilienceScenario(const layout::Layout &l, int rows, int cols,
                          DistributionKind kind, double fault_rate,
                          const ResilienceConfig &rc,
                          const core::KernelProvider &kernels);

/**
 * Measure one distribution at one fault rate over a rows x cols mesh
 * layout @p l (cells row-major). Each trial arms
 * fault::FaultRates::mixed(fault_rate) on the distribution and drives
 * one clock pulse; trial i draws its plan and its wire delays from
 * disjoint substreams of Rng::forTrial(cfg.seed, i). Each chunk of
 * trials is one ResilienceScenario::runTrialBlock call. When
 * cfg.metrics is set, the sweep metrics of McConfig::metrics are
 * recorded next to the "mc.resilience.faults.<kind>" counters and
 * the "mc.resilience.desim_fallbacks" counter (trials rerun on desim)
 * and the "mc.resilience.scalar_nets" counter ((trial, net) pairs on
 * the transition-list path), see ResilienceScenario::runTrialBlock.
 */
ResiliencePoint resilienceAtRate(const layout::Layout &l, int rows,
                                 int cols, DistributionKind kind,
                                 double fault_rate,
                                 const ResilienceConfig &rc,
                                 const McConfig &cfg);

/**
 * The graceful-degradation curve: resilienceAtRate at every rate of
 * @p rates (typically including 0 as the healthy baseline).
 */
std::vector<ResiliencePoint>
degradationCurve(const layout::Layout &l, int rows, int cols,
                 DistributionKind kind, const std::vector<double> &rates,
                 const ResilienceConfig &rc, const McConfig &cfg);

/**
 * Fraction of hybrid elements still completing cycles when each
 * handshake wire (2 per adjacent element pair) is severed independently
 * with probability @p fault_rate. An element adjacent to a severed wire
 * stalls, and the stall propagates to elements waiting on it -- the
 * observable is the surviving fraction after @p rounds rounds, showing
 * the locality of the damage (unlike a clock tree, a severed wire never
 * silences cells that do not wait on it).
 */
McResult hybridSurvivalSweep(const hybrid::HybridNetwork &net,
                             double fault_rate, int rounds,
                             const McConfig &cfg);

} // namespace vsync::mc

#endif // VSYNC_MC_RESILIENCE_HH
