/**
 * @file
 * Deterministic fault plans: what breaks, where, and when.
 *
 * A FaultPlan is the complete description of the physical faults one
 * simulated chip suffers -- dead buffers, delay drift, stuck-at clock
 * nets, transient glitches, severed handshake wires. Plans are drawn
 * from counter-based RNG substreams (Rng::forTrial / deriveStream), so
 * the plan for trial i of a resilience sweep is a pure function of
 * (seed, trial, universe, rates): bit-identical at any thread count,
 * the same contract the Monte-Carlo engine guarantees for its samples
 * (DESIGN.md 4.1). Each fault kind draws from its own derived
 * substream, so raising one kind's rate never moves another kind's
 * sites or onsets.
 */

#ifndef VSYNC_FAULT_FAULT_PLAN_HH
#define VSYNC_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"

namespace vsync
{
class Rng;
} // namespace vsync

namespace vsync::fault
{

/** The physical failure modes the subsystem can inject. */
enum class FaultKind
{
    /** A buffer/wire stage stops propagating transitions entirely. */
    DeadBuffer,
    /** A stage's delays are multiplied by a factor > 1 (aging/drift). */
    DelayDrift,
    /** A clock net freezes at a fixed logic level. */
    StuckAtNet,
    /** A clock net emits one spurious pulse. */
    TransientGlitch,
    /** A handshake req or ack wire is cut (the pair stalls). */
    SeveredHandshakeWire,
};

/** Number of FaultKind values (substream salts range over this). */
inline constexpr int faultKindCount = 5;

/** Human-readable fault-kind name. */
std::string faultKindName(FaultKind kind);

/** One concrete fault: a kind bound to a site and an onset time. */
struct Fault
{
    FaultKind kind = FaultKind::DeadBuffer;
    /** Site index; the domain depends on the kind (buffer/link index
     *  for DeadBuffer/DelayDrift, net index for StuckAtNet/
     *  TransientGlitch, wire index for SeveredHandshakeWire). */
    std::size_t site = 0;
    /** Simulation time at which the fault manifests (ns). */
    Time onset = 0.0;
    /** Kind-specific magnitude: delay-drift factor (> 1 slower) or
     *  transient-glitch pulse width (ns); 1 otherwise. */
    double magnitude = 1.0;
    /** Level a StuckAtNet fault freezes the net at. */
    bool stuckHigh = false;
};

/**
 * How many sites of each kind a target system exposes. Obtained from
 * the target (fault::universeOf, TrixGrid::universe) so plans can be
 * generated before any simulator exists.
 */
struct FaultUniverse
{
    /** Delay stages (tree elements or grid links). */
    std::size_t bufferSites = 0;
    /** Clock nets (signals stuck-at / glitch faults can hit). */
    std::size_t clockNets = 0;
    /** Handshake wires (2 per HandshakePair: req then ack). */
    std::size_t handshakeWires = 0;
};

/** Per-site fault probabilities and magnitude parameters. */
struct FaultRates
{
    /** P(dead) per buffer site. */
    double deadBuffer = 0.0;
    /** P(drift) per buffer site. */
    double delayDrift = 0.0;
    /** P(stuck-at) per clock net. */
    double stuckAtNet = 0.0;
    /** P(glitch) per clock net. */
    double transientGlitch = 0.0;
    /** P(severed) per handshake wire. */
    double severedHandshakeWire = 0.0;

    /** Delay-drift factor range (uniform draw, both > 1). */
    double driftFactorLo = 1.5;
    double driftFactorHi = 3.0;
    /** Transient-glitch pulse width (ns). */
    Time glitchWidth = 0.05;
    /** Onsets drawn uniformly from [0, onsetWindow]; 0 = at t = 0. */
    Time onsetWindow = 0.0;

    /** Every kind at probability @p rate (magnitudes at defaults). */
    static FaultRates uniform(double rate);

    /**
     * The resilience-sweep profile: dead buffers at @p rate, delay
     * drift at rate/2, stuck-at and glitches at rate/4 each, severed
     * wires at @p rate. Buffer faults dominate, matching the failure
     * statistics the TRIX comparison targets.
     */
    static FaultRates mixed(double rate);
};

/** Reusable buffers of FaultPlan::generateBlock (one per thread). */
struct PlanLaneScratch
{
    /** One kind's buffered draws, row-major: draws[row * 8 + lane]. */
    std::vector<double> draws;
    /** Per row, bit j set when lane j's draw is a Bernoulli hit;
     *  padded with zero bytes to a whole number of 8-row words. */
    std::vector<std::uint8_t> hits;
};

/** A deterministic, reproducible list of faults for one trial. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Draw a plan for @p universe under @p rates from @p rng. Each
     * fault kind consumes its own rng.deriveStream(kind) substream.
     */
    static FaultPlan generate(const FaultUniverse &universe,
                              const FaultRates &rates, Rng &rng);

    /**
     * generate() for up to eight trials in lockstep: plans[j] becomes
     * generate(universe, rates, rngs[j]), draws() included, bit for
     * bit. Per kind, the trials' substreams step together through
     * RngLanes8, lane j being trial j: one raw uniform() per site and
     * lane, compared with the rate a row of eight at a time. Each lane
     * then walks its hits with a cursor; a hit's further draws (onset,
     * drift factor, stuck level) are the lane's next buffered draws,
     * and once those run out the lane goes on drawing from its own
     * stream. Every site takes at least one draw, so no lane draws
     * more than generate() does. Lanes past rngs.size() are padding
     * whose draws are discarded.
     * @pre 1 <= rngs.size() == plans.size() <= 8.
     */
    static void generateBlock(const FaultUniverse &universe,
                              const FaultRates &rates,
                              std::span<const Rng> rngs,
                              std::span<FaultPlan> plans,
                              PlanLaneScratch &scratch);

    /**
     * Convenience: the plan for trial @p trial of the experiment
     * seeded with @p seed, via the Rng::forTrial substream contract --
     * identical at any thread count.
     */
    static FaultPlan forTrial(const FaultUniverse &universe,
                              const FaultRates &rates,
                              std::uint64_t seed, std::uint64_t trial);

    /** A plan holding exactly one dead buffer at @p site. */
    static FaultPlan singleDeadBuffer(std::size_t site, Time onset = 0.0);

    /** A plan holding exactly one severed handshake wire @p wire. */
    static FaultPlan singleSeveredWire(std::size_t wire, Time onset = 0.0);

    /** All faults, in generation order. */
    const std::vector<Fault> &faults() const { return list; }

    /** Number of faults of @p kind in the plan. */
    std::size_t count(FaultKind kind) const;

    /** Total number of faults. */
    std::size_t size() const { return list.size(); }

    /** True when nothing breaks. */
    bool empty() const { return list.empty(); }

    /** RNG draws generate() took from its per-kind substreams (0 for
     *  a hand-built plan). The substreams are copies, so these draws
     *  never show in the caller's Rng::draws(). */
    std::uint64_t draws() const { return drawCount; }

    /** Append one fault (for hand-built plans in tests/benches). */
    void add(const Fault &f) { list.push_back(f); }

    /** True when both plans list identical faults in the same order. */
    bool operator==(const FaultPlan &other) const;

  private:
    std::vector<Fault> list;
    std::uint64_t drawCount = 0;
};

} // namespace vsync::fault

#endif // VSYNC_FAULT_FAULT_PLAN_HH
