#include "mc/resilience.hh"

#include <array>
#include <unordered_set>

#include "clocktree/buffering.hh"
#include "clocktree/builders.hh"
#include "common/logging.hh"
#include "core/skew_kernel.hh"
#include "fault/injector.hh"
#include "fault/levelized.hh"
#include "obs/metrics.hh"

namespace vsync::mc
{

std::string
distributionKindName(DistributionKind kind)
{
    switch (kind) {
      case DistributionKind::HTree:
        return "htree";
      case DistributionKind::Spine:
        return "spine";
      case DistributionKind::TrixGrid:
        return "trix-grid";
    }
    return "?";
}

namespace
{

// Substream salts within a trial's Rng::forTrial stream: the fault plan
// and the wire-delay realisation never perturb each other, so the same
// chip (delays) can be compared across fault rates.
constexpr std::uint64_t planSalt = 1;
constexpr std::uint64_t delaySalt = 2;

/** The per-chip tree stage-delay model, shared by the desim and
 *  levelized trial paths (a plain lambda, so the levelized pass
 *  inlines it). Captures by reference; consume immediately. */
auto
treeDelayFn(const ResilienceConfig &rc, Rng &delay_rng)
{
    return [&rc, &delay_rng](const clocktree::BufferedSite &site,
                             std::size_t) {
        const double unit =
            delay_rng.uniform(rc.delay.lo(), rc.delay.hi());
        const Time stage = site.wireFromParent * unit +
                           (site.isBuffer ? rc.bufferDelay : 0.0);
        return desim::EdgeDelays::same(stage);
    };
}

/** Per-link grid delays from the same model: one buffered unit-pitch
 *  link per stage -- buffer delay plus one lambda of varied wire. */
auto
gridDelayFn(const ResilienceConfig &rc, Rng &delay_rng)
{
    return [&rc, &delay_rng](int, int, int) {
        return rc.bufferDelay +
               delay_rng.uniform(rc.delay.lo(), rc.delay.hi());
    };
}

/** One trial's faulty pulse on a freshly built desim circuit: the
 *  oracle, and the levelized pass's fallback. */
fault::DistributionOutcome
desimTrial(const ResilienceScenario &s, const fault::FaultPlan &plan,
           Rng &delay_rng)
{
    return s.kind == DistributionKind::TrixGrid
               ? fault::simulateGridUnderFaults(
                     *s.kernel, s.rows, s.cols, gridDelayFn(s.rc, delay_rng),
                     plan)
               : fault::simulateTreeUnderFaults(
                     *s.kernel, s.btree, treeDelayFn(s.rc, delay_rng), plan);
}

} // namespace

fault::DistributionOutcome
ResilienceScenario::runTrial(
    std::uint64_t seed, std::uint64_t trial,
    const std::array<obs::Counter *, fault::faultKindCount>
        *kind_counters) const
{
    Rng trial_rng = Rng::forTrial(seed, trial);
    Rng plan_rng = trial_rng.deriveStream(planSalt);
    Rng delay_rng = trial_rng.deriveStream(delaySalt);
    const fault::FaultPlan plan =
        fault::FaultPlan::generate(universe, rates, plan_rng);
    if (kind_counters)
        for (const fault::Fault &f : plan.faults())
            (*kind_counters)[static_cast<std::size_t>(f.kind)]->inc();
    return desimTrial(*this, plan, delay_rng);
}

std::uint64_t
ResilienceScenario::runTrialBlock(
    std::uint64_t seed, std::uint64_t first_trial, std::size_t count,
    std::span<double> out_skew, std::span<double> out_clocked,
    std::span<double> out_faults,
    const std::array<obs::Counter *, fault::faultKindCount>
        *kind_counters,
    std::vector<Time> &lane_scratch, obs::Counter *fallbacks) const
{
    VSYNC_ASSERT(out_skew.size() == count &&
                     out_clocked.size() == count &&
                     out_faults.size() == count,
                 "output spans must cover the %zu range trials", count);
    constexpr std::size_t blockW = core::SkewKernel::blockWidth();
    const std::size_t cells = kernel->cellCount();
    // The net each cell is clocked by: the site of its tree node, or
    // grid node r * cols + c for cell r * cols + c.
    std::vector<std::size_t> cellNet(cells);
    for (std::size_t c = 0; c < cells; ++c)
        cellNet[c] = kind == DistributionKind::TrixGrid
                         ? c
                         : btree.siteOfNode(
                               kernel->nodeOfCell(static_cast<CellId>(c)));
    // Each trial's faulty pulse is one levelized pass (no event queue,
    // no lanes); a block's per-cell arrival surfaces are scattered
    // lane-major and reduced in one blocked pair fold per block.
    fault::LevelizedPulse pulse;
    std::array<core::ArrivalSkew, blockW> reduced;
    std::uint64_t draws = 0;
    for (std::size_t i = 0; i < count; i += blockW) {
        const std::size_t w = std::min(blockW, count - i);
        const std::size_t stride = core::SkewKernel::laneStride(w);
        lane_scratch.resize(cells * stride);
        for (std::size_t j = 0; j < w; ++j) {
            Rng trial_rng = Rng::forTrial(seed, first_trial + i + j);
            Rng plan_rng = trial_rng.deriveStream(planSalt);
            Rng delay_rng = trial_rng.deriveStream(delaySalt);
            const fault::FaultPlan plan =
                fault::FaultPlan::generate(universe, rates, plan_rng);
            if (kind_counters)
                for (const fault::Fault &f : plan.faults())
                    (*kind_counters)[static_cast<std::size_t>(f.kind)]
                        ->inc();
            const bool levelized =
                kind == DistributionKind::TrixGrid
                    ? pulse.grid(rows, cols, gridDelayFn(rc, delay_rng),
                                 plan)
                    : pulse.tree(btree, treeDelayFn(rc, delay_rng), plan);
            if (levelized) {
                for (std::size_t c = 0; c < cells; ++c)
                    lane_scratch[c * stride + j] =
                        pulse.firstRise(cellNet[c]);
            } else {
                // A same-time tie desim orders by event sequence: run
                // the trial's own draws on a freshly built circuit.
                if (fallbacks)
                    fallbacks->inc();
                Rng redo = trial_rng.deriveStream(delaySalt);
                const fault::DistributionOutcome out =
                    desimTrial(*this, plan, redo);
                for (std::size_t c = 0; c < cells; ++c)
                    lane_scratch[c * stride + j] = out.cellArrival[c];
            }
            out_faults[i + j] = static_cast<double>(plan.size());
            draws += plan.draws() + delay_rng.draws();
        }
        kernel->arrivalSkewBlock(
            std::span<const Time>(lane_scratch.data(), cells * stride),
            std::span<core::ArrivalSkew>(reduced.data(), w));
        for (std::size_t j = 0; j < w; ++j) {
            out_skew[i + j] = reduced[j].maxCommSkew;
            out_clocked[i + j] = reduced[j].clockedFraction;
        }
    }
    return draws;
}

ResilienceScenario
compileResilienceScenario(const layout::Layout &l, int rows, int cols,
                          DistributionKind kind, double fault_rate,
                          const ResilienceConfig &rc,
                          const core::KernelProvider &kernels)
{
    VSYNC_ASSERT(static_cast<std::size_t>(rows) *
                         static_cast<std::size_t>(cols) ==
                     l.size(),
                 "grid %dx%d does not cover %zu cells", rows, cols,
                 l.size());
    ResilienceScenario s;
    s.kind = kind;
    s.rows = rows;
    s.cols = cols;
    s.rc = rc;
    s.rates = fault::FaultRates::mixed(fault_rate);
    if (kind == DistributionKind::TrixGrid) {
        s.universe = fault::TrixGrid::universe(rows, cols);
        s.kernel = kernels(l, nullptr);
    } else {
        s.tree = kind == DistributionKind::HTree
                     ? clocktree::buildHTreeGrid(l, rows, cols)
                     : clocktree::buildSpine(l);
        s.btree = clocktree::BufferedClockTree::insertBuffers(
            s.tree, rc.bufferSpacing);
        s.universe = fault::universeOf(s.btree);
        s.kernel = kernels(l, &s.tree);
    }
    return s;
}

ResiliencePoint
resilienceAtRate(const layout::Layout &l, int rows, int cols,
                 DistributionKind kind, double fault_rate,
                 const ResilienceConfig &rc, const McConfig &cfg)
{
    // Shared read-only state, built once before the fan-out: the
    // distribution, its fault universe, and one compiled SkewKernel
    // (pairs-only for the grid, which has no clock tree).
    const ResilienceScenario scenario = compileResilienceScenario(
        l, rows, cols, kind, fault_rate, rc, core::directCompile());

    ResiliencePoint point;
    point.faultRate = fault_rate;
    point.maxCommSkew.samples.assign(cfg.trials, 0.0);
    point.clockedFraction.samples.assign(cfg.trials, 0.0);
    std::vector<double> faults(cfg.trials, 0.0);

    // Observability: per-kind injected-fault counters, resolved before
    // the fan-out (registration locks; Counter::inc is lock-free).
    std::array<obs::Counter *, fault::faultKindCount> kindCounters{};
    if (cfg.metrics) {
        for (int k = 0; k < fault::faultKindCount; ++k)
            kindCounters[static_cast<std::size_t>(k)] =
                &cfg.metrics->counter(
                    "mc.resilience.faults." +
                    fault::faultKindName(static_cast<fault::FaultKind>(k)));
    }
    obs::Counter *fallbacks =
        cfg.metrics ? &cfg.metrics->counter("mc.resilience.desim_fallbacks")
                    : nullptr;

    ThreadPool pool(cfg.threads);
    runTrialRanges(pool, cfg, [&](std::size_t begin, std::size_t end) {
        const std::size_t n = end - begin;
        std::vector<Time> laneScratch;
        return scenario.runTrialBlock(
            cfg.seed, begin, n,
            {point.maxCommSkew.samples.data() + begin, n},
            {point.clockedFraction.samples.data() + begin, n},
            {faults.data() + begin, n},
            cfg.metrics ? &kindCounters : nullptr, laneScratch,
            fallbacks);
    });
    reduceInTrialOrder(point.maxCommSkew);
    reduceInTrialOrder(point.clockedFraction);
    double total = 0.0;
    for (const double f : faults)
        total += f;
    point.meanFaults = total / static_cast<double>(cfg.trials);
    return point;
}

std::vector<ResiliencePoint>
degradationCurve(const layout::Layout &l, int rows, int cols,
                 DistributionKind kind, const std::vector<double> &rates,
                 const ResilienceConfig &rc, const McConfig &cfg)
{
    std::vector<ResiliencePoint> curve;
    curve.reserve(rates.size());
    for (const double rate : rates)
        curve.push_back(
            resilienceAtRate(l, rows, cols, kind, rate, rc, cfg));
    return curve;
}

McResult
hybridSurvivalSweep(const hybrid::HybridNetwork &net, double fault_rate,
                    int rounds, const McConfig &cfg)
{
    const auto edges = net.partition().elementGraph.undirectedEdges();
    const int elements = net.partition().elementCount;
    VSYNC_ASSERT(elements > 0, "empty partition");
    fault::FaultUniverse universe;
    universe.handshakeWires = 2 * edges.size(); // req + ack per pair
    fault::FaultRates rates;
    rates.severedHandshakeWire = fault_rate;

    return runTrials(cfg, [&](std::uint64_t, Rng &rng) {
        Rng plan_rng = rng.deriveStream(planSalt);
        Rng jitter_rng = rng.deriveStream(delaySalt);
        const fault::FaultPlan plan =
            fault::FaultPlan::generate(universe, rates, plan_rng);

        // Map severed wires back to their element pairs; either wire of
        // a pair down means the handshake never completes.
        std::unordered_set<std::uint64_t> cut;
        for (const fault::Fault &f : plan.faults()) {
            const graph::Edge &e = edges[f.site / 2];
            const std::uint64_t lo = std::min(e.src, e.dst);
            const std::uint64_t hi = std::max(e.src, e.dst);
            cut.insert(lo << 32 | hi);
        }
        const hybrid::HybridNetwork::SeveredFn severed =
            [&cut](int a, int b) {
                const std::uint64_t lo =
                    static_cast<std::uint64_t>(std::min(a, b));
                const std::uint64_t hi =
                    static_cast<std::uint64_t>(std::max(a, b));
                return cut.count(lo << 32 | hi) != 0;
            };

        const hybrid::HybridRunResult res =
            net.simulate(rounds, &jitter_rng, severed);
        std::size_t alive = 0;
        for (const Time t : res.lastCompletion)
            alive += t < infinity;
        return static_cast<double>(alive) /
               static_cast<double>(elements);
    });
}

} // namespace vsync::mc
