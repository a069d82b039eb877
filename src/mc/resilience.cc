#include "mc/resilience.hh"

#include <array>
#include <cstring>
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

/** A tree stage's delay for unit wire delay @p unit: its wire plus the
 *  buffer's insertion delay. The one expression the desim and the
 *  levelized trial paths share. */
Time
treeStage(const ResilienceConfig &rc, const clocktree::BufferedSite &site,
          double unit)
{
    return site.wireFromParent * unit +
           (site.isBuffer ? rc.bufferDelay : 0.0);
}

/** A grid link's delay from the same model: one buffered unit-pitch
 *  link per stage -- buffer delay plus one lambda of varied wire. */
Time
gridLink(const ResilienceConfig &rc, double unit)
{
    return rc.bufferDelay + unit;
}

/** One trial's faulty pulse on a freshly built desim circuit, drawing
 *  its stage delays from @p delay_rng: the oracle, and the levelized
 *  pass's fallback. */
fault::DistributionOutcome
desimTrial(const ResilienceScenario &s, const fault::FaultPlan &plan,
           Rng &delay_rng)
{
    const ResilienceConfig &rc = s.rc;
    const auto unit = [&rc, &delay_rng] {
        return delay_rng.uniform(rc.delay.lo(), rc.delay.hi());
    };
    const ResilienceDistribution &d = *s.dist;
    if (d.kind == DistributionKind::TrixGrid)
        return fault::simulateGridUnderFaults(
            *d.kernel, d.rows, d.cols,
            [&](int, int, int) { return gridLink(rc, unit()); }, plan);
    return fault::simulateTreeUnderFaults(
        *d.kernel, d.btree,
        [&](const clocktree::BufferedSite &site, std::size_t) {
            return desim::EdgeDelays::same(treeStage(rc, site, unit()));
        },
        plan);
}

/** A thread's reusable runTrialBlock buffers: the lane pass, the plan
 *  scratch and the block's plans. */
struct TrialWorkspace
{
    fault::LevelizedPulse pulse;
    fault::PlanLaneScratch planScratch;
    std::array<fault::FaultPlan, fault::LevelizedPulse::lanes> plans;
};

/** Shapes up to this many stages (a 16x16 H-tree has 766) keep their
 *  workspace on the thread across calls, about 330 bytes a stage, so
 *  at most about 2.6 MiB; a larger shape builds one per call, so one
 *  huge request cannot pin its buffers on every pool thread. */
constexpr std::size_t retainedStages = std::size_t{1} << 13;

TrialWorkspace &
threadWorkspace()
{
    thread_local TrialWorkspace ws;
    return ws;
}

const ResilienceDistribution &
checked(const std::shared_ptr<const ResilienceDistribution> &d)
{
    VSYNC_ASSERT(d != nullptr, "resilience scenario without a distribution");
    return *d;
}

} // namespace

ResilienceScenario::ResilienceScenario(
    std::shared_ptr<const ResilienceDistribution> d,
    const fault::FaultRates &r, const ResilienceConfig &config)
    : dist(std::move(d)), btree(checked(dist).btree), kernel(dist->kernel),
      rates(r), rc(config)
{
    VSYNC_ASSERT(dist->kind == DistributionKind::TrixGrid ||
                     btree.spacing() == rc.bufferSpacing,
                 "tree buffered every %g, config asks for %g",
                 btree.spacing(), rc.bufferSpacing);
}

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
        fault::FaultPlan::generate(dist->universe, rates, plan_rng);
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
    std::vector<Time> &lane_scratch, obs::Counter *fallbacks,
    obs::Counter *scalar_nets) const
{
    VSYNC_ASSERT(out_skew.size() == count &&
                     out_clocked.size() == count &&
                     out_faults.size() == count,
                 "output spans must cover the %zu range trials", count);
    constexpr std::size_t blockW = core::SkewKernel::blockWidth();
    static_assert(blockW == RngLanes8::width &&
                      blockW == fault::LevelizedPulse::lanes,
                  "a block's delays are one RngLanes8 fill and its pulses "
                  "one lane pass");
    const ResilienceDistribution &d = *dist;
    const bool grid = d.kind == DistributionKind::TrixGrid;
    const std::size_t cells = kernel->cellCount();
    // The stages that draw one unit delay each, in draw order: a
    // tree's non-root sites, a grid's three links per node.
    const std::size_t stages =
        grid ? 3 * static_cast<std::size_t>(d.rows) *
                   static_cast<std::size_t>(d.cols)
             : btree.sites().size() - 1;
    TrialWorkspace scoped;
    TrialWorkspace &ws =
        stages <= retainedStages ? threadWorkspace() : scoped;
    fault::LevelizedPulse &pulse = ws.pulse;
    std::array<fault::FaultPlan, blockW> &plans = ws.plans;
    std::array<Rng, blockW> planRng, delayRng;
    std::array<core::ArrivalSkew, blockW> reduced;
    std::uint64_t draws = 0;
    std::size_t scalarNets = 0;
    for (std::size_t i = 0; i < count; i += blockW) {
        const std::size_t w = std::min(blockW, count - i);
        const std::size_t stride = core::SkewKernel::laneStride(w);
        lane_scratch.resize(cells * stride);
        // Padding lanes repeat the block's last trial; dropped below.
        for (std::size_t j = 0; j < blockW; ++j) {
            const Rng trial_rng =
                Rng::forTrial(seed, first_trial + i + std::min(j, w - 1));
            planRng[j] = trial_rng.deriveStream(planSalt);
            delayRng[j] = trial_rng.deriveStream(delaySalt);
        }
        fault::FaultPlan::generateBlock(d.universe, rates,
                                        {planRng.data(), w},
                                        {plans.data(), w}, ws.planScratch);
        // The unit delays, stage-major with lane j in column j, then
        // each turned into its stage delay in place.
        const std::span<double> delays = pulse.laneDelays(stages);
        RngLanes8(delayRng).fillUniform(rc.delay.lo(), rc.delay.hi(),
                                        delays);
        if (grid) {
            for (double &u : delays)
                u = gridLink(rc, u);
        } else {
            const std::vector<clocktree::BufferedSite> &sites =
                btree.sites();
            for (std::size_t s = 0; s < stages; ++s)
                for (std::size_t j = 0; j < blockW; ++j) {
                    double &u = delays[s * blockW + j];
                    u = treeStage(rc, sites[s + 1], u);
                }
        }
        const std::span<const fault::FaultPlan> block(plans.data(), w);
        const std::uint8_t declined =
            grid ? pulse.gridLanes(d.rows, d.cols, block)
                 : pulse.treeLanes(btree, block);
        scalarNets += pulse.scalarNets();
        for (std::size_t c = 0; c < cells; ++c)
            std::memcpy(lane_scratch.data() + c * stride,
                        pulse.firstRiseRow(d.cellNet[c]),
                        w * sizeof(Time));
        for (std::size_t j = 0; j < w; ++j) {
            const fault::FaultPlan &plan = plans[j];
            if (kind_counters)
                for (const fault::Fault &f : plan.faults())
                    (*kind_counters)[static_cast<std::size_t>(f.kind)]
                        ->inc();
            if (declined >> j & 1u) {
                // A same-time tie desim orders by event sequence: run
                // the trial's own draws on a freshly built circuit.
                if (fallbacks)
                    fallbacks->inc();
                Rng redo = Rng::forTrial(seed, first_trial + i + j)
                               .deriveStream(delaySalt);
                const fault::DistributionOutcome out =
                    desimTrial(*this, plan, redo);
                for (std::size_t c = 0; c < cells; ++c)
                    lane_scratch[c * stride + j] = out.cellArrival[c];
            }
            out_faults[i + j] = static_cast<double>(plan.size());
            draws += plan.draws() + stages;
        }
        kernel->arrivalSkewBlock(
            std::span<const Time>(lane_scratch.data(), cells * stride),
            std::span<core::ArrivalSkew>(reduced.data(), w));
        for (std::size_t j = 0; j < w; ++j) {
            out_skew[i + j] = reduced[j].maxCommSkew;
            out_clocked[i + j] = reduced[j].clockedFraction;
        }
    }
    if (scalar_nets)
        scalar_nets->inc(scalarNets);
    return draws;
}

std::shared_ptr<const ResilienceDistribution>
compileResilienceDistribution(const layout::Layout &l, int rows, int cols,
                              DistributionKind kind, Length buffer_spacing,
                              const core::KernelProvider &kernels)
{
    VSYNC_ASSERT(static_cast<std::size_t>(rows) *
                         static_cast<std::size_t>(cols) ==
                     l.size(),
                 "grid %dx%d does not cover %zu cells", rows, cols,
                 l.size());
    auto d = std::make_shared<ResilienceDistribution>();
    d->kind = kind;
    d->rows = rows;
    d->cols = cols;
    if (kind == DistributionKind::TrixGrid) {
        d->universe = fault::TrixGrid::universe(rows, cols);
        d->kernel = kernels(l, nullptr);
    } else {
        const clocktree::ClockTree tree =
            kind == DistributionKind::HTree
                ? clocktree::buildHTreeGrid(l, rows, cols)
                : clocktree::buildSpine(l);
        d->btree = clocktree::BufferedClockTree::insertBuffers(
            tree, buffer_spacing);
        d->universe = fault::universeOf(d->btree);
        d->kernel = kernels(l, &tree);
    }
    d->cellNet.resize(l.size());
    for (std::size_t c = 0; c < l.size(); ++c)
        d->cellNet[c] =
            kind == DistributionKind::TrixGrid
                ? c
                : d->btree.siteOfNode(
                      d->kernel->nodeOfCell(static_cast<CellId>(c)));
    return d;
}

ResilienceScenario
compileResilienceScenario(const layout::Layout &l, int rows, int cols,
                          DistributionKind kind, double fault_rate,
                          const ResilienceConfig &rc,
                          const core::KernelProvider &kernels)
{
    return ResilienceScenario(
        compileResilienceDistribution(l, rows, cols, kind,
                                      rc.bufferSpacing, kernels),
        fault::FaultRates::mixed(fault_rate), rc);
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
    obs::Counter *scalarNets =
        cfg.metrics ? &cfg.metrics->counter("mc.resilience.scalar_nets")
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
            fallbacks, scalarNets);
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

    // A range function rather than runTrials: the trial draws only from
    // derived substreams, which a TrialFn's draws() count would miss.
    McResult result;
    result.samples.assign(cfg.trials, 0.0);
    ThreadPool pool(cfg.threads);
    runTrialRanges(pool, cfg, [&](std::size_t begin, std::size_t end) {
        std::uint64_t draws = 0;
        for (std::size_t trial = begin; trial < end; ++trial) {
            const Rng rng = Rng::forTrial(cfg.seed, trial);
            Rng plan_rng = rng.deriveStream(planSalt);
            Rng jitter_rng = rng.deriveStream(delaySalt);
            const fault::FaultPlan plan =
                fault::FaultPlan::generate(universe, rates, plan_rng);

            // Map severed wires back to their element pairs; either
            // wire of a pair down means the handshake never completes.
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
            result.samples[trial] = static_cast<double>(alive) /
                                    static_cast<double>(elements);
            draws += plan.draws() + jitter_rng.draws();
        }
        return draws;
    });
    reduceInTrialOrder(result);
    return result;
}

} // namespace vsync::mc
