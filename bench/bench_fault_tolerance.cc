/**
 * @file
 * FAULT -- tree vs redundant-grid clock distribution under faults.
 *
 * Three experiments on a 16x16 mesh:
 *
 *  1. Exhaustive single-dead-buffer pass with nominal delays: every
 *     buffer stage of the H-tree is killed in turn (each kill must
 *     silence the whole subtree below it -- at least one cell loses
 *     its clock), then every link of the TRIX grid is killed in turn
 *     (median voting must mask every one: all cells clocked, max comm
 *     skew bit-equal to the fault-free run).
 *  2. Graceful-degradation curves: max comm skew and clocked-cell
 *     fraction vs fault rate for H-tree, spine and TRIX grid
 *     (fault::FaultRates::mixed plans, Monte-Carlo over chips), plus
 *     the hybrid handshake network's surviving-element fraction under
 *     severed wires.
 *  3. Determinism: one sweep point re-run at 1, 2 and 8 threads must
 *     produce bit-identical samples (the fault plans and the sweep
 *     both obey the Rng::forTrial contract).
 *  4. Levelized vs desim: ResilienceScenario::runTrialBlock (one
 *     levelized pass per faulty pulse) against runTrial (a freshly
 *     built desim circuit per trial) on the 16x16 TRIX grid and
 *     H-tree at fault rate 0.02, in interleaved A/B repeats. Every
 *     repeat's samples must be bit-identical, and the median of the
 *     per-repeat speedups must reach levelizedSpeedupGate. Then the
 *     pulse alone on the TRIX grid, H-tree and spine: eight trials per
 *     fault::LevelizedPulse lane pass against one trial per width-1
 *     pass (tree() / grid()), in interleaved repeats, with the share
 *     of (trial, net) pairs that took the transition-list path. Every
 *     lane's rising edges on every net must equal its width-1 run's.
 *  5. Lane plans and the cached distribution, in interleaved repeats:
 *     fault-plan generation per trial at rate 0.02 on the TRIX grid
 *     and the H-tree, eight trials at a time through
 *     FaultPlan::generateBlock against FaultPlan::generate per trial
 *     (every lane plan must equal its scalar plan, draws() included);
 *     and the served H-tree compile per request, a ScenarioCache
 *     distribution hit against the rebuild of tree, buffered tree and
 *     universe around a kernel-cache hit. Reported with
 *     RngLanes8::isa().
 *
 * Results go to stdout as tables and to BENCH_fault_tolerance.json;
 * the exit code is nonzero if any masking, degradation, determinism,
 * bit-identity (levelized, lane pass or lane-plan) or speedup property
 * fails.
 */

#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_util.hh"
#include "clocktree/buffering.hh"
#include "clocktree/builders.hh"
#include "fault/injector.hh"
#include "fault/levelized.hh"
#include "hybrid/partition.hh"
#include "layout/generators.hh"
#include "mc/resilience.hh"
#include "serve/scenario_cache.hh"

namespace
{

using namespace vsync;

constexpr int rows = 16;
constexpr int cols = 16;

/** Section 4: interleaved repeats, trials per repeat, and the least
 *  median speedup of levelized trials over desim ones. */
constexpr int timingRepeats = 7;
constexpr std::size_t timingTrials = 256;
constexpr double levelizedSpeedupGate = 3.0;

/** Section 4's lane pass: trials per repeat (whole eight-trial
 *  blocks); it takes laneRepeats repeats. */
constexpr std::size_t pulseTrials = 256;

/** Section 5: interleaved repeats, trials per plan repeat (whole
 *  eight-trial blocks), and served compiles per compile repeat. */
constexpr int laneRepeats = 15;
constexpr std::size_t planTrials = 256;
constexpr int compileCalls = 32;

/** Nominal (variation-free) stage delays for the buffered tree. */
desim::ClockNet::DelayFn
nominalTreeDelays(const mc::ResilienceConfig &rc)
{
    return [rc](const clocktree::BufferedSite &site, std::size_t) {
        return desim::EdgeDelays::same(
            site.wireFromParent * rc.delay.m +
            (site.isBuffer ? rc.bufferDelay : 0.0));
    };
}

/** Nominal per-link delay for the TRIX grid. */
fault::TrixGrid::LinkDelayFn
nominalGridDelays(const mc::ResilienceConfig &rc)
{
    return [rc](int, int, int) { return rc.bufferDelay + rc.delay.m; };
}

struct SingleFaultSummary
{
    std::size_t sites = 0;
    std::size_t masked = 0;     // faults with no cell lost
    std::size_t skewExact = 0;  // faults with skew == healthy skew
    double minClockedFraction = 1.0;
    Time healthySkew = 0.0;
    double healthyClockedFraction = 0.0;
};

/** Kill every buffer stage of the H-tree in turn. */
SingleFaultSummary
exhaustiveTreePass(const layout::Layout &l,
                   const clocktree::ClockTree &tree,
                   const clocktree::BufferedClockTree &btree,
                   const mc::ResilienceConfig &rc)
{
    const auto delay_of = nominalTreeDelays(rc);
    SingleFaultSummary s;
    const fault::DistributionOutcome healthy =
        fault::simulateTreeUnderFaults(l, tree, btree, delay_of,
                                       fault::FaultPlan());
    s.healthySkew = healthy.maxCommSkew;
    s.healthyClockedFraction = healthy.clockedFraction;
    s.sites = fault::universeOf(btree).bufferSites;
    for (std::size_t e = 0; e < s.sites; ++e) {
        const fault::DistributionOutcome out =
            fault::simulateTreeUnderFaults(
                l, tree, btree, delay_of,
                fault::FaultPlan::singleDeadBuffer(e));
        s.masked += out.clockedFraction >= 1.0;
        s.skewExact += out.maxCommSkew == healthy.maxCommSkew;
        s.minClockedFraction =
            std::min(s.minClockedFraction, out.clockedFraction);
    }
    return s;
}

/** Kill every link of the TRIX grid in turn. */
SingleFaultSummary
exhaustiveGridPass(const layout::Layout &l, const mc::ResilienceConfig &rc)
{
    const auto delay_of = nominalGridDelays(rc);
    SingleFaultSummary s;
    const fault::DistributionOutcome healthy =
        fault::simulateGridUnderFaults(l, rows, cols, delay_of,
                                       fault::FaultPlan());
    s.healthySkew = healthy.maxCommSkew;
    s.healthyClockedFraction = healthy.clockedFraction;
    s.sites = fault::TrixGrid::universe(rows, cols).bufferSites;
    for (std::size_t link = 0; link < s.sites; ++link) {
        const fault::DistributionOutcome out =
            fault::simulateGridUnderFaults(
                l, rows, cols, delay_of,
                fault::FaultPlan::singleDeadBuffer(link));
        const bool all_clocked = out.clockedFraction >= 1.0;
        s.masked += all_clocked;
        s.skewExact += all_clocked &&
                       out.maxCommSkew == healthy.maxCommSkew;
        s.minClockedFraction =
            std::min(s.minClockedFraction, out.clockedFraction);
    }
    return s;
}

void
emitCurve(JsonWriter &json, Table &table, const std::string &kind,
          const std::vector<mc::ResiliencePoint> &curve)
{
    json.beginObject().keyValue("distribution", kind);
    json.key("points").beginArray();
    for (const mc::ResiliencePoint &p : curve) {
        json.beginObject()
            .keyValue("fault_rate", p.faultRate)
            .keyValue("mean_faults_per_chip", p.meanFaults)
            .keyValue("max_comm_skew_mean", p.maxCommSkew.mean())
            .keyValue("max_comm_skew_p99", p.maxCommSkew.quantile(0.99))
            .keyValue("max_comm_skew_max", p.maxCommSkew.max())
            .keyValue("clocked_fraction_mean", p.clockedFraction.mean())
            .keyValue("clocked_fraction_min", p.clockedFraction.min())
            .endObject();
        table.addRow({kind, Table::num(p.faultRate),
                      Table::fixed(p.meanFaults, 1),
                      Table::num(p.maxCommSkew.mean()),
                      Table::num(p.maxCommSkew.max()),
                      Table::fixed(p.clockedFraction.mean(), 4),
                      Table::fixed(p.clockedFraction.min(), 4)});
    }
    json.endArray().endObject();
}

/** Section 4's result for one distribution. */
struct TimingSummary
{
    SampleSet levelizedUs; // per trial, one sample per repeat
    SampleSet desimUs;
    SampleSet speedup;     // desim / levelized, per repeat
    bool bitIdentical = true;
};

/**
 * Time @p timingRepeats interleaved A/B repeats: A runs trials
 * [rep * timingTrials, (rep + 1) * timingTrials) through one
 * runTrialBlock call, B runs the same trials through runTrial one by
 * one. Each repeat's samples must match bit for bit.
 */
TimingSummary
timeLevelizedAgainstDesim(const mc::ResilienceScenario &scenario,
                          std::uint64_t seed)
{
    using Clock = std::chrono::steady_clock;
    TimingSummary s;
    const std::size_t n = timingTrials;
    std::vector<double> skew(n), clocked(n), faults(n);
    std::vector<Time> laneScratch;
    std::vector<fault::DistributionOutcome> ref(n);
    for (int rep = 0; rep < timingRepeats; ++rep) {
        const std::uint64_t first = static_cast<std::uint64_t>(rep) * n;
        const auto a0 = Clock::now();
        scenario.runTrialBlock(seed, first, n, skew, clocked, faults,
                               nullptr, laneScratch);
        const auto a1 = Clock::now();
        for (std::size_t j = 0; j < n; ++j)
            ref[j] = scenario.runTrial(seed, first + j);
        const auto b1 = Clock::now();

        for (std::size_t j = 0; j < n; ++j)
            s.bitIdentical =
                s.bitIdentical && skew[j] == ref[j].maxCommSkew &&
                clocked[j] == ref[j].clockedFraction &&
                faults[j] == static_cast<double>(ref[j].faultCount);
        const double aUs =
            std::chrono::duration<double, std::micro>(a1 - a0).count() /
            static_cast<double>(n);
        const double bUs =
            std::chrono::duration<double, std::micro>(b1 - a1).count() /
            static_cast<double>(n);
        s.levelizedUs.add(aUs);
        s.desimUs.add(bUs);
        s.speedup.add(bUs / aUs);
    }
    return s;
}

double
iqr(const SampleSet &x)
{
    return x.quantile(0.75) - x.quantile(0.25);
}

/** Section 4's lane-pass result for one distribution. */
struct LanePassSummary
{
    SampleSet laneUs;   // per trial, one sample per repeat
    SampleSet singleUs;
    /** (trial, net) pairs on the transition-list path, over all. */
    double scalarFraction = 0.0;
    bool identical = true;
};

/**
 * The faulty pulses of trials [0, pulseTrials) on a 16x16 TRIX grid
 * (@p btree null) or buffered tree: trial t's plan is
 * FaultPlan::forTrial at rate 0.02 and its stage delays come from the
 * resilience model's wire and buffer delays. @p laneRepeats
 * interleaved repeats time A, every eight-trial block through one lane
 * pass, against B, every trial through its own width-1 pass; then
 * each block's lanes are checked against their width-1 runs on every
 * net, declines included.
 */
LanePassSummary
timeLanePass(const clocktree::BufferedClockTree *btree,
             const mc::ResilienceConfig &rc, std::uint64_t seed)
{
    using Clock = std::chrono::steady_clock;
    constexpr std::size_t lanes = fault::LevelizedPulse::lanes;
    const bool grid = btree == nullptr;
    const std::size_t nets =
        grid ? rows * cols + 1 : btree->sites().size();
    const std::size_t stages = grid ? 3 * rows * cols : nets - 1;
    const fault::FaultUniverse u =
        grid ? fault::TrixGrid::universe(rows, cols)
             : fault::universeOf(*btree);
    std::vector<fault::FaultPlan> plans(pulseTrials);
    // delays[(t / 8 * stages + s) * 8 + t % 8]: block-wise stage-major.
    std::vector<double> delays(pulseTrials * stages);
    for (std::size_t t = 0; t < pulseTrials; ++t) {
        plans[t] = fault::FaultPlan::forTrial(
            u, fault::FaultRates::mixed(0.02), seed, t);
        Rng rng = Rng::forTrial(seed, t).deriveStream(2);
        for (std::size_t s = 0; s < stages; ++s) {
            const double unit = rng.uniform(rc.delay.lo(), rc.delay.hi());
            const double d =
                grid ? rc.bufferDelay + unit
                     : btree->sites()[s + 1].wireFromParent * unit +
                           (btree->sites()[s + 1].isBuffer ? rc.bufferDelay
                                                           : 0.0);
            delays[(t / lanes * stages + s) * lanes + t % lanes] = d;
        }
    }
    const auto runBlock = [&](fault::LevelizedPulse &p, std::size_t b) {
        const std::span<double> d = p.laneDelays(stages);
        std::copy_n(delays.begin() + static_cast<std::ptrdiff_t>(
                                         b * stages * lanes),
                    stages * lanes, d.begin());
        const std::span<const fault::FaultPlan> block(
            plans.data() + b * lanes, lanes);
        return grid ? p.gridLanes(rows, cols, block)
                    : p.treeLanes(*btree, block);
    };
    const auto runOne = [&](fault::LevelizedPulse &p, std::size_t t) {
        const double *col =
            delays.data() + t / lanes * stages * lanes + t % lanes;
        if (grid)
            return p.grid(
                rows, cols,
                [=](int r, int c, int k) {
                    return col[((static_cast<std::size_t>(r) * cols + c) *
                                    3 +
                                k) *
                               lanes];
                },
                plans[t]);
        return p.tree(
            *btree,
            [=](const clocktree::BufferedSite &, std::size_t i) {
                return desim::EdgeDelays::same(col[(i - 1) * lanes]);
            },
            plans[t]);
    };

    LanePassSummary s;
    fault::LevelizedPulse lanePass, singlePass;
    for (int rep = 0; rep < laneRepeats; ++rep) {
        const auto a0 = Clock::now();
        for (std::size_t b = 0; b < pulseTrials / lanes; ++b)
            (void)runBlock(lanePass, b);
        const auto a1 = Clock::now();
        for (std::size_t t = 0; t < pulseTrials; ++t)
            (void)runOne(singlePass, t);
        const auto b1 = Clock::now();
        const double n = static_cast<double>(pulseTrials);
        s.laneUs.add(
            std::chrono::duration<double, std::micro>(a1 - a0).count() / n);
        s.singleUs.add(
            std::chrono::duration<double, std::micro>(b1 - a1).count() / n);
    }
    std::size_t scalar = 0;
    for (std::size_t b = 0; b < pulseTrials / lanes; ++b) {
        const std::uint8_t declined = runBlock(lanePass, b);
        scalar += lanePass.scalarNets();
        for (std::size_t j = 0; j < lanes; ++j) {
            const bool ok = runOne(singlePass, b * lanes + j);
            s.identical = s.identical && ok == !(declined >> j & 1u);
            for (std::size_t net = 0; ok && net < nets; ++net)
                s.identical = s.identical &&
                              lanePass.risingArrivals(net, j) ==
                                  singlePass.risingArrivals(net);
        }
    }
    s.scalarFraction = static_cast<double>(scalar) /
                       static_cast<double>(pulseTrials * nets);
    return s;
}

/** Section 5's plan timing for one universe. */
struct PlanTiming
{
    SampleSet laneUs;   // per trial, one sample per repeat
    SampleSet scalarUs;
    bool bitIdentical = true;
};

/**
 * @p laneRepeats interleaved A/B repeats over trials [rep * planTrials,
 * (rep + 1) * planTrials): A draws their plans eight at a time through
 * generateBlock, B one at a time through generate. Every lane plan
 * must equal its scalar plan, draws() included.
 */
PlanTiming
timePlans(const fault::FaultUniverse &u, std::uint64_t seed)
{
    using Clock = std::chrono::steady_clock;
    constexpr std::size_t lanes = RngLanes8::width;
    const fault::FaultRates rates = fault::FaultRates::mixed(0.02);
    PlanTiming s;
    std::vector<Rng> rngs(planTrials);
    std::vector<fault::FaultPlan> lanePlans(planTrials), scalarPlans(planTrials);
    fault::PlanLaneScratch scratch;
    for (int rep = 0; rep < laneRepeats; ++rep) {
        for (std::size_t j = 0; j < planTrials; ++j)
            rngs[j] = Rng::forTrial(seed, rep * planTrials + j);
        const auto a0 = Clock::now();
        for (std::size_t i = 0; i < planTrials; i += lanes)
            fault::FaultPlan::generateBlock(
                u, rates, std::span<const Rng>(rngs.data() + i, lanes),
                std::span<fault::FaultPlan>(lanePlans.data() + i, lanes),
                scratch);
        const auto a1 = Clock::now();
        for (std::size_t j = 0; j < planTrials; ++j)
            scalarPlans[j] = fault::FaultPlan::generate(u, rates, rngs[j]);
        const auto b1 = Clock::now();
        for (std::size_t j = 0; j < planTrials; ++j)
            s.bitIdentical = s.bitIdentical &&
                             lanePlans[j] == scalarPlans[j] &&
                             lanePlans[j].draws() == scalarPlans[j].draws();
        const double n = static_cast<double>(planTrials);
        s.laneUs.add(
            std::chrono::duration<double, std::micro>(a1 - a0).count() / n);
        s.scalarUs.add(
            std::chrono::duration<double, std::micro>(b1 - a1).count() / n);
    }
    return s;
}

/** Section 5's served-compile timing (per request, microseconds). */
struct CompileTiming
{
    SampleSet hitUs;
    SampleSet rebuildUs;
};

/**
 * @p laneRepeats interleaved A/B repeats of @p compileCalls served
 * H-tree compiles at 16x16: A looks the distribution up in a warm
 * ScenarioCache and sets the rates around it; B rebuilds the tree,
 * buffered tree and universe and fetches the kernel from a warm cache
 * by its tree hash.
 */
CompileTiming
timeServedCompile(const layout::Layout &l, const mc::ResilienceConfig &rc)
{
    using Clock = std::chrono::steady_clock;
    constexpr auto kind = mc::DistributionKind::HTree;
    serve::ScenarioCache cache;
    const core::KernelProvider kernelHit =
        [&cache](const layout::Layout &lay, const clocktree::ClockTree *t) {
            return t ? cache.get(lay, *t) : cache.get(lay);
        };
    const auto hit = [&] {
        return mc::ResilienceScenario(
            cache.distribution(l, rows, cols, kind, rc.bufferSpacing),
            fault::FaultRates::mixed(0.02), rc);
    };
    const auto rebuild = [&] {
        return mc::compileResilienceScenario(l, rows, cols, kind, 0.02, rc,
                                             kernelHit);
    };
    (void)hit();
    (void)rebuild();
    CompileTiming s;
    for (int rep = 0; rep < laneRepeats; ++rep) {
        // Both take the cache's lock, so neither loop can be elided.
        const auto a0 = Clock::now();
        for (int k = 0; k < compileCalls; ++k)
            (void)hit();
        const auto a1 = Clock::now();
        for (int k = 0; k < compileCalls; ++k)
            (void)rebuild();
        const auto b1 = Clock::now();
        s.hitUs.add(std::chrono::duration<double, std::micro>(a1 - a0)
                        .count() /
                    compileCalls);
        s.rebuildUs.add(std::chrono::duration<double, std::micro>(b1 - a1)
                            .count() /
                        compileCalls);
    }
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vsync;
    const auto opts = BenchOptions::parse(argc, argv);
    const std::uint64_t seed = opts.seedSet ? opts.seed : 0xfa017ULL;

    const layout::Layout l = layout::meshLayout(rows, cols);
    const mc::ResilienceConfig rc;
    const auto tree = clocktree::buildHTreeGrid(l, rows, cols);
    const auto btree =
        clocktree::BufferedClockTree::insertBuffers(tree,
                                                    rc.bufferSpacing);

    bench::BenchJson result("fault_tolerance", seed);
    JsonWriter &json = result.writer();
    json.keyValue("array", "mesh16x16")
        .keyValue("m", rc.delay.m)
        .keyValue("eps", rc.delay.eps)
        .keyValue("buffer_delay", rc.bufferDelay)
        .keyValue("buffer_spacing", rc.bufferSpacing);

    // --- 1. Exhaustive single-dead-buffer pass. ---------------------
    bench::headline(
        "Single dead buffer, exhaustive: every H-tree stage kill must "
        "silence its subtree; every TRIX link kill must be masked by "
        "the median vote with zero skew degradation");
    const SingleFaultSummary treePass =
        exhaustiveTreePass(l, tree, btree, rc);
    const SingleFaultSummary gridPass = exhaustiveGridPass(l, rc);

    const bool treeAlwaysLoses = treePass.masked == 0;
    const bool gridAlwaysMasks = gridPass.masked == gridPass.sites;
    const bool gridZeroDegradation =
        gridPass.skewExact == gridPass.sites;

    Table singleTable("single dead buffer (16x16 mesh)",
                      {"distribution", "sites", "masked",
                       "skew-exact", "worst clocked fraction"});
    singleTable.addRow({"htree", Table::integer(treePass.sites),
                        Table::integer(treePass.masked),
                        Table::integer(treePass.skewExact),
                        Table::fixed(treePass.minClockedFraction, 4)});
    singleTable.addRow({"trix-grid", Table::integer(gridPass.sites),
                        Table::integer(gridPass.masked),
                        Table::integer(gridPass.skewExact),
                        Table::fixed(gridPass.minClockedFraction, 4)});
    emitTable(singleTable, opts);

    json.key("single_dead_buffer").beginObject();
    json.key("htree").beginObject()
        .keyValue("buffer_sites",
                  static_cast<std::uint64_t>(treePass.sites))
        .keyValue("faults_masked",
                  static_cast<std::uint64_t>(treePass.masked))
        .keyValue("every_fault_loses_cells", treeAlwaysLoses)
        .keyValue("worst_clocked_fraction", treePass.minClockedFraction)
        .keyValue("healthy_max_comm_skew", treePass.healthySkew)
        .endObject();
    json.key("trix_grid").beginObject()
        .keyValue("links", static_cast<std::uint64_t>(gridPass.sites))
        .keyValue("faults_masked",
                  static_cast<std::uint64_t>(gridPass.masked))
        .keyValue("every_fault_masked", gridAlwaysMasks)
        .keyValue("zero_skew_degradation", gridZeroDegradation)
        .keyValue("worst_clocked_fraction", gridPass.minClockedFraction)
        .keyValue("healthy_max_comm_skew", gridPass.healthySkew)
        .endObject();
    json.endObject();

    // --- 2. Graceful-degradation curves. ----------------------------
    const std::vector<double> rates{0.0, 0.005, 0.02, 0.05};
    mc::McConfig cfg;
    cfg.seed = seed;
    cfg.trials = 64;

    bench::headline(
        "Graceful degradation: mixed fault plans at increasing rates, "
        "64 chips per point");
    Table curveTable("degradation curves (16x16 mesh, 64 chips/point)",
                     {"distribution", "fault rate", "faults/chip",
                      "mean max skew", "worst max skew",
                      "mean clocked", "worst clocked"});
    json.key("degradation_curves").beginArray();
    std::vector<std::vector<mc::ResiliencePoint>> curves;
    for (const mc::DistributionKind kind :
         {mc::DistributionKind::HTree, mc::DistributionKind::Spine,
          mc::DistributionKind::TrixGrid}) {
        curves.push_back(mc::degradationCurve(l, rows, cols, kind,
                                              rates, rc, cfg));
        emitCurve(json, curveTable,
                  mc::distributionKindName(kind), curves.back());
    }
    json.endArray();
    emitTable(curveTable, opts);

    // Monotone sanity on the means: more faults never clock more cells.
    bool degradationMonotone = true;
    for (const auto &curve : curves)
        for (std::size_t i = 1; i < curve.size(); ++i)
            degradationMonotone =
                degradationMonotone &&
                curve[i].clockedFraction.mean() <=
                    curve[i - 1].clockedFraction.mean() + 1e-12;

    // The grid must hold more of the array clocked than the tree at
    // every nonzero rate (the redundancy has to buy something).
    bool gridBeatsTree = true;
    for (std::size_t i = 1; i < rates.size(); ++i)
        gridBeatsTree = gridBeatsTree &&
                        curves[2][i].clockedFraction.mean() >=
                            curves[0][i].clockedFraction.mean();

    // --- Hybrid survival under severed handshake wires. -------------
    const hybrid::Partition part = hybrid::partitionGrid(l, 4.0);
    const hybrid::HybridNetwork net(part, hybrid::HybridParams{});
    Table hybridTable("hybrid survival (severed wires, 64 runs/point)",
                      {"fault rate", "mean surviving fraction",
                       "worst surviving fraction"});
    json.key("hybrid_survival").beginObject()
        .keyValue("elements", part.elementCount);
    json.key("points").beginArray();
    for (const double rate : rates) {
        const mc::McResult survival =
            mc::hybridSurvivalSweep(net, rate, 32, cfg);
        json.beginObject()
            .keyValue("fault_rate", rate)
            .keyValue("surviving_fraction_mean", survival.mean())
            .keyValue("surviving_fraction_min", survival.min())
            .endObject();
        hybridTable.addRow({Table::num(rate),
                            Table::fixed(survival.mean(), 4),
                            Table::fixed(survival.min(), 4)});
    }
    json.endArray().endObject();
    emitTable(hybridTable, opts);

    // --- 3. Determinism across thread counts. -----------------------
    bool deterministic = true;
    {
        mc::McConfig base = cfg;
        base.trials = 32;
        base.threads = 1;
        const mc::ResiliencePoint ref = mc::resilienceAtRate(
            l, rows, cols, mc::DistributionKind::TrixGrid, 0.02, rc,
            base);
        for (const unsigned tc : {2u, 8u}) {
            mc::McConfig alt = base;
            alt.threads = tc;
            const mc::ResiliencePoint got = mc::resilienceAtRate(
                l, rows, cols, mc::DistributionKind::TrixGrid, 0.02,
                rc, alt);
            deterministic =
                deterministic &&
                got.maxCommSkew.bitIdentical(ref.maxCommSkew) &&
                got.clockedFraction.bitIdentical(ref.clockedFraction);
        }
    }

    // --- 4. Levelized vs desim trials. -------------------------------
    bench::headline(
        "Levelized vs desim fault trials: runTrialBlock against runTrial "
        "on the same trials, interleaved, fault rate 0.02");
    Table timingTable(
        "per-trial time (16x16, rate 0.02, " +
            std::to_string(timingRepeats) + " interleaved repeats of " +
            std::to_string(timingTrials) + " trials)",
        {"distribution", "levelized us (median)", "desim us (median)",
         "speedup (median)", "speedup IQR", "bit-identical"});
    bool levelizedIdentical = true;
    bool levelizedFastEnough = true;
    json.key("levelized_vs_desim").beginObject()
        .keyValue("fault_rate", 0.02)
        .keyValue("repeats", timingRepeats)
        .keyValue("trials_per_repeat",
                  static_cast<std::uint64_t>(timingTrials))
        .keyValue("speedup_gate", levelizedSpeedupGate);
    for (const mc::DistributionKind kind :
         {mc::DistributionKind::TrixGrid, mc::DistributionKind::HTree}) {
        const mc::ResilienceScenario scenario =
            mc::compileResilienceScenario(l, rows, cols, kind, 0.02, rc,
                                          core::directCompile());
        const TimingSummary t = timeLevelizedAgainstDesim(scenario, seed);
        const std::string name = mc::distributionKindName(kind);
        levelizedIdentical = levelizedIdentical && t.bitIdentical;
        levelizedFastEnough = levelizedFastEnough &&
                              t.speedup.median() >= levelizedSpeedupGate;
        timingTable.addRow({name, Table::fixed(t.levelizedUs.median(), 1),
                            Table::fixed(t.desimUs.median(), 1),
                            Table::fixed(t.speedup.median(), 2),
                            Table::fixed(iqr(t.speedup), 2),
                            t.bitIdentical ? "yes" : "NO"});
        json.key(name).beginObject()
            .keyValue("levelized_us_per_trial_median",
                      t.levelizedUs.median())
            .keyValue("levelized_us_per_trial_iqr", iqr(t.levelizedUs))
            .keyValue("desim_us_per_trial_median", t.desimUs.median())
            .keyValue("desim_us_per_trial_iqr", iqr(t.desimUs))
            .keyValue("speedup_median", t.speedup.median())
            .keyValue("speedup_iqr", iqr(t.speedup))
            .keyValue("speedup_min", t.speedup.stat().min())
            .keyValue("bit_identical", t.bitIdentical)
            .endObject();
    }
    json.keyValue("bit_identical", levelizedIdentical)
        .keyValue("meets_speedup_gate", levelizedFastEnough)
        .endObject();
    emitTable(timingTable, opts);

    Table pulseTable(
        "per-trial pulse time (16x16, rate 0.02, " +
            std::to_string(laneRepeats) + " interleaved repeats of " +
            std::to_string(pulseTrials) + " trials, " + RngLanes8::isa() +
            " clone)",
        {"distribution", "lane pass us (median)", "lane IQR",
         "width-1 us (median)", "width-1 IQR", "transition-list nets",
         "lanes = width-1"});
    bool lanePassIdentical = true;
    json.key("lane_pass").beginObject()
        .keyValue("isa", RngLanes8::isa())
        .keyValue("fault_rate", 0.02)
        .keyValue("repeats", laneRepeats)
        .keyValue("trials_per_repeat",
                  static_cast<std::uint64_t>(pulseTrials));
    const auto spineTree = clocktree::BufferedClockTree::insertBuffers(
        clocktree::buildSpine(l), rc.bufferSpacing);
    const std::pair<const char *, const clocktree::BufferedClockTree *>
        pulseShapes[] = {
            {"trix-grid", nullptr}, {"htree", &btree}, {"spine", &spineTree}};
    for (const auto &[name, shape] : pulseShapes) {
        const LanePassSummary t = timeLanePass(shape, rc, seed);
        lanePassIdentical = lanePassIdentical && t.identical;
        pulseTable.addRow({name, Table::fixed(t.laneUs.median(), 2),
                           Table::fixed(iqr(t.laneUs), 2),
                           Table::fixed(t.singleUs.median(), 2),
                           Table::fixed(iqr(t.singleUs), 2),
                           Table::fixed(100.0 * t.scalarFraction, 2) + "%",
                           t.identical ? "yes" : "NO"});
        json.key(name).beginObject()
            .keyValue("lane_us_per_trial_median", t.laneUs.median())
            .keyValue("lane_us_per_trial_iqr", iqr(t.laneUs))
            .keyValue("width1_us_per_trial_median", t.singleUs.median())
            .keyValue("width1_us_per_trial_iqr", iqr(t.singleUs))
            .keyValue("scalar_net_fraction", t.scalarFraction)
            .keyValue("bit_identical", t.identical)
            .endObject();
    }
    json.keyValue("bit_identical", lanePassIdentical).endObject();
    emitTable(pulseTable, opts);

    // --- 5. Lane plans and the cached distribution. ----------------
    bench::headline(
        "Lane plans and the cached distribution: generateBlock against "
        "generate per trial, and a served H-tree compile on a "
        "distribution cache hit against the rebuild around a kernel hit");
    Table laneTable(
        "per-trial plan and per-request compile time (16x16, rate 0.02, " +
            std::to_string(laneRepeats) + " interleaved repeats, " +
            RngLanes8::isa() + " clone)",
        {"measure", "A us (median)", "A IQR", "B us (median)", "B IQR",
         "bit-identical"});
    bool lanePlansIdentical = true;
    json.key("lane_plans").beginObject()
        .keyValue("isa", RngLanes8::isa())
        .keyValue("fault_rate", 0.02)
        .keyValue("repeats", laneRepeats)
        .keyValue("trials_per_repeat",
                  static_cast<std::uint64_t>(planTrials));
    for (const mc::DistributionKind kind :
         {mc::DistributionKind::TrixGrid, mc::DistributionKind::HTree}) {
        const fault::FaultUniverse u =
            kind == mc::DistributionKind::TrixGrid
                ? fault::TrixGrid::universe(rows, cols)
                : fault::universeOf(btree);
        const PlanTiming t = timePlans(u, seed);
        const std::string name = mc::distributionKindName(kind);
        lanePlansIdentical = lanePlansIdentical && t.bitIdentical;
        laneTable.addRow({"plan " + name + ": lanes (A) vs generate (B)",
                          Table::fixed(t.laneUs.median(), 2),
                          Table::fixed(iqr(t.laneUs), 2),
                          Table::fixed(t.scalarUs.median(), 2),
                          Table::fixed(iqr(t.scalarUs), 2),
                          t.bitIdentical ? "yes" : "NO"});
        json.key(name).beginObject()
            .keyValue("lane_us_per_trial_median", t.laneUs.median())
            .keyValue("lane_us_per_trial_iqr", iqr(t.laneUs))
            .keyValue("scalar_us_per_trial_median", t.scalarUs.median())
            .keyValue("scalar_us_per_trial_iqr", iqr(t.scalarUs))
            .keyValue("bit_identical", t.bitIdentical)
            .endObject();
    }
    json.keyValue("bit_identical", lanePlansIdentical).endObject();
    const CompileTiming ct = timeServedCompile(l, rc);
    laneTable.addRow({"served htree compile: cache hit (A) vs rebuild (B)",
                      Table::fixed(ct.hitUs.median(), 2),
                      Table::fixed(iqr(ct.hitUs), 2),
                      Table::fixed(ct.rebuildUs.median(), 2),
                      Table::fixed(iqr(ct.rebuildUs), 2), "-"});
    json.key("served_htree_compile").beginObject()
        .keyValue("repeats", laneRepeats)
        .keyValue("compiles_per_repeat", compileCalls)
        .keyValue("cache_hit_us_median", ct.hitUs.median())
        .keyValue("cache_hit_us_iqr", iqr(ct.hitUs))
        .keyValue("rebuild_us_median", ct.rebuildUs.median())
        .keyValue("rebuild_us_iqr", iqr(ct.rebuildUs))
        .endObject();
    emitTable(laneTable, opts);

    const bool ok = treeAlwaysLoses && gridAlwaysMasks &&
                    gridZeroDegradation && degradationMonotone &&
                    gridBeatsTree && deterministic && levelizedIdentical &&
                    levelizedFastEnough && lanePassIdentical &&
                    lanePlansIdentical;
    json.keyValue("degradation_monotone", degradationMonotone)
        .keyValue("grid_clocked_fraction_beats_tree", gridBeatsTree)
        .keyValue("bit_identical_across_thread_counts", deterministic)
        .keyValue("all_properties_hold", ok);

    std::printf(
        "\nwrote BENCH_fault_tolerance.json (tree lost cells on "
        "%zu/%zu single faults, grid masked %zu/%zu with %s skew "
        "degradation; sweeps %s across 1/2/8 threads; levelized trials "
        "%s desim and %s the %.0fx speedup gate; lane passes %s "
        "width-1 passes; lane plans %s scalar ones)\n",
        treePass.sites - treePass.masked, treePass.sites,
        gridPass.masked, gridPass.sites,
        gridZeroDegradation ? "zero" : "NONZERO",
        deterministic ? "bit-identical" : "DIVERGED",
        levelizedIdentical ? "match" : "DIVERGE FROM",
        levelizedFastEnough ? "meet" : "MISS", levelizedSpeedupGate,
        lanePassIdentical ? "match" : "DIVERGE FROM",
        lanePlansIdentical ? "match" : "DIVERGE FROM");
    if (!ok)
        std::printf("PROPERTY FAILURE: see "
                    "BENCH_fault_tolerance.json\n");
    return ok ? 0 : 1;
}
