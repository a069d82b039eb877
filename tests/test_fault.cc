/**
 * @file
 * Tests for the fault-injection subsystem: deterministic fault plans,
 * the injector seams on desim/clocktree/hybrid targets, the TRIX
 * redundant grid's median voting, the levelized faulty-pulse pass
 * against the desim oracle net by net, and the resilience sweeps'
 * bit-identical-across-threads guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "clocktree/buffering.hh"
#include "clocktree/builders.hh"
#include "common/rng.hh"
#include "core/advisor.hh"
#include "core/skew_analysis.hh"
#include "desim/clock_net.hh"
#include "desim/simulator.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "fault/levelized.hh"
#include "fault/trix_grid.hh"
#include "hybrid/handshake.hh"
#include "hybrid/partition.hh"
#include "layout/generators.hh"
#include "mc/resilience.hh"
#include "obs/metrics.hh"

namespace
{

using namespace vsync;
using namespace vsync::fault;

const unsigned kThreadCounts[] = {1, 2, 8};

FaultUniverse
testUniverse()
{
    FaultUniverse u;
    u.bufferSites = 200;
    u.clockNets = 100;
    u.handshakeWires = 60;
    return u;
}

// --- Fault plans. ---------------------------------------------------

TEST(FaultPlan, ForTrialIsAPureFunctionOfSeedAndTrial)
{
    const FaultUniverse u = testUniverse();
    const FaultRates rates = FaultRates::mixed(0.05);
    const FaultPlan a = FaultPlan::forTrial(u, rates, 42, 7);
    const FaultPlan b = FaultPlan::forTrial(u, rates, 42, 7);
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a.empty());
    // Different trials and different seeds give different plans.
    EXPECT_FALSE(a == FaultPlan::forTrial(u, rates, 42, 8));
    EXPECT_FALSE(a == FaultPlan::forTrial(u, rates, 43, 7));
}

TEST(FaultPlan, KindsDrawFromIndependentSubstreams)
{
    // Zeroing one kind's rate must not move another kind's faults.
    const FaultUniverse u = testUniverse();
    FaultRates all = FaultRates::uniform(0.1);
    FaultRates noDrift = all;
    noDrift.delayDrift = 0.0;
    const FaultPlan withDrift = FaultPlan::forTrial(u, all, 1, 0);
    const FaultPlan withoutDrift = FaultPlan::forTrial(u, noDrift, 1, 0);

    std::vector<Fault> dead1, dead2;
    for (const Fault &f : withDrift.faults())
        if (f.kind == FaultKind::DeadBuffer)
            dead1.push_back(f);
    for (const Fault &f : withoutDrift.faults())
        if (f.kind == FaultKind::DeadBuffer)
            dead2.push_back(f);
    ASSERT_EQ(dead1.size(), dead2.size());
    for (std::size_t i = 0; i < dead1.size(); ++i)
        EXPECT_EQ(dead1[i].site, dead2[i].site);
    EXPECT_GT(withDrift.count(FaultKind::DelayDrift), 0u);
    EXPECT_EQ(withoutDrift.count(FaultKind::DelayDrift), 0u);
}

TEST(FaultPlan, GenerateBlockMatchesGenerateBitForBit)
{
    // Lane plans equal scalar ones fault for fault and draw for draw on
    // tree, spine and grid universes and one with handshake wires, for
    // every block width (narrow blocks pad dummy lanes). At rate 1 with
    // an onset window a drift fault takes three draws per site, so
    // every lane spends its buffered draws early and finishes on its
    // own stream.
    const layout::Layout l = layout::meshLayout(8, 8);
    const auto htree = clocktree::BufferedClockTree::insertBuffers(
        clocktree::buildHTreeGrid(l, 8, 8), 4.0);
    const auto spine = clocktree::BufferedClockTree::insertBuffers(
        clocktree::buildSpine(l), 4.0);
    const FaultUniverse universes[] = {universeOf(htree), universeOf(spine),
                                       TrixGrid::universe(8, 8),
                                       testUniverse()};
    std::vector<FaultPlan> plans(8);
    PlanLaneScratch scratch;
    std::size_t continued = 0;
    for (const FaultUniverse &u : universes) {
        for (const double rate : {0.0, 0.02, 0.3, 1.0}) {
            for (const Time window : {0.0, 3.0}) {
                FaultRates rates = FaultRates::uniform(rate);
                rates.onsetWindow = window;
                for (std::size_t w = 1; w <= 8; ++w) {
                    std::vector<Rng> rngs;
                    for (std::size_t j = 0; j < w; ++j)
                        rngs.push_back(Rng::forTrial(0xb10c + w, j));
                    FaultPlan::generateBlock(
                        u, rates, rngs,
                        std::span<FaultPlan>(plans.data(), w), scratch);
                    for (std::size_t j = 0; j < w; ++j) {
                        SCOPED_TRACE(testing::Message()
                                     << u.bufferSites << " stages, rate "
                                     << rate << " window " << window
                                     << " width " << w << " lane " << j);
                        const FaultPlan ref =
                            FaultPlan::generate(u, rates, rngs[j]);
                        EXPECT_TRUE(plans[j] == ref);
                        EXPECT_EQ(plans[j].draws(), ref.draws());
                        const std::uint64_t bernoullis =
                            rate > 0.0 ? 2 * u.bufferSites +
                                             2 * u.clockNets +
                                             u.handshakeWires
                                       : 0;
                        continued += ref.draws() > bernoullis;
                    }
                }
            }
        }
    }
    EXPECT_GT(continued, 0u);
}

TEST(FaultPlan, RatesScaleTheFaultCount)
{
    const FaultUniverse u = testUniverse();
    std::size_t sparse = 0, heavy = 0;
    for (std::uint64_t t = 0; t < 32; ++t) {
        sparse +=
            FaultPlan::forTrial(u, FaultRates::uniform(0.01), 5, t).size();
        heavy +=
            FaultPlan::forTrial(u, FaultRates::uniform(0.2), 5, t).size();
    }
    EXPECT_LT(sparse, heavy);
    EXPECT_TRUE(
        FaultPlan::forTrial(u, FaultRates::uniform(0.0), 5, 0).empty());
}

// --- Injector seams on a simulated clock tree. ----------------------

/** A buffered 8x8 H-tree driven with nominal delays under @p plan. */
DistributionOutcome
treeOutcome(const FaultPlan &plan)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    const auto tree = clocktree::buildHTreeGrid(l, 8, 8);
    const auto btree =
        clocktree::BufferedClockTree::insertBuffers(tree, 4.0);
    const desim::ClockNet::DelayFn delay_of =
        [](const clocktree::BufferedSite &site, std::size_t) {
            return desim::EdgeDelays::same(
                site.wireFromParent * 0.05 + (site.isBuffer ? 0.2 : 0.0));
        };
    return simulateTreeUnderFaults(l, tree, btree, delay_of, plan);
}

TEST(FaultInjector, HealthyTreeClocksEveryCell)
{
    const DistributionOutcome out = treeOutcome(FaultPlan());
    EXPECT_DOUBLE_EQ(out.clockedFraction, 1.0);
    EXPECT_EQ(out.clockedPairs, out.pairCount);
    EXPECT_EQ(out.faultCount, 0u);
}

TEST(FaultInjector, DeadBufferSilencesTheSubtreeBelow)
{
    // Killing the stage feeding site 1 (a child of the root) must
    // leave part of the array unclocked -- and only part.
    const DistributionOutcome out =
        treeOutcome(FaultPlan::singleDeadBuffer(0));
    EXPECT_LT(out.clockedFraction, 1.0);
    EXPECT_GT(out.clockedFraction, 0.0);
    EXPECT_LT(out.clockedPairs, out.pairCount);
}

TEST(FaultInjector, DelayDriftSkewsButDoesNotSilence)
{
    FaultPlan plan;
    plan.add({FaultKind::DelayDrift, 0, 0.0, 3.0, false});
    const DistributionOutcome healthy = treeOutcome(FaultPlan());
    const DistributionOutcome out = treeOutcome(plan);
    EXPECT_DOUBLE_EQ(out.clockedFraction, 1.0);
    EXPECT_GT(out.maxCommSkew, healthy.maxCommSkew);
}

TEST(FaultInjector, StuckLowNetSilencesItsSubtree)
{
    // Site 1 stuck at low: everything below it never sees an edge.
    FaultPlan plan;
    plan.add({FaultKind::StuckAtNet, 1, 0.0, 1.0, false});
    const DistributionOutcome out = treeOutcome(plan);
    EXPECT_LT(out.clockedFraction, 1.0);
}

TEST(FaultInjector, StuckHighNetDeliversOnePrematureEdge)
{
    // Site 1 stuck at high from t = 0: its subtree sees a t = 0 rising
    // edge (so every cell is "clocked") but with the full root-to-site
    // latency as skew against the healthy half.
    FaultPlan plan;
    plan.add({FaultKind::StuckAtNet, 1, 0.0, 1.0, true});
    const DistributionOutcome healthy = treeOutcome(FaultPlan());
    const DistributionOutcome out = treeOutcome(plan);
    EXPECT_DOUBLE_EQ(out.clockedFraction, 1.0);
    EXPECT_GT(out.maxCommSkew, healthy.maxCommSkew);
}

TEST(FaultInjector, TransientGlitchInjectsASpuriousPulse)
{
    // A glitch on an otherwise idle root driver: the spurious pulse
    // propagates through the grid like a real clock edge.
    desim::Simulator sim;
    TrixGrid grid(sim, 1, 1, [](int, int, int) { return 0.1; });
    FaultPlan plan;
    plan.add({FaultKind::TransientGlitch, grid.nodeCount() /* root */,
              2.0, 0.5, false});
    FaultInjector injector(sim, plan);
    injector.armTrixGrid(grid);
    sim.run();
    EXPECT_NEAR(grid.arrival(0, 0), 2.1, 1e-12);
}

TEST(FaultInjector, OnsetDelaysTheFault)
{
    // A buffer dying *after* the pulse passed changes nothing.
    FaultPlan late;
    late.add({FaultKind::DeadBuffer, 0, 1e6, 1.0, false});
    const DistributionOutcome healthy = treeOutcome(FaultPlan());
    const DistributionOutcome out = treeOutcome(late);
    EXPECT_DOUBLE_EQ(out.clockedFraction, healthy.clockedFraction);
    EXPECT_DOUBLE_EQ(out.maxCommSkew, healthy.maxCommSkew);
}

// --- TRIX grid. -----------------------------------------------------

TEST(TrixGrid, NominalArrivalsAreUniformPerLayer)
{
    desim::Simulator sim;
    TrixGrid grid(sim, 4, 4, [](int, int, int) { return 0.25; });
    grid.pulse();
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            EXPECT_DOUBLE_EQ(grid.arrival(r, c),
                             TrixGrid::nominalArrival(r, 0.25));
}

TEST(TrixGrid, MedianVotingMasksAnySingleDeadLink)
{
    // Every link of a 4x4 grid, including the interior node links the
    // issue names, killed one at a time: arrivals must be unchanged.
    const layout::Layout l = layout::meshLayout(4, 4);
    const auto delay_of = [](int, int, int) { return 0.25; };
    const DistributionOutcome healthy =
        simulateGridUnderFaults(l, 4, 4, delay_of, FaultPlan());
    ASSERT_DOUBLE_EQ(healthy.clockedFraction, 1.0);

    const std::size_t links = TrixGrid::universe(4, 4).bufferSites;
    for (std::size_t link = 0; link < links; ++link) {
        const DistributionOutcome out = simulateGridUnderFaults(
            l, 4, 4, delay_of, FaultPlan::singleDeadBuffer(link));
        EXPECT_DOUBLE_EQ(out.clockedFraction, 1.0) << "link " << link;
        for (std::size_t c = 0; c < out.cellArrival.size(); ++c)
            EXPECT_DOUBLE_EQ(out.cellArrival[c], healthy.cellArrival[c])
                << "link " << link << " cell " << c;
    }
}

TEST(TrixGrid, TwoDeadLinksIntoOneNodeDoSilenceIt)
{
    // The single-fault guarantee is tight: two dead links into the
    // same node starve its median vote and the loss propagates.
    const layout::Layout l = layout::meshLayout(4, 4);
    const auto delay_of = [](int, int, int) { return 0.25; };
    FaultPlan plan;
    desim::Simulator sim;
    TrixGrid probe(sim, 4, 4, delay_of);
    plan.add({FaultKind::DeadBuffer, probe.linkIndex(1, 1, 0), 0.0, 1.0,
              false});
    plan.add({FaultKind::DeadBuffer, probe.linkIndex(1, 1, 1), 0.0, 1.0,
              false});
    const DistributionOutcome out =
        simulateGridUnderFaults(l, 4, 4, delay_of, plan);
    EXPECT_LT(out.clockedFraction, 1.0);
    EXPECT_EQ(out.cellArrival[1 * 4 + 1], infinity);
}

TEST(TrixGrid, SharesTheSkewQuerySurfaceWithTrees)
{
    // Both distributions reduce to core::skewFromArrivals on the same
    // layout, so their outcomes are directly comparable.
    const layout::Layout l = layout::meshLayout(4, 4);
    const DistributionOutcome grid = simulateGridUnderFaults(
        l, 4, 4, [](int, int, int) { return 0.25; }, FaultPlan());
    const core::ArrivalSkew direct =
        core::skewFromArrivals(l, grid.cellArrival);
    EXPECT_DOUBLE_EQ(direct.maxCommSkew, grid.maxCommSkew);
    EXPECT_DOUBLE_EQ(direct.clockedFraction, grid.clockedFraction);
    EXPECT_EQ(direct.pairCount, grid.pairCount);
}

// --- Severed handshake wires. ---------------------------------------

TEST(FaultInjector, SeveredWireStallsExactlyTheAffectedPair)
{
    desim::Simulator sim;
    hybrid::HandshakePair severedPair(sim, 1.0, 0.5);
    hybrid::HandshakePair healthyPair(sim, 1.0, 0.5);

    FaultInjector injector(sim, FaultPlan::singleSeveredWire(0));
    injector.armHandshakes({&severedPair, &healthyPair});
    EXPECT_EQ(injector.armed(), 1u);

    // The severed pair never completes a round; the healthy pair on
    // the same simulator is untouched and completes all of its own.
    EXPECT_TRUE(severedPair.runBounded(3, 1000.0).empty());
    const auto done = healthyPair.run(3);
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(severedPair.roundsCompleted(), 0u);
}

TEST(FaultInjector, SeveredAckWireAlsoStalls)
{
    desim::Simulator sim;
    hybrid::HandshakePair pair(sim, 1.0, 0.5);
    FaultInjector injector(sim, FaultPlan::singleSeveredWire(1));
    injector.armHandshakes({&pair});
    EXPECT_TRUE(pair.runBounded(2, 1000.0).empty());
}

TEST(HybridNetwork, SeveredWireStallsOnlyElementsWaitingOnIt)
{
    // Network-level counterpart: severing one element-pair link makes
    // its endpoints (and transitively, their waiters) stall, while a
    // single round leaves distant elements finished.
    const layout::Layout l = layout::meshLayout(16, 16);
    const hybrid::Partition part = hybrid::partitionGrid(l, 4.0);
    const hybrid::HybridNetwork net(part, hybrid::HybridParams{});
    const auto res = net.simulate(
        1, nullptr, [](int a, int b) { return a == 0 || b == 0; });
    std::size_t alive = 0;
    for (const Time t : res.lastCompletion)
        alive += t < infinity;
    EXPECT_LT(alive, res.lastCompletion.size());
    EXPECT_GT(alive, 0u);
}

// --- Levelized faulty pulses against desim. -------------------------

/** Seeded per-stage variation around the resilience model's delays;
 *  the stages feeding the sites in @p zero have no delay at all. */
desim::ClockNet::DelayFn
variedTreeDelay(Rng &rng, std::vector<std::size_t> zero = {})
{
    return [&rng, zero](const clocktree::BufferedSite &site,
                        std::size_t i) {
        const Time d = site.wireFromParent * rng.uniform(0.045, 0.055) +
                       (site.isBuffer ? 0.2 : 0.0);
        const bool none =
            std::find(zero.begin(), zero.end(), i) != zero.end();
        return desim::EdgeDelays::same(none ? 0.0 : d);
    };
}

/** The grid counterpart: @p zero lists link indices. */
TrixGrid::LinkDelayFn
variedGridDelay(Rng &rng, int cols, std::vector<std::size_t> zero = {})
{
    return [&rng, cols, zero](int r, int c, int k) {
        const Time d = 0.2 + rng.uniform(0.045, 0.055);
        const std::size_t link =
            (static_cast<std::size_t>(r) * cols + c) * 3 + k;
        return std::find(zero.begin(), zero.end(), link) != zero.end()
                   ? 0.0
                   : d;
    };
}

/**
 * Run @p plan on a freshly built desim ClockNet and on the levelized
 * pass (both with delays seeded by @p seed) and expect every site's
 * and every tree node's rising edges to agree. Returns false when the
 * pass declined (an unordered tie), true otherwise.
 */
bool
treeAgrees(const clocktree::ClockTree &tree,
           const clocktree::BufferedClockTree &btree, std::uint64_t seed,
           const FaultPlan &plan, const std::vector<std::size_t> &zero = {})
{
    Rng desimRng(seed);
    desim::Simulator sim;
    desim::ClockNet net(sim, btree, variedTreeDelay(desimRng, zero));
    std::vector<std::vector<Time>> siteRises(net.siteCount());
    for (std::size_t i = 0; i < net.siteCount(); ++i)
        net.siteSignal(i).onChange([&siteRises, i](Time t, bool v) {
            if (v)
                siteRises[i].push_back(t);
        });
    FaultInjector(sim, plan).armClockNet(net);
    net.drive(1.0, 1);

    Rng pulseRng(seed);
    LevelizedPulse pulse;
    if (!pulse.tree(btree, variedTreeDelay(pulseRng, zero), plan))
        return false;
    EXPECT_EQ(pulseRng.draws(), desimRng.draws());
    for (std::size_t i = 0; i < net.siteCount(); ++i)
        EXPECT_EQ(pulse.risingArrivals(i), siteRises[i]) << "site " << i;
    for (NodeId v = 0; v < static_cast<NodeId>(tree.size()); ++v)
        EXPECT_EQ(pulse.risingArrivals(btree.siteOfNode(v)),
                  net.risingArrivals(v))
            << "node " << v;
    return true;
}

/** The grid counterpart: every net's rising edges (node outputs and
 *  the root) and every node's first arrival. */
bool
gridAgrees(int rows, int cols, std::uint64_t seed, const FaultPlan &plan,
           const std::vector<std::size_t> &zero = {})
{
    Rng desimRng(seed);
    desim::Simulator sim;
    TrixGrid grid(sim, rows, cols, variedGridDelay(desimRng, cols, zero));
    const std::size_t nets = grid.nodeCount() + 1;
    std::vector<std::vector<Time>> netRises(nets);
    for (std::size_t i = 0; i < nets; ++i)
        grid.netSignal(i).onChange([&netRises, i](Time t, bool v) {
            if (v)
                netRises[i].push_back(t);
        });
    FaultInjector(sim, plan).armTrixGrid(grid);
    grid.pulse();

    Rng pulseRng(seed);
    LevelizedPulse pulse;
    if (!pulse.grid(rows, cols, variedGridDelay(pulseRng, cols, zero),
                    plan))
        return false;
    EXPECT_EQ(pulseRng.draws(), desimRng.draws());
    for (std::size_t i = 0; i < nets; ++i)
        EXPECT_EQ(pulse.risingArrivals(i), netRises[i]) << "net " << i;
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            EXPECT_EQ(pulse.firstRise(static_cast<std::size_t>(r) * cols +
                                      c),
                      grid.arrival(r, c))
                << "node " << r << "," << c;
    return true;
}

FaultPlan
planOf(std::initializer_list<Fault> faults)
{
    FaultPlan p;
    for (const Fault &f : faults)
        p.add(f);
    return p;
}

TEST(LevelizedPulse, RandomPlansMatchDesimOnEveryNet)
{
    // Every tree and grid fault kind at rates 0.02-0.3, onsets at 0
    // or spread before, during and after the pulse, glitches narrower
    // and wider than the clock's high phase. The 16x16 H-tree has 256
    // zero-delay stages, where same-time ties are the rule.
    std::size_t trials = 0;
    for (const int side : {4, 6, 16}) {
        const layout::Layout l = layout::meshLayout(side, side);
        const clocktree::ClockTree htree =
            clocktree::buildHTreeGrid(l, side, side);
        const clocktree::ClockTree spine = clocktree::buildSpine(l);
        for (const double rate : {0.02, 0.1, 0.3}) {
            for (const Time window : {0.0, 6.0}) {
                FaultRates rates = FaultRates::uniform(rate);
                rates.onsetWindow = window;
                for (std::uint64_t t = 0; t < 6; ++t) {
                    rates.glitchWidth = t % 2 == 0 ? 0.05 : 0.7;
                    SCOPED_TRACE(testing::Message()
                                 << side << "x" << side << " rate "
                                 << rate << " window " << window
                                 << " trial " << t);
                    for (const clocktree::ClockTree *tree :
                         {&htree, &spine}) {
                        const auto btree =
                            clocktree::BufferedClockTree::insertBuffers(
                                *tree, 4.0);
                        const FaultPlan plan = FaultPlan::forTrial(
                            universeOf(btree), rates, 11, t);
                        EXPECT_TRUE(treeAgrees(*tree, btree, 100 + t, plan));
                    }
                    const FaultPlan plan = FaultPlan::forTrial(
                        TrixGrid::universe(side, side), rates, 12, t);
                    EXPECT_TRUE(gridAgrees(side, side, 200 + t, plan));
                    trials += 3;
                }
            }
        }
    }
    EXPECT_EQ(trials, 324u);
}

/** Every site's rising edges under @p plan on a freshly built desim
 *  ClockNet with treeAgrees' delays. */
std::vector<std::vector<Time>>
desimSiteRises(const clocktree::BufferedClockTree &btree,
               std::uint64_t seed, const FaultPlan &plan,
               const std::vector<std::size_t> &zero = {})
{
    Rng rng(seed);
    desim::Simulator sim;
    desim::ClockNet net(sim, btree, variedTreeDelay(rng, zero));
    std::vector<std::vector<Time>> rises(net.siteCount());
    for (std::size_t i = 0; i < net.siteCount(); ++i)
        net.siteSignal(i).onChange([&rises, i](Time t, bool v) {
            if (v)
                rises[i].push_back(t);
        });
    FaultInjector(sim, plan).armClockNet(net);
    net.drive(1.0, 1);
    return rises;
}

/** The grid counterpart: every net's rising edges, root last. */
std::vector<std::vector<Time>>
desimNetRises(int rows, int cols, std::uint64_t seed, const FaultPlan &plan,
              const std::vector<std::size_t> &zero = {})
{
    Rng rng(seed);
    desim::Simulator sim;
    TrixGrid grid(sim, rows, cols, variedGridDelay(rng, cols, zero));
    std::vector<std::vector<Time>> rises(grid.nodeCount() + 1);
    for (std::size_t i = 0; i < rises.size(); ++i)
        grid.netSignal(i).onChange([&rises, i](Time t, bool v) {
            if (v)
                rises[i].push_back(t);
        });
    FaultInjector(sim, plan).armTrixGrid(grid);
    grid.pulse();
    return rises;
}

/** One trial of a lane pass: its plan, its delay seed and the stages
 *  (or links) without delay. */
struct LaneTrial
{
    FaultPlan plan;
    std::uint64_t seed;
    std::vector<std::size_t> zero;
};

/** Run @p trials as one lane pass over @p btree (or, when null, a rows
 *  x cols grid), lane j being trials[j] with its own delays. Returns
 *  the declined lanes. */
std::uint8_t
runLanePass(LevelizedPulse &pulse, const clocktree::BufferedClockTree *btree,
            int rows, int cols, const std::vector<LaneTrial> &trials)
{
    constexpr std::size_t lanes = LevelizedPulse::lanes;
    std::vector<FaultPlan> plans;
    if (btree) {
        const auto &sites = btree->sites();
        const std::span<double> d = pulse.laneDelays(sites.size() - 1);
        for (std::size_t j = 0; j < trials.size(); ++j) {
            Rng rng(trials[j].seed);
            const auto fn = variedTreeDelay(rng, trials[j].zero);
            for (std::size_t i = 1; i < sites.size(); ++i)
                d[(i - 1) * lanes + j] = fn(sites[i], i).rise;
            plans.push_back(trials[j].plan);
        }
        return pulse.treeLanes(*btree, plans);
    }
    const std::span<double> d =
        pulse.laneDelays(3 * static_cast<std::size_t>(rows) * cols);
    for (std::size_t j = 0; j < trials.size(); ++j) {
        Rng rng(trials[j].seed);
        const auto fn = variedGridDelay(rng, cols, trials[j].zero);
        std::size_t link = 0;
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < cols; ++c)
                for (int k = 0; k < 3; ++k)
                    d[link++ * lanes + j] = fn(r, c, k);
        plans.push_back(trials[j].plan);
    }
    return pulse.gridLanes(rows, cols, plans);
}

TEST(LevelizedPulse, LanePassMatchesDesimOnEveryNetAtEveryWidth)
{
    // RandomPlansMatchDesimOnEveryNet's 324 plans and delay seeds,
    // eight different trials per lane pass: per side and distribution
    // its 36 trials run as one pass of each width 1 to 8. Onsets spread
    // over the pulse put later-onset stage faults on the list path.
    std::size_t trials = 0;
    for (const int side : {4, 6, 16}) {
        const layout::Layout l = layout::meshLayout(side, side);
        const auto htree = clocktree::BufferedClockTree::insertBuffers(
            clocktree::buildHTreeGrid(l, side, side), 4.0);
        const auto spine = clocktree::BufferedClockTree::insertBuffers(
            clocktree::buildSpine(l), 4.0);
        std::vector<LaneTrial> treeTrials[2], gridTrials;
        for (const double rate : {0.02, 0.1, 0.3}) {
            for (const Time window : {0.0, 6.0}) {
                FaultRates rates = FaultRates::uniform(rate);
                rates.onsetWindow = window;
                for (std::uint64_t t = 0; t < 6; ++t) {
                    rates.glitchWidth = t % 2 == 0 ? 0.05 : 0.7;
                    treeTrials[0].push_back(
                        {FaultPlan::forTrial(universeOf(htree), rates, 11, t),
                         100 + t, {}});
                    treeTrials[1].push_back(
                        {FaultPlan::forTrial(universeOf(spine), rates, 11, t),
                         100 + t, {}});
                    gridTrials.push_back(
                        {FaultPlan::forTrial(TrixGrid::universe(side, side),
                                             rates, 12, t),
                         200 + t, {}});
                }
            }
        }
        const clocktree::BufferedClockTree *shapes[] = {&htree, &spine,
                                                        nullptr};
        const std::vector<LaneTrial> *cases[] = {&treeTrials[0],
                                                 &treeTrials[1], &gridTrials};
        for (int s = 0; s < 3; ++s) {
            LevelizedPulse pulse;
            std::size_t at = 0;
            for (std::size_t w = 1; w <= LevelizedPulse::lanes; ++w) {
                SCOPED_TRACE(testing::Message() << side << "x" << side
                                                << " shape " << s
                                                << " width " << w);
                const std::vector<LaneTrial> block(
                    cases[s]->begin() + static_cast<std::ptrdiff_t>(at),
                    cases[s]->begin() + static_cast<std::ptrdiff_t>(at + w));
                EXPECT_EQ(runLanePass(pulse, shapes[s], side, side, block),
                          0u);
                for (std::size_t j = 0; j < w; ++j) {
                    const std::vector<std::vector<Time>> rises =
                        shapes[s] ? desimSiteRises(*shapes[s], block[j].seed,
                                                   block[j].plan)
                                  : desimNetRises(side, side, block[j].seed,
                                                  block[j].plan);
                    for (std::size_t i = 0; i < rises.size(); ++i)
                        EXPECT_EQ(pulse.risingArrivals(i, j), rises[i])
                            << "lane " << j << " net " << i;
                }
                at += w;
                trials += w;
            }
            EXPECT_EQ(at, cases[s]->size());
        }
    }
    EXPECT_EQ(trials, 324u);
}

TEST(LevelizedPulse, ALaneWithArmedFaultsLeavesTheOtherLanesAlone)
{
    // One lane carries a root glitch, an onset-0 stuck-high root, or an
    // onset-0 stuck-high parent over a zero-delay child (its transitions
    // are written while arming, so nothing below it is simple); the
    // other seven lanes have no fault. Every lane, with the faulty one
    // at each position, equals its own width-1 pass on every net.
    const layout::Layout l = layout::meshLayout(8, 8);
    const auto btree = clocktree::BufferedClockTree::insertBuffers(
        clocktree::buildHTreeGrid(l, 8, 8), 4.0);
    const auto &sites = btree.sites();
    std::size_t s = 1; // a site whose parent is not the root
    while (sites[s].parent == 0)
        ++s;
    const std::size_t p = sites[s].parent;
    const std::size_t root = 8 * 8; // the grid's root net
    const std::size_t below = 1 * 8 + 3; // grid node (1, 3)
    struct Special
    {
        bool grid;
        LaneTrial trial;
    };
    const Special specials[] = {
        {false,
         {planOf({{FaultKind::TransientGlitch, 0, 0.0, 0.3, false}}), 7, {}}},
        {false,
         {planOf({{FaultKind::StuckAtNet, 0, 0.0, 1.0, true}}), 7, {}}},
        {false,
         {planOf({{FaultKind::StuckAtNet, p, 0.0, 1.0, true},
                  {FaultKind::TransientGlitch, s, 0.0, 0.1, false}}),
          9,
          {s}}},
        {true,
         {planOf({{FaultKind::TransientGlitch, root, 0.0, 0.3, false}}), 8,
          {}}},
        {true,
         {planOf({{FaultKind::StuckAtNet, root, 0.0, 1.0, true}}), 8, {}}},
        {true,
         {planOf({{FaultKind::StuckAtNet, 2, 0.0, 1.0, true},
                  {FaultKind::StuckAtNet, 3, 0.0, 1.0, true},
                  {FaultKind::TransientGlitch, below, 0.0, 0.1, false}}),
          10,
          {below * 3 + 0, below * 3 + 1}}},
    };
    LevelizedPulse lanePass, single;
    for (std::size_t k = 0; k < std::size(specials); ++k) {
        const Special &sp = specials[k];
        for (std::size_t at = 0; at < LevelizedPulse::lanes; ++at) {
            SCOPED_TRACE(testing::Message()
                         << "special " << k << " in lane " << at);
            std::vector<LaneTrial> block;
            for (std::size_t j = 0; j < LevelizedPulse::lanes; ++j)
                block.push_back(j == at ? sp.trial
                                        : LaneTrial{FaultPlan(), 300 + j, {}});
            const std::uint8_t declined = runLanePass(
                lanePass, sp.grid ? nullptr : &btree, 8, 8, block);
            const std::size_t nets = sp.grid ? root + 1 : sites.size();
            for (std::size_t j = 0; j < block.size(); ++j) {
                const std::uint8_t alone = runLanePass(
                    single, sp.grid ? nullptr : &btree, 8, 8, {block[j]});
                ASSERT_EQ(declined >> j & 1u, alone) << "lane " << j;
                for (std::size_t i = 0; i < nets; ++i)
                    EXPECT_EQ(lanePass.risingArrivals(i, j),
                              single.risingArrivals(i))
                        << "lane " << j << " net " << i;
            }
        }
    }
}

TEST(LevelizedPulse, RootGlitchAndStuckRootRaceTheClockEdges)
{
    // Armed faults run before the clock's rise at 0 (and, on the
    // tree, its fall at 0.5); restores scheduled during the run after.
    const layout::Layout l = layout::meshLayout(8, 8);
    const auto tree = clocktree::buildHTreeGrid(l, 8, 8);
    const auto btree = clocktree::BufferedClockTree::insertBuffers(tree, 4.0);
    const std::size_t root = 8 * 8; // the grid's root net
    const std::vector<FaultPlan> plans = {
        planOf({{FaultKind::TransientGlitch, 0, 0.0, 0.3, false}}),
        planOf({{FaultKind::TransientGlitch, 0, 0.0, 0.5, false}}),
        planOf({{FaultKind::TransientGlitch, 0, 0.5, 0.2, false}}),
        planOf({{FaultKind::StuckAtNet, 0, 0.0, 1.0, true}}),
        planOf({{FaultKind::StuckAtNet, 0, 0.0, 1.0, false}}),
        planOf({{FaultKind::StuckAtNet, 0, 0.5, 1.0, true}}),
        planOf({{FaultKind::StuckAtNet, 0, 0.0, 1.0, false},
                {FaultKind::TransientGlitch, 0, 0.0, 0.3, false}}),
        planOf({{FaultKind::TransientGlitch, 0, 0.0, 0.3, false},
                {FaultKind::StuckAtNet, 0, 0.0, 1.0, true}}),
        // A later stuck-at overrides an earlier one.
        planOf({{FaultKind::StuckAtNet, 0, 0.0, 1.0, false},
                {FaultKind::StuckAtNet, 0, 0.3, 1.0, true}}),
    };
    for (std::size_t k = 0; k < plans.size(); ++k) {
        SCOPED_TRACE(testing::Message() << "plan " << k);
        EXPECT_TRUE(treeAgrees(tree, btree, 7, plans[k]));
    }
    const std::vector<FaultPlan> gridPlans = {
        planOf({{FaultKind::TransientGlitch, root, 0.0, 0.3, false}}),
        planOf({{FaultKind::StuckAtNet, root, 0.0, 1.0, true}}),
        planOf({{FaultKind::StuckAtNet, root, 0.0, 1.0, false}}),
        planOf({{FaultKind::TransientGlitch, root, 0.0, 0.3, false},
                {FaultKind::TransientGlitch, 0, 0.0, 0.1, false}}),
    };
    for (std::size_t k = 0; k < gridPlans.size(); ++k) {
        SCOPED_TRACE(testing::Message() << "grid plan " << k);
        EXPECT_TRUE(gridAgrees(8, 8, 8, gridPlans[k]));
    }
}

TEST(LevelizedPulse, StuckHighParentOverAZeroDelayChildFollowsPlanOrder)
{
    // An onset-0 stuck-high pushes its rise into the stage below while
    // the plan is armed, at its turn in plan order: a dead or drifted
    // stage armed before it sees the rise, one armed after does not,
    // and through a zero-delay stage the pushed rise lands at 0 in
    // plan order among the child's own armed faults.
    const layout::Layout l = layout::meshLayout(8, 8);
    const auto tree = clocktree::buildHTreeGrid(l, 8, 8);
    const auto btree = clocktree::BufferedClockTree::insertBuffers(tree, 4.0);
    const auto &sites = btree.sites();
    // A site s below a non-root parent p, with a child c of its own.
    std::size_t s = 0, c = 0;
    for (std::size_t i = 2; i < sites.size() && c == 0; ++i)
        if (sites[i].parent != 0 && sites[sites[i].parent].parent != 0)
            for (std::size_t j = i + 1; j < sites.size(); ++j)
                if (static_cast<std::size_t>(sites[j].parent) == i) {
                    s = i;
                    c = j;
                    break;
                }
    ASSERT_NE(c, 0u);
    const std::size_t p = sites[s].parent;
    const Fault stuckP{FaultKind::StuckAtNet, p, 0.0, 1.0, true};
    const Fault glitchS{FaultKind::TransientGlitch, s, 0.0, 0.1, false};
    const Fault glitchC{FaultKind::TransientGlitch, c, 0.0, 0.15, false};
    const Fault deadS{FaultKind::DeadBuffer, s - 1, 0.0, 1.0, false};
    const Fault driftS{FaultKind::DelayDrift, s - 1, 0.0, 2.5, false};
    const Fault stuckLowC{FaultKind::StuckAtNet, c, 0.0, 1.0, false};
    const std::vector<FaultPlan> plans = {
        planOf({stuckP, glitchS}),         planOf({glitchS, stuckP}),
        planOf({stuckP, glitchS, glitchC}), planOf({glitchC, stuckP, glitchS}),
        planOf({deadS, stuckP, glitchS}),  planOf({stuckP, deadS, glitchS}),
        planOf({driftS, stuckP}),          planOf({stuckP, driftS}),
        planOf({stuckP, stuckLowC, glitchS}),
        planOf({stuckP, glitchS,
                {FaultKind::StuckAtNet, s, 0.05, 1.0, false}}),
    };
    for (const bool zeroChain : {false, true}) {
        const std::vector<std::size_t> zero =
            zeroChain ? std::vector<std::size_t>{s, c}
                      : std::vector<std::size_t>{s};
        for (std::size_t k = 0; k < plans.size(); ++k) {
            SCOPED_TRACE(testing::Message()
                         << "plan " << k << " zero chain " << zeroChain);
            EXPECT_TRUE(treeAgrees(tree, btree, 9, plans[k], zero));
            // The same plans with real delays everywhere.
            EXPECT_TRUE(treeAgrees(tree, btree, 9, plans[k]));
        }
    }

    // Grid: two onset-0 stuck-high nodes over zero-delay links fire
    // the node below them at 0, racing that node's own armed glitch.
    const std::size_t below = 1 * 8 + 3; // node (1, 3)
    const std::vector<std::size_t> zeroLinks = {below * 3 + 0,
                                                below * 3 + 1};
    const Fault stuck2{FaultKind::StuckAtNet, 2, 0.0, 1.0, true};
    const Fault stuck3{FaultKind::StuckAtNet, 3, 0.0, 1.0, true};
    const Fault glitchBelow{FaultKind::TransientGlitch, below, 0.0, 0.1,
                            false};
    const Fault deadLink{FaultKind::DeadBuffer, below * 3 + 1, 0.0, 1.0,
                         false};
    const std::vector<FaultPlan> gridPlans = {
        planOf({stuck2, stuck3, glitchBelow}),
        planOf({glitchBelow, stuck2, stuck3}),
        planOf({stuck2, glitchBelow, stuck3}),
        planOf({stuck2, deadLink, stuck3, glitchBelow}),
        planOf({deadLink, stuck2, stuck3, glitchBelow}),
    };
    for (std::size_t k = 0; k < gridPlans.size(); ++k) {
        SCOPED_TRACE(testing::Message() << "grid plan " << k);
        EXPECT_TRUE(gridAgrees(8, 8, 10, gridPlans[k], zeroLinks));
    }
}

TEST(LevelizedPulse, StageFaultsDueAtOnceFoldIntoTheDelay)
{
    // Dead and drift faults due at once fold into the lane's stage
    // delay: the last drift's scale wins, dead wins over drift, and a
    // later onset on the same stage keeps the list path. A rise an
    // onset-0 stuck-high pushes while arming is not folded: it passes
    // a stage whose dead fault comes later in plan order.
    const layout::Layout l = layout::meshLayout(8, 8);
    const auto tree = clocktree::buildHTreeGrid(l, 8, 8);
    const auto btree = clocktree::BufferedClockTree::insertBuffers(tree, 4.0);
    const auto &sites = btree.sites();
    std::size_t s = 1; // a site whose parent is not the root
    while (sites[s].parent == 0)
        ++s;
    const std::size_t p = sites[s].parent;
    const Fault stuckP{FaultKind::StuckAtNet, p, 0.0, 1.0, true};
    const Fault deadS{FaultKind::DeadBuffer, s - 1, 0.0, 1.0, false};
    const Fault driftA{FaultKind::DelayDrift, s - 1, 0.0, 2.5, false};
    const Fault driftB{FaultKind::DelayDrift, s - 1, 0.0, 1.7, false};
    const Fault driftLate{FaultKind::DelayDrift, s - 1, 0.3, 3.0, false};
    const std::vector<FaultPlan> plans = {
        planOf({driftA, driftB}),   planOf({driftB, driftA}),
        planOf({driftA, deadS}),    planOf({deadS, driftB}),
        planOf({driftA, driftLate}), planOf({driftLate, driftB}),
        planOf({stuckP, deadS}),    planOf({deadS, stuckP}),
        planOf({stuckP, driftA, driftB}),
    };
    for (std::size_t k = 0; k < plans.size(); ++k) {
        SCOPED_TRACE(testing::Message() << "tree plan " << k);
        EXPECT_TRUE(treeAgrees(tree, btree, 11, plans[k]));
    }

    // Grid: node (1, 3)'s middle link comes from node 3.
    const std::size_t link = (1 * 8 + 3) * 3 + 1;
    const Fault stuck3{FaultKind::StuckAtNet, 3, 0.0, 1.0, true};
    const Fault deadL{FaultKind::DeadBuffer, link, 0.0, 1.0, false};
    const Fault driftLA{FaultKind::DelayDrift, link, 0.0, 2.5, false};
    const Fault driftLB{FaultKind::DelayDrift, link, 0.0, 1.7, false};
    const std::vector<FaultPlan> gridPlans = {
        planOf({driftLA, driftLB}), planOf({driftLB, driftLA}),
        planOf({stuck3, deadL}),    planOf({deadL, stuck3}),
        planOf({stuck3, driftLA}),
    };
    for (std::size_t k = 0; k < gridPlans.size(); ++k) {
        SCOPED_TRACE(testing::Message() << "grid plan " << k);
        EXPECT_TRUE(gridAgrees(8, 8, 12, gridPlans[k]));
    }
}

TEST(LevelizedPulse, EqualLinkDelaysTieEveryVoteAndMatchDesim)
{
    // Every link has the same delay, so each node's three link rises
    // arrive at one time and the vote's tie order (lower link first)
    // picks the rise it records. Every net must still match desim,
    // with no fault and with the root stuck high while arming.
    const TrixGrid::LinkDelayFn same = [](int, int, int) { return 0.25; };
    for (const int side : {4, 16}) {
        const std::size_t root = static_cast<std::size_t>(side) * side;
        const FaultPlan plans[] = {
            FaultPlan(),
            planOf({{FaultKind::StuckAtNet, root, 0.0, 1.0, true}})};
        for (const FaultPlan &plan : plans) {
            SCOPED_TRACE(testing::Message()
                         << side << "x" << side << ", " << plan.size()
                         << " faults");
            desim::Simulator sim;
            TrixGrid grid(sim, side, side, same);
            std::vector<std::vector<Time>> netRises(root + 1);
            for (std::size_t i = 0; i <= root; ++i)
                grid.netSignal(i).onChange([&netRises, i](Time t, bool v) {
                    if (v)
                        netRises[i].push_back(t);
                });
            FaultInjector(sim, plan).armTrixGrid(grid);
            grid.pulse();

            LevelizedPulse pulse;
            ASSERT_TRUE(pulse.grid(side, side, same, plan));
            for (std::size_t i = 0; i <= root; ++i)
                EXPECT_EQ(pulse.risingArrivals(i), netRises[i])
                    << "net " << i;
            for (int r = 0; r < side; ++r)
                for (int c = 0; c < side; ++c)
                    EXPECT_EQ(pulse.firstRise(
                                  static_cast<std::size_t>(r) * side + c),
                              grid.arrival(r, c))
                        << "node " << r << "," << c;
        }
    }
}

TEST(LevelizedPulse, UnorderedRunTimeTieDeclines)
{
    // A glitch on the root's child, armed at 0 with exactly the child's
    // stage delay as its width: its restore and the clock's rise reach
    // the child at the same time, both scheduled during the run at 0.
    // That order is desim's event sequence, not structure: decline.
    const layout::Layout l = layout::meshLayout(4, 4);
    const auto tree = clocktree::buildHTreeGrid(l, 4, 4);
    const auto btree = clocktree::BufferedClockTree::insertBuffers(tree, 4.0);
    const desim::ClockNet::DelayFn fixed =
        [](const clocktree::BufferedSite &site, std::size_t) {
            return desim::EdgeDelays::same(site.wireFromParent * 0.05 +
                                           (site.isBuffer ? 0.2 : 0.0));
        };
    std::size_t child = 1;
    while (btree.sites()[child].parent != 0)
        ++child;
    const Time width = fixed(btree.sites()[child], child).rise;
    LevelizedPulse pulse;
    EXPECT_FALSE(pulse.tree(
        btree, fixed,
        planOf({{FaultKind::TransientGlitch, child, 0.0, width, false}})));
    // The workspace stays usable: the next trial runs normally.
    EXPECT_TRUE(pulse.tree(btree, fixed, FaultPlan()));
    EXPECT_TRUE(std::isfinite(pulse.firstRise(child)));
}

TEST(Resilience, UnorderedTiesFallBackToDesimAndAreCounted)
{
    // Every net glitched at 0 for exactly the root child's stage delay,
    // with no delay variation: each trial meets the tie above, reruns
    // on desim and still matches runTrial.
    const layout::Layout l = layout::meshLayout(6, 6);
    mc::ResilienceScenario scenario = mc::compileResilienceScenario(
        l, 6, 6, mc::DistributionKind::HTree, 0.0, mc::ResilienceConfig{},
        core::directCompile());
    scenario.rc.delay = core::WireDelay{0.05, 0.0};
    const auto &sites = scenario.btree.sites();
    std::size_t child = 1;
    while (sites[child].parent != 0)
        ++child;
    scenario.rates = FaultRates{};
    scenario.rates.transientGlitch = 1.0;
    scenario.rates.glitchWidth =
        sites[child].wireFromParent * scenario.rc.delay.lo() +
        (sites[child].isBuffer ? scenario.rc.bufferDelay : 0.0);

    obs::MetricsRegistry reg;
    obs::Counter &fallbacks = reg.counter("mc.resilience.desim_fallbacks");
    const std::size_t n = 9;
    std::vector<double> skew(n), clocked(n), faults(n);
    std::vector<Time> laneScratch;
    scenario.runTrialBlock(5, 0, n, skew, clocked, faults, nullptr,
                           laneScratch, &fallbacks);
    EXPECT_EQ(fallbacks.value(), n);
    for (std::size_t j = 0; j < n; ++j) {
        const DistributionOutcome ref = scenario.runTrial(5, j);
        EXPECT_EQ(skew[j], ref.maxCommSkew) << "trial " << j;
        EXPECT_EQ(clocked[j], ref.clockedFraction) << "trial " << j;
        EXPECT_EQ(faults[j], static_cast<double>(ref.faultCount));
    }
}

TEST(Resilience, ServedProfilesNeverFallBackAndMatchRunTrial)
{
    // The shapes the benchmark serves: fleet-sweep's 16x16 TRIX grid,
    // H-tree and spine at rate 0.02, and wire-mix's 6x6 H-tree and
    // TRIX grid at rate 0.05. Every trial stays on the levelized pass
    // and reproduces the desim oracle bit for bit.
    struct Profile
    {
        int side;
        mc::DistributionKind kind;
        double rate;
        std::size_t trials;
    };
    const Profile profiles[] = {
        {16, mc::DistributionKind::TrixGrid, 0.02, 2048},
        {16, mc::DistributionKind::HTree, 0.02, 2048},
        {16, mc::DistributionKind::Spine, 0.02, 2048},
        {6, mc::DistributionKind::HTree, 0.05, 512},
        {6, mc::DistributionKind::TrixGrid, 0.05, 512},
    };
    for (const Profile &pr : profiles) {
        SCOPED_TRACE(mc::distributionKindName(pr.kind) + " " +
                     std::to_string(pr.side));
        const layout::Layout l = layout::meshLayout(pr.side, pr.side);
        const mc::ResilienceConfig rc;
        obs::MetricsRegistry reg;
        mc::McConfig cfg;
        cfg.trials = pr.trials;
        cfg.seed = 0x5e12;
        cfg.threads = 4;
        cfg.metrics = &reg;
        const mc::ResiliencePoint point = mc::resilienceAtRate(
            l, pr.side, pr.side, pr.kind, pr.rate, rc, cfg);
        EXPECT_EQ(reg.counter("mc.resilience.desim_fallbacks").value(), 0u);

        const mc::ResilienceScenario scenario =
            mc::compileResilienceScenario(l, pr.side, pr.side, pr.kind,
                                          pr.rate, rc,
                                          core::directCompile());
        std::size_t mismatches = 0;
        for (std::size_t t = 0; t < pr.trials; ++t) {
            const DistributionOutcome ref = scenario.runTrial(cfg.seed, t);
            mismatches +=
                point.maxCommSkew.samples[t] != ref.maxCommSkew ||
                point.clockedFraction.samples[t] != ref.clockedFraction;
        }
        EXPECT_EQ(mismatches, 0u);
    }
}

TEST(Resilience, RunTrialBlockOverAnyRangeMatchesRunTrial)
{
    // Ranges of every length, including ones above maxLanes that run
    // as several lane blocks, equal the per-trial desim path on the
    // tree, spine and grid.
    const layout::Layout l = layout::meshLayout(6, 6);
    const mc::ResilienceConfig rc;
    std::vector<Time> laneScratch;
    for (const auto kind :
         {mc::DistributionKind::HTree, mc::DistributionKind::TrixGrid,
          mc::DistributionKind::Spine}) {
        const mc::ResilienceScenario scenario =
            mc::compileResilienceScenario(l, 6, 6, kind, 0.1, rc,
                                          core::directCompile());
        std::uint64_t first = 3;
        for (const std::size_t w :
             {std::size_t{1}, std::size_t{5}, std::size_t{8},
              std::size_t{2}, std::size_t{13}, std::size_t{37}}) {
            std::vector<double> skew(w), clocked(w), faults(w);
            scenario.runTrialBlock(0x99, first, w, skew, clocked, faults,
                                   nullptr, laneScratch);
            for (std::size_t j = 0; j < w; ++j) {
                const DistributionOutcome ref =
                    scenario.runTrial(0x99, first + j);
                SCOPED_TRACE(testing::Message()
                             << mc::distributionKindName(kind)
                             << " trial " << first + j);
                EXPECT_EQ(skew[j], ref.maxCommSkew);
                EXPECT_EQ(clocked[j], ref.clockedFraction);
                EXPECT_EQ(faults[j], static_cast<double>(ref.faultCount));
            }
            first += w;
        }
    }
}

// --- Resilience sweeps. ---------------------------------------------

TEST(Resilience, SweepIsBitIdenticalAcrossThreadCounts)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    const mc::ResilienceConfig rc;
    mc::McConfig cfg;
    cfg.trials = 24;
    cfg.seed = 99;

    std::vector<mc::ResiliencePoint> runs;
    for (const unsigned tc : kThreadCounts) {
        cfg.threads = tc;
        runs.push_back(mc::resilienceAtRate(
            l, 8, 8, mc::DistributionKind::TrixGrid, 0.03, rc, cfg));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_TRUE(
            runs[i].maxCommSkew.bitIdentical(runs[0].maxCommSkew));
        EXPECT_TRUE(runs[i].clockedFraction.bitIdentical(
            runs[0].clockedFraction));
        EXPECT_DOUBLE_EQ(runs[i].meanFaults, runs[0].meanFaults);
    }
    EXPECT_GT(runs[0].meanFaults, 0.0);
}

TEST(Resilience, HealthyBaselineClocksEverything)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    const mc::ResilienceConfig rc;
    mc::McConfig cfg;
    cfg.trials = 8;
    for (const mc::DistributionKind kind :
         {mc::DistributionKind::HTree, mc::DistributionKind::Spine,
          mc::DistributionKind::TrixGrid}) {
        const mc::ResiliencePoint p =
            mc::resilienceAtRate(l, 8, 8, kind, 0.0, rc, cfg);
        EXPECT_DOUBLE_EQ(p.clockedFraction.mean(), 1.0)
            << mc::distributionKindName(kind);
        EXPECT_DOUBLE_EQ(p.meanFaults, 0.0);
    }
}

TEST(Resilience, GridDegradesMoreGracefullyThanTree)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    const mc::ResilienceConfig rc;
    mc::McConfig cfg;
    cfg.trials = 32;
    const mc::ResiliencePoint tree = mc::resilienceAtRate(
        l, 8, 8, mc::DistributionKind::HTree, 0.02, rc, cfg);
    const mc::ResiliencePoint grid = mc::resilienceAtRate(
        l, 8, 8, mc::DistributionKind::TrixGrid, 0.02, rc, cfg);
    EXPECT_GT(grid.clockedFraction.mean(),
              tree.clockedFraction.mean());
}

TEST(Resilience, HybridSurvivalFallsWithFaultRate)
{
    const layout::Layout l = layout::meshLayout(16, 16);
    const hybrid::HybridNetwork net(hybrid::partitionGrid(l, 4.0),
                                    hybrid::HybridParams{});
    mc::McConfig cfg;
    cfg.trials = 24;
    const mc::McResult none = mc::hybridSurvivalSweep(net, 0.0, 8, cfg);
    const mc::McResult some = mc::hybridSurvivalSweep(net, 0.05, 8, cfg);
    EXPECT_DOUBLE_EQ(none.mean(), 1.0);
    EXPECT_LT(some.mean(), 1.0);

    // Bit-identical across thread counts, like every sweep.
    for (const unsigned tc : kThreadCounts) {
        mc::McConfig alt = cfg;
        alt.threads = tc;
        EXPECT_TRUE(mc::hybridSurvivalSweep(net, 0.05, 8, alt)
                        .bitIdentical(some));
    }
}

// --- Advisor integration. -------------------------------------------

TEST(Advisor, FaultRateMovesTreeSchemesToTheRedundantGrid)
{
    core::TechnologyAssumptions tech;
    tech.skewModel = core::SkewModelKind::Difference;
    const auto healthy =
        core::adviseScheme(graph::TopologyKind::Mesh, tech);
    EXPECT_EQ(healthy.scheme, core::SyncScheme::PipelinedHTree);

    tech.faultRate = 0.01;
    const auto faulty =
        core::adviseScheme(graph::TopologyKind::Mesh, tech);
    EXPECT_EQ(faulty.scheme, core::SyncScheme::RedundantGridTrix);
    EXPECT_NE(faulty.justification.find("median"), std::string::npos);

    // Handshake-based picks already degrade gracefully and stand.
    tech.skewModel = core::SkewModelKind::Summation;
    const auto hybridPick =
        core::adviseScheme(graph::TopologyKind::Mesh, tech);
    EXPECT_EQ(hybridPick.scheme, core::SyncScheme::Hybrid);
}

} // namespace
