/**
 * @file
 * The lane-blocked skew-sampling path.
 *
 * The blocked entry points' whole contract is "scalar results, fewer
 * passes": at every width the lanes must replay the scalar draw
 * sequence draw-for-draw (same Rng::draws() accounting) and produce
 * bitwise-identical results. These tests pin that contract across
 * widths {1, 2, 3, 4, 7, 8, 16} -- odd, even, power-of-two (the
 * stride-padding case) and wider than blockWidth() -- on the htree,
 * spine and TRIX-grid scenarios, through remainder blocks
 * (trials % W != 0) and through the blocked SweepService at 1/2/8
 * threads. Width 8 is the SIMD path; the generic lane loop at the same
 * width is its oracle, and a bound derived from the paper's summation
 * model checks both against the physics rather than against each
 * other.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "clocktree/builders.hh"
#include "common/rng.hh"
#include "core/skew_kernel.hh"
#include "desim/simulator.hh"
#include "fault/trix_grid.hh"
#include "layout/generators.hh"
#include "mc/resilience.hh"
#include "mc/sweeps.hh"
#include "serve/sweep_service.hh"

namespace
{

using namespace vsync;
using core::SkewKernel;
using core::WireDelay;

constexpr WireDelay kDelay{0.05, 0.005};
constexpr std::size_t kWidths[] = {1, 2, 3, 4, 7, 8, 16};
constexpr unsigned kThreadCounts[] = {1, 2, 8};

TEST(LaneStride, PadsEvenWidthsToOdd)
{
    EXPECT_EQ(SkewKernel::laneStride(1), 1u);
    EXPECT_EQ(SkewKernel::laneStride(2), 3u);
    EXPECT_EQ(SkewKernel::laneStride(3), 3u);
    EXPECT_EQ(SkewKernel::laneStride(4), 5u);
    EXPECT_EQ(SkewKernel::laneStride(7), 7u);
    EXPECT_EQ(SkewKernel::laneStride(8), 9u);
    EXPECT_EQ(SkewKernel::laneStride(16), 17u);
}

/** Tree scenarios the blocked propagation must replay exactly. */
std::vector<std::pair<layout::Layout, clocktree::ClockTree>>
treeScenarios()
{
    std::vector<std::pair<layout::Layout, clocktree::ClockTree>> out;
    layout::Layout mesh = layout::meshLayout(8, 8);
    clocktree::ClockTree htree = clocktree::buildHTreeGrid(mesh, 8, 8);
    out.emplace_back(std::move(mesh), std::move(htree));
    layout::Layout line = layout::meshLayout(6, 6);
    clocktree::ClockTree spine = clocktree::buildSpine(line);
    out.emplace_back(std::move(line), std::move(spine));
    return out;
}

TEST(SkewBlock, ArrivalsBitIdenticalToScalarAtEveryWidth)
{
    for (const auto &[l, tree] : treeScenarios()) {
        const SkewKernel kernel(l, tree);
        const std::size_t n = kernel.nodeCount();
        for (const std::size_t w : kWidths) {
            const std::size_t stride = SkewKernel::laneStride(w);
            std::vector<Rng> lanes;
            for (std::size_t j = 0; j < w; ++j)
                lanes.push_back(Rng::forTrial(0xb10c, j));
            std::vector<Time> block(n * stride, -1.0);
            kernel.arrivalsBlock(kDelay, {lanes.data(), w},
                                 std::span<Time>(block));

            for (std::size_t j = 0; j < w; ++j) {
                Rng scalar_rng = Rng::forTrial(0xb10c, j);
                std::vector<Time> scalar(n);
                kernel.arrivals(kDelay, scalar_rng,
                                std::span<Time>(scalar));
                for (std::size_t v = 0; v < n; ++v)
                    ASSERT_EQ(block[v * stride + j], scalar[v])
                        << "width " << w << " lane " << j << " node "
                        << v;
                // Exact draw accounting: lane j consumed precisely the
                // scalar sequence, no more, no fewer.
                EXPECT_EQ(lanes[j].draws(), scalar_rng.draws())
                    << "width " << w << " lane " << j;
            }
        }
    }
}

TEST(SkewBlock, SampleMaxCommSkewBlockMatchesScalarAtEveryWidth)
{
    for (const auto &[l, tree] : treeScenarios()) {
        const SkewKernel kernel(l, tree);
        std::vector<Time> scratch, scalar_scratch;
        for (const std::size_t w : kWidths) {
            std::vector<Rng> lanes;
            for (std::size_t j = 0; j < w; ++j)
                lanes.push_back(Rng::forTrial(0x5eed, 100 + j));
            std::vector<Time> skew(w, -1.0);
            kernel.sampleMaxCommSkewBlock(kDelay, {lanes.data(), w},
                                          std::span<Time>(skew),
                                          scratch);
            for (std::size_t j = 0; j < w; ++j) {
                Rng scalar_rng = Rng::forTrial(0x5eed, 100 + j);
                const Time ref = kernel.sampleMaxCommSkew(
                    kDelay, scalar_rng, scalar_scratch);
                EXPECT_EQ(skew[j], ref)
                    << "width " << w << " lane " << j;
                EXPECT_EQ(lanes[j].draws(), scalar_rng.draws())
                    << "width " << w << " lane " << j;
            }
        }
    }
}

TEST(SkewBlock, SampleTrialsMatchesScalarOverAnyRange)
{
    // Ranges shorter than, equal to and longer than one lane block,
    // starting off trial 0: every slot is the scalar trial of its
    // global index, and the draw count is the scalar lanes' sum.
    constexpr std::uint64_t seed = 0x7a11;
    constexpr std::uint64_t first = 3;
    for (const auto &[l, tree] : treeScenarios()) {
        const SkewKernel kernel(l, tree);
        std::vector<Time> scalar_scratch;
        for (const std::size_t n : {1, 7, 8, 9, 37}) {
            std::vector<Time> skew(n, -1.0);
            const std::uint64_t draws = kernel.sampleTrials(
                kDelay, seed, first, std::span<Time>(skew));
            std::uint64_t scalar_draws = 0;
            for (std::size_t i = 0; i < n; ++i) {
                Rng scalar_rng = Rng::forTrial(seed, first + i);
                EXPECT_EQ(skew[i], kernel.sampleMaxCommSkew(
                                       kDelay, scalar_rng, scalar_scratch))
                    << "count " << n << " slot " << i;
                scalar_draws += scalar_rng.draws();
            }
            EXPECT_EQ(draws, scalar_draws) << "count " << n;
        }
    }
}

TEST(SkewBlock, ArrivalSkewBlockMatchesScalarOnTrixSurfaces)
{
    // Pairs-only kernel, as the TRIX-grid drivers compile it; random
    // surfaces with unclocked (infinite) cells exercise the pair
    // exclusion and clocked-fraction counting per lane.
    const layout::Layout l = layout::meshLayout(7, 7);
    const SkewKernel kernel(l);
    const std::size_t cells = kernel.cellCount();
    for (const std::size_t w : kWidths) {
        const std::size_t stride = SkewKernel::laneStride(w);
        std::vector<std::vector<Time>> scalar(w,
                                              std::vector<Time>(cells));
        std::vector<Time> block(cells * stride, 0.0);
        Rng rng(0xfab + w);
        for (std::size_t j = 0; j < w; ++j) {
            for (std::size_t c = 0; c < cells; ++c) {
                const Time t = rng.bernoulli(0.2)
                                   ? infinity
                                   : rng.uniform(0.0, 5.0);
                scalar[j][c] = t;
                block[c * stride + j] = t;
            }
        }
        std::vector<core::ArrivalSkew> got(w);
        kernel.arrivalSkewBlock(std::span<const Time>(block),
                                std::span<core::ArrivalSkew>(got));
        for (std::size_t j = 0; j < w; ++j) {
            const core::ArrivalSkew ref =
                kernel.arrivalSkew(scalar[j]);
            EXPECT_EQ(got[j].maxCommSkew, ref.maxCommSkew) << j;
            EXPECT_EQ(got[j].clockedFraction, ref.clockedFraction) << j;
            EXPECT_EQ(got[j].clockedPairs, ref.clockedPairs) << j;
            EXPECT_EQ(got[j].pairCount, ref.pairCount) << j;
        }
    }
}

TEST(SkewBlock, BlockWidthIsFixedAtEight)
{
    static_assert(SkewKernel::blockWidth() == 8);
    const layout::Layout l = layout::meshLayout(8, 8);
    const auto tree = clocktree::buildHTreeGrid(l, 8, 8);
    const SkewKernel kernel(l, tree);
    EXPECT_EQ(kernel.blockWidth(), 8u);
    const SkewKernel pairsOnly(l);
    EXPECT_EQ(pairsOnly.blockWidth(), 8u);
}

constexpr std::size_t kW = SkewKernel::blockWidth();
constexpr std::size_t kStride = SkewKernel::laneStride(kW);

/** Lanes for trials [first, first + 8) of @p seed. */
std::vector<Rng>
lanesAt(std::uint64_t seed, std::uint64_t first)
{
    std::vector<Rng> lanes;
    for (std::size_t j = 0; j < kW; ++j)
        lanes.push_back(Rng::forTrial(seed, first + j));
    return lanes;
}

TEST(SkewBlock, EightLaneSimdMatchesScalarAndGenericLoop)
{
    // Trial offsets that are not multiples of 8 (the lanes of a block
    // are arbitrary substreams), and eps = 0 (lo == hi: every draw is
    // the same value, but each still consumes its xoshiro step).
    auto scenarios = treeScenarios();
    layout::Layout big = layout::meshLayout(16, 16);
    clocktree::ClockTree bigTree = clocktree::buildHTreeGrid(big, 16, 16);
    scenarios.emplace_back(std::move(big), std::move(bigTree));
    for (const auto &[l, tree] : scenarios) {
        const SkewKernel kernel(l, tree);
        const std::size_t n = kernel.nodeCount();
        for (const WireDelay delay : {kDelay, WireDelay{0.05, 0.0}}) {
            for (const std::uint64_t first : {3u, 13u, 1001u}) {
                std::vector<Rng> simd = lanesAt(0x51d, first);
                std::vector<Rng> generic = lanesAt(0x51d, first);
                std::vector<Time> simdRows(n * kStride, -1.0);
                std::vector<Time> genericRows(n * kStride, -1.0);
                kernel.arrivalsBlock(delay, simd, simdRows);
                kernel.arrivalsBlockGeneric(delay, generic, genericRows);
                std::vector<Time> simdSkew(kW), genericSkew(kW);
                kernel.maxCommSkewBlock(simdRows, simdSkew);
                kernel.maxCommSkewBlockGeneric(genericRows, genericSkew);

                for (std::size_t j = 0; j < kW; ++j) {
                    Rng scalarRng = Rng::forTrial(0x51d, first + j);
                    std::vector<Time> scalar(n);
                    kernel.arrivals(delay, scalarRng, scalar);
                    for (std::size_t v = 0; v < n; ++v) {
                        ASSERT_EQ(simdRows[v * kStride + j], scalar[v])
                            << "first " << first << " lane " << j
                            << " node " << v;
                        ASSERT_EQ(genericRows[v * kStride + j], scalar[v])
                            << "first " << first << " lane " << j
                            << " node " << v;
                    }
                    EXPECT_EQ(simd[j].draws(), scalarRng.draws()) << j;
                    EXPECT_EQ(generic[j].draws(), scalarRng.draws()) << j;
                    // The handed-back state continues the stream.
                    EXPECT_EQ(simd[j].next(), scalarRng.next()) << j;
                    EXPECT_EQ(simdSkew[j], kernel.maxCommSkew(scalar))
                        << "first " << first << " lane " << j;
                    EXPECT_EQ(genericSkew[j], simdSkew[j]) << j;
                }
            }
        }
    }
}

TEST(SkewBlock, EightLaneFoldMatchesScalarOnTrixSurfaces)
{
    // A TRIX grid's arrivals come from median voting, not from a tree,
    // so they exercise the fold on surfaces arrivals() never makes.
    // Each lane is one fault-free grid run with its own link delays;
    // the cells' arrivals go into the rows of the H-tree nodes that
    // clock them, and the SIMD fold must match the scalar fold, the
    // generic loop and the per-cell arrivalSkew() of the same surface.
    constexpr int side = 6;
    const layout::Layout l = layout::meshLayout(side, side);
    const auto tree = clocktree::buildHTreeGrid(l, side, side);
    const SkewKernel kernel(l, tree);
    const std::size_t n = kernel.nodeCount();
    std::vector<Time> rows(n * kStride, 0.0);
    std::vector<std::vector<Time>> scalar(kW, std::vector<Time>(n, 0.0));
    std::vector<Time> cellSkew(kW);
    for (std::size_t j = 0; j < kW; ++j) {
        Rng rng = Rng::forTrial(0x7e1c, 5 + j);
        desim::Simulator sim;
        fault::TrixGrid grid(sim, side, side, [&](int, int, int) {
            return rng.uniform(kDelay.lo(), kDelay.hi());
        });
        grid.pulse();
        std::vector<Time> cells;
        grid.cellArrivals(cells);
        ASSERT_EQ(cells.size(), kernel.cellCount());
        for (CellId c = 0; static_cast<std::size_t>(c) < cells.size();
             ++c) {
            const auto v = static_cast<std::size_t>(kernel.nodeOfCell(c));
            rows[v * kStride + j] = cells[c];
            scalar[j][v] = cells[c];
        }
        cellSkew[j] = kernel.arrivalSkew(cells).maxCommSkew;
    }
    std::vector<Time> simd(kW), generic(kW);
    kernel.maxCommSkewBlock(rows, simd);
    kernel.maxCommSkewBlockGeneric(rows, generic);
    for (std::size_t j = 0; j < kW; ++j) {
        EXPECT_GT(simd[j], 0.0) << j;
        EXPECT_EQ(simd[j], kernel.maxCommSkew(scalar[j])) << j;
        EXPECT_EQ(simd[j], generic[j]) << j;
        EXPECT_EQ(simd[j], cellSkew[j]) << j;
    }
}

TEST(SkewBlock, PairSkewWithinSummationModelBounds)
{
    // Section III: every unit of wire has delay m +- eps, so for a
    // pair (a, b) with d = h_a - h_b and s = treeDistance(a, b) the
    // shared root path cancels and
    //     m |d| - eps s  <=  |t_a - t_b|  <=  m |d| + eps s.
    // The slack is relative to the arrivals themselves, whose rounding
    // the difference inherits. Random meshes and trees (random
    // bisection, H-tree, spine), both the SIMD and the generic path.
    Rng meta(0x0bad5eed);
    std::size_t checked = 0;
    for (int round = 0; round < 6; ++round) {
        const int rows = 2 + static_cast<int>(meta.uniformInt(9));
        const int cols = 2 + static_cast<int>(meta.uniformInt(9));
        const layout::Layout l = layout::meshLayout(rows, cols);
        const double m = 0.05;
        const double eps = round == 0 ? 0.0 : meta.uniform(0.0, m);
        const WireDelay delay{m, eps};
        std::vector<clocktree::ClockTree> trees;
        trees.push_back(clocktree::buildRandomTree(l, meta));
        trees.push_back(clocktree::buildHTreeGrid(l, rows, cols));
        trees.push_back(clocktree::buildSpine(l));
        for (const clocktree::ClockTree &tree : trees) {
            const SkewKernel kernel(l, tree);
            const std::size_t n = kernel.nodeCount();
            for (const bool simdPath : {true, false}) {
                std::vector<Rng> lanes = lanesAt(0xf1, 8 * round + 3);
                std::vector<Time> arr(n * kStride);
                if (simdPath)
                    kernel.arrivalsBlock(delay, lanes, arr);
                else
                    kernel.arrivalsBlockGeneric(delay, lanes, arr);
                for (std::size_t i = 0; i < kernel.pairCount(); ++i) {
                    const NodeId a = kernel.pairNodesA()[i];
                    const NodeId b = kernel.pairNodesB()[i];
                    const double d = std::fabs(kernel.rootPathLength(a) -
                                               kernel.rootPathLength(b));
                    const double s = kernel.treeDistance(a, b);
                    const double lo = std::max(0.0, m * d - eps * s);
                    const double hi = m * d + eps * s;
                    const double slack =
                        1e-12 * (m + eps) *
                        (kernel.rootPathLength(a) + kernel.rootPathLength(b));
                    for (std::size_t j = 0; j < kW; ++j) {
                        const double skew = std::fabs(
                            arr[static_cast<std::size_t>(a) * kStride + j] -
                            arr[static_cast<std::size_t>(b) * kStride + j]);
                        ASSERT_GE(skew, lo - slack)
                            << (simdPath ? "simd" : "generic") << " round "
                            << round << " pair " << i << " lane " << j;
                        ASSERT_LE(skew, hi + slack)
                            << (simdPath ? "simd" : "generic") << " round "
                            << round << " pair " << i << " lane " << j;
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 0u);
}

TEST(SkewBlock, SkewSweepHandlesRemainderTrials)
{
    // trials not divisible by any candidate width, and a grain that
    // splits chunks mid-block: every chunk end runs a narrower
    // remainder block, which must not change a single bit vs the
    // scalar per-trial sampler.
    const layout::Layout l = layout::meshLayout(6, 6);
    const auto tree = clocktree::buildHTreeGrid(l, 6, 6);
    const SkewKernel kernel(l, tree);

    mc::McConfig cfg;
    cfg.seed = 0xabcd;
    cfg.trials = 29;
    cfg.grain = 5;
    const mc::McResult sweep = mc::skewSweep(l, tree, kDelay, cfg);

    std::vector<Time> scratch;
    for (std::size_t i = 0; i < cfg.trials; ++i) {
        Rng rng = Rng::forTrial(cfg.seed, i);
        EXPECT_EQ(sweep.samples[i],
                  kernel.sampleMaxCommSkew(kDelay, rng, scratch))
            << "trial " << i;
    }
}

TEST(SkewBlock, ResilienceRunTrialBlockMatchesRunTrial)
{
    const layout::Layout l = layout::meshLayout(5, 5);
    const mc::ResilienceConfig rc;
    for (const auto kind : {mc::DistributionKind::HTree,
                            mc::DistributionKind::TrixGrid}) {
        const mc::ResilienceScenario scenario =
            mc::compileResilienceScenario(l, 5, 5, kind, 0.05, rc,
                                          core::directCompile());
        std::vector<Time> laneScratch;
        for (const std::size_t w : {std::size_t{1}, std::size_t{3},
                                    std::size_t{4}, std::size_t{8}}) {
            std::vector<double> skew(w), clocked(w), faults(w);
            scenario.runTrialBlock(0x77, 10, w,
                                   std::span<double>(skew),
                                   std::span<double>(clocked),
                                   std::span<double>(faults), nullptr,
                                   laneScratch);
            for (std::size_t j = 0; j < w; ++j) {
                const fault::DistributionOutcome ref =
                    scenario.runTrial(0x77, 10 + j);
                EXPECT_EQ(skew[j], ref.maxCommSkew)
                    << mc::distributionKindName(kind) << " lane " << j;
                EXPECT_EQ(clocked[j], ref.clockedFraction)
                    << mc::distributionKindName(kind) << " lane " << j;
                EXPECT_EQ(faults[j],
                          static_cast<double>(ref.faultCount))
                    << mc::distributionKindName(kind) << " lane " << j;
            }
        }
    }
}

TEST(SkewBlock, SweepServiceBitIdenticalAcrossThreadCounts)
{
    // The blocked work-unit loops must preserve the service's
    // determinism contract: outcomes equal the mc:: references at
    // 1/2/8 threads, including remainder blocks at unit boundaries.
    const layout::Layout l = layout::meshLayout(6, 6);
    const auto tree = clocktree::buildHTreeGrid(l, 6, 6);

    mc::McConfig cfg;
    cfg.seed = 0x5107;
    cfg.trials = 37; // prime: remainder blocks at every grain
    cfg.grain = 5;
    const mc::ResilienceConfig rc;
    const mc::McResult refSkew = mc::skewSweep(l, tree, kDelay, cfg);
    const mc::ResiliencePoint refRes = mc::resilienceAtRate(
        l, 6, 6, mc::DistributionKind::HTree, 0.05, rc, cfg);

    for (const unsigned tc : kThreadCounts) {
        serve::ServiceConfig sc;
        sc.threads = tc;
        serve::SweepService svc(sc);
        serve::ResilienceRequest rq;
        rq.layout = &l;
        rq.rows = 6;
        rq.cols = 6;
        rq.kind = mc::DistributionKind::HTree;
        rq.faultRate = 0.05;
        rq.rc = rc;
        rq.cfg = cfg;
        const std::vector<serve::SweepRequest> batch = {
            serve::SkewRequest{&l, &tree, kDelay, cfg},
            rq,
        };
        const serve::BatchOutcome out = svc.run(batch);
        ASSERT_EQ(out.outcomes.size(), 2u);
        EXPECT_TRUE(out.outcomes[0].skew.bitIdentical(refSkew)) << tc;
        EXPECT_TRUE(out.outcomes[1].resilience.maxCommSkew.bitIdentical(
            refRes.maxCommSkew))
            << tc;
        EXPECT_TRUE(
            out.outcomes[1].resilience.clockedFraction.bitIdentical(
                refRes.clockedFraction))
            << tc;
    }
}

} // namespace
