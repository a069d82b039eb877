#include "core/skew_kernel.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"

namespace vsync::core
{

namespace
{

using F64x8 = RngLanes8::F64x8;
using U64x8 = RngLanes8::U64x8;
static_assert(SkewKernel::blockWidth() == RngLanes8::width,
              "the SIMD path is the blockWidth() path");
constexpr std::size_t rowStride8 =
    SkewKernel::laneStride(RngLanes8::width);

/**
 * The eight-lane arrivals(): node v's row is its parent's row plus one
 * RngLanes8 draw per lane times wireLen[v] -- the scalar expression,
 * lane-wise, with the draw fed straight in (no draw buffer). Rows sit
 * at the odd stride laneStride(8) = 9, so loads and stores are
 * unaligned 8-wide copies.
 */
VSYNC_LANE_CLONES void
propagateLanes8(double lo, double hi, const NodeId *parent,
                const Length *wire, std::size_t n, std::span<Rng> lanes,
                Time *arr)
{
    RngLanes8 gen(lanes);
    const F64x8 root = {};
    std::memcpy(arr, &root, sizeof root);
    for (std::size_t v = 1; v < n; ++v) {
        F64x8 up, draw;
        std::memcpy(&up, arr + static_cast<std::size_t>(parent[v]) *
                                   rowStride8,
                    sizeof up);
        gen.uniform(lo, hi, draw);
        const F64x8 row = up + draw * wire[v];
        std::memcpy(arr + v * rowStride8, &row, sizeof row);
    }
    gen.storeTo(lanes);
}

/**
 * The eight-lane pair fold: out[j] = max over pairs of |a_j - b_j|,
 * two 8-wide row loads per pair. fabs is a sign-bit clear, and the max
 * keeps std::max's operand order; both are exact, and so is splitting
 * the pairs over two accumulators (a max does not depend on order), so
 * every lane is bitwise the scalar fold.
 */
VSYNC_LANE_CLONES void
foldLanes8(const NodeId *a, const NodeId *b, std::size_t pairs,
           const Time *arr, Time *out)
{
    constexpr std::uint64_t magnitude = ~(std::uint64_t{1} << 63);
    F64x8 worst[2] = {};
    for (std::size_t i = 0; i < pairs; ++i) {
        F64x8 ra, rb;
        std::memcpy(&ra, arr + static_cast<std::size_t>(a[i]) * rowStride8,
                    sizeof ra);
        std::memcpy(&rb, arr + static_cast<std::size_t>(b[i]) * rowStride8,
                    sizeof rb);
        const F64x8 d =
            reinterpret_cast<F64x8>(reinterpret_cast<U64x8>(ra - rb) &
                                    magnitude);
        F64x8 &w = worst[i & 1];
        w = w < d ? d : w;
    }
    const F64x8 w = worst[0] < worst[1] ? worst[1] : worst[0];
    std::memcpy(out, &w, sizeof w);
}

} // namespace

SkewKernel::SkewKernel(const layout::Layout &l)
{
    const auto t0 = std::chrono::steady_clock::now();
    compilePairs(l, nullptr);
    buildMs = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
}

SkewKernel::SkewKernel(const layout::Layout &l,
                       const clocktree::ClockTree &t)
{
    const auto t0 = std::chrono::steady_clock::now();
    compileTree(t);
    compilePairs(l, &t);
    buildMs = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
}

void
SkewKernel::compilePairs(const layout::Layout &l,
                         const clocktree::ClockTree *t)
{
    cells = l.size();
    const auto edges = l.comm().undirectedEdges();
    pairCellA.reserve(edges.size());
    pairCellB.reserve(edges.size());
    if (t) {
        nodeOf.assign(cells, invalidId);
        for (CellId c = 0; static_cast<std::size_t>(c) < cells; ++c)
            nodeOf[c] = t->nodeOfCell(c);
        pairNodeA.reserve(edges.size());
        pairNodeB.reserve(edges.size());
    }
    for (const graph::Edge &pair : edges) {
        pairCellA.push_back(pair.src);
        pairCellB.push_back(pair.dst);
        if (t) {
            const NodeId na = nodeOf[pair.src];
            const NodeId nb = nodeOf[pair.dst];
            VSYNC_ASSERT(na != invalidId && nb != invalidId,
                         "cells %d/%d not clocked by the tree (A4)",
                         pair.src, pair.dst);
            pairNodeA.push_back(na);
            pairNodeB.push_back(nb);
        }
    }

    // Fold-only sorted copies. The public arrays above keep
    // undirectedEdges() order (SkewReport/SkewInstance depend on it);
    // the folds are max/count reductions, exact under any order, so
    // they get endpoint-sorted copies whose gathers walk the arrival
    // surface near-monotonically instead of in layout order.
    const std::size_t npairs = pairCellA.size();
    std::vector<std::pair<CellId, CellId>> cellPairs(npairs);
    for (std::size_t i = 0; i < npairs; ++i) {
        cellPairs[i] = {std::min(pairCellA[i], pairCellB[i]),
                        std::max(pairCellA[i], pairCellB[i])};
    }
    std::sort(cellPairs.begin(), cellPairs.end());
    foldCellA.resize(npairs);
    foldCellB.resize(npairs);
    for (std::size_t i = 0; i < npairs; ++i) {
        foldCellA[i] = cellPairs[i].first;
        foldCellB[i] = cellPairs[i].second;
    }
    if (t) {
        std::vector<std::pair<NodeId, NodeId>> nodePairs(npairs);
        for (std::size_t i = 0; i < npairs; ++i) {
            nodePairs[i] = {std::min(pairNodeA[i], pairNodeB[i]),
                            std::max(pairNodeA[i], pairNodeB[i])};
        }
        std::sort(nodePairs.begin(), nodePairs.end());
        foldNodeA.resize(npairs);
        foldNodeB.resize(npairs);
        for (std::size_t i = 0; i < npairs; ++i) {
            foldNodeA[i] = nodePairs[i].first;
            foldNodeB[i] = nodePairs[i].second;
        }
    }
}

void
SkewKernel::compileTree(const clocktree::ClockTree &t)
{
    const std::size_t n = t.size();
    VSYNC_ASSERT(n > 0, "cannot compile an empty clock tree");
    const graph::RootedTree &structure = t.structure();

    // Flatten parent/wire-length and verify the id order is
    // topological (ClockTree::addChild guarantees parent-before-child,
    // so ids double as the propagation order).
    parentOf.resize(n);
    wireLen.resize(n);
    h.resize(n);
    parentOf[0] = invalidId;
    wireLen[0] = 0.0;
    h[0] = 0.0;
    for (NodeId v = 1; static_cast<std::size_t>(v) < n; ++v) {
        const NodeId p = structure.parent(v);
        VSYNC_ASSERT(p != invalidId && p < v,
                     "node %d's parent %d breaks topological id order",
                     v, p);
        parentOf[v] = p;
        wireLen[v] = t.wireLength(v);
        h[v] = h[p] + wireLen[v];
    }
}

NodeId
SkewKernel::nca(NodeId a, NodeId b) const
{
    VSYNC_ASSERT(hasTree(), "nca() needs a tree-compiled kernel");
    VSYNC_ASSERT(a >= 0 && static_cast<std::size_t>(a) < nodeCount() &&
                     b >= 0 &&
                     static_cast<std::size_t>(b) < nodeCount(),
                 "nca of invalid nodes %d/%d", a, b);
    served.fetch_add(1, std::memory_order_relaxed);
    // Compile asserted parent(v) < v, so the larger id is never an
    // ancestor of the smaller one: step it up until the two meet.
    while (a != b) {
        if (a > b)
            a = parentOf[a];
        else
            b = parentOf[b];
    }
    return a;
}

Length
SkewKernel::pathDifference(NodeId a, NodeId b) const
{
    VSYNC_ASSERT(hasTree(), "pathDifference() needs a tree kernel");
    served.fetch_add(1, std::memory_order_relaxed);
    return std::fabs(h[a] - h[b]);
}

Length
SkewKernel::treeDistance(NodeId a, NodeId b) const
{
    return h[a] + h[b] - 2.0 * h[nca(a, b)];
}

void
SkewKernel::arrivals(const WireDelay &delay, Rng &rng,
                     std::span<Time> out) const
{
    VSYNC_ASSERT(hasTree(), "arrivals() needs a tree-compiled kernel");
    VSYNC_ASSERT(delay.valid(), "bad delay parameters m=%g eps=%g",
                 delay.m, delay.eps);
    VSYNC_ASSERT(out.size() == nodeCount(),
                 "%zu arrival slots for %zu nodes", out.size(),
                 nodeCount());
    const double lo = delay.m - delay.eps;
    const double hi = delay.m + delay.eps;
    out[0] = 0.0;
    // One uniform draw per non-root node in id order: the exact draw
    // sequence of the pre-kernel sampleSkewInstance, preserving
    // bit-identity of substream-driven sweeps.
    const std::size_t n = nodeCount();
    for (std::size_t v = 1; v < n; ++v)
        out[v] = out[parentOf[v]] + rng.uniform(lo, hi) * wireLen[v];
    batches.fetch_add(1, std::memory_order_relaxed);
}

Time
SkewKernel::maxCommSkew(std::span<const Time> node_arrival) const
{
    // laneStride(1) == 1, so a contiguous arrival surface IS a
    // width-1 lane-major matrix: the scalar fold is the blocked fold.
    Time worst = 0.0;
    maxCommSkewBlock(node_arrival, std::span<Time>(&worst, 1));
    return worst;
}

void
SkewKernel::checkFoldBlock(std::size_t width, std::size_t slots) const
{
    VSYNC_ASSERT(hasTree(), "maxCommSkew() needs a tree kernel");
    VSYNC_ASSERT(width >= 1 && width <= maxLanes,
                 "%zu lanes (1..%zu supported)", width, maxLanes);
    VSYNC_ASSERT(slots == nodeCount() * laneStride(width),
                 "%zu arrival slots for %zu nodes x stride %zu", slots,
                 nodeCount(), laneStride(width));
}

void
SkewKernel::maxCommSkewBlock(std::span<const Time> lane_arrival,
                             std::span<Time> out) const
{
    if (out.size() != blockWidth()) {
        maxCommSkewBlockGeneric(lane_arrival, out);
        return;
    }
    checkFoldBlock(out.size(), lane_arrival.size());
    foldLanes8(foldNodeA.data(), foldNodeB.data(), pairCount(),
               lane_arrival.data(), out.data());
    served.fetch_add(pairCount() * blockWidth(),
                     std::memory_order_relaxed);
}

void
SkewKernel::maxCommSkewBlockGeneric(std::span<const Time> lane_arrival,
                                    std::span<Time> out) const
{
    const std::size_t width = out.size();
    checkFoldBlock(width, lane_arrival.size());
    const std::size_t stride = laneStride(width);
    Time worst[maxLanes] = {};
    const std::size_t pairs = pairCount();
    const Time *arr = lane_arrival.data();
    for (std::size_t i = 0; i < pairs; ++i) {
        const Time *ra =
            arr + static_cast<std::size_t>(foldNodeA[i]) * stride;
        const Time *rb =
            arr + static_cast<std::size_t>(foldNodeB[i]) * stride;
        for (std::size_t j = 0; j < width; ++j)
            worst[j] = std::max(worst[j], std::fabs(ra[j] - rb[j]));
    }
    for (std::size_t j = 0; j < width; ++j)
        out[j] = worst[j];
    served.fetch_add(pairs * width, std::memory_order_relaxed);
}

Time
SkewKernel::sampleMaxCommSkew(const WireDelay &delay, Rng &rng,
                              std::vector<Time> &scratch) const
{
    scratch.resize(nodeCount());
    arrivals(delay, rng, scratch);
    return maxCommSkew(scratch);
}

void
SkewKernel::checkArrivalsBlock(const WireDelay &delay, std::size_t width,
                               std::size_t slots) const
{
    VSYNC_ASSERT(hasTree(), "arrivals() needs a tree-compiled kernel");
    VSYNC_ASSERT(delay.valid(), "bad delay parameters m=%g eps=%g",
                 delay.m, delay.eps);
    VSYNC_ASSERT(width >= 1 && width <= maxLanes,
                 "%zu lanes (1..%zu supported)", width, maxLanes);
    VSYNC_ASSERT(slots == nodeCount() * laneStride(width),
                 "%zu arrival slots for %zu nodes x stride %zu", slots,
                 nodeCount(), laneStride(width));
}

void
SkewKernel::arrivalsBlock(const WireDelay &delay, std::span<Rng> lanes,
                          std::span<Time> out) const
{
    if (lanes.size() != blockWidth()) {
        arrivalsBlockGeneric(delay, lanes, out);
        return;
    }
    checkArrivalsBlock(delay, lanes.size(), out.size());
    propagateLanes8(delay.m - delay.eps, delay.m + delay.eps,
                    parentOf.data(), wireLen.data(), nodeCount(), lanes,
                    out.data());
    batches.fetch_add(blockWidth(), std::memory_order_relaxed);
}

void
SkewKernel::arrivalsBlockGeneric(const WireDelay &delay,
                                 std::span<Rng> lanes,
                                 std::span<Time> out) const
{
    const std::size_t width = lanes.size();
    checkArrivalsBlock(delay, width, out.size());
    const std::size_t stride = laneStride(width);
    const double lo = delay.m - delay.eps;
    const double hi = delay.m + delay.eps;
    Time *arr = out.data();
    for (std::size_t j = 0; j < width; ++j)
        arr[j] = 0.0;
    // Node chunks keep the draw matrix L1-resident: each lane
    // bulk-fills its strided column (one fillUniform call per lane per
    // chunk, in node id order, so lane j consumes the exact scalar
    // draw sequence of arrivals()), then the node-outer, lane-inner
    // propagation reads the rows back. The arithmetic per lane is the
    // identical expression shape as the scalar path, so every slot is
    // bitwise what arrivals() would have produced for that lane's Rng.
    constexpr std::size_t chunkNodes = 64;
    alignas(64) double draw[chunkNodes * (maxLanes + 1)];
    const std::size_t n = nodeCount();
    for (std::size_t v0 = 1; v0 < n; v0 += chunkNodes) {
        const std::size_t cnt = std::min(chunkNodes, n - v0);
        for (std::size_t j = 0; j < width; ++j)
            lanes[j].fillUniform(lo, hi, draw + j, cnt, stride);
        for (std::size_t k = 0; k < cnt; ++k) {
            const std::size_t v = v0 + k;
            const Time *parentRow =
                arr + static_cast<std::size_t>(parentOf[v]) * stride;
            Time *row = arr + v * stride;
            const double *drow = draw + k * stride;
            const Length wl = wireLen[v];
            for (std::size_t j = 0; j < width; ++j)
                row[j] = parentRow[j] + drow[j] * wl;
        }
    }
    batches.fetch_add(width, std::memory_order_relaxed);
}

void
SkewKernel::sampleMaxCommSkewBlock(const WireDelay &delay,
                                   std::span<Rng> lanes,
                                   std::span<Time> out_skew,
                                   std::vector<Time> &scratch) const
{
    VSYNC_ASSERT(out_skew.size() == lanes.size(),
                 "%zu skew slots for %zu lanes", out_skew.size(),
                 lanes.size());
    scratch.resize(nodeCount() * laneStride(lanes.size()));
    arrivalsBlock(delay, lanes, scratch);
    maxCommSkewBlock(scratch, out_skew);
}

std::uint64_t
SkewKernel::sampleTrials(const WireDelay &delay, std::uint64_t seed,
                         std::uint64_t first_trial,
                         std::span<Time> out) const
{
    std::vector<Time> scratch;
    std::array<Rng, blockWidth()> lanes;
    std::uint64_t draws = 0;
    for (std::size_t i = 0; i < out.size(); i += blockWidth()) {
        const std::size_t w = std::min(blockWidth(), out.size() - i);
        for (std::size_t j = 0; j < w; ++j)
            lanes[j] = Rng::forTrial(seed, first_trial + i + j);
        sampleMaxCommSkewBlock(delay, {lanes.data(), w},
                               out.subspan(i, w), scratch);
        for (std::size_t j = 0; j < w; ++j)
            draws += lanes[j].draws();
    }
    return draws;
}

ArrivalSkew
SkewKernel::arrivalSkew(std::span<const Time> cell_arrival) const
{
    // Width-1 blocked evaluation (laneStride(1) == 1; see
    // maxCommSkew).
    ArrivalSkew out;
    arrivalSkewBlock(cell_arrival, std::span<ArrivalSkew>(&out, 1));
    return out;
}

void
SkewKernel::arrivalSkewBlock(std::span<const Time> lane_cell_arrival,
                             std::span<ArrivalSkew> out) const
{
    const std::size_t width = out.size();
    VSYNC_ASSERT(width >= 1 && width <= maxLanes,
                 "%zu lanes (1..%zu supported)", width, maxLanes);
    const std::size_t stride = laneStride(width);
    VSYNC_ASSERT(lane_cell_arrival.size() == cellCount() * stride,
                 "%zu arrival slots for %zu cells x stride %zu",
                 lane_cell_arrival.size(), cellCount(), stride);
    for (ArrivalSkew &o : out)
        o = ArrivalSkew{};
    if (!cellCount())
        return;

    const Time *arr = lane_cell_arrival.data();
    std::size_t clocked[maxLanes] = {};
    const std::size_t ncells = cellCount();
    for (std::size_t c = 0; c < ncells; ++c) {
        const Time *row = arr + c * stride;
        for (std::size_t j = 0; j < width; ++j)
            clocked[j] += row[j] < infinity;
    }

    const std::size_t pairs = pairCount();
    for (std::size_t i = 0; i < pairs; ++i) {
        const Time *ra =
            arr + static_cast<std::size_t>(foldCellA[i]) * stride;
        const Time *rb =
            arr + static_cast<std::size_t>(foldCellB[i]) * stride;
        for (std::size_t j = 0; j < width; ++j) {
            const Time ta = ra[j];
            const Time tb = rb[j];
            if (ta >= infinity || tb >= infinity)
                continue;
            ++out[j].clockedPairs;
            out[j].maxCommSkew =
                std::max(out[j].maxCommSkew, std::fabs(ta - tb));
        }
    }
    for (std::size_t j = 0; j < width; ++j) {
        out[j].clockedFraction = static_cast<double>(clocked[j]) /
                                 static_cast<double>(ncells);
        out[j].pairCount = pairs;
    }
    served.fetch_add(pairs * width, std::memory_order_relaxed);
}

KernelProvider
directCompile()
{
    return [](const layout::Layout &l, const clocktree::ClockTree *t) {
        return t ? std::make_shared<const SkewKernel>(l, *t)
                 : std::make_shared<const SkewKernel>(l);
    };
}

std::size_t
SkewKernel::bytes() const
{
    const auto held = [](const auto &v) {
        return v.capacity() * sizeof(v.front());
    };
    return held(parentOf) + held(wireLen) + held(h) + held(nodeOf) +
           held(pairNodeA) + held(pairNodeB) + held(pairCellA) +
           held(pairCellB) + held(foldNodeA) + held(foldNodeB) +
           held(foldCellA) + held(foldCellB);
}

void
SkewKernel::exportMetrics(obs::MetricsRegistry &reg,
                          const std::string &prefix) const
{
    reg.gauge(prefix + "nodes")
        .set(static_cast<double>(nodeCount()));
    reg.gauge(prefix + "pairs")
        .set(static_cast<double>(pairCount()));
    reg.gauge(prefix + "build_ms").set(buildMs);
    reg.gauge(prefix + "bytes").set(static_cast<double>(bytes()));
    reg.gauge(prefix + "queries_served")
        .set(static_cast<double>(queriesServed()));
    reg.gauge(prefix + "arrival_batches")
        .set(static_cast<double>(arrivalBatches()));
}

} // namespace vsync::core
