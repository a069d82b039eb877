/**
 * @file
 * PERF -- lane-blocked batch skew sampling vs the scalar kernel,
 * gated in CI.
 *
 * One 512-trial Monte-Carlo sweep on a 32x32 mesh clocked by an
 * H-tree, run once through the scalar per-trial path
 * (SkewKernel::sampleMaxCommSkew, one non-inlined uniform() call per
 * tree node) and once per block width W in 1..8 through
 * SkewKernel::sampleMaxCommSkewBlock (one topological pass carrying W
 * trials; W = 8 takes the SIMD path). Two layer measurements ride
 * along: the eight-lane RngLanes8 generator against eight scalar
 * Rng::fillUniform streams (ns per draw), and the W = 8 SIMD block
 * against the generic lane loop at the same width
 * (arrivalsBlockGeneric + maxCommSkewBlockGeneric). Both sides of
 * every comparison run in the same process, so the gates are
 * meaningful on any host.
 *
 * Every width, both W = 8 paths and the generator are checked for
 * bit-identity against the scalar results (and the blocked widths for
 * exact draws() accounting) -- a single differing bit or a single
 * extra RNG draw fails the run.
 *
 * Exit status is the CI gate: nonzero when anything diverges, when the
 * best width's speedup over scalar falls below 1.5x, or, when the
 * x86-64-v4 clone runs, when the SIMD block is not 2x the generic
 * W = 8 loop (other hosts run the portable clone, where only the bits
 * are gated). Results go to stdout as tables and to
 * BENCH_kernel_batch.json for the perf trajectory, with the clone that
 * ran under "isa".
 */

#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "clocktree/builders.hh"
#include "common/rng.hh"
#include "core/skew_kernel.hh"
#include "layout/generators.hh"

namespace
{

using namespace vsync;

constexpr int meshSide = 32;
constexpr std::size_t sweepTrials = 512;
constexpr std::size_t maxWidth = 8;
constexpr int reps = 3;
constexpr double minBestSpeedup = 1.5;
constexpr double minSimdSpeedup = 2.0;
constexpr std::size_t drawsPerLane = std::size_t{1} << 14;
const core::WireDelay delay{0.05, 0.005};

/** Wall-clock milliseconds of @p fn, best of `reps` runs. */
template <typename Fn>
double
bestMillis(const Fn &fn)
{
    double best = -1.0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (best < 0.0 || ms < best)
            best = ms;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vsync;
    const auto opts = BenchOptions::parse(argc, argv);
    const std::uint64_t seed = opts.seedSet ? opts.seed : 0xba7cULL;

    const layout::Layout l = layout::meshLayout(meshSide, meshSide);
    const auto tree = clocktree::buildHTreeGrid(l, meshSide, meshSide);
    const core::SkewKernel kernel(l, tree);
    const std::string isa = RngLanes8::isa();

    bench::BenchJson result("kernel_batch", seed);
    JsonWriter &json = result.writer();
    json.keyValue("isa", isa)
        .keyValue("layout", "mesh32x32")
        .keyValue("trials", static_cast<std::uint64_t>(sweepTrials))
        .keyValue("reps_per_point", reps);

    // --- Scalar reference: one trial at a time. --------------------
    std::vector<double> ref_samples(sweepTrials, 0.0);
    std::uint64_t ref_draws = 0;
    const double scalar_ms = bestMillis([&] {
        std::vector<Time> scratch;
        ref_draws = 0;
        for (std::size_t i = 0; i < sweepTrials; ++i) {
            Rng rng = Rng::forTrial(seed, i);
            ref_samples[i] =
                kernel.sampleMaxCommSkew(delay, rng, scratch);
            ref_draws += rng.draws();
        }
    });

    // --- Blocked path at every width up to blockWidth(). ------------
    bench::headline("lane-blocked 512-trial sweep vs scalar "
                    "(32x32 H-tree)");
    Table table("sampleMaxCommSkewBlock width sweep",
                {"width", "best ms", "speedup", "bit-identical",
                 "draws-equal"});
    table.addRow({"scalar", Table::num(scalar_ms), "1.00", "-", "-"});

    json.keyValue("scalar_best_ms", scalar_ms);
    json.key("widths").beginArray();

    bool all_identical = true;
    bool all_draws_equal = true;
    double best_ms = -1.0;
    std::size_t best_width = 0;
    std::vector<double> samples(sweepTrials, 0.0);
    for (std::size_t w = 1; w <= maxWidth; ++w) {
        std::uint64_t draws = 0;
        const double ms = bestMillis([&] {
            std::vector<Time> scratch;
            std::vector<Rng> lanes;
            draws = 0;
            for (std::size_t i = 0; i < sweepTrials; i += w) {
                const std::size_t cnt =
                    std::min(w, sweepTrials - i);
                lanes.clear();
                for (std::size_t j = 0; j < cnt; ++j)
                    lanes.push_back(Rng::forTrial(seed, i + j));
                kernel.sampleMaxCommSkewBlock(
                    delay, {lanes.data(), cnt},
                    {samples.data() + i, cnt}, scratch);
                for (std::size_t j = 0; j < cnt; ++j)
                    draws += lanes[j].draws();
            }
        });
        const bool identical = samples == ref_samples;
        const bool draws_equal = draws == ref_draws;
        all_identical = all_identical && identical;
        all_draws_equal = all_draws_equal && draws_equal;
        if (best_ms < 0.0 || ms < best_ms) {
            best_ms = ms;
            best_width = w;
        }
        const double speedup = ms > 0.0 ? scalar_ms / ms : 0.0;
        table.addRow({"W=" + std::to_string(w), Table::num(ms),
                      Table::num(speedup), identical ? "yes" : "NO",
                      draws_equal ? "yes" : "NO"});
        json.beginObject()
            .keyValue("width", static_cast<std::uint64_t>(w))
            .keyValue("best_ms", ms)
            .keyValue("speedup", speedup)
            .keyValue("bit_identical", identical)
            .keyValue("draws_equal", draws_equal)
            .endObject();
    }
    json.endArray();
    emitTable(table, opts);

    const double best_speedup =
        best_ms > 0.0 ? scalar_ms / best_ms : 0.0;
    json.keyValue("best_width", static_cast<std::uint64_t>(best_width))
        .keyValue("best_speedup", best_speedup)
        .keyValue("block_width",
                  static_cast<std::uint64_t>(
                      core::SkewKernel::blockWidth()));

    // --- Eight-lane generator vs eight scalar bulk fills. ----------
    // Both write draw-major rows of 8, so the buffers must be equal.
    const double lo = delay.lo();
    const double hi = delay.hi();
    const std::size_t lanesW = RngLanes8::width;
    std::vector<double> scalarDraws(drawsPerLane * lanesW);
    std::vector<double> laneDraws(drawsPerLane * lanesW);
    const double scalar_fill_ms = bestMillis([&] {
        for (std::size_t j = 0; j < lanesW; ++j) {
            Rng rng = Rng::forTrial(seed, j);
            rng.fillUniform(lo, hi, scalarDraws.data() + j, drawsPerLane,
                            lanesW);
        }
    });
    const double lane_fill_ms = bestMillis([&] {
        std::vector<Rng> lanes;
        for (std::size_t j = 0; j < lanesW; ++j)
            lanes.push_back(Rng::forTrial(seed, j));
        RngLanes8 gen(lanes);
        gen.fillUniform(lo, hi, laneDraws);
    });
    const bool rng_identical = laneDraws == scalarDraws;
    const double totalDraws = static_cast<double>(drawsPerLane * lanesW);
    const double scalar_ns = scalar_fill_ms * 1e6 / totalDraws;
    const double lane_ns = lane_fill_ms * 1e6 / totalDraws;

    // --- W = 8: SIMD block vs the generic lane loop. ---------------
    const auto sweepW8 = [&](bool simd, std::vector<double> &out) {
        std::vector<Time> scratch(kernel.nodeCount() *
                                  core::SkewKernel::laneStride(lanesW));
        std::vector<Rng> lanes(lanesW);
        for (std::size_t i = 0; i < sweepTrials; i += lanesW) {
            for (std::size_t j = 0; j < lanesW; ++j)
                lanes[j] = Rng::forTrial(seed, i + j);
            const std::span<Time> skew(out.data() + i, lanesW);
            if (simd) {
                kernel.arrivalsBlock(delay, lanes, scratch);
                kernel.maxCommSkewBlock(scratch, skew);
            } else {
                kernel.arrivalsBlockGeneric(delay, lanes, scratch);
                kernel.maxCommSkewBlockGeneric(scratch, skew);
            }
        }
    };
    std::vector<double> simdSamples(sweepTrials), genericSamples(sweepTrials);
    const double simd_ms = bestMillis([&] { sweepW8(true, simdSamples); });
    const double generic_ms =
        bestMillis([&] { sweepW8(false, genericSamples); });
    const bool w8_identical =
        simdSamples == ref_samples && genericSamples == ref_samples;
    const double simd_speedup = simd_ms > 0.0 ? generic_ms / simd_ms : 0.0;
    const bool v4 = isa == "x86-64-v4";

    Table layers("eight-lane layers (" + isa + " clone)",
                 {"layer", "baseline", "eight-lane", "speedup",
                  "bit-identical"});
    layers.addRow({"RNG ns/draw (scalar fillUniform)",
                   Table::num(scalar_ns), Table::num(lane_ns),
                   Table::num(lane_ns > 0.0 ? scalar_ns / lane_ns : 0.0),
                   rng_identical ? "yes" : "NO"});
    layers.addRow({"W=8 block ms (generic loop)", Table::num(generic_ms),
                   Table::num(simd_ms), Table::num(simd_speedup),
                   w8_identical ? "yes" : "NO"});
    emitTable(layers, opts);

    json.key("rng").beginObject()
        .keyValue("scalar_fill_ns_per_draw", scalar_ns)
        .keyValue("lanes8_ns_per_draw", lane_ns)
        .keyValue("bit_identical", rng_identical)
        .endObject();
    json.key("w8_block").beginObject()
        .keyValue("generic_best_ms", generic_ms)
        .keyValue("simd_best_ms", simd_ms)
        .keyValue("speedup", simd_speedup)
        .keyValue("bit_identical", w8_identical)
        .endObject();

    const bool bits_ok =
        all_identical && all_draws_equal && rng_identical && w8_identical;
    const bool gate_ok = bits_ok && best_speedup >= minBestSpeedup &&
                         (!v4 || simd_speedup >= minSimdSpeedup);
    json.key("gate").beginObject()
        .keyValue("min_best_speedup", minBestSpeedup)
        .keyValue("min_simd_speedup", minSimdSpeedup)
        .keyValue("simd_speedup_gated", v4)
        .keyValue("passed", gate_ok)
        .endObject();

    std::printf("\nwrote BENCH_kernel_batch.json (best W=%zu at "
                "%.2fx vs %.1fx gate; %s W=8 block %.2fx the generic "
                "loop%s; results %s)\n",
                best_width, best_speedup, minBestSpeedup, isa.c_str(),
                simd_speedup,
                v4 ? " vs 2.0x gate" : ", ungated off x86-64-v4",
                bits_ok ? "identical" : "DIVERGED");
    return gate_ok ? 0 : 1;
}
