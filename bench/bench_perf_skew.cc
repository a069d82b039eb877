/**
 * @file
 * PERF -- naive-vs-kernel skew query timings, gated in CI.
 *
 * Two in-run comparisons on a 32x32 mesh clocked by an H-tree, both
 * sides measured in the same process so the gate is meaningful on any
 * host (including 1-CPU CI containers):
 *
 *  - per-query: s(a, b) over every communicating pair via the naive
 *    depth-aligned climb (ClockTree::treeDistance over
 *    graph::RootedTree::nca) versus the kernel's id-ordered climb over
 *    its flat parent array (SkewKernel::treeDistance), with a
 *    results-equal check;
 *  - per-sweep: 64 serial Monte-Carlo chips via the retained naive
 *    path (core::sampleSkewInstance, which re-resolves the scenario
 *    per chip) versus one SkewKernel compile plus
 *    sampleMaxCommSkew per chip, with a bit-identity check (both
 *    draw the same uniforms from the same substreams). The kernel
 *    timing includes its compile, so the speedup is what a sweep
 *    actually sees.
 *
 * Exit status is the CI gate: nonzero when results diverge, the
 * per-sweep serial speedup falls below 2x, or the kernel's footprint
 * (SkewKernel::bytes) exceeds 32 bytes per tree node plus 48 per
 * comm pair. Results go to stdout as tables and to
 * BENCH_perf_skew.json for the perf trajectory.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "clocktree/builders.hh"
#include "common/rng.hh"
#include "core/skew_kernel.hh"
#include "layout/generators.hh"
#include "mc/sweeps.hh"

namespace
{

using namespace vsync;

constexpr int meshSide = 32;
constexpr std::size_t sweepTrials = 64;
constexpr int reps = 3;
constexpr double minSweepSpeedup = 2.0;
constexpr std::size_t bytesPerNode = 32;
constexpr std::size_t bytesPerPair = 48;
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
    const std::uint64_t seed = opts.seedSet ? opts.seed : 0x4242ULL;

    const layout::Layout l = layout::meshLayout(meshSide, meshSide);
    const auto tree = clocktree::buildHTreeGrid(l, meshSide, meshSide);
    tree.warmCaches(); // the naive side gets its caches for free
    const core::SkewKernel kernel(l, tree);

    bench::BenchJson result("perf_skew", seed);
    JsonWriter &json = result.writer();
    json.keyValue("layout", "mesh32x32")
        .keyValue("reps_per_point", reps);

    // --- Per-query: naive climb vs the kernel's id-ordered climb. ---
    const std::size_t pairs = kernel.pairCount();
    const auto &pa = kernel.pairNodesA();
    const auto &pb = kernel.pairNodesB();

    double naive_sum = 0.0, kernel_sum = 0.0;
    const double query_naive_ms = bestMillis([&] {
        naive_sum = 0.0;
        for (std::size_t i = 0; i < pairs; ++i)
            naive_sum += tree.treeDistance(pa[i], pb[i]);
    });
    const double query_kernel_ms = bestMillis([&] {
        kernel_sum = 0.0;
        for (std::size_t i = 0; i < pairs; ++i)
            kernel_sum += kernel.treeDistance(pa[i], pb[i]);
    });
    const bool queries_equal = naive_sum == kernel_sum;
    const double query_speedup =
        query_kernel_ms > 0.0 ? query_naive_ms / query_kernel_ms : 0.0;

    bench::headline("per-query: s(a, b) over all communicating pairs");
    Table queryTable("treeDistance over comm pairs (32x32 H-tree)",
                     {"path", "best ms", "speedup", "sum s"});
    queryTable.addRow({"naive depth-aligned climb",
                       Table::num(query_naive_ms), "1.00",
                       Table::num(naive_sum)});
    queryTable.addRow({"kernel id-ordered climb",
                       Table::num(query_kernel_ms),
                       Table::num(query_speedup),
                       Table::num(kernel_sum)});
    emitTable(queryTable, opts);

    json.key("per_query").beginObject()
        .keyValue("pairs", static_cast<std::uint64_t>(pairs))
        .keyValue("naive_best_ms", query_naive_ms)
        .keyValue("kernel_best_ms", query_kernel_ms)
        .keyValue("speedup", query_speedup)
        .keyValue("results_equal", queries_equal)
        .endObject();

    // --- Per-sweep: serial naive sampler vs compile-once kernel. ----
    std::vector<double> naive_samples(sweepTrials, 0.0);
    std::vector<double> kernel_samples(sweepTrials, 0.0);

    const double sweep_naive_ms = bestMillis([&] {
        for (std::size_t i = 0; i < sweepTrials; ++i) {
            Rng rng = Rng::forTrial(seed, i);
            naive_samples[i] =
                core::sampleSkewInstance(l, tree, delay, rng)
                    .maxCommSkew;
        }
    });
    const double sweep_kernel_ms = bestMillis([&] {
        // The compile is inside the timed region: the speedup below is
        // end-to-end for a 64-trial sweep, not just the steady state.
        const core::SkewKernel fresh(l, tree);
        std::vector<Time> scratch;
        for (std::size_t i = 0; i < sweepTrials; ++i) {
            Rng rng = Rng::forTrial(seed, i);
            kernel_samples[i] =
                fresh.sampleMaxCommSkew(delay, rng, scratch);
        }
    });
    const bool sweep_identical = naive_samples == kernel_samples;
    const double sweep_speedup =
        sweep_kernel_ms > 0.0 ? sweep_naive_ms / sweep_kernel_ms : 0.0;

    bench::headline(
        "per-sweep: 64 serial Monte-Carlo chips, naive re-resolve vs "
        "one kernel compile");
    Table sweepTable("serial 64-chip skew sweep (32x32 H-tree)",
                     {"path", "best ms", "speedup", "bit-identical"});
    sweepTable.addRow({"naive sampleSkewInstance",
                       Table::num(sweep_naive_ms), "1.00", "-"});
    sweepTable.addRow({"kernel (compile + sweep)",
                       Table::num(sweep_kernel_ms),
                       Table::num(sweep_speedup),
                       sweep_identical ? "yes" : "NO"});
    emitTable(sweepTable, opts);

    json.key("per_sweep").beginObject()
        .keyValue("trials", static_cast<std::uint64_t>(sweepTrials))
        .keyValue("naive_best_ms", sweep_naive_ms)
        .keyValue("kernel_best_ms", sweep_kernel_ms)
        .keyValue("speedup", sweep_speedup)
        .keyValue("bit_identical", sweep_identical)
        .endObject();

    // --- Kernel stats (the obs gauges, inlined for the artifact). ---
    json.key("kernel").beginObject()
        .keyValue("nodes", static_cast<std::uint64_t>(kernel.nodeCount()))
        .keyValue("pairs", static_cast<std::uint64_t>(kernel.pairCount()))
        .keyValue("build_ms", kernel.buildMillis())
        .keyValue("bytes", static_cast<std::uint64_t>(kernel.bytes()))
        .keyValue("queries_served", kernel.queriesServed())
        .keyValue("arrival_batches", kernel.arrivalBatches())
        .endObject();

    const std::size_t max_bytes = bytesPerNode * kernel.nodeCount() +
                                  bytesPerPair * kernel.pairCount();
    const bool footprint_ok = kernel.bytes() <= max_bytes;
    const bool gate_ok =
        queries_equal && sweep_identical &&
        sweep_speedup >= minSweepSpeedup && footprint_ok;
    json.key("gate").beginObject()
        .keyValue("min_sweep_speedup", minSweepSpeedup)
        .keyValue("max_bytes", static_cast<std::uint64_t>(max_bytes))
        .keyValue("passed", gate_ok)
        .endObject();

    std::printf("\nwrote BENCH_perf_skew.json (per-query %.2fx, "
                "per-sweep %.2fx vs %.1fx gate; results %s; kernel "
                "%zu bytes vs %zu budget)\n",
                query_speedup, sweep_speedup, minSweepSpeedup,
                queries_equal && sweep_identical ? "identical"
                                                 : "DIVERGED",
                kernel.bytes(), max_bytes);
    return gate_ok ? 0 : 1;
}
