/**
 * @file
 * Shared pieces of the benchmark program: its arguments, the metric
 * sheet a run fills, scenario construction identical to the server's,
 * bit-for-bit reply checks, and the per-layer timings (layers.cc).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clocktree/clock_tree.hh"
#include "layout/layout.hh"
#include "net/protocol.hh"
#include "obs/trace.hh"
#include "serve/sweep_service.hh"

namespace vsync::obs
{
class Histogram;
class MetricsRegistry;
} // namespace vsync::obs

namespace vsync::dist
{
struct ShardLedger;
} // namespace vsync::dist

namespace perfbench
{

/** Compute threads of each in-process server (wire and fleet). */
inline constexpr unsigned serverThreads = 2;
/** Threads the benchmark's own reference runs use (the host's cores). */
inline constexpr unsigned referenceThreads = 4;
/** Set-ups per run; setup_s is their median. */
inline constexpr int setupRepeats = 7;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace output of a traced run. */
    std::string traceOut;
};

/** One named metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a run reports; main() prints it as the final JSON line. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

Report runWire(const Args &args, bool cold);
Report runFleet(const Args &args);

/** An obs::Span whose name is built at run time (obs::Span keeps only
 *  the pointer, so the string must outlive it). */
struct OwnedSpan
{
    OwnedSpan(vsync::obs::Tracer *tracer, std::string n)
        : name(std::move(n)), span(tracer, name.c_str())
    {
    }
    std::string name;
    vsync::obs::Span span;
};

/** A wire-nameable scenario built exactly as net::ScenarioServer does. */
struct Scenario
{
    vsync::layout::Layout layout;
    vsync::clocktree::ClockTree tree;
    bool hasTree = false;
};

/** Build the server's scenario for @p rq (mesh layout, H-tree/spine). */
std::unique_ptr<Scenario> buildScenario(const vsync::net::WireRequest &rq);

/** The resilience distribution a wire scheme names. */
vsync::mc::DistributionKind distributionOf(const vsync::net::WireRequest &rq);

/** The serve:: request a wire request maps to, over @p sc. */
vsync::serve::SweepRequest toSweepRequest(const vsync::net::WireRequest &rq,
                                          const Scenario &sc);

/** Bitwise equality of two sample vectors (no NaN or -0 aliasing). */
bool sameBits(const std::vector<double> &a, const std::vector<double> &b);
bool sameBits(double a, double b);

/** A complete reply matching a direct in-process run bit for bit. */
bool replyMatches(const vsync::net::WireResponse &rsp,
                  const vsync::serve::RequestOutcome &ref, bool resilience);

/** A fleet outcome matching a local SweepService outcome bit for bit. */
bool outcomeMatches(const vsync::serve::RequestOutcome &got,
                    const vsync::serve::RequestOutcome &ref, bool resilience);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/**
 * Quantile @p q over fixed-bucket histograms with equal bounds, summed,
 * interpolated linearly inside the bucket that holds it (0 when empty;
 * the last finite bound when it falls in the overflow bucket).
 */
double histogramQuantile(const std::vector<const vsync::obs::Histogram *> &hs,
                         double q);

/** The serve.cache.* and serve.pool.* readings, summed over registries
 *  (the high-water mark is the largest). */
struct ServeCounters
{
    double hits = 0, misses = 0, evictions = 0, compileMs = 0;
    double chunks = 0, jobs = 0, activeHwm = 0;
};
ServeCounters readServeCounters(
    const std::vector<vsync::obs::MetricsRegistry *> &registries);

/** The inputs the per-layer timings run on: one workload's own. */
struct LayerInputs
{
    /** Distinct request shapes the workload sends (skew and resilience),
     *  each as one worker executes it (fleet: one shard). */
    std::vector<vsync::net::WireRequest> requests;
    /** How often each shape is sent, for per-request averages. */
    std::vector<double> weights;
    std::uint64_t seed = 1;
    /** Wall-clock budget of the timings, seconds. */
    double budgetSeconds = 1.0;
    vsync::obs::Tracer *tracer = nullptr;
};

/**
 * Time each layer's public functions on @p in and add the rng.*,
 * core.*, mc.*, serve.run_ms.* and net.{parse,encode}* metrics.
 * Returns the weighted mean trial-loop time of one request on its own
 * pool (trials x per-trial kernel time / chunks run side by side), ms --
 * the kernel share of the blocking breakdown.
 */
double timeLayers(const LayerInputs &in, Report &out);

/**
 * Run @p batch through a dist::Coordinator over the workers at
 * @p ports (already warm), adding the dist.* metrics. Every outcome is
 * checked against @p refs; returns false on a mismatch, a lost shard or
 * an unbalanced ledger.
 */
bool measureDist(const std::vector<std::uint16_t> &ports,
                 const std::vector<vsync::net::WireRequest> &batch,
                 const std::vector<vsync::serve::RequestOutcome> &refs,
                 vsync::obs::Tracer *tracer, Report &out);

/** Add the dist.* metrics from a coordinator's registry and ledger. */
void addDistMetrics(vsync::obs::MetricsRegistry &reg, std::size_t workers,
                    const vsync::dist::ShardLedger &ledger, double foldMs,
                    Report &out);

/** Time re-folding @p outcomes in trial order, ms per batch. */
double timeFold(const std::vector<vsync::net::WireRequest> &batch,
                const std::vector<vsync::serve::RequestOutcome> &outcomes,
                vsync::obs::Tracer *tracer);

/**
 * Set blocking.{kernel,compile,handling}_frac for a request (or fleet
 * round) of @p totalMs: kernel and compile time as estimated from the
 * layer timings and cache counters, handling as the rest of totalMs
 * (floored at zero), each as a share of the three's sum.
 */
void setBlocking(double kernelMs, double compileMs, double totalMs,
                 Report &out);

/** Every per-layer metric name; a traced run reports exactly these. */
const std::vector<std::string> &perLayerNames();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
