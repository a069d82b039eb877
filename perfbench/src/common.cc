#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#include "clocktree/builders.hh"
#include "layout/generators.hh"
#include "obs/metrics.hh"

namespace perfbench
{

using namespace vsync;

std::unique_ptr<Scenario>
buildScenario(const net::WireRequest &rq)
{
    auto sc = std::make_unique<Scenario>();
    sc->layout = layout::meshLayout(rq.rows, rq.cols);
    if (rq.scheme == net::WireScheme::HTree) {
        sc->tree = clocktree::buildHTreeGrid(sc->layout, rq.rows, rq.cols);
        sc->hasTree = true;
    } else if (rq.scheme == net::WireScheme::Spine) {
        sc->tree = clocktree::buildSpine(sc->layout);
        sc->hasTree = true;
    }
    return sc;
}

mc::DistributionKind
distributionOf(const net::WireRequest &rq)
{
    switch (rq.scheme) {
    case net::WireScheme::Trix:
        return mc::DistributionKind::TrixGrid;
    case net::WireScheme::Spine:
        return mc::DistributionKind::Spine;
    default:
        return mc::DistributionKind::HTree;
    }
}

serve::SweepRequest
toSweepRequest(const net::WireRequest &rq, const Scenario &sc)
{
    mc::McConfig mcc;
    mcc.seed = rq.seed;
    mcc.trials = rq.trials;
    mcc.grain = rq.grain;
    if (rq.kind == net::QueryKind::Skew) {
        serve::SkewRequest s;
        s.layout = &sc.layout;
        s.tree = &sc.tree;
        s.delay = rq.delay;
        s.cfg = mcc;
        s.trialOffset = rq.trialOffset;
        return s;
    }
    serve::ResilienceRequest r;
    r.layout = &sc.layout;
    r.rows = rq.rows;
    r.cols = rq.cols;
    r.kind = distributionOf(rq);
    r.faultRate = rq.faultRate;
    r.rc.delay = rq.delay;
    r.cfg = mcc;
    r.trialOffset = rq.trialOffset;
    return r;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

namespace
{

bool
sameStats(const mc::McResult &r, double mean, double stddev, double lo,
          double hi)
{
    return sameBits(r.mean(), mean) && sameBits(r.stddev(), stddev) &&
           sameBits(r.min(), lo) && sameBits(r.max(), hi);
}

} // namespace

bool
replyMatches(const net::WireResponse &rsp, const serve::RequestOutcome &ref,
             bool resilience)
{
    if (!rsp.ok || !rsp.complete || rsp.trialsDone != ref.trialsRequested ||
        rsp.trialsRequested != ref.trialsRequested)
        return false;
    if (!resilience)
        return sameBits(rsp.samples, ref.skew.samples) &&
               sameStats(ref.skew, rsp.mean, rsp.stddev, rsp.minValue,
                         rsp.maxValue);
    const mc::ResiliencePoint &p = ref.resilience;
    return sameBits(rsp.samples, p.maxCommSkew.samples) &&
           sameBits(rsp.clockedSamples, p.clockedFraction.samples) &&
           sameStats(p.maxCommSkew, rsp.mean, rsp.stddev, rsp.minValue,
                     rsp.maxValue) &&
           sameBits(rsp.meanFaults, p.meanFaults);
}

bool
outcomeMatches(const serve::RequestOutcome &got,
               const serve::RequestOutcome &ref, bool resilience)
{
    if (got.status != serve::RequestStatus::Complete ||
        got.trialsDone != ref.trialsRequested ||
        got.trialsRequested != ref.trialsRequested)
        return false;
    if (!resilience)
        return sameBits(got.skew.samples, ref.skew.samples) &&
               sameStats(got.skew, ref.skew.mean(), ref.skew.stddev(),
                         ref.skew.min(), ref.skew.max());
    const mc::ResiliencePoint &g = got.resilience, &r = ref.resilience;
    return sameBits(g.maxCommSkew.samples, r.maxCommSkew.samples) &&
           sameBits(g.clockedFraction.samples, r.clockedFraction.samples) &&
           sameStats(g.maxCommSkew, r.maxCommSkew.mean(),
                     r.maxCommSkew.stddev(), r.maxCommSkew.min(),
                     r.maxCommSkew.max()) &&
           sameBits(g.meanFaults, r.meanFaults) &&
           (ref.faultSamples.empty() ||
            sameBits(got.faultSamples, ref.faultSamples));
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
histogramQuantile(const std::vector<const obs::Histogram *> &hs, double q)
{
    std::uint64_t total = 0;
    for (const obs::Histogram *h : hs)
        total += h->totalCount();
    if (total == 0 || hs.front()->bounds().empty())
        return 0.0;
    const std::vector<double> &bounds = hs.front()->bounds();
    const double target = q * static_cast<double>(total);
    double cum = 0.0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        double c = 0.0;
        for (const obs::Histogram *h : hs)
            c += static_cast<double>(h->bucketCount(i));
        if (c > 0.0 && cum + c >= target) {
            const double lo = i == 0 ? 0.0 : bounds[i - 1];
            return lo + (bounds[i] - lo) * (target - cum) / c;
        }
        cum += c;
    }
    return bounds.back();
}

ServeCounters
readServeCounters(const std::vector<obs::MetricsRegistry *> &registries)
{
    ServeCounters s;
    for (obs::MetricsRegistry *m : registries) {
        s.hits += static_cast<double>(m->counter("serve.cache.hits").value());
        s.misses +=
            static_cast<double>(m->counter("serve.cache.misses").value());
        s.evictions +=
            static_cast<double>(m->counter("serve.cache.evictions").value());
        s.compileMs += m->gauge("serve.cache.compile_ms").value();
        s.chunks += static_cast<double>(m->counter("serve.pool.chunks").value());
        s.jobs += static_cast<double>(m->counter("serve.pool.jobs").value());
        s.activeHwm = std::max(
            s.activeHwm, m->gauge("serve.pool.active_workers_hwm").value());
    }
    return s;
}

void
setBlocking(double kernelMs, double compileMs, double totalMs, Report &out)
{
    const double handlingMs = std::max(0.0, totalMs - kernelMs - compileMs);
    const double sum = std::max(1e-12, kernelMs + compileMs + handlingMs);
    out.set("blocking.kernel_frac", kernelMs / sum, "ratio");
    out.set("blocking.compile_frac", compileMs / sum, "ratio");
    out.set("blocking.handling_frac", handlingMs / sum, "ratio");
}

const std::vector<std::string> &
perLayerNames()
{
    static const std::vector<std::string> names = {
        "rng.fill_ns_per_draw",
        "rng.uniform_ns_per_draw",
        "core.arrivals_ns_per_node",
        "core.fold_ns_per_pair",
        "core.arrival_skew_ns_per_pair",
        "core.compile_ms",
        "core.autotune_ms",
        "core.block_width",
        "mc.resilience_trial_us.trix",
        "mc.resilience_trial_us.htree",
        "serve.cache.hit_ratio",
        "serve.cache.compile_ms_per_miss",
        "serve.cache.evictions",
        "serve.run_ms.skew_htree",
        "serve.run_ms.skew_spine",
        "serve.run_ms.resilience_htree",
        "serve.run_ms.resilience_trix",
        "serve.pool.chunks_per_job",
        "serve.pool.active_workers_hwm",
        "net.parse_request_us",
        "net.encode_outcome_us",
        "net.parse_response_us",
        "net.response_bytes",
        "net.server_ms_p50",
        "net.server_ms_p99",
        "net.queue_depth_max",
        "dist.shard_rtt_ms_p50",
        "dist.shard_rtt_ms_p99",
        "dist.useful_ratio",
        "dist.retried",
        "dist.hedged",
        "dist.fold_ms",
        "loadgen.lag_p99_ms",
        "loadgen.latency_p50_ms",
        "loadgen.latency_p99_ms",
        "blocking.kernel_frac",
        "blocking.compile_frac",
        "blocking.handling_frac",
        "trace.overhead.latency_p50_ms",
        "trace.overhead.latency_p99_ms",
        "trace.overhead.goodput_rps",
        "trace.overhead.skew_trials_per_s",
        "trace.overhead.resilience_trials_per_s",
    };
    return names;
}

} // namespace perfbench
