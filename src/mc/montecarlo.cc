#include "mc/montecarlo.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace vsync::mc
{

void
McConfig::validate() const
{
    VSYNC_ASSERT(trials > 0, "McConfig: trials must be positive");
    VSYNC_ASSERT(grain > 0,
                 "McConfig: grain must be positive (a zero grain "
                 "divides the schedule into nothing)");
}

double
McResult::quantile(double q) const
{
    VSYNC_ASSERT(!samples.empty(), "quantile of an empty result");
    VSYNC_ASSERT(q >= 0.0 && q <= 1.0, "quantile %g out of [0,1]", q);
    std::vector<double> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

bool
McResult::bitIdentical(const McResult &other) const
{
    if (samples.size() != other.samples.size())
        return false;
    return samples.empty() ||
           std::memcmp(samples.data(), other.samples.data(),
                       samples.size() * sizeof(double)) == 0;
}

void
reduceInTrialOrder(McResult &r)
{
    r.stat.reset();
    for (const double x : r.samples)
        r.stat.add(x);
}

void
runTrialRanges(ThreadPool &pool, const McConfig &cfg,
               const TrialRangeFn &fn)
{
    cfg.validate();
    std::atomic<std::uint64_t> draws{0};
    const auto wall0 = std::chrono::steady_clock::now();
    pool.parallelForRange(cfg.trials, cfg.grain,
                          [&](std::size_t begin, std::size_t end) {
                              draws.fetch_add(fn(begin, end),
                                              std::memory_order_relaxed);
                          });
    if (!cfg.metrics)
        return;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();
    const std::string base = "mc." + cfg.metricsName + ".";
    cfg.metrics->counter(base + "trials").inc(cfg.trials);
    cfg.metrics->counter(base + "rng_draws")
        .inc(draws.load(std::memory_order_relaxed));
    cfg.metrics->gauge(base + "wall_ms").set(wall * 1e3);
    cfg.metrics->gauge(base + "trials_per_s")
        .set(wall > 0.0 ? static_cast<double>(cfg.trials) / wall : 0.0);
}

McResult
runTrials(ThreadPool &pool, const McConfig &cfg, const TrialFn &fn)
{
    VSYNC_ASSERT(static_cast<bool>(fn), "null trial function");
    McResult r;
    r.samples.assign(cfg.trials, 0.0);
    runTrialRanges(pool, cfg, [&](std::size_t begin, std::size_t end) {
        std::uint64_t draws = 0;
        for (std::size_t i = begin; i < end; ++i) {
            Rng rng = Rng::forTrial(cfg.seed, i);
            r.samples[i] = fn(i, rng);
            draws += rng.draws();
        }
        return draws;
    });
    reduceInTrialOrder(r);
    return r;
}

McResult
runTrials(const McConfig &cfg, const TrialFn &fn)
{
    ThreadPool pool(cfg.threads);
    return runTrials(pool, cfg, fn);
}

} // namespace vsync::mc
