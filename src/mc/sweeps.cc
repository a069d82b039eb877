#include "mc/sweeps.hh"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "circuit/inverter_string.hh"
#include "circuit/yield.hh"
#include "common/logging.hh"
#include "core/skew_kernel.hh"
#include "obs/metrics.hh"
#include "systolic/selftimed.hh"

namespace vsync::mc
{

McResult
skewSweep(const layout::Layout &l, const clocktree::ClockTree &t,
          const core::WireDelay &delay, const McConfig &cfg)
{
    return skewSweep(l, t, delay, cfg, core::directCompile());
}

McResult
skewSweep(const layout::Layout &l, const clocktree::ClockTree &t,
          const core::WireDelay &delay, const McConfig &cfg,
          const core::KernelProvider &kernels)
{
    cfg.validate();
    // One kernel fetch for the scenario, shared read-only by every
    // worker; a kernel is immutable after construction, so no warm-up
    // or locking is needed before the threads start. A caching
    // provider amortises the compile across sweeps as well.
    const std::shared_ptr<const core::SkewKernel> kptr = kernels(l, &t);
    const core::SkewKernel &kernel = *kptr;

    ThreadPool pool(cfg.threads);
    McResult r;
    r.samples.assign(cfg.trials, 0.0);

    // Same observability contract as runTrials (this sweep has its own
    // loop for the per-chunk scratch vector).
    std::atomic<std::uint64_t> draws{0};
    std::chrono::steady_clock::time_point wall0;
    if (cfg.metrics)
        wall0 = std::chrono::steady_clock::now();

    // Lane-blocked trial loop: W = 8 trials share one pass over the
    // flat arrays (any W is bit-identical, and a chunk end just runs a
    // narrower remainder block, so results do not depend on grain or
    // thread count).
    const std::size_t blockW = kernel.blockWidth();
    pool.parallelForRange(
        cfg.trials, cfg.grain,
        [&](std::size_t begin, std::size_t end) {
            std::vector<Time> arrival; // scratch, reused per chunk
            std::vector<Rng> lanes;
            lanes.reserve(blockW);
            std::uint64_t chunk_draws = 0;
            for (std::size_t i = begin; i < end; i += blockW) {
                const std::size_t w = std::min(blockW, end - i);
                lanes.clear();
                for (std::size_t j = 0; j < w; ++j)
                    lanes.push_back(Rng::forTrial(cfg.seed, i + j));
                kernel.sampleMaxCommSkewBlock(
                    delay, {lanes.data(), w},
                    {r.samples.data() + i, w}, arrival);
                if (cfg.metrics)
                    for (std::size_t j = 0; j < w; ++j)
                        chunk_draws += lanes[j].draws();
            }
            if (cfg.metrics)
                draws.fetch_add(chunk_draws, std::memory_order_relaxed);
        });
    reduceInTrialOrder(r);

    if (cfg.metrics) {
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall0)
                .count();
        recordSweepMetrics(*cfg.metrics, cfg.metricsName, cfg.trials,
                           wall, draws.load(std::memory_order_relaxed));
        kernel.exportMetrics(*cfg.metrics,
                             "mc." + cfg.metricsName + ".kernel.");
    }
    return r;
}

McResult
chipCycleSweep(const circuit::ProcessParams &process, int n,
               const McConfig &cfg)
{
    ThreadPool pool(cfg.threads);
    return runTrials(pool, cfg, [&](std::uint64_t, Rng &rng) {
        circuit::InverterString s(n, process, rng);
        return s.pipelinedCycleAnalytic();
    });
}

double
yieldAtCycleTimeMc(const circuit::ProcessParams &process, int n,
                   Time period, const McConfig &cfg)
{
    VSYNC_ASSERT(cfg.trials >= 1, "need at least one chip");
    const McResult cycles = chipCycleSweep(process, n, cfg);
    const std::size_t good = static_cast<std::size_t>(std::count_if(
        cycles.samples.begin(), cycles.samples.end(),
        [period](double c) { return c <= period; }));
    return static_cast<double>(good) /
           static_cast<double>(cycles.samples.size());
}

McResult
selfTimedCycleSweep(const systolic::SystolicArray &array, int firings,
                    double p_fast, Time fast, Time slow,
                    const McConfig &cfg)
{
    array.validate(); // validate once, not per trial per thread
    ThreadPool pool(cfg.threads);
    return runTrials(pool, cfg, [&](std::uint64_t, Rng &rng) {
        const auto speeds = systolic::bernoulliServiceTimes(
            array.size(), p_fast, fast, slow, rng);
        const auto res = systolic::runSelfTimed(
            array, firings, systolic::serviceFromSpeeds(speeds), true);
        return res.steadyCycle;
    });
}

McResult
hybridCycleSweep(const hybrid::HybridNetwork &net, int rounds,
                 const McConfig &cfg)
{
    VSYNC_ASSERT(net.params().jitterAmplitude > 0.0,
                 "jitter-free hybrid runs are deterministic; call "
                 "simulate() once instead");
    ThreadPool pool(cfg.threads);
    return runTrials(pool, cfg, [&](std::uint64_t, Rng &rng) {
        return net.simulate(rounds, &rng).steadyCycle;
    });
}

} // namespace vsync::mc
