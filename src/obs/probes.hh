/**
 * @file
 * Registry-backed probe implementations.
 *
 * MetricsSimProbe and MetricsExecProbe translate the raw probe
 * callbacks (obs/probe.hh) into named metrics in a MetricsRegistry:
 *
 *   desim.events             counter  events dispatched
 *   desim.queue_depth_hwm    gauge    event-queue high-water mark
 *   desim.element_fires      counter  delay-element propagations
 *   desim.elements_seen      gauge    distinct elements that fired
 *   desim.max_fires_per_element gauge  hottest element's fire count
 *   desim.runs               counter  Simulator::run calls
 *   desim.sim_time_ns        gauge    sim time at last run end
 *   desim.wall_ms            gauge    accumulated host time in run()
 *   desim.events_per_wall_s  gauge    kernel speed over the last run
 *
 *   hybrid.handshake_waits   counter  element-cycles that stalled
 *   hybrid.stall_ns          gauge    accumulated stall time
 *   hybrid.max_stall_ns      gauge    worst single stall
 *   hybrid.rounds            counter  rounds simulated
 *
 * PoolMetricsObserver does the same for the ThreadPool's PoolObserver
 * seam (common/parallel.hh), making pool saturation visible next to
 * request latency when a SweepService runs behind the net:: front end:
 *
 *   pool.jobs                counter  parallelForRange jobs submitted
 *   pool.chunks              counter  chunks executed
 *   pool.active_workers      gauge    workers inside a chunk right now
 *   pool.active_workers_hwm  gauge    most workers ever concurrent
 *   pool.queue_depth_hwm     gauge    most chunks ever waiting to start
 *
 * The prefixes are configurable so several instrumented engines can
 * share one registry without colliding.
 */

#ifndef VSYNC_OBS_PROBES_HH
#define VSYNC_OBS_PROBES_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/parallel.hh"
#include "obs/metrics.hh"
#include "obs/probe.hh"

namespace vsync::obs
{

/** SimProbe recording into a MetricsRegistry. */
class MetricsSimProbe : public SimProbe
{
  public:
    explicit MetricsSimProbe(MetricsRegistry &registry,
                             const std::string &prefix = "desim");

    void onEventDispatched(Time t, std::size_t queue_depth) override;
    void onElementFired(const void *element, Time t) override;
    void onRunEnd(Time sim_time, double wall_seconds,
                  std::uint64_t events) override;

    /** Distinct elements that fired at least once. */
    std::size_t elementsSeen() const { return perElement.size(); }

    /** Fire count of the hottest element. */
    std::uint64_t maxFiresPerElement() const;

  private:
    Counter &events;
    Counter &fires;
    Counter &runs;
    Gauge &queueHwm;
    Gauge &elementsSeenGauge;
    Gauge &maxFiresGauge;
    Gauge &simTime;
    Gauge &wallMs;
    Gauge &eventsPerWallS;
    /** Per-element fire counts. The simulator dispatches on one
     *  thread, so this map needs no lock. */
    std::unordered_map<const void *, std::uint64_t> perElement;
};

/** ExecProbe recording into a MetricsRegistry. */
class MetricsExecProbe : public ExecProbe
{
  public:
    explicit MetricsExecProbe(MetricsRegistry &registry,
                              const std::string &prefix = "hybrid");

    void onRound(const ExecRoundStats &stats) override;

  private:
    Counter &waits;
    Counter &rounds;
    Gauge &stallTotal;
    Gauge &stallMax;
    Gauge &lastCompletion;
};

/**
 * PoolObserver exporting ThreadPool utilization gauges. Install on
 * exactly one pool (per-job chunk accounting is a single slot); the
 * hooks cost a few relaxed atomic updates per chunk.
 *
 * "Queue depth" is the number of grain-sized chunks of the current
 * job not yet handed to a worker, sampled as each chunk starts; its
 * high-water mark across jobs shows how far submitted work ran ahead
 * of the pool -- the compute-side counterpart of the net:: admission
 * queue.
 */
class PoolMetricsObserver : public PoolObserver
{
  public:
    explicit PoolMetricsObserver(MetricsRegistry &registry,
                                 const std::string &prefix = "pool.");

    void onJobBegin(std::size_t n, std::size_t grain) override;
    void onJobEnd() override;
    void onChunkBegin(unsigned worker, std::size_t begin,
                      std::size_t end) override;
    void onChunkEnd(unsigned worker, std::size_t begin,
                    std::size_t end) override;

  private:
    Counter &jobs;
    Counter &chunks;
    Gauge &active;
    Gauge &activeHwm;
    Gauge &queueHwm;
    /** Chunks of the current job not yet started. The pool fans out
     *  one job at a time, so a single slot suffices; single-chunk jobs
     *  running inline on concurrent callers (serve::SweepService) never
     *  wait, and overlapping them can only make the depth read low. */
    std::atomic<std::int64_t> chunksPending{0};
    std::atomic<std::int64_t> activeNow{0};
};

} // namespace vsync::obs

#endif // VSYNC_OBS_PROBES_HH
