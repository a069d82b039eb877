/**
 * @file
 * A thread-safe, allocation-light metrics registry.
 *
 * Three metric kinds, all updatable concurrently without locks:
 *
 *  - Counter:   monotone uint64, relaxed atomic adds;
 *  - Gauge:     a double with set / add / recordMax (CAS loops);
 *  - Histogram: fixed bucket bounds chosen at registration, atomic
 *               per-bucket counts.
 *
 * Registration (name -> metric) takes a mutex; hot paths are expected
 * to resolve a metric once and hold the reference (references stay
 * valid for the registry's lifetime -- metrics live in deques).
 *
 * Export is deterministic: writeJson emits metrics sorted by name, so
 * two registries fed the same update multiset render byte-identical
 * JSON regardless of thread count or schedule. (Counter adds and
 * integer-valued histogram/gauge updates are order-independent;
 * floating-point gauge *sums* of non-representable values are the one
 * way to lose that property -- see Gauge::add.)
 */

#ifndef VSYNC_OBS_METRICS_HH
#define VSYNC_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace vsync
{
class JsonWriter;
} // namespace vsync

namespace vsync::obs
{

/** A monotonically increasing event count. */
class Counter
{
  public:
    /** Add @p n (relaxed; sums are order-independent). */
    void
    inc(std::uint64_t n = 1)
    {
        count.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return count.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> count{0};
};

/** A point-in-time double value. */
class Gauge
{
  public:
    /** Overwrite the value (last writer wins). */
    void
    set(double x)
    {
        val.store(x, std::memory_order_relaxed);
    }

    /**
     * Add @p x (CAS loop). Exact -- and therefore order-independent --
     * only when the running sum stays exactly representable (integers
     * below 2^53, sums of equal powers of two); otherwise the final
     * bits may depend on update order.
     */
    void add(double x);

    /** Raise the value to @p x if larger (a high-water mark). */
    void recordMax(double x);

    double
    value() const
    {
        return val.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> val{0.0};
};

/** Fixed-bucket histogram: bounds chosen once, counts updated atomically. */
class Histogram
{
  public:
    /**
     * @param upper_bounds strictly increasing bucket upper bounds; a
     *        final +infinity bucket is implicit. Value v lands in the
     *        first bucket with v <= bound.
     */
    explicit Histogram(std::vector<double> upper_bounds);

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /** Record one observation. */
    void observe(double v);

    /** Bucket count (index bounds().size() is the overflow bucket). */
    std::uint64_t bucketCount(std::size_t i) const;

    /** Total observations. */
    std::uint64_t totalCount() const;

    const std::vector<double> &bounds() const { return upperBounds; }

  private:
    std::vector<double> upperBounds;
    /** bounds().size() + 1 buckets; deque-of-atomics is not movable,
     *  so the registry stores histograms behind stable addresses. */
    std::deque<std::atomic<std::uint64_t>> buckets;
};

/**
 * Named metrics, created on first use and exported as JSON.
 *
 * Thread safety: metric lookup/creation is serialized; updates through
 * the returned references are lock-free. Looking a name up twice
 * returns the same metric; looking it up as a different kind fatal()s.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The counter named @p name (created on first use). */
    Counter &counter(const std::string &name);

    /** The gauge named @p name (created on first use). */
    Gauge &gauge(const std::string &name);

    /**
     * The histogram named @p name. @p upper_bounds is used on first
     * creation; later lookups must pass identical bounds (or empty to
     * mean "existing").
     */
    Histogram &histogram(const std::string &name,
                         std::vector<double> upper_bounds);

    /** Number of registered metrics. */
    std::size_t size() const;

    /**
     * Write every metric, sorted by name, as one JSON object:
     * { "name": {"type": "counter", "value": n}, ... }.
     */
    void writeJson(JsonWriter &w) const;

    /** writeJson rendered to a string (golden tests, exporters). */
    std::string toJsonString() const;

  private:
    enum class Kind { Counter, Gauge, Histogram };
    struct Entry
    {
        Kind kind;
        Counter *counter = nullptr;
        Gauge *gauge = nullptr;
        Histogram *histogram = nullptr;
    };

    Entry &lookup(const std::string &name, Kind kind,
                  std::vector<double> bounds);

    mutable std::mutex mutex;
    std::map<std::string, Entry> entries; // sorted => deterministic JSON
    std::deque<Counter> counters;         // stable addresses
    std::deque<Gauge> gauges;
    std::deque<Histogram> histograms;
};

} // namespace vsync::obs

#endif // VSYNC_OBS_METRICS_HH
