/**
 * @file
 * The benchmark's open-loop wire client and its info-ping sampler.
 *
 * net::runLoadGen times a request from its actual send and leaves
 * failures out of its percentiles; this client instead
 *  - sends request i when it is due, t0 + i / rps, whatever earlier
 *    replies did, and records when it actually went out, so latency is
 *    measured from the due time and the generator's own lag is known;
 *  - classifies every request exactly once as verified, shed or failed
 *    (error reply, lost, partial or mismatching), so the accounting in
 *    accounting.hh can charge failures as missing the latency limit;
 *  - uses one sender thread, one receiver thread and clientConnections
 *    pipelined connections.
 */

#ifndef PERFBENCH_OPENLOOP_HH
#define PERFBENCH_OPENLOOP_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "accounting.hh"
#include "net/protocol.hh"

namespace vsync::obs
{
class Tracer;
} // namespace vsync::obs

namespace perfbench
{

/**
 * Pipelined connections of the open-loop client. With its sender and
 * receiver threads, and the info sampler's thread and connection, the
 * client stays within the host's 4 cores.
 */
inline constexpr unsigned clientConnections = 2;
/** A request unanswered this long after its due time is lost. */
inline constexpr double patienceSeconds = 5.0;

/** Microseconds on the steady clock, the one time base of all samples. */
double nowUs();

/** Compares a decoded reply to the reference of mix entry @p variant. */
using ReplyCheck = std::function<bool(std::size_t variant,
                                      const vsync::net::WireResponse &)>;

struct OpenLoopConfig
{
    std::uint16_t port = 0;
    /** Offered rate, requests per second. */
    double rps = 100.0;
    /** Schedule length: round(rps * seconds) requests are offered. */
    double seconds = 1.0;
    /**
     * The generated inputs, sent cyclically: request i is
     * mix[(firstIndex + i) % mix.size()] with its id set to i.
     */
    std::vector<vsync::net::WireRequest> mix;
    std::size_t firstIndex = 0;
    /** Checks every ok reply; a false result fails the request. */
    ReplyCheck check;
    /** When set, one span per request stage, named "rq#<i> <stage>". */
    vsync::obs::Tracer *tracer = nullptr;
};

struct OpenLoopResult
{
    /** samples[i]: request i's due/sent/done times and fate. */
    std::vector<RequestSample> samples;
    /** serverMs of every verified reply, in arrival order. */
    std::vector<double> serverMs;
    /** Ok replies that failed the check (also counted as Failed). */
    std::size_t mismatches = 0;
    /** False when a connection could not be opened. */
    bool connected = true;
};

/** Offer the schedule and collect every reply or its loss. */
OpenLoopResult runOpenLoop(const OpenLoopConfig &cfg);

/**
 * Closed loop on one connection: send each of @p requests in turn and
 * wait for its reply. Returns how many replies passed @p check (with
 * the request's index) -- requests.size() on full success.
 */
std::size_t closedLoop(std::uint16_t port,
                       const std::vector<vsync::net::WireRequest> &requests,
                       const ReplyCheck &check);

/**
 * Sends {"kind":"info"} pings on a side connection per port every 5 ms
 * while it lives, recording the largest admission-queue depth any reply
 * reported and how late each ping went out. One thread.
 */
class InfoSampler
{
  public:
    explicit InfoSampler(std::vector<std::uint16_t> ports);
    ~InfoSampler();

    InfoSampler(const InfoSampler &) = delete;
    InfoSampler &operator=(const InfoSampler &) = delete;

    /** Stop pinging and join; idempotent. */
    void stop();

    /** Largest queue depth any ping reported (valid after stop()). */
    std::uint64_t maxQueueDepth() const { return maxDepth; }
    /** sent - due of every ping, ms (valid after stop()). */
    const std::vector<double> &lagMs() const { return lags; }

  private:
    void loop();

    std::vector<std::uint16_t> ports;
    std::vector<int> fds;
    std::uint64_t maxDepth = 0;
    std::vector<double> lags;
    std::mutex mutex;
    std::condition_variable wake;
    bool stopping = false; // guarded by mutex
    std::thread thread;
};

} // namespace perfbench

#endif // PERFBENCH_OPENLOOP_HH
