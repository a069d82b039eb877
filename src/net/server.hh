/**
 * @file
 * TCP front end for serve::SweepService.
 *
 * The server speaks the newline-delimited JSON protocol of
 * net/protocol.hh on a listening socket. The thread layout keeps
 * I/O off the compute pool:
 *
 *  - one accept thread, blocking in poll() on the listener;
 *  - one reader thread per connection, scanning lines out of a
 *    bounded buffer and parsing requests;
 *  - one dispatch lane per compute thread (ServerConfig::
 *    computeThreads), each popping admitted requests off one shared
 *    bounded queue and running them on the embedded SweepService. A
 *    request of one work unit computes on its lane's own thread, so
 *    as many requests run at once as the service has compute threads;
 *    a request of several units fans out on the service's pool.
 *    Replies on one connection may therefore come back out of order;
 *    clients match them by id.
 *
 * Admission control is explicit: a request that arrives while the
 * queue holds admissionCapacity entries is *shed* -- the client gets
 * an immediate {"ok":false,"error":"overloaded"} reply -- never
 * silently queued or dropped. Every admitted request is answered
 * exactly once; accepted + shed + bad == lines received.
 *
 * Deadlines propagate: a request's deadline_ms is measured from the
 * moment its line was read, so time spent waiting in the admission
 * queue counts against it. The lane hands the *remaining* budget to
 * SweepService::run; a request whose budget ran out in the
 * queue fails fast as an empty Partial, exactly like an in-process
 * caller passing a zero deadline.
 *
 * stop() is graceful: stop accepting, reply "shutting_down" to lines
 * already in flight, drain the queue until it is empty and no lane is
 * busy, for up to drainSeconds, then cancel every in-flight batch and
 * expire the stragglers (they answer as Partial). Every response
 * outlives the socket: a connection's admitted requests share its
 * ownership, so its descriptor closes only after every lane wrote its
 * last reply.
 *
 * Connections do not outlive their use: a connection is owned by its
 * reader thread and its admitted requests, so it closes once its
 * reader has ended (the peer hung up, or stop()) and its last reply is
 * written; the accept loop joins finished readers before it starts
 * the next one. A server with steady connection churn holds
 * descriptors and threads only for live connections. When accept()
 * runs out of descriptors (EMFILE, ENFILE) or kernel buffers, the
 * connection stays queued; the loop backs off for acceptBackoffMs and
 * retries, so the server keeps accepting once descriptors free up.
 *
 * Requests name their scenario by (scheme, rows, cols); the server
 * builds each layout and clock tree once and keeps it in a catalog
 * bounded by catalogCapCells total cells, evicting the least recently
 * used shape. A lane holds its own reference to the scenario it
 * serves, so an eviction never frees a scenario still in use.
 *
 * Every connection is a net::LineConn (net/conn.hh): the reader
 * thread reads through it and the lanes write replies through it.
 *
 * Metrics (when cfg.metrics is set) land under "net.*":
 * connections.accepted/active, accept.backoffs (accept retries after
 * running out of descriptors), requests.accepted/shed/bad/completed,
 * request.latency_ms histogram, bytes.in/out (raw socket bytes),
 * catalog.cells gauge -- alongside the embedded service's "serve.*"
 * counters.
 */

#ifndef VSYNC_NET_SERVER_HH
#define VSYNC_NET_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/protocol.hh"
#include "serve/sweep_service.hh"

namespace vsync::obs
{
class MetricsRegistry;
} // namespace vsync::obs

namespace vsync::net
{

/** stop(): queue-drain budget before stragglers are expired. */
inline constexpr double drainSeconds = 5.0;

/** Pause before accept() is retried after running out of
 *  descriptors; stop() cuts it short. */
inline constexpr int acceptBackoffMs = 50;

/**
 * Scenario catalog bound, in total cells over the resident shapes:
 * four of the largest shape a request may name.
 */
inline constexpr std::size_t catalogCapCells = 4 * maxWireCells;

/** Server knobs. */
struct ServerConfig
{
    /** Address to bind (numeric IPv4). */
    std::string host = "127.0.0.1";
    /** Port to bind; 0 = ephemeral (read the result from port()). */
    std::uint16_t port = 0;
    /** Compute pool width, and the number of dispatch lanes;
     *  0 = defaultThreadCount(). */
    unsigned computeThreads = 0;
    /** Admission queue bound; arrivals beyond it are shed. */
    std::size_t admissionCapacity = 64;
    /**
     * Longest accepted request line. An oversized line is answered
     * with {"ok":false,"error":"too_large"} and skipped (the reader
     * resynchronises at its newline and the connection survives); the
     * buffer never grows past this bound, so a stream that simply
     * never sends '\n' cannot balloon server memory.
     */
    std::size_t maxLineBytes = defaultMaxLineBytes;
    /** Optional registry for "net.*" and the service's "serve.*". */
    obs::MetricsRegistry *metrics = nullptr;
};

/**
 * The scenario server. start()/stop() bracket the listening state;
 * the destructor stops implicitly. One instance serves any number of
 * concurrent connections; requests across all connections share the
 * one admission queue and compute pool.
 */
class ScenarioServer
{
  public:
    explicit ScenarioServer(ServerConfig cfg = {});
    ~ScenarioServer();

    ScenarioServer(const ScenarioServer &) = delete;
    ScenarioServer &operator=(const ScenarioServer &) = delete;

    /**
     * Bind, listen and spawn the I/O threads. Returns false (with a
     * warn) when the address cannot be bound; the instance may not be
     * reused after a failed start.
     */
    bool start();

    /** The bound port (valid after a successful start()). */
    std::uint16_t port() const { return boundPort; }

    /**
     * Graceful shutdown; idempotent, safe to call concurrently with
     * serving. Returns when every admitted request has been answered
     * and every thread joined.
     */
    void stop();

    /** The embedded service (test access: cache stats, cancel). */
    serve::SweepService &service() { return svc; }

  private:
    struct Connection;
    /** One admitted request waiting for a dispatch lane. */
    struct Pending
    {
        std::shared_ptr<Connection> conn;
        WireRequest rq;
        /** steady_clock::now() when the request line was read. */
        std::chrono::steady_clock::time_point arrival;
    };
    /** A lazily built (layout, tree) scenario. */
    struct Scenario;
    /** Catalog key: (scheme, rows, cols). */
    using CatalogKey = std::tuple<int, int, int>;
    struct CatalogEntry
    {
        std::shared_ptr<const Scenario> scenario;
        /** catalogClock at the entry's latest use. */
        std::uint64_t lastUse = 0;
    };

    void acceptLoop();
    /** Join the readers that ended since the last call. */
    void reapReaders();
    void connectionLoop(std::uint64_t id, std::shared_ptr<Connection> conn);
    void dispatchLoop();
    /** Serve one admitted request (on a dispatch lane). */
    void serveOne(Pending &p);
    std::shared_ptr<const Scenario> scenarioFor(const WireRequest &rq);
    void writeLine(Connection &conn, const std::string &line);
    void wakeThreads();

    ServerConfig cfg;
    serve::SweepService svc;

    int listenFd = -1;
    /** Written once at stop; readers poll it and never drain it. */
    int wakePipe[2] = {-1, -1};
    std::uint16_t boundPort = 0;
    std::atomic<bool> started{false};
    std::atomic<bool> stopped{false};
    /** Set first in stop(): refuse new connections and requests. */
    std::atomic<bool> draining{false};
    /** Set when the drain budget ran out: serve stragglers expired. */
    std::atomic<bool> expireStragglers{false};

    std::thread acceptThread;
    /** The dispatch lanes, one per compute thread. */
    std::vector<std::thread> dispatchThreads;
    std::mutex connMutex;
    /** Reader threads by connection id; each owns its connection (as
     *  do the connection's admitted requests). */
    std::map<std::uint64_t, std::thread> readers;
    /** Ids of readers that ended and wait to be joined. */
    std::vector<std::uint64_t> finishedReaders;
    std::uint64_t nextConnId = 0;

    std::mutex queueMutex;
    std::condition_variable queueCv; //!< lanes wait for work
    std::condition_variable drainCv; //!< stop() waits for empty+idle
    std::deque<Pending> queue;
    /** Lanes serving a request right now. */
    unsigned busyLanes = 0;
    bool lanesExit = false;

    /**
     * Scenario catalog, shared by the lanes under catalogMutex: at
     * most catalogCapCells cells resident, least recently used shape
     * evicted first.
     */
    std::mutex catalogMutex;
    std::map<CatalogKey, CatalogEntry> catalog;
    std::uint64_t catalogClock = 0;
    std::size_t catalogCells = 0;
};

} // namespace vsync::net

#endif // VSYNC_NET_SERVER_HH
