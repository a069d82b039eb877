#include "net/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "clocktree/builders.hh"
#include "common/logging.hh"
#include "layout/generators.hh"
#include "net/conn.hh"
#include "obs/metrics.hh"

namespace vsync::net
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Default latency buckets (ms): sub-ms serving to multi-second. */
std::vector<double>
latencyBoundsMs()
{
    return {0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000};
}

} // namespace

/** Per-connection state shared by its reader and the lanes. */
struct ScenarioServer::Connection
{
    Connection(int fd, std::size_t max_line_bytes)
        : link(fd, max_line_bytes)
    {
    }

    LineConn link;
    /** Serialises writes: reader (error replies) vs lanes. */
    std::mutex writeMutex;
    /** The peer vanished; suppress further writes. */
    std::atomic<bool> dead{false};
};

/** One lazily built scenario: the layout and (for trees) the tree. */
struct ScenarioServer::Scenario
{
    layout::Layout layout;
    clocktree::ClockTree tree;
    bool hasTree = false;
};

ScenarioServer::ScenarioServer(ServerConfig config)
    : cfg(config),
      svc(serve::ServiceConfig{.threads = config.computeThreads,
                               .metrics = config.metrics})
{
}

ScenarioServer::~ScenarioServer()
{
    stop();
}

bool
ScenarioServer::start()
{
    VSYNC_ASSERT(!started.load(), "ScenarioServer started twice");

    listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd < 0) {
        warn("net: socket() failed: %s", std::strerror(errno));
        return false;
    }
    const int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg.port);
    if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1) {
        warn("net: bad listen address '%s'", cfg.host.c_str());
        ::close(listenFd);
        listenFd = -1;
        return false;
    }
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd, 128) != 0) {
        warn("net: cannot listen on %s:%u: %s", cfg.host.c_str(),
             unsigned(cfg.port), std::strerror(errno));
        ::close(listenFd);
        listenFd = -1;
        return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr), &len);
    boundPort = ntohs(addr.sin_port);

    if (::pipe(wakePipe) != 0) {
        warn("net: pipe() failed: %s", std::strerror(errno));
        ::close(listenFd);
        listenFd = -1;
        return false;
    }

    started.store(true);
    acceptThread = std::thread([this] { acceptLoop(); });
    for (unsigned lane = 0; lane < svc.threads(); ++lane)
        dispatchThreads.emplace_back([this] { dispatchLoop(); });
    inform("net: serving on %s:%u", cfg.host.c_str(),
           unsigned(boundPort));
    return true;
}

void
ScenarioServer::wakeThreads()
{
    // One byte, never drained: every poll()er sees POLLIN from now on.
    const char b = 1;
    [[maybe_unused]] ssize_t n = ::write(wakePipe[1], &b, 1);
}

void
ScenarioServer::stop()
{
    if (!started.load() || stopped.exchange(true))
        return;

    // 1. Refuse new work everywhere, then wake the blocked pollers.
    draining.store(true);
    wakeThreads();
    acceptThread.join();
    {
        std::vector<std::thread> live;
        {
            std::lock_guard<std::mutex> lock(connMutex);
            for (auto &[id, reader] : readers)
                live.push_back(std::move(reader));
            readers.clear();
            finishedReaders.clear();
        }
        for (std::thread &t : live)
            t.join();
    }

    // 2. Drain: the queue is frozen now (no readers left). Give the
    //    lanes drainSeconds to answer what was admitted.
    {
        std::unique_lock<std::mutex> lock(queueMutex);
        const auto idle = [this] {
            return queue.empty() && busyLanes == 0;
        };
        if (!drainCv.wait_for(
                lock, std::chrono::duration<double>(drainSeconds),
                idle)) {
            // 3. Out of patience: the in-flight batches get cancelled
            //    and the stragglers run with an expired deadline, so
            //    every admitted request still gets its (Partial)
            //    reply -- quickly.
            expireStragglers.store(true);
            lock.unlock();
            svc.cancel();
            lock.lock();
            drainCv.wait(lock, idle);
        }
        lanesExit = true;
    }
    queueCv.notify_all();
    for (std::thread &t : dispatchThreads)
        t.join();
    dispatchThreads.clear();

    // 4. Every reply has been written, so the last references to the
    //    connections are gone and their sockets closed.
    ::close(listenFd);
    listenFd = -1;
    ::close(wakePipe[0]);
    ::close(wakePipe[1]);
    wakePipe[0] = wakePipe[1] = -1;
    inform("net: server stopped");
}

void
ScenarioServer::reapReaders()
{
    std::vector<std::thread> done;
    {
        std::lock_guard<std::mutex> lock(connMutex);
        for (const std::uint64_t id : finishedReaders) {
            const auto it = readers.find(id);
            done.push_back(std::move(it->second));
            readers.erase(it);
        }
        finishedReaders.clear();
    }
    // Each has left its critical section; joining waits only for its
    // last instructions.
    for (std::thread &t : done)
        t.join();
}

void
ScenarioServer::acceptLoop()
{
    bool backingOff = false;
    while (!draining.load()) {
        pollfd fds[2] = {{listenFd, POLLIN, 0},
                         {wakePipe[0], POLLIN, 0}};
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR)
                continue;
            warn("net: accept poll failed: %s", std::strerror(errno));
            break;
        }
        if (draining.load())
            break;
        if (!(fds[0].revents & POLLIN))
            continue;
        reapReaders();
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                errno == ENOMEM) {
                // Out of descriptors or buffers: the connection stays
                // queued. Wait for readers to end and free some, then
                // retry; only stop() ends the wait early.
                if (!backingOff)
                    warn("net: accept: %s; backing off",
                         std::strerror(errno));
                backingOff = true;
                if (cfg.metrics)
                    cfg.metrics->counter("net.accept.backoffs").inc();
                pollfd wake{wakePipe[0], POLLIN, 0};
                ::poll(&wake, 1, acceptBackoffMs);
                continue;
            }
            warn("net: accept failed: %s", std::strerror(errno));
            break;
        }
        backingOff = false;
        auto conn = std::make_shared<Connection>(fd, cfg.maxLineBytes);
        if (cfg.metrics) {
            conn->link.meter(&cfg.metrics->counter("net.bytes.in"),
                             &cfg.metrics->counter("net.bytes.out"));
            cfg.metrics->counter("net.connections.accepted").inc();
            cfg.metrics->gauge("net.connections.active").add(1.0);
        }
        std::lock_guard<std::mutex> lock(connMutex);
        const std::uint64_t id = nextConnId++;
        readers.emplace(id, std::thread([this, id,
                                         c = std::move(conn)]() mutable {
            connectionLoop(id, std::move(c));
        }));
    }
}

void
ScenarioServer::connectionLoop(std::uint64_t id,
                               std::shared_ptr<Connection> conn)
{
    std::string line;
    for (;;) {
        // Closed: the peer hung up, the socket failed, or stop() wrote
        // the wake pipe. Queued requests keep their shared_ptr; late
        // replies to a vanished peer are dropped by writeLine.
        const LineConn::Read got = conn->link.readLine(
            line, LineConn::Clock::time_point::max(), wakePipe[0]);
        if (got == LineConn::Read::Closed)
            break;
        const Clock::time_point arrival = Clock::now();
        if (got == LineConn::Read::TooLarge) {
            // The line's bytes are already dropped; the reply has no
            // id to echo (the line was never parsed) and the
            // connection survives, resynchronised at the newline.
            if (cfg.metrics)
                cfg.metrics->counter("net.requests.too_large").inc();
            writeLine(*conn,
                      encodeError(0, errTooLarge,
                                  "request line exceeds " +
                                      std::to_string(cfg.maxLineBytes) +
                                      " bytes"));
            continue;
        }

        WireRequest rq;
        std::string error;
        if (line.find_first_not_of(" \t\r") == std::string::npos) {
            // Blank line: ignore (nc users hitting return).
        } else if (!parseRequest(line, rq, error)) {
            if (cfg.metrics)
                cfg.metrics->counter("net.requests.bad").inc();
            writeLine(*conn, encodeError(rq.id, errBadRequest,
                                         error));
        } else if (rq.kind == QueryKind::Info) {
            // Health ping: answered here on the reader thread, so
            // liveness probes see the truth even when every lane
            // and the pool are saturated.
            InfoReply info;
            info.threads = svc.threads();
            info.queueCapacity = cfg.admissionCapacity;
            info.draining = draining.load();
            {
                std::lock_guard<std::mutex> lock(queueMutex);
                info.queueDepth = queue.size();
            }
            if (cfg.metrics)
                cfg.metrics->counter("net.requests.info").inc();
            writeLine(*conn, encodeInfo(rq.id, info));
        } else if (draining.load()) {
            writeLine(*conn, encodeError(rq.id, errShuttingDown,
                                         "server stopping"));
        } else {
            bool admitted = false;
            {
                std::lock_guard<std::mutex> lock(queueMutex);
                if (queue.size() < cfg.admissionCapacity) {
                    queue.push_back(Pending{conn, rq, arrival});
                    admitted = true;
                }
            }
            if (admitted) {
                queueCv.notify_one();
                if (cfg.metrics)
                    cfg.metrics->counter("net.requests.accepted")
                        .inc();
            } else {
                // Shed, loudly: the client learns immediately
                // instead of waiting on an unbounded queue.
                if (cfg.metrics)
                    cfg.metrics->counter("net.requests.shed")
                        .inc();
                writeLine(*conn,
                          encodeError(rq.id, errOverloaded,
                                      "admission queue full"));
            }
        }
    }
    if (cfg.metrics)
        cfg.metrics->gauge("net.connections.active").add(-1.0);
    // Ask the accept loop to join this thread. Returning drops the
    // reader's reference: the socket closes once the connection's last
    // admitted request has been answered.
    std::lock_guard<std::mutex> lock(connMutex);
    if (readers.count(id) != 0)
        finishedReaders.push_back(id);
}

void
ScenarioServer::dispatchLoop()
{
    for (;;) {
        Pending p;
        {
            std::unique_lock<std::mutex> lock(queueMutex);
            queueCv.wait(lock, [this] {
                return lanesExit || !queue.empty();
            });
            if (queue.empty()) {
                VSYNC_ASSERT(lanesExit, "spurious dispatch wake");
                return;
            }
            p = std::move(queue.front());
            queue.pop_front();
            ++busyLanes;
        }
        serveOne(p);
        {
            std::lock_guard<std::mutex> lock(queueMutex);
            --busyLanes;
        }
        drainCv.notify_all();
    }
}

std::shared_ptr<const ScenarioServer::Scenario>
ScenarioServer::scenarioFor(const WireRequest &rq)
{
    const CatalogKey key{static_cast<int>(rq.scheme), rq.rows, rq.cols};
    const auto cellsOf = [](const CatalogKey &k) {
        return static_cast<std::size_t>(std::get<1>(k)) *
               static_cast<std::size_t>(std::get<2>(k));
    };
    // Held across a first build too, so two lanes asking for the same
    // new scenario build it once.
    std::lock_guard<std::mutex> lock(catalogMutex);
    if (auto it = catalog.find(key); it != catalog.end()) {
        it->second.lastUse = ++catalogClock;
        return it->second.scenario;
    }
    auto sc = std::make_shared<Scenario>();
    sc->layout = layout::meshLayout(rq.rows, rq.cols);
    if (rq.scheme == WireScheme::HTree) {
        sc->tree = clocktree::buildHTreeGrid(sc->layout, rq.rows, rq.cols);
        sc->hasTree = true;
    } else if (rq.scheme == WireScheme::Spine) {
        sc->tree = clocktree::buildSpine(sc->layout);
        sc->hasTree = true;
    }
    catalog.emplace(key, CatalogEntry{sc, ++catalogClock});
    catalogCells += cellsOf(key);
    // Evict least recently used first. One shape never exceeds the
    // cap, so the new entry (the most recent) survives.
    while (catalogCells > catalogCapCells) {
        const auto coldest = std::min_element(
            catalog.begin(), catalog.end(),
            [](const auto &a, const auto &b) {
                return a.second.lastUse < b.second.lastUse;
            });
        catalogCells -= cellsOf(coldest->first);
        catalog.erase(coldest);
    }
    if (cfg.metrics)
        cfg.metrics->gauge("net.catalog.cells")
            .set(static_cast<double>(catalogCells));
    return sc;
}

void
ScenarioServer::serveOne(Pending &p)
{
    const WireRequest &rq = p.rq;
    // Our own reference: an eviction cannot free it mid-run.
    const std::shared_ptr<const Scenario> scenario = scenarioFor(rq);
    const Scenario &sc = *scenario;

    mc::McConfig mcc;
    mcc.seed = rq.seed;
    mcc.trials = rq.trials;
    mcc.grain = rq.grain;

    std::vector<serve::SweepRequest> batch;
    if (rq.kind == QueryKind::Skew) {
        serve::SkewRequest s;
        s.layout = &sc.layout;
        s.tree = &sc.tree;
        s.delay = rq.delay;
        s.cfg = mcc;
        s.trialOffset = rq.trialOffset;
        batch.emplace_back(s);
    } else {
        serve::ResilienceRequest r;
        r.layout = &sc.layout;
        r.rows = rq.rows;
        r.cols = rq.cols;
        r.kind = rq.scheme == WireScheme::Trix
                     ? mc::DistributionKind::TrixGrid
                     : (rq.scheme == WireScheme::Spine
                            ? mc::DistributionKind::Spine
                            : mc::DistributionKind::HTree);
        r.faultRate = rq.faultRate;
        r.rc.delay = rq.delay;
        r.cfg = mcc;
        r.trialOffset = rq.trialOffset;
        batch.emplace_back(r);
    }

    // The deadline is arrival-relative: queue wait already spent part
    // of it. A non-positive remainder (or a straggler past the drain
    // budget) fails fast inside the service -- empty Partial.
    serve::BatchOptions opts;
    if (rq.deadlineMs < infinity) {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - p.arrival)
                .count();
        opts.deadlineSeconds = rq.deadlineMs / 1e3 - elapsed;
    }
    if (expireStragglers.load())
        opts.deadlineSeconds = 0.0;

    const serve::BatchOutcome out = svc.run(batch, opts);
    VSYNC_ASSERT(out.outcomes.size() == 1,
                 "single-request batch produced %zu outcomes",
                 out.outcomes.size());

    const double serverMs =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  p.arrival)
            .count();
    writeLine(*p.conn, encodeOutcome(rq, out.outcomes[0], serverMs));
    if (cfg.metrics) {
        cfg.metrics->counter("net.requests.completed").inc();
        cfg.metrics
            ->histogram("net.request.latency_ms", latencyBoundsMs())
            .observe(serverMs);
    }
}

void
ScenarioServer::writeLine(Connection &conn, const std::string &line)
{
    if (conn.dead.load())
        return;
    std::lock_guard<std::mutex> lock(conn.writeMutex);
    if (!conn.link.sendLine(line))
        conn.dead.store(true);
}

} // namespace vsync::net
