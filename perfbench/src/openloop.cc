#include "openloop.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>

#include "obs/trace.hh"

namespace perfbench
{

using vsync::net::LineReader;
using vsync::net::WireRequest;
using vsync::net::WireResponse;

namespace
{

using Clock = std::chrono::steady_clock;

/** Blocking loopback connection with Nagle off; -1 on failure. */
int
connectLoopback(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
sleepUntilUs(double us)
{
    const auto target = Clock::time_point(
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::micro>(us)));
    std::this_thread::sleep_until(target);
}

/** Owns the client's sockets for the length of one run. */
struct Sockets
{
    std::vector<int> fds;
    ~Sockets()
    {
        for (int fd : fds)
            ::close(fd);
    }
};

/** Record a span given in steady-clock microseconds. */
void
traceSpan(vsync::obs::Tracer *tracer, double offsetUs,
          const std::string &name, double beginUs, double endUs)
{
    if (!tracer)
        return;
    const auto at = [&](double us) {
        return static_cast<std::uint64_t>(std::max(0.0, us + offsetUs));
    };
    tracer->recordSpan(name, at(beginUs), at(endUs));
}

std::string
spanName(std::size_t i, const char *stage)
{
    return "rq#" + std::to_string(i) + " " + stage;
}

} // namespace

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               Clock::now().time_since_epoch())
        .count();
}

OpenLoopResult
runOpenLoop(const OpenLoopConfig &cfg)
{
    OpenLoopResult out;
    const std::size_t n = static_cast<std::size_t>(
        std::max(1.0, std::round(cfg.rps * cfg.seconds)));
    out.samples.resize(n);
    if (cfg.mix.empty())
        return out;

    Sockets socks;
    const unsigned conns = clientConnections;
    for (unsigned c = 0; c < conns; ++c) {
        const int fd = connectLoopback(cfg.port);
        if (fd < 0) {
            out.connected = false;
            return out;
        }
        socks.fds.push_back(fd);
    }
    // Tracer timestamps count from the tracer's own epoch.
    const double traceOffsetUs =
        cfg.tracer ? static_cast<double>(cfg.tracer->nowMicros()) - nowUs()
                   : 0.0;

    std::atomic<bool> senderDone{false};
    const double t0 = nowUs() + 2000.0; // let both threads get going
    const double lastDue = t0 + dueOffsetUs(n - 1, cfg.rps);

    std::thread sender([&] {
        if (cfg.tracer)
            cfg.tracer->nameCurrentThread("loadgen sender");
        for (std::size_t i = 0; i < n; ++i) {
            RequestSample &s = out.samples[i];
            s.dueUs = t0 + dueOffsetUs(i, cfg.rps);
            if (nowUs() < s.dueUs)
                sleepUntilUs(s.dueUs);
            s.sentUs = nowUs();
            WireRequest rq = cfg.mix[(cfg.firstIndex + i) % cfg.mix.size()];
            rq.id = i;
            std::string line = vsync::net::encodeRequest(rq);
            line.push_back('\n');
            // A failed send shows up as a lost reply.
            sendAll(socks.fds[i % conns], line);
            traceSpan(cfg.tracer, traceOffsetUs, spanName(i, "send"),
                      s.sentUs, nowUs());
        }
        senderDone.store(true);
    });

    // Receiver: this thread. Every reply line resolves one request.
    if (cfg.tracer)
        cfg.tracer->nameCurrentThread("loadgen receiver");
    std::vector<LineReader> readers(conns, LineReader(std::size_t{64} << 20));
    std::vector<pollfd> pfds(conns);
    for (unsigned c = 0; c < conns; ++c)
        pfds[c] = pollfd{socks.fds[c], POLLIN, 0};
    std::vector<std::uint8_t> resolved(n, 0);
    std::size_t pending = n;
    std::vector<char> buf(1 << 16);
    std::string line, error;
    WireResponse rsp;
    while (pending > 0) {
        const double now = nowUs();
        if (senderDone.load() &&
            now > lastDue + patienceSeconds * 1e6)
            break; // everything still pending is lost
        if (::poll(pfds.data(), pfds.size(), 50) <= 0)
            continue;
        for (unsigned c = 0; c < conns; ++c) {
            if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const ssize_t got = ::recv(pfds[c].fd, buf.data(), buf.size(), 0);
            if (got <= 0) {
                pfds[c].fd = -1; // closed: its requests end up lost
                continue;
            }
            readers[c].feed(buf.data(), static_cast<std::size_t>(got));
            while (readers[c].next(line) == LineReader::Next::Line) {
                const double doneUs = nowUs();
                const bool parsed =
                    vsync::net::parseResponse(line, rsp, error);
                const double parsedUs = nowUs();
                if (!parsed || rsp.id >= n || resolved[rsp.id])
                    continue; // unattributable: its request is lost
                const std::size_t i = rsp.id;
                resolved[i] = 1;
                --pending;
                RequestSample &s = out.samples[i];
                s.doneUs = doneUs;
                if (!rsp.ok) {
                    s.fate = rsp.error == vsync::net::errOverloaded
                                 ? Fate::Shed
                                 : Fate::Failed;
                } else if (cfg.check((cfg.firstIndex + i) % cfg.mix.size(),
                                     rsp)) {
                    s.fate = Fate::Verified;
                    out.serverMs.push_back(rsp.serverMs);
                } else {
                    s.fate = Fate::Failed;
                    ++out.mismatches;
                }
                if (cfg.tracer) {
                    // The due time comes from the sender; read it only
                    // through the schedule, which both threads share.
                    const double dueUs = t0 + dueOffsetUs(i, cfg.rps);
                    traceSpan(cfg.tracer, traceOffsetUs,
                              spanName(i, "request"), dueUs, doneUs);
                    traceSpan(cfg.tracer, traceOffsetUs,
                              spanName(i, "net.parseResponse"), doneUs,
                              parsedUs);
                    traceSpan(cfg.tracer, traceOffsetUs,
                              spanName(i, "verify"), parsedUs, nowUs());
                }
            }
        }
    }
    sender.join();
    return out;
}

std::size_t
closedLoop(std::uint16_t port, const std::vector<WireRequest> &requests,
           const ReplyCheck &check)
{
    Sockets socks;
    const int fd = connectLoopback(port);
    if (fd < 0)
        return 0;
    socks.fds.push_back(fd);
    LineReader reader(std::size_t{64} << 20);
    std::vector<char> buf(1 << 16);
    std::string line, error;
    WireResponse rsp;
    std::size_t verified = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        WireRequest rq = requests[i];
        rq.id = i;
        if (!sendAll(fd, vsync::net::encodeRequest(rq) + "\n"))
            return verified;
        bool got = false;
        while (!got) {
            if (reader.next(line) == LineReader::Next::Line) {
                got = true;
                break;
            }
            const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
            if (n <= 0)
                return verified;
            reader.feed(buf.data(), static_cast<std::size_t>(n));
        }
        if (vsync::net::parseResponse(line, rsp, error) && rsp.id == i &&
            check(i, rsp))
            ++verified;
    }
    return verified;
}

InfoSampler::InfoSampler(std::vector<std::uint16_t> ports_)
    : ports(std::move(ports_))
{
    for (std::uint16_t p : ports)
        fds.push_back(connectLoopback(p));
    thread = std::thread([this] { loop(); });
}

InfoSampler::~InfoSampler()
{
    stop();
    for (int fd : fds)
        if (fd >= 0)
            ::close(fd);
}

void
InfoSampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    wake.notify_all();
    if (thread.joinable())
        thread.join();
}

void
InfoSampler::loop()
{
    std::vector<LineReader> readers(fds.size());
    std::vector<char> buf(4096);
    std::string line, error;
    WireResponse rsp;
    WireRequest ping;
    ping.kind = vsync::net::QueryKind::Info;
    const auto t0 = Clock::now();
    for (std::size_t k = 0;; ++k) {
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::milliseconds(5 * k));
        {
            std::unique_lock<std::mutex> lock(mutex);
            if (wake.wait_until(lock, due, [this] { return stopping; }))
                return;
        }
        lags.push_back(std::chrono::duration<double, std::milli>(
                           Clock::now() - due)
                           .count());
        for (std::size_t w = 0; w < fds.size(); ++w) {
            if (fds[w] < 0)
                continue;
            ping.id = k;
            if (!sendAll(fds[w], vsync::net::encodeRequest(ping) + "\n"))
                continue;
            // Info is answered on the server's reader thread, so the
            // reply is prompt; wait for it before the next ping.
            pollfd pfd{fds[w], POLLIN, 0};
            bool answered = false;
            while (!answered && ::poll(&pfd, 1, 1000) > 0) {
                const ssize_t got = ::recv(fds[w], buf.data(), buf.size(), 0);
                if (got <= 0)
                    break;
                readers[w].feed(buf.data(), static_cast<std::size_t>(got));
                while (readers[w].next(line) == LineReader::Next::Line)
                    if (vsync::net::parseResponse(line, rsp, error)) {
                        maxDepth = std::max(maxDepth, rsp.queueDepth);
                        answered = true;
                    }
            }
        }
    }
}

} // namespace perfbench
