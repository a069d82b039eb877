/**
 * @file
 * Tests for the network front end: the wire protocol (round trips,
 * rejection of malformed requests), the loopback server (bit-identity
 * with direct SweepService runs at several pool widths and on
 * concurrent dispatch lanes, admission control under burst, deadline
 * propagation, graceful shutdown, the bounded scenario catalog,
 * connection churn and descriptor exhaustion), the LineConn framing every wire peer reads and writes through, and the
 * open-loop load generator's request accounting.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clocktree/builders.hh"
#include "layout/generators.hh"
#include "mc/resilience.hh"
#include "mc/sweeps.hh"
#include "net/conn.hh"
#include "net/loadgen.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "serve/sweep_service.hh"

namespace
{

using namespace vsync;

const core::WireDelay kDelay{0.05, 0.005};

/** A tiny blocking line-oriented client for driving the server. */
class TestClient
{
  public:
    explicit TestClient(std::uint16_t port)
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }

    ~TestClient()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool connected() const { return fd >= 0; }

    bool
    sendLine(std::string line)
    {
        line.push_back('\n');
        const char *data = line.data();
        std::size_t len = line.size();
        while (len > 0) {
            const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
            if (n < 0)
                return false;
            data += n;
            len -= static_cast<std::size_t>(n);
        }
        return true;
    }

    /** One line, or empty string on timeout/EOF. */
    std::string
    recvLine(int timeout_ms = 30000)
    {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(timeout_ms);
        for (;;) {
            const std::size_t nl = buffer.find('\n');
            if (nl != std::string::npos) {
                std::string line = buffer.substr(0, nl);
                buffer.erase(0, nl + 1);
                return line;
            }
            const auto remaining =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
            if (remaining <= 0)
                return "";
            pollfd pfd{fd, POLLIN, 0};
            if (::poll(&pfd, 1, static_cast<int>(remaining)) <= 0)
                return "";
            char chunk[4096];
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return "";
            buffer.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd = -1;
    std::string buffer;
};

net::WireResponse
parsedOk(const std::string &line)
{
    net::WireResponse rsp;
    std::string error;
    EXPECT_TRUE(net::parseResponse(line, rsp, error))
        << error << " in: " << line;
    return rsp;
}

TEST(Protocol, RequestRoundTripsIncluding64BitSeeds)
{
    net::WireRequest rq;
    rq.id = 7;
    rq.kind = net::QueryKind::Resilience;
    rq.scheme = net::WireScheme::Trix;
    rq.rows = 5;
    rq.cols = 9;
    rq.faultRate = 0.125;
    // A seed above 2^53: a double-typed JSON parser would corrupt it.
    rq.seed = 0xdeadbeefcafef00dULL;
    rq.trials = 321;
    rq.grain = 7;
    rq.delay = core::WireDelay{0.07, 0.003};
    rq.deadlineMs = 250.5;

    net::WireRequest back;
    std::string error;
    ASSERT_TRUE(net::parseRequest(net::encodeRequest(rq), back, error))
        << error;
    EXPECT_EQ(back.id, 7u);
    EXPECT_EQ(back.kind, net::QueryKind::Resilience);
    EXPECT_EQ(back.scheme, net::WireScheme::Trix);
    EXPECT_EQ(back.rows, 5);
    EXPECT_EQ(back.cols, 9);
    EXPECT_EQ(back.faultRate, 0.125);
    EXPECT_EQ(back.seed, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(back.trials, 321u);
    EXPECT_EQ(back.grain, 7u);
    EXPECT_EQ(back.delay.m, 0.07);
    EXPECT_EQ(back.delay.eps, 0.003);
    EXPECT_EQ(back.deadlineMs, 250.5);
}

TEST(Protocol, DefaultsApplyForOmittedKeys)
{
    net::WireRequest rq;
    std::string error;
    ASSERT_TRUE(net::parseRequest(R"({"kind":"skew"})", rq, error))
        << error;
    EXPECT_EQ(rq.kind, net::QueryKind::Skew);
    EXPECT_EQ(rq.scheme, net::WireScheme::HTree);
    EXPECT_EQ(rq.rows, 4);
    EXPECT_EQ(rq.cols, 4);
    EXPECT_EQ(rq.trials, 256u);
    EXPECT_EQ(rq.deadlineMs, infinity);
    // "dist" is accepted as a synonym for "scheme".
    ASSERT_TRUE(net::parseRequest(R"({"dist":"spine"})", rq, error));
    EXPECT_EQ(rq.scheme, net::WireScheme::Spine);
}

TEST(Protocol, RejectsMalformedAndInvalidRequests)
{
    net::WireRequest rq;
    std::string error;
    const char *bad[] = {
        "",                                    // no object
        "{",                                   // truncated
        R"({"kind":"skew"} trailing)",         // garbage after object
        R"({"turbo":true})",                   // unknown key
        R"({"kind":"warp"})",                  // unknown kind
        R"({"scheme":"mesh"})",                // unknown scheme
        R"({"rows":0})",                       // below range
        R"({"rows":513})",                     // above range
        R"({"rows":300,"cols":300})",          // too many cells
        R"({"trials":0})",                     // zero trials
        R"({"grain":0})",                      // zero grain
        R"({"fault_rate":1.5})",               // rate out of range
        R"({"m":0})",                          // degenerate delay
        R"({"eps":-0.1})",                     // negative spread
        R"({"kind":"skew","scheme":"trix"})",  // trix has no tree
        R"({"kind":"skew","fault_rate":0.1})", // wrong family
        "{\"kind\":\"sk\\u0065w\"}",           // escapes rejected
        R"({"seed":-1})",                      // negative uint
    };
    for (const char *line : bad) {
        EXPECT_FALSE(net::parseRequest(line, rq, error)) << line;
        EXPECT_FALSE(error.empty()) << line;
    }
}

TEST(Protocol, BadRequestRepliesKeepTheParsedId)
{
    // An id parsed before the error survives, so the client can
    // correlate the bad_request reply.
    net::WireRequest rq;
    std::string error;
    EXPECT_FALSE(
        net::parseRequest(R"({"id":42,"kind":"warp"})", rq, error));
    EXPECT_EQ(rq.id, 42u);
}

TEST(Protocol, OutcomeRoundTripsBitExactly)
{
    serve::RequestOutcome o;
    o.status = serve::RequestStatus::Partial;
    o.trialsRequested = 4;
    o.trialsDone = 3;
    o.trialDone = {1, 0, 1, 1};
    o.skew.samples = {0.1, 0.0, 1.0 / 3.0, 2.0e-17};
    for (std::size_t i = 0; i < 4; ++i)
        if (o.trialDone[i])
            o.skew.stat.add(o.skew.samples[i]);

    net::WireRequest rq;
    rq.id = 12;
    const net::WireResponse rsp =
        parsedOk(net::encodeOutcome(rq, o, 1.25));
    EXPECT_EQ(rsp.id, 12u);
    EXPECT_TRUE(rsp.ok);
    EXPECT_FALSE(rsp.complete);
    EXPECT_EQ(rsp.trialsDone, 3u);
    EXPECT_EQ(rsp.trialsRequested, 4u);
    EXPECT_EQ(rsp.mean, o.skew.stat.mean());
    EXPECT_EQ(rsp.stddev, o.skew.stat.stddev());
    ASSERT_EQ(rsp.samples.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(rsp.samples[i], o.skew.samples[i]) << i;
    EXPECT_EQ(rsp.trialDone, o.trialDone);
    EXPECT_EQ(rsp.serverMs, 1.25);

    const net::WireResponse err = parsedOk(
        net::encodeError(9, net::errOverloaded, "queue full"));
    EXPECT_FALSE(err.ok);
    EXPECT_EQ(err.id, 9u);
    EXPECT_EQ(err.error, net::errOverloaded);
    EXPECT_EQ(err.detail, "queue full");
}

/** The canonical request most server tests use. */
net::WireRequest
skewRequest(std::uint64_t id)
{
    net::WireRequest rq;
    rq.id = id;
    rq.kind = net::QueryKind::Skew;
    rq.scheme = net::WireScheme::HTree;
    rq.rows = 6;
    rq.cols = 6;
    rq.seed = 0xfeedULL;
    rq.trials = 48;
    rq.grain = 4;
    rq.delay = kDelay;
    return rq;
}

TEST(Server, ServedSkewIsBitIdenticalToDirectServiceAtAllWidths)
{
    // The server's reply must carry exactly the numbers a direct
    // in-process sweep computes -- same samples, bit for bit, through
    // the wire encoding -- whatever the compute pool width.
    const layout::Layout l = layout::meshLayout(6, 6);
    const auto tree = clocktree::buildHTreeGrid(l, 6, 6);
    mc::McConfig cfg;
    cfg.seed = 0xfeedULL;
    cfg.trials = 48;
    cfg.grain = 4;
    const mc::McResult ref = mc::skewSweep(l, tree, kDelay, cfg);

    for (const unsigned tc : {1u, 2u, 8u}) {
        net::ServerConfig sc;
        sc.computeThreads = tc;
        net::ScenarioServer server(sc);
        ASSERT_TRUE(server.start());

        TestClient client(server.port());
        ASSERT_TRUE(client.connected());
        ASSERT_TRUE(client.sendLine(net::encodeRequest(skewRequest(1))));
        const net::WireResponse rsp = parsedOk(client.recvLine());

        EXPECT_TRUE(rsp.ok) << tc;
        EXPECT_TRUE(rsp.complete) << tc;
        EXPECT_EQ(rsp.trialsDone, 48u) << tc;
        ASSERT_EQ(rsp.samples.size(), ref.samples.size()) << tc;
        for (std::size_t i = 0; i < ref.samples.size(); ++i)
            EXPECT_EQ(rsp.samples[i], ref.samples[i]) << tc << " " << i;
        EXPECT_EQ(rsp.mean, ref.stat.mean()) << tc;
        EXPECT_EQ(rsp.stddev, ref.stat.stddev()) << tc;
        EXPECT_EQ(rsp.minValue, ref.stat.min()) << tc;
        EXPECT_EQ(rsp.maxValue, ref.stat.max()) << tc;
        server.stop();
    }
}

TEST(Server, ServedResilienceMatchesDirectRunForTreeAndTrix)
{
    const layout::Layout l = layout::meshLayout(4, 4);
    mc::McConfig cfg;
    cfg.seed = 99;
    cfg.trials = 32;
    cfg.grain = 4;
    mc::ResilienceConfig rc; // defaults match the wire defaults

    net::ScenarioServer server;
    ASSERT_TRUE(server.start());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());

    const std::pair<net::WireScheme, mc::DistributionKind> kinds[] = {
        {net::WireScheme::HTree, mc::DistributionKind::HTree},
        {net::WireScheme::Trix, mc::DistributionKind::TrixGrid},
    };
    for (const auto &[scheme, kind] : kinds) {
        const mc::ResiliencePoint ref =
            mc::resilienceAtRate(l, 4, 4, kind, 0.05, rc, cfg);

        net::WireRequest rq;
        rq.id = 3;
        rq.kind = net::QueryKind::Resilience;
        rq.scheme = scheme;
        rq.rows = 4;
        rq.cols = 4;
        rq.faultRate = 0.05;
        rq.seed = 99;
        rq.trials = 32;
        rq.grain = 4;
        ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
        const net::WireResponse rsp = parsedOk(client.recvLine());

        EXPECT_TRUE(rsp.ok);
        EXPECT_TRUE(rsp.complete);
        ASSERT_EQ(rsp.samples.size(), ref.maxCommSkew.samples.size());
        for (std::size_t i = 0; i < rsp.samples.size(); ++i)
            EXPECT_EQ(rsp.samples[i], ref.maxCommSkew.samples[i]) << i;
        ASSERT_EQ(rsp.clockedSamples.size(),
                  ref.clockedFraction.samples.size());
        for (std::size_t i = 0; i < rsp.clockedSamples.size(); ++i)
            EXPECT_EQ(rsp.clockedSamples[i],
                      ref.clockedFraction.samples[i])
                << i;
        EXPECT_EQ(rsp.meanFaults, ref.meanFaults);
    }
    server.stop();
}

TEST(Server, OverCapacityBurstIsShedLoudlyNeverSilently)
{
    // With a 1-deep admission queue and the single lane pinned by a
    // slow request, a burst must get immediate "overloaded" replies --
    // every line answered, nothing hangs, nothing vanishes. The pin
    // would run for seconds; it is cancelled once the reader has
    // admitted or shed the whole burst, so the outcome does not hang
    // on how fast the host computes.
    obs::MetricsRegistry reg;
    net::ServerConfig sc;
    sc.computeThreads = 1;
    sc.admissionCapacity = 1;
    sc.metrics = &reg;
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());

    TestClient slow(server.port());
    ASSERT_TRUE(slow.connected());
    net::WireRequest pin;
    pin.id = 100;
    pin.kind = net::QueryKind::Resilience;
    pin.scheme = net::WireScheme::Trix;
    pin.rows = 16;
    pin.cols = 16;
    pin.faultRate = 0.02;
    pin.trials = 10000;
    pin.grain = 1;
    ASSERT_TRUE(slow.sendLine(net::encodeRequest(pin)));
    // Let the pin request reach the lane before bursting.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    constexpr std::size_t burst = 16;
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    for (std::size_t i = 0; i < burst; ++i) {
        net::WireRequest rq = skewRequest(i);
        rq.trials = 1;
        ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
    }
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (reg.counter("net.requests.accepted").value() +
                   reg.counter("net.requests.shed").value() <
               burst + 1 &&
           std::chrono::steady_clock::now() < giveUp)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.service().cancel(); // the pin answers Partial; later runs complete

    std::size_t completed = 0;
    std::size_t shed = 0;
    std::vector<std::uint8_t> answered(burst, 0);
    for (std::size_t i = 0; i < burst; ++i) {
        const std::string line = client.recvLine();
        ASSERT_FALSE(line.empty()) << "burst reply " << i << " missing";
        const net::WireResponse rsp = parsedOk(line);
        ASSERT_LT(rsp.id, burst);
        EXPECT_FALSE(answered[rsp.id]) << rsp.id;
        answered[rsp.id] = 1;
        if (rsp.ok) {
            ++completed;
        } else {
            EXPECT_EQ(rsp.error, net::errOverloaded) << rsp.id;
            ++shed;
        }
    }
    EXPECT_EQ(completed + shed, burst);
    EXPECT_GE(shed, 1u);

    EXPECT_TRUE(parsedOk(slow.recvLine()).ok);
    server.stop();

    // The ledger balances: every parsed line was admitted or shed.
    EXPECT_EQ(reg.counter("net.requests.accepted").value() +
                  reg.counter("net.requests.shed").value(),
              burst + 1);
    EXPECT_EQ(reg.counter("net.requests.shed").value(),
              static_cast<std::uint64_t>(shed));
    EXPECT_EQ(reg.counter("net.requests.completed").value(),
              completed + 1);
}

TEST(Server, WireDeadlineZeroFailsFastAsEmptyPartial)
{
    net::ScenarioServer server;
    ASSERT_TRUE(server.start());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());

    net::WireRequest rq = skewRequest(5);
    rq.deadlineMs = 0.0;
    ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
    const net::WireResponse rsp = parsedOk(client.recvLine());

    EXPECT_TRUE(rsp.ok);
    EXPECT_FALSE(rsp.complete);
    EXPECT_EQ(rsp.trialsDone, 0u);
    EXPECT_EQ(rsp.trialsRequested, 48u);
    ASSERT_EQ(rsp.trialDone.size(), 48u);
    for (const auto d : rsp.trialDone)
        EXPECT_EQ(d, 0);
    // No trial ran, so no statistics were emitted.
    EXPECT_EQ(rsp.mean, 0.0);
    server.stop();
}

TEST(Server, BadLinesGetErrorsAndTheConnectionSurvives)
{
    net::ScenarioServer server;
    ASSERT_TRUE(server.start());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());

    ASSERT_TRUE(client.sendLine("this is not json"));
    const net::WireResponse bad = parsedOk(client.recvLine());
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.error, net::errBadRequest);

    net::WireRequest rq = skewRequest(8);
    rq.trials = 2;
    ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
    EXPECT_TRUE(parsedOk(client.recvLine()).ok);
    server.stop();
}

TEST(Server, OversizedLinesAreRefusedLoudlyAndTheConnectionSurvives)
{
    net::ServerConfig sc;
    sc.maxLineBytes = 256; // small cap so the test stays cheap
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());

    // A line longer than the cap must get a too_large error, not an
    // unbounded buffer or a silent hangup.
    ASSERT_TRUE(client.sendLine(std::string(1024, 'x')));
    const net::WireResponse big = parsedOk(client.recvLine());
    EXPECT_FALSE(big.ok);
    EXPECT_EQ(big.error, net::errTooLarge);

    // The reader resynchronises on the next newline: a well-formed
    // request on the same connection still succeeds.
    net::WireRequest rq = skewRequest(21);
    rq.trials = 2;
    ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
    const net::WireResponse rsp = parsedOk(client.recvLine());
    EXPECT_TRUE(rsp.ok);
    EXPECT_EQ(rsp.id, 21u);
    server.stop();
}

TEST(Server, InfoPingReportsProtocolAndPoolShape)
{
    net::ServerConfig sc;
    sc.computeThreads = 3;
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());

    ASSERT_TRUE(client.sendLine("{\"id\":7,\"kind\":\"info\"}"));
    const net::WireResponse rsp = parsedOk(client.recvLine());
    EXPECT_TRUE(rsp.ok);
    EXPECT_EQ(rsp.id, 7u);
    EXPECT_EQ(rsp.proto, net::protocolVersion);
    EXPECT_EQ(rsp.threads, 3u);
    EXPECT_GT(rsp.queueCapacity, 0u);
    EXPECT_FALSE(rsp.draining);
    server.stop();
}

/** Entries of a /proc/self directory (open descriptors, threads). */
std::size_t
procEntries(const char *dir)
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator(dir))
        ++n;
    return n;
}

/** One connect / info / close cycle; true when the ping was answered. */
bool
infoCycle(std::uint16_t port)
{
    TestClient client(port);
    if (!client.connected() || !client.sendLine("{\"id\":1,\"kind\":\"info\"}"))
        return false;
    return !client.recvLine(10000).empty();
}

TEST(Server, ClosedConnectionsReleaseTheirDescriptorsAndThreads)
{
    // Each finished connection's socket closes and its reader thread
    // is joined, so churn does not accumulate either.
    net::ScenarioServer server(net::ServerConfig{.computeThreads = 1});
    ASSERT_TRUE(server.start());
    ASSERT_TRUE(infoCycle(server.port()));
    const std::size_t fds0 = procEntries("/proc/self/fd");
    const std::size_t threads0 = procEntries("/proc/self/task");
    for (int i = 0; i < 300; ++i)
        ASSERT_TRUE(infoCycle(server.port())) << "cycle " << i;
    // The last readers may still be noticing their peer's close.
    const auto settled = [&] {
        return procEntries("/proc/self/fd") <= fds0 + 4 &&
               procEntries("/proc/self/task") <= threads0 + 4;
    };
    for (int wait = 0; wait < 200 && !settled(); ++wait)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_LE(procEntries("/proc/self/fd"), fds0 + 4);
    EXPECT_LE(procEntries("/proc/self/task"), threads0 + 4);
    server.stop();
}

/**
 * The forked child of AcceptSurvivesRunningOutOfDescriptors: exits 0
 * when its server, after accept() hit the descriptor limit, still
 * answers the connection that hit it and a fresh one.
 */
[[noreturn]] void
exhaustDescriptorsInChild()
{
    alarm(60); // never outlive a hung server
    const auto fail = [](int code) { _exit(code); };
    obs::MetricsRegistry reg;
    net::ScenarioServer server(
        net::ServerConfig{.computeThreads = 1, .metrics = &reg});
    if (!server.start())
        fail(2);
    // Lower this process's descriptor limit a little above what is
    // open, then fill the table up to it.
    rlimit lim{};
    ::getrlimit(RLIMIT_NOFILE, &lim);
    lim.rlim_cur = procEntries("/proc/self/fd") + 16;
    if (::setrlimit(RLIMIT_NOFILE, &lim) != 0)
        fail(3);
    std::vector<int> filler;
    for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;)
        filler.push_back(fd);
    if (errno != EMFILE || filler.empty())
        fail(4);
    // Free one slot for our own socket: the server's accept() for it
    // finds no descriptor left.
    ::close(filler.back());
    filler.pop_back();
    TestClient first(server.port());
    if (!first.connected())
        fail(5);
    obs::Counter &backoffs = reg.counter("net.accept.backoffs");
    for (int wait = 0; wait < 5000 && backoffs.value() == 0; ++wait)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (backoffs.value() == 0)
        fail(6);
    for (const int fd : filler)
        ::close(fd);
    // The queued connection is accepted after all, and so is a new one.
    if (!first.sendLine("{\"id\":1,\"kind\":\"info\"}") ||
        first.recvLine(10000).empty())
        fail(7);
    if (!infoCycle(server.port()))
        fail(8);
    server.stop();
    _exit(0);
}

TEST(Server, AcceptSurvivesRunningOutOfDescriptors)
{
    // A child process lowers its own RLIMIT_NOFILE and exhausts it
    // under a live server; the limit never touches this process.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0)
        exhaustDescriptorsInChild();
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child died, status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "2 start, 3 setrlimit, 4 fill, 5 connect, 6 no backoff, "
           "7 queued connection unanswered, 8 fresh connection "
           "unanswered";
}

TEST(Server, GracefulStopDrainsInFlightThenRefusesConnections)
{
    obs::MetricsRegistry reg;
    net::ServerConfig sc;
    sc.computeThreads = 1;
    sc.metrics = &reg;
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());
    const std::uint16_t port = server.port();

    TestClient client(port);
    ASSERT_TRUE(client.connected());
    net::WireRequest rq = skewRequest(77);
    rq.trials = 2000;
    rq.grain = 1;
    ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
    // Wait until the request is admitted (possibly mid-compute): stop()
    // stops reading sockets, so a line still unread would get no reply.
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (reg.counter("net.requests.accepted").value() == 0 &&
           std::chrono::steady_clock::now() < giveUp)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    server.stop(); // must drain: the reply is written before sockets close

    const std::string line = client.recvLine(5000);
    ASSERT_FALSE(line.empty()) << "in-flight request lost by stop()";
    const net::WireResponse rsp = parsedOk(line);
    EXPECT_TRUE(rsp.ok);
    EXPECT_EQ(rsp.id, 77u);
    // Complete on a fast machine; Partial if the drain expired it --
    // either way the request was answered, never dropped.

    // The stopped server must take neither a late connection nor its
    // request. Another test's server may since have been handed the
    // freed port and answer, so only this server's own counters are
    // checked; the bounded read gives a wrongly live server time to
    // count the connection before they are.
    const std::uint64_t connsBefore =
        reg.counter("net.connections.accepted").value();
    const std::uint64_t requestsBefore =
        reg.counter("net.requests.accepted").value();
    TestClient late(port);
    if (late.connected()) {
        late.sendLine(net::encodeRequest(skewRequest(1)));
        (void)late.recvLine(200);
    }
    EXPECT_EQ(reg.counter("net.connections.accepted").value(),
              connsBefore);
    EXPECT_EQ(reg.counter("net.requests.accepted").value(),
              requestsBefore);
}

TEST(Server, ExportsNetMetrics)
{
    obs::MetricsRegistry reg;
    net::ServerConfig sc;
    sc.metrics = &reg;
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());
    {
        TestClient client(server.port());
        ASSERT_TRUE(client.connected());
        net::WireRequest rq = skewRequest(1);
        rq.trials = 2;
        ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
        EXPECT_TRUE(parsedOk(client.recvLine()).ok);
    }
    server.stop();

    EXPECT_EQ(reg.counter("net.connections.accepted").value(), 1u);
    EXPECT_EQ(reg.counter("net.requests.accepted").value(), 1u);
    EXPECT_EQ(reg.counter("net.requests.completed").value(), 1u);
    EXPECT_EQ(reg.counter("net.requests.shed").value(), 0u);
    EXPECT_GT(reg.counter("net.bytes.in").value(), 0u);
    EXPECT_GT(reg.counter("net.bytes.out").value(), 0u);
    EXPECT_EQ(reg.histogram("net.request.latency_ms", {}).totalCount(),
              1u);
    EXPECT_EQ(reg.gauge("net.connections.active").value(), 0.0);
    // The embedded service's pool gauges ride along.
    EXPECT_GE(reg.counter("serve.pool.jobs").value(), 1u);
}

/** A reply line without its trailing server_ms field, the one value
 *  that depends on timing. */
std::string
withoutServerMs(const std::string &line)
{
    return line.substr(0, line.rfind(",\"server_ms\""));
}

/**
 * The reply a direct in-process SweepService run gives @p rq, built
 * from the same scenario the server builds, without server_ms.
 */
std::string
directReply(const net::WireRequest &rq)
{
    const layout::Layout l = layout::meshLayout(rq.rows, rq.cols);
    const clocktree::ClockTree tree =
        rq.scheme == net::WireScheme::Spine
            ? clocktree::buildSpine(l)
            : clocktree::buildHTreeGrid(l, rq.rows, rq.cols);
    mc::McConfig mcc;
    mcc.seed = rq.seed;
    mcc.trials = rq.trials;
    mcc.grain = rq.grain;
    std::vector<serve::SweepRequest> batch;
    if (rq.kind == net::QueryKind::Skew) {
        batch.emplace_back(serve::SkewRequest{&l, &tree, rq.delay, mcc});
    } else {
        serve::ResilienceRequest r;
        r.layout = &l;
        r.rows = rq.rows;
        r.cols = rq.cols;
        r.kind = rq.scheme == net::WireScheme::Trix
                     ? mc::DistributionKind::TrixGrid
                     : mc::DistributionKind::HTree;
        r.faultRate = rq.faultRate;
        r.rc.delay = rq.delay;
        r.cfg = mcc;
        batch.emplace_back(r);
    }
    serve::SweepService svc(serve::ServiceConfig{1, 4, nullptr});
    return withoutServerMs(
        net::encodeOutcome(rq, svc.run(batch).outcomes[0], 0.0));
}

TEST(Server, TwoLanesServePipelinedConnectionsByteIdentically)
{
    // A 2-thread server runs two requests at once. Two connections
    // pipeline a mix of one-unit requests (computed inline on a lane)
    // and a multi-unit one (fanned out on the pool). stop() is called
    // while both lanes are busy; it must still answer every admitted
    // request, and every reply must be byte-identical to a direct run
    // whatever lane served it and in whatever order it came back.
    obs::MetricsRegistry reg;
    net::ServerConfig sc;
    sc.computeThreads = 2;
    sc.admissionCapacity = 256;
    sc.metrics = &reg;
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());

    const auto make = [](net::QueryKind kind, net::WireScheme scheme,
                         int side, std::size_t trials,
                         std::size_t grain) {
        net::WireRequest rq;
        rq.kind = kind;
        rq.scheme = scheme;
        rq.rows = side;
        rq.cols = side;
        rq.faultRate = 0.05;
        rq.trials = trials;
        rq.grain = grain;
        rq.delay = kDelay;
        return rq;
    };
    using K = net::QueryKind;
    using S = net::WireScheme;
    // Each request computes for milliseconds, so the lanes stay busy
    // long after the last line is admitted (levelized fault trials
    // take ~10 us at 8x8, hence the larger resilience counts).
    const std::vector<net::WireRequest> mix = {
        make(K::Resilience, S::Trix, 8, 1024, 1024),
        make(K::Skew, S::HTree, 16, 256, 256),
        make(K::Resilience, S::HTree, 8, 768, 768),
        make(K::Skew, S::Spine, 16, 192, 192),
        make(K::Resilience, S::Trix, 8, 768, 64), // 12 units
    };
    constexpr std::size_t connections = 2;
    constexpr std::size_t perConnection = 20;
    std::map<std::uint64_t, std::string> want;
    std::vector<std::vector<net::WireRequest>> sent(connections);
    for (std::size_t c = 0; c < connections; ++c) {
        for (std::size_t i = 0; i < perConnection; ++i) {
            const std::uint64_t id = c * perConnection + i;
            net::WireRequest rq = mix[id % mix.size()];
            rq.id = id;
            rq.seed = 1000 + id;
            want[id] = directReply(rq);
            sent[c].push_back(rq);
        }
    }

    std::vector<std::unique_ptr<TestClient>> clients;
    for (std::size_t c = 0; c < connections; ++c) {
        clients.push_back(std::make_unique<TestClient>(server.port()));
        ASSERT_TRUE(clients.back()->connected());
    }
    // Readers drain the sockets while the lanes write, so no lane can
    // block on a full socket buffer.
    std::vector<std::vector<std::string>> got(connections);
    std::vector<std::thread> readers;
    for (std::size_t c = 0; c < connections; ++c) {
        readers.emplace_back([&, c] {
            while (got[c].size() < perConnection) {
                std::string line = clients[c]->recvLine();
                if (line.empty())
                    return;
                got[c].push_back(std::move(line));
            }
        });
    }
    for (std::size_t c = 0; c < connections; ++c)
        for (const net::WireRequest &rq : sent[c])
            ASSERT_TRUE(clients[c]->sendLine(net::encodeRequest(rq)));

    // Stop only once every line is admitted (stop() stops reading
    // sockets) and both lanes compute at the same moment.
    const std::uint64_t offered = connections * perConnection;
    obs::Counter &accepted = reg.counter("net.requests.accepted");
    obs::Counter &shed = reg.counter("net.requests.shed");
    obs::Gauge &active = reg.gauge("serve.pool.active_workers");
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (accepted.value() + shed.value() < offered &&
           std::chrono::steady_clock::now() < giveUp)
        std::this_thread::yield();
    obs::Counter &completed = reg.counter("net.requests.completed");
    bool bothBusy = false;
    while (!bothBusy && completed.value() < offered &&
           std::chrono::steady_clock::now() < giveUp)
        bothBusy = active.value() >= 2.0;
    EXPECT_TRUE(bothBusy) << "the two lanes never computed at once";
    server.stop();
    for (std::thread &t : readers)
        t.join();

    std::size_t replies = 0;
    for (std::size_t c = 0; c < connections; ++c) {
        ASSERT_EQ(got[c].size(), perConnection) << "connection " << c;
        for (const std::string &line : got[c]) {
            const net::WireResponse rsp = parsedOk(line);
            ASSERT_TRUE(rsp.ok) << line;
            EXPECT_TRUE(rsp.complete) << rsp.id;
            ASSERT_EQ(want.count(rsp.id), 1u) << "unknown or repeated id "
                                               << rsp.id;
            EXPECT_EQ(rsp.id / perConnection, c) << rsp.id;
            EXPECT_EQ(withoutServerMs(line), want[rsp.id]) << rsp.id;
            want.erase(rsp.id);
            ++replies;
        }
    }
    EXPECT_EQ(replies, offered);
    EXPECT_EQ(accepted.value() + shed.value(), offered);
    EXPECT_EQ(completed.value(), accepted.value());
    EXPECT_GE(reg.gauge("serve.pool.active_workers_hwm").value(), 2.0);
}

TEST(LoadGen, EveryOfferedRequestIsAccountedForExactlyOnce)
{
    net::ServerConfig sc;
    sc.computeThreads = 2;
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());

    net::LoadGenConfig lg;
    lg.port = server.port();
    lg.connections = 2;
    lg.offeredRps = 400.0;
    lg.requests = 40;
    net::WireRequest tmpl = skewRequest(0);
    tmpl.trials = 4;
    tmpl.grain = 2;
    lg.mix = {tmpl};

    const net::LoadGenResult res = net::runLoadGen(lg);
    server.stop();

    EXPECT_TRUE(res.transportOk);
    EXPECT_EQ(res.offered, 40u);
    EXPECT_EQ(res.completed + res.shed + res.errors + res.lost, 40u);
    EXPECT_EQ(res.lost, 0u);
    EXPECT_EQ(res.errors, 0u);
    EXPECT_GE(res.completed, 1u);
    for (std::size_t i = 0; i < res.responses.size(); ++i) {
        ASSERT_TRUE(res.gotReply[i]) << i;
        if (res.responses[i].ok) {
            EXPECT_EQ(res.responses[i].trialsDone, 4u) << i;
        }
    }
    if (res.completed > 0) {
        EXPECT_GT(res.p50Ms, 0.0);
        EXPECT_GE(res.p99Ms, res.p50Ms);
    }
}

TEST(Server, ScenarioCatalogStaysWithinItsCellCapAndEvictionIsInvisible)
{
    // Five maximal shapes hold more cells than the catalog may keep,
    // so the least recently used ones are evicted as the run goes on.
    obs::MetricsRegistry reg;
    net::ServerConfig sc;
    sc.computeThreads = 1;
    sc.metrics = &reg;
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());

    const auto request = [](std::uint64_t id, int rows, int cols) {
        net::WireRequest rq = skewRequest(id);
        rq.scheme = net::WireScheme::HTree;
        rq.rows = rows;
        rq.cols = cols;
        rq.trials = 2;
        rq.grain = 2;
        return net::encodeRequest(rq);
    };
    const int sides[][2] = {
        {256, 256}, {256, 255}, {255, 256}, {255, 255}, {254, 256}};
    std::size_t offered = 0;
    std::string first;
    for (std::uint64_t k = 0; k < 5; ++k) {
        ASSERT_TRUE(client.sendLine(request(k, sides[k][0], sides[k][1])));
        const std::string line = client.recvLine();
        ASSERT_TRUE(parsedOk(line).ok) << k;
        if (k == 0)
            first = line;
        offered += std::size_t(sides[k][0]) * std::size_t(sides[k][1]);
        EXPECT_LE(reg.gauge("net.catalog.cells").value(),
                  double(net::catalogCapCells))
            << k;
    }
    ASSERT_GT(offered, net::catalogCapCells);
    EXPECT_LT(reg.gauge("net.catalog.cells").value(), double(offered));

    // The first shape was evicted; asking again rebuilds it and the
    // reply carries the same bytes.
    ASSERT_TRUE(client.sendLine(request(0, sides[0][0], sides[0][1])));
    const std::string again = client.recvLine();
    EXPECT_EQ(withoutServerMs(again), withoutServerMs(first));
    EXPECT_LE(reg.gauge("net.catalog.cells").value(),
              double(net::catalogCapCells));
    server.stop();
}

/** Two connected stream sockets: a LineConn adopts one, the test
 *  drives the other raw. */
struct ConnPair
{
    explicit ConnPair(std::size_t max_line_bytes = 1024)
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        conn = std::make_unique<net::LineConn>(fds[0], max_line_bytes);
        peer = fds[1];
    }

    ~ConnPair()
    {
        if (peer >= 0)
            ::close(peer);
    }

    void
    write(const std::string &bytes) const
    {
        ASSERT_EQ(::send(peer, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
    }

    /** readLine with a deadline @p ms from now. */
    net::LineConn::Read
    read(std::string &line, int ms = 10000) const
    {
        return conn->readLine(
            line, net::LineConn::Clock::now() + std::chrono::milliseconds(ms));
    }

    std::unique_ptr<net::LineConn> conn;
    int peer = -1;
};

using Read = net::LineConn::Read;

TEST(LineConn, LineSplitAcrossOneByteWritesArrivesWhole)
{
    ConnPair p;
    obs::Counter in;
    p.conn->meter(&in, nullptr);
    const std::string msg = "{\"id\":1,\"kind\":\"info\"}\n";
    std::thread writer([&] {
        for (const char c : msg) {
            p.write(std::string(1, c));
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    std::string line;
    EXPECT_EQ(p.read(line), Read::Line);
    writer.join();
    EXPECT_EQ(line, msg.substr(0, msg.size() - 1));
    EXPECT_EQ(in.value(), msg.size());
}

TEST(LineConn, SeveralLinesInOneWriteComeOutInOrder)
{
    ConnPair p;
    p.write("a\nbb\n\nccc\n");
    std::string line;
    for (const char *want : {"a", "bb", "", "ccc"}) {
        ASSERT_EQ(p.read(line), Read::Line);
        EXPECT_EQ(line, want);
    }
}

TEST(LineConn, OversizedLineIsTooLargeThenTheStreamResyncs)
{
    ConnPair p(16);
    p.write(std::string(40, 'x') + "\nok\n");
    std::string line;
    EXPECT_EQ(p.read(line), Read::TooLarge);
    ASSERT_EQ(p.read(line), Read::Line);
    EXPECT_EQ(line, "ok");
}

TEST(LineConn, OversizedLineArrivingInPiecesIsDroppedAsItGrows)
{
    ConnPair p(16);
    p.write(std::string(20, 'x'));
    std::string line;
    EXPECT_EQ(p.read(line), Read::TooLarge); // before its newline arrives
    p.write(std::string(20, 'x') + "\nok\n");
    ASSERT_EQ(p.read(line), Read::Line);
    EXPECT_EQ(line, "ok");
}

TEST(LineReader, EventsDoNotDependOnHowTheStreamIsChunked)
{
    const std::string stream = "alpha\n\n" + std::string(50, 'x') +
                               "\nbeta\n" + std::string(70, 'y') +
                               "\ngamma\npartial";
    const auto events = [&](std::size_t chunk) {
        net::LineReader reader(32);
        std::vector<std::string> out;
        std::string line;
        for (std::size_t at = 0; at < stream.size(); at += chunk) {
            reader.feed(stream.data() + at,
                        std::min(chunk, stream.size() - at));
            for (;;) {
                const net::LineReader::Next ev = reader.next(line);
                if (ev == net::LineReader::Next::NeedMore)
                    break;
                out.push_back(ev == net::LineReader::Next::Line
                                  ? line
                                  : "<too large>");
            }
        }
        out.push_back(std::to_string(reader.oversizedLines()) + " " +
                      std::to_string(reader.droppedBytes()));
        return out;
    };
    const std::vector<std::string> want = {
        "alpha", "", "<too large>", "beta", "<too large>", "gamma", "2 122"};
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{33}, stream.size()})
        EXPECT_EQ(events(chunk), want) << chunk;
}

TEST(LineConn, TimesOutAtTheDeadline)
{
    ConnPair p;
    p.write("partial line, no newline");
    std::string line;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(p.read(line, 50), Read::Timeout);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_GE(ms, 50.0);
    EXPECT_LT(ms, 5000.0);
    // The partial line is kept: its newline completes it.
    p.write("\n");
    ASSERT_EQ(p.read(line), Read::Line);
    EXPECT_EQ(line, "partial line, no newline");
}

TEST(LineConn, WakeFdEndsABlockedReadPromptly)
{
    ConnPair p;
    int wake[2];
    ASSERT_EQ(::pipe(wake), 0);
    std::thread waker([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const char b = 1;
        EXPECT_EQ(::write(wake[1], &b, 1), 1);
    });
    std::string line;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(p.conn->readLine(line, net::LineConn::Clock::time_point::max(),
                               wake[0]),
              Read::Closed);
    waker.join();
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              5.0);
    ::close(wake[0]);
    ::close(wake[1]);
}

TEST(LineConn, PeerCloseIsClosedAndSendsFailWithoutSigpipe)
{
    ConnPair p;
    obs::Counter out;
    p.conn->meter(nullptr, &out);
    ASSERT_TRUE(p.conn->sendLine("hello"));
    EXPECT_EQ(out.value(), 6u);
    char buf[16];
    ASSERT_EQ(::recv(p.peer, buf, sizeof(buf), 0), 6);
    EXPECT_EQ(std::string(buf, 6), "hello\n");

    p.write("last\n");
    ::close(p.peer);
    p.peer = -1;
    std::string line;
    ASSERT_EQ(p.read(line), Read::Line); // buffered data survives
    EXPECT_EQ(line, "last");
    EXPECT_EQ(p.read(line), Read::Closed);
    bool sent = true;
    for (int i = 0; i < 8 && sent; ++i)
        sent = p.conn->sendLine("into the void");
    EXPECT_FALSE(sent);
}

TEST(LineConn, ConnectFailsCleanlyOnABadAddress)
{
    net::LineConn conn;
    EXPECT_FALSE(conn.connect("not-an-ip", 1, 1024));
    EXPECT_FALSE(conn.isOpen());
    EXPECT_FALSE(conn.sendLine("x"));
    std::string line;
    EXPECT_EQ(conn.readLine(line), Read::Closed);
}

} // namespace
