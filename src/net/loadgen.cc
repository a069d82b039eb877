#include "net/loadgen.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/logging.hh"
#include "net/conn.hh"

namespace vsync::net
{

namespace
{

using Clock = std::chrono::steady_clock;

double
quantile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

LoadGenResult
runLoadGen(const LoadGenConfig &cfg)
{
    VSYNC_ASSERT(!cfg.mix.empty(), "LoadGenConfig.mix is empty");
    VSYNC_ASSERT(cfg.offeredRps > 0.0, "offeredRps must be > 0");
    const unsigned nconn = std::max(1u, cfg.connections);

    LoadGenResult res;
    res.offered = cfg.requests;
    res.responses.resize(cfg.requests);
    res.gotReply.assign(cfg.requests, 0);
    if (cfg.requests == 0)
        return res;

    // Request i -> connection i % nconn; ids carry i, so response
    // slots are disjoint across reader threads and need no locks.
    std::vector<LineConn> conns(nconn);
    for (LineConn &conn : conns) {
        if (!conn.connect(cfg.host, cfg.port, maxResponseLineBytes)) {
            warn("loadgen: connect to %s:%u failed: %s",
                 cfg.host.c_str(), unsigned(cfg.port),
                 std::strerror(errno));
            res.transportOk = false;
            res.lost = cfg.requests;
            return res;
        }
    }

    std::vector<Clock::time_point> sendTime(cfg.requests);
    std::vector<Clock::time_point> recvTime(cfg.requests);
    std::atomic<bool> parseFailed{false};

    const Clock::time_point t0 = Clock::now();
    const Clock::time_point lastSendDue =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(
                     static_cast<double>(cfg.requests - 1) /
                     cfg.offeredRps));
    const Clock::time_point recvDeadline =
        lastSendDue + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              cfg.recvTimeoutSeconds));

    std::vector<std::thread> senders;
    std::vector<std::thread> readers;
    senders.reserve(nconn);
    readers.reserve(nconn);

    for (unsigned c = 0; c < nconn; ++c) {
        // Sender: walk this connection's schedule slice, sleeping to
        // each request's due time -- never waiting for responses.
        senders.emplace_back([&, c] {
            for (std::size_t i = c; i < cfg.requests; i += nconn) {
                const Clock::time_point due =
                    t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 static_cast<double>(i) /
                                 cfg.offeredRps));
                std::this_thread::sleep_until(due);
                WireRequest rq = cfg.mix[i % cfg.mix.size()];
                rq.id = i;
                const std::string line = encodeRequest(rq);
                sendTime[i] = Clock::now();
                if (!conns[c].sendLine(line)) {
                    warn("loadgen: send on connection %u failed", c);
                    return;
                }
            }
        });

        // Reader: collect replies until this connection's share is
        // resolved or the deadline passes.
        readers.emplace_back([&, c] {
            std::size_t expected = 0;
            for (std::size_t i = c; i < cfg.requests; i += nconn)
                ++expected;
            std::string line;
            std::size_t got = 0;
            while (got < expected) {
                const LineConn::Read ev =
                    conns[c].readLine(line, recvDeadline);
                if (ev == LineConn::Read::Timeout ||
                    ev == LineConn::Read::Closed)
                    return;
                if (ev == LineConn::Read::TooLarge) {
                    warn("loadgen: response exceeds %zu bytes",
                         maxResponseLineBytes);
                    parseFailed.store(true);
                    return;
                }
                WireResponse rsp;
                std::string error;
                if (!parseResponse(line, rsp, error)) {
                    warn("loadgen: bad response: %s", error.c_str());
                    parseFailed.store(true);
                    return;
                }
                const std::uint64_t id = rsp.id;
                if (id < cfg.requests && !res.gotReply[id]) {
                    recvTime[id] = Clock::now();
                    res.responses[id] = std::move(rsp);
                    res.gotReply[id] = 1;
                    ++got;
                }
            }
        });
    }
    for (std::thread &t : senders)
        t.join();
    for (std::thread &t : readers)
        t.join();
    conns.clear();

    res.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    res.transportOk = !parseFailed.load();

    std::vector<double> latencies;
    latencies.reserve(cfg.requests);
    for (std::size_t i = 0; i < cfg.requests; ++i) {
        if (!res.gotReply[i]) {
            ++res.lost;
            continue;
        }
        const WireResponse &rsp = res.responses[i];
        if (rsp.ok) {
            ++res.completed;
            // sendTime/recvTime reads are ordered by the joins above.
            latencies.push_back(
                std::chrono::duration<double, std::milli>(
                    recvTime[i] - sendTime[i])
                    .count());
        } else if (rsp.error == errOverloaded) {
            ++res.shed;
        } else {
            ++res.errors;
        }
    }
    res.achievedRps = res.wallSeconds > 0.0
                          ? static_cast<double>(res.completed) /
                                res.wallSeconds
                          : 0.0;
    std::sort(latencies.begin(), latencies.end());
    res.p50Ms = quantile(latencies, 0.50);
    res.p99Ms = quantile(latencies, 0.99);
    return res;
}

} // namespace vsync::net
