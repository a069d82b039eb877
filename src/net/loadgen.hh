/**
 * @file
 * Open-loop load generator for the scenario server.
 *
 * An open-loop client sends each request at its scheduled time -- at
 * offeredRps, request i goes out i/offeredRps seconds after start --
 * regardless of whether earlier responses have arrived. This is the
 * honest way to measure a server under load: a closed-loop client
 * slows down exactly when the server does, hiding the queueing it
 * should be exposing (coordinated omission).
 *
 * Requests are round-robined over a handful of persistent pipelined
 * connections; each connection has one sender thread (pacing by the
 * schedule) and one reader thread. The request id carries the global
 * request index, so responses land in disjoint result slots without
 * locks and every request is accounted for exactly once as completed
 * (an "ok" reply), shed ("overloaded"), errored (any other error
 * reply) or lost (no reply before the receive deadline). Connections
 * are net::LineConns reading with the clients' response cap,
 * net::maxResponseLineBytes.
 *
 * bench_net_throughput drives this at swept offered rates and gates
 * on completed + shed + errors + lost == offered plus the
 * bit-identity of every complete response against a direct
 * serve::SweepService run.
 */

#ifndef VSYNC_NET_LOADGEN_HH
#define VSYNC_NET_LOADGEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hh"

namespace vsync::net
{

/** Load-generation knobs. */
struct LoadGenConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Persistent connections to spread requests over. */
    unsigned connections = 4;
    /** Offered rate, requests per second (open loop). */
    double offeredRps = 100.0;
    /** Total requests to offer. */
    std::size_t requests = 100;
    /**
     * Request templates, cycled per request index; ids are
     * overwritten with the global index. Must not be empty.
     */
    std::vector<WireRequest> mix;
    /** Patience for responses after the last send. */
    double recvTimeoutSeconds = 30.0;
};

/** What one load-generation run observed. */
struct LoadGenResult
{
    std::size_t offered = 0;
    /** "ok" replies. */
    std::size_t completed = 0;
    /** "overloaded" replies (admission control shed). */
    std::size_t shed = 0;
    /** Other error replies (bad_request / shutting_down). */
    std::size_t errors = 0;
    /** No reply before the deadline (or connection died). */
    std::size_t lost = 0;
    /** First send to last response (or deadline), seconds. */
    double wallSeconds = 0.0;
    /** completed / wallSeconds. */
    double achievedRps = 0.0;
    /** Send-to-response latency quantiles over completed, ms. */
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    /** responses[i]: the decoded reply to request i (check gotReply). */
    std::vector<WireResponse> responses;
    /** gotReply[i] != 0 iff request i got any reply. */
    std::vector<std::uint8_t> gotReply;
    /** False when connecting failed, or a response was unparseable
     *  or longer than net::maxResponseLineBytes. */
    bool transportOk = true;
};

/**
 * Offer cfg.requests requests at cfg.offeredRps and collect replies.
 * Blocks until every request is resolved or the receive deadline
 * passes.
 */
LoadGenResult runLoadGen(const LoadGenConfig &cfg);

} // namespace vsync::net

#endif // VSYNC_NET_LOADGEN_HH
