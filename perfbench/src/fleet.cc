/**
 * @file
 * fleet-sweep: closed batches through dist::Coordinator on an
 * in-process fleet of two net::ScenarioServer workers with two compute
 * threads each.
 *
 * One round is two timed batches, each from the Coordinator::run call
 * to its return (shard to fold):
 *   skew       -- a 64x64 H-tree and spine, 32768 trials each, grain 512;
 *   resilience -- a 16x16 TRIX grid and H-tree at fault rate 0.02,
 *                 1024 trials each, grain 64.
 * Every outcome is checked bit for bit against a local SweepService run
 * and every ledger must balance with no lost shard.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "accounting.hh"
#include "bench.hh"
#include "common/rng.hh"
#include "dist/coordinator.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "openloop.hh"

namespace perfbench
{

using namespace vsync;

namespace
{

constexpr unsigned fleetWorkers = 2;
constexpr int skewSide = 64;
constexpr std::size_t skewTrials = 32768, skewGrain = 512;
constexpr int resilienceSide = 16;
constexpr std::size_t resilienceTrials = 1024, resilienceGrain = 64;

net::WireRequest
request(net::QueryKind kind, net::WireScheme scheme, int side,
        std::uint64_t seed, std::size_t trials, std::size_t grain)
{
    net::WireRequest rq;
    rq.kind = kind;
    rq.scheme = scheme;
    rq.rows = rq.cols = side;
    rq.seed = seed;
    rq.trials = trials;
    rq.grain = grain;
    if (kind == net::QueryKind::Resilience)
        rq.faultRate = 0.02;
    return rq;
}

/** One batch and the local outcomes it must reproduce. */
struct Batch
{
    std::vector<net::WireRequest> requests;
    std::vector<serve::RequestOutcome> refs;
    std::size_t trials = 0;
    std::size_t shards = 0;
};

Batch
makeBatch(std::vector<net::WireRequest> requests)
{
    Batch b;
    b.requests = std::move(requests);
    std::vector<std::unique_ptr<Scenario>> scenarios;
    std::vector<serve::SweepRequest> local;
    for (const net::WireRequest &rq : b.requests) {
        scenarios.push_back(buildScenario(rq));
        local.push_back(toSweepRequest(rq, *scenarios.back()));
        b.trials += rq.trials;
        b.shards += (rq.trials + rq.grain - 1) / rq.grain;
    }
    serve::SweepService svc(
        serve::ServiceConfig{referenceThreads, 32, nullptr});
    b.refs = svc.run(local).outcomes;
    return b;
}

/** The fleet: workers with their registries, and the coordinator. */
struct Fleet
{
    std::vector<std::unique_ptr<obs::MetricsRegistry>> metrics;
    std::vector<std::unique_ptr<net::ScenarioServer>> workers;
    std::unique_ptr<obs::MetricsRegistry> coordinatorMetrics;
    std::unique_ptr<dist::Coordinator> coordinator;

    bool
    start()
    {
        dist::DistConfig dc;
        for (unsigned w = 0; w < fleetWorkers; ++w) {
            metrics.push_back(std::make_unique<obs::MetricsRegistry>());
            net::ServerConfig sc;
            sc.computeThreads = serverThreads;
            sc.metrics = metrics.back().get();
            workers.push_back(std::make_unique<net::ScenarioServer>(sc));
            if (!workers.back()->start())
                return false;
            dc.workers.push_back(
                dist::WorkerEndpoint{"127.0.0.1", workers.back()->port()});
        }
        coordinatorMetrics = std::make_unique<obs::MetricsRegistry>();
        dc.metrics = coordinatorMetrics.get();
        coordinator = std::make_unique<dist::Coordinator>(dc);
        return true;
    }

    std::vector<std::uint16_t>
    ports() const
    {
        std::vector<std::uint16_t> p;
        for (const auto &w : workers)
            p.push_back(w->port());
        return p;
    }

    ~Fleet()
    {
        coordinator.reset();
        for (auto &w : workers)
            w->stop();
    }
};

/** What the runs of one batch kind measured. */
struct BatchStats
{
    std::vector<double> wallMs;
    std::size_t shards = 0, verifiedShards = 0;
    dist::ShardLedger ledger;
    std::vector<serve::RequestOutcome> lastOutcomes;
};

void
addLedger(dist::ShardLedger &into, const dist::ShardLedger &l)
{
    into.shards += l.shards;
    into.dispatched += l.dispatched;
    into.completed += l.completed;
    into.superseded += l.superseded;
    into.failed += l.failed;
    into.retried += l.retried;
    into.hedged += l.hedged;
    into.lost += l.lost;
}

/** Run @p b once, timed from call to return, and check it. */
double
runBatch(Fleet &fleet, const Batch &b, BatchStats &st, std::size_t round,
         const char *label, obs::Tracer *tracer)
{
    const std::string id = "batch#" + std::to_string(round) + " " + label;
    const double t0 = nowUs();
    dist::DistOutcome out;
    {
        OwnedSpan span(tracer, id + " dist.Coordinator::run");
        out = fleet.coordinator->run(b.requests);
    }
    const double ms = (nowUs() - t0) / 1e3;
    OwnedSpan span(tracer, id + " verify");
    bool ok = out.ledger.balanced() && out.ledger.lost == 0 &&
              out.outcomes.size() == b.requests.size();
    for (std::size_t i = 0; ok && i < b.requests.size(); ++i)
        ok = outcomeMatches(out.outcomes[i], b.refs[i],
                            b.requests[i].kind ==
                                net::QueryKind::Resilience);
    st.wallMs.push_back(ms);
    st.shards += b.shards;
    st.verifiedShards += ok ? b.shards : 0;
    addLedger(st.ledger, out.ledger);
    st.lastOutcomes = std::move(out.outcomes);
    return ms;
}

struct Rounds
{
    BatchStats skew, resilience;
    std::vector<double> roundMs;
    double skewTrialsPerS = 0.0, resilienceTrialsPerS = 0.0;
    double goodputRps = 0.0;
};

/** Rounds of (skew batch, resilience batch) for at least @p seconds. */
Rounds
runRounds(Fleet &fleet, const Batch &skew, const Batch &res, double seconds,
          std::size_t &round, obs::Tracer *tracer)
{
    Rounds r;
    const double t0 = nowUs();
    do {
        OwnedSpan span(tracer, "round#" + std::to_string(round));
        const double a = runBatch(fleet, skew, r.skew, round, "skew", tracer);
        const double b =
            runBatch(fleet, res, r.resilience, round, "resilience", tracer);
        r.roundMs.push_back(a + b);
        ++round;
    } while ((nowUs() - t0) / 1e6 < seconds || r.roundMs.size() < 2);

    std::vector<double> st, rt;
    double totalMs = 0.0;
    for (double ms : r.skew.wallMs) {
        st.push_back(static_cast<double>(skew.trials) / (ms / 1e3));
        totalMs += ms;
    }
    for (double ms : r.resilience.wallMs) {
        rt.push_back(static_cast<double>(res.trials) / (ms / 1e3));
        totalMs += ms;
    }
    r.skewTrialsPerS = median(st);
    r.resilienceTrialsPerS = median(rt);
    r.goodputRps = static_cast<double>(r.skew.verifiedShards +
                                       r.resilience.verifiedShards) /
                   (totalMs / 1e3);
    return r;
}

void
account(const Rounds &r, Report &rep)
{
    const std::size_t shards = r.skew.shards + r.resilience.shards;
    const std::size_t verified =
        r.skew.verifiedShards + r.resilience.verifiedShards;
    rep.attempted += shards;
    rep.failed += shards - verified;
    if (verified != shards)
        rep.correct = false;
    std::fprintf(stderr,
                 "  %zu rounds: skew %.0f trials/s, resilience %.0f "
                 "trials/s, round p50 %.1f ms, %zu/%zu shards verified\n",
                 r.roundMs.size(), r.skewTrialsPerS, r.resilienceTrialsPerS,
                 median(r.roundMs), verified, shards);
}

} // namespace

Report
runFleet(const Args &args)
{
    Report rep;
    Rng rng = Rng::forTrial(args.seed, 0xf1e);
    using K = net::QueryKind;
    using S = net::WireScheme;
    const Batch skew = makeBatch(
        {request(K::Skew, S::HTree, skewSide, rng.next(), skewTrials,
                 skewGrain),
         request(K::Skew, S::Spine, skewSide, rng.next(), skewTrials,
                 skewGrain)});
    const Batch res = makeBatch(
        {request(K::Resilience, S::Trix, resilienceSide, rng.next(),
                 resilienceTrials, resilienceGrain),
         request(K::Resilience, S::HTree, resilienceSide, rng.next(),
                 resilienceTrials, resilienceGrain)});
    // Warm-up: one shard of each request on every worker directly, so
    // each has compiled every kernel, then once through the coordinator.
    std::vector<net::WireRequest> warmRequests;
    for (const Batch *b : {&skew, &res})
        for (net::WireRequest rq : b->requests) {
            rq.trials = rq.grain;
            warmRequests.push_back(rq);
        }
    const Batch warm = makeBatch(warmRequests);
    const ReplyCheck warmCheck = [&warm](std::size_t i,
                                         const net::WireResponse &rsp) {
        return replyMatches(rsp, warm.refs[i],
                            warm.requests[i].kind ==
                                net::QueryKind::Resilience);
    };

    // Set-up: fleet start plus the warm-up, setupRepeats times.
    std::unique_ptr<Fleet> fleet;
    std::vector<double> setup;
    std::size_t round = 0;
    for (int i = 0; i < setupRepeats; ++i) {
        fleet.reset();
        const double t0 = nowUs();
        fleet = std::make_unique<Fleet>();
        if (!fleet->start()) {
            std::fprintf(stderr, "cannot start the loopback fleet\n");
            rep.correct = false;
            return rep;
        }
        std::size_t attempted = 0, verified = 0;
        for (std::uint16_t port : fleet->ports()) {
            attempted += warm.requests.size();
            verified += closedLoop(port, warm.requests, warmCheck);
        }
        BatchStats ws;
        runBatch(*fleet, warm, ws, round, "warm-up", nullptr);
        setup.push_back((nowUs() - t0) / 1e6);
        attempted += ws.shards;
        verified += ws.verifiedShards;
        rep.attempted += attempted;
        rep.failed += attempted - verified;
        if (verified != attempted)
            rep.correct = false;
    }

    if (!args.trace) {
        const Rounds r =
            runRounds(*fleet, skew, res, args.seconds, round, nullptr);
        account(r, rep);
        rep.set("setup_s", median(setup), "s");
        rep.set("goodput_rps", r.goodputRps, "1/s");
        rep.set("verified_frac",
                static_cast<double>(r.skew.verifiedShards +
                                    r.resilience.verifiedShards) /
                    static_cast<double>(r.skew.shards + r.resilience.shards),
                "ratio");
        rep.set("skew_trials_per_s", r.skewTrialsPerS, "1/s");
        rep.set("resilience_trials_per_s", r.resilienceTrialsPerS, "1/s");
        rep.set("peak_rss_mb", peakRssMb(), "MiB");
        return rep;
    }

    const double passSeconds = 0.35 * args.seconds;
    const Rounds plain =
        runRounds(*fleet, skew, res, passSeconds, round, nullptr);
    account(plain, rep);
    const ServeCounters before = readServeCounters(
        {fleet->metrics[0].get(), fleet->metrics[1].get()});

    obs::Tracer tracer;
    tracer.nameCurrentThread("benchmark");
    Rounds traced;
    double lagP99 = 0.0;
    {
        InfoSampler sampler(fleet->ports());
        traced = runRounds(*fleet, skew, res, passSeconds, round, &tracer);
        sampler.stop();
        rep.set("net.queue_depth_max",
                static_cast<double>(sampler.maxQueueDepth()), "requests");
        lagP99 = quantile(sampler.lagMs(), 0.99);
    }
    account(traced, rep);
    rep.set("loadgen.lag_p99_ms", lagP99, "ms");
    rep.set("loadgen.latency_p50_ms", median(plain.roundMs), "ms");
    rep.set("loadgen.latency_p99_ms", quantile(plain.roundMs, 0.99), "ms");

    const auto overhead = [&](const char *name, double t, double u,
                              const char *unit) {
        rep.set(std::string("trace.overhead.") + name, t - u, unit);
    };
    overhead("latency_p50_ms", median(traced.roundMs), median(plain.roundMs),
             "ms");
    overhead("latency_p99_ms", quantile(traced.roundMs, 0.99),
             quantile(plain.roundMs, 0.99), "ms");
    overhead("goodput_rps", traced.goodputRps, plain.goodputRps, "1/s");
    overhead("skew_trials_per_s", traced.skewTrialsPerS,
             plain.skewTrialsPerS, "1/s");
    overhead("resilience_trials_per_s", traced.resilienceTrialsPerS,
             plain.resilienceTrialsPerS, "1/s");

    std::vector<obs::MetricsRegistry *> regs;
    std::vector<const obs::Histogram *> serverMs;
    for (auto &m : fleet->metrics) {
        regs.push_back(m.get());
        serverMs.push_back(&m->histogram("net.request.latency_ms", {}));
    }
    const ServeCounters sv = readServeCounters(regs);
    rep.set("serve.cache.hit_ratio",
            sv.hits / std::max(1.0, sv.hits + sv.misses), "ratio");
    rep.set("serve.cache.compile_ms_per_miss",
            sv.compileMs / std::max(1.0, sv.misses), "ms");
    rep.set("serve.cache.evictions", sv.evictions, "count");
    rep.set("serve.pool.chunks_per_job", sv.chunks / std::max(1.0, sv.jobs),
            "chunks");
    rep.set("serve.pool.active_workers_hwm", sv.activeHwm, "threads");
    rep.set("net.server_ms_p50", histogramQuantile(serverMs, 0.50), "ms");
    rep.set("net.server_ms_p99", histogramQuantile(serverMs, 0.99), "ms");

    dist::ShardLedger ledger = plain.skew.ledger;
    addLedger(ledger, plain.resilience.ledger);
    addLedger(ledger, traced.skew.ledger);
    addLedger(ledger, traced.resilience.ledger);
    addDistMetrics(*fleet->coordinatorMetrics, fleetWorkers, ledger,
                   timeFold(skew.requests, traced.skew.lastOutcomes, &tracer),
                   rep);
    const double missesTraced = sv.misses - before.misses;
    fleet.reset();

    // Layers on one shard of each request -- what a worker executes.
    LayerInputs in;
    for (const Batch *b : {&skew, &res})
        for (net::WireRequest rq : b->requests) {
            const double shards = static_cast<double>(rq.trials / rq.grain);
            rq.trials = rq.grain;
            in.requests.push_back(rq);
            in.weights.push_back(shards);
        }
    in.seed = args.seed;
    in.budgetSeconds = std::max(0.5, 0.3 * args.seconds);
    in.tracer = &tracer;
    const double kernelMsPerShard = timeLayers(in, rep);

    // Blocking breakdown of a round: each worker's single dispatcher
    // runs its shards one after another, so the fleet's critical path
    // holds shards / workers shard trial loops.
    double shardsPerRound = 0.0;
    for (double w : in.weights)
        shardsPerRound += w;
    const double compileMsPerRound =
        missesTraced * sv.compileMs / std::max(1.0, sv.misses) /
        static_cast<double>(traced.roundMs.size());
    setBlocking(kernelMsPerShard * shardsPerRound / fleetWorkers,
                compileMsPerRound, median(plain.roundMs), rep);

    if (!args.traceOut.empty()) {
        std::ofstream os(args.traceOut);
        tracer.writeChromeJson(os);
    }
    return rep;
}

} // namespace perfbench
