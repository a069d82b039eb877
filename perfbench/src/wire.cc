/**
 * @file
 * The open-loop wire workloads against an in-process net::ScenarioServer.
 *
 * wire-mix  -- a warm 4-template mix of small requests: skew on an 8x8
 *              H-tree and spine, resilience on a 6x6 H-tree and TRIX
 *              grid. Per-request work outside the kernel dominates.
 * wire-cold -- small skew requests cycling through 48 scenarios (H-tree
 *              and spine at sides 8..31), more than the server's
 *              32-entry kernel cache, so each one compiles and
 *              autotunes; every 8th request is the warm TRIX resilience
 *              template of wire-mix as an in-workload control.
 *
 * Each run: references first (untimed), then setupRepeats set-ups (server
 * start plus a closed-loop warm-up pass), then blocks of a phase at the
 * nominal rate (latency, failures) and one at the overload rate (goodput).
 */

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "accounting.hh"
#include "bench.hh"
#include "common/rng.hh"
#include "mc/resilience.hh"
#include "mc/sweeps.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "openloop.hh"

namespace perfbench
{

using namespace vsync;

namespace
{

/** Fixed per-workload rates, requests per second (see BENCHMARK.json). */
struct Rates
{
    double nominal;
    double overload;
};
constexpr Rates mixRates{1000.0, 8000.0};
constexpr Rates coldRates{600.0, 3000.0};

/** Share of the run at the nominal rate; the rest is overload. */
constexpr double nominalShare = 0.6;

struct Plan
{
    /** Request i of a phase is mix[(first + i) % mix.size()]. */
    std::vector<net::WireRequest> mix;
    /** refs[k]: the direct mc:: result mix[k] must reproduce. */
    std::vector<serve::RequestOutcome> refs;
    /** Closed-loop warm-up requests (indices into mix). */
    std::vector<std::size_t> warmup;
    Rates rates;
    /** Distinct shapes and send weights, for the per-layer timings. */
    LayerInputs layers;
};

net::WireRequest
skewRequest(net::WireScheme scheme, int side, std::uint64_t seed,
            std::size_t trials, std::size_t grain)
{
    net::WireRequest rq;
    rq.kind = net::QueryKind::Skew;
    rq.scheme = scheme;
    rq.rows = rq.cols = side;
    rq.seed = seed;
    rq.trials = trials;
    rq.grain = grain;
    return rq;
}

net::WireRequest
resilienceRequest(net::WireScheme scheme, int side, std::uint64_t seed,
                  std::size_t trials, std::size_t grain)
{
    net::WireRequest rq = skewRequest(scheme, side, seed, trials, grain);
    rq.kind = net::QueryKind::Resilience;
    rq.faultRate = 0.05;
    return rq;
}

/** The four wire-mix templates at one seed. */
std::vector<net::WireRequest>
mixTemplates(std::uint64_t seed)
{
    return {skewRequest(net::WireScheme::HTree, 8, seed, 32, 32),
            skewRequest(net::WireScheme::Spine, 8, seed, 32, 32),
            resilienceRequest(net::WireScheme::HTree, 6, seed, 2, 2),
            resilienceRequest(net::WireScheme::Trix, 6, seed, 2, 2)};
}

Plan
makePlan(bool cold, std::uint64_t seed)
{
    Plan p;
    Rng rng = Rng::forTrial(seed, 0x9e1);
    if (!cold) {
        // 16 seeds per template, sent in a seeded shuffled cycle.
        for (int s = 0; s < 16; ++s)
            for (const net::WireRequest &rq : mixTemplates(rng.next()))
                p.mix.push_back(rq);
        for (std::size_t i = p.mix.size(); i > 1; --i)
            std::swap(p.mix[i - 1], p.mix[rng.uniformInt(i)]);
        for (std::size_t k = 0; k < p.mix.size(); ++k)
            p.warmup.push_back(k);
        p.rates = mixRates;
        for (const net::WireRequest &rq : mixTemplates(seed)) {
            p.layers.requests.push_back(rq);
            p.layers.weights.push_back(0.25);
        }
    } else {
        // Two seeds per scenario; the cold requests walk the 48
        // scenarios round-robin, one warm control after every seven.
        std::vector<net::WireRequest> scenarios;
        for (int side = 8; side < 32; ++side)
            for (net::WireScheme s :
                 {net::WireScheme::HTree, net::WireScheme::Spine})
                scenarios.push_back(skewRequest(s, side, 0, 8, 8));
        const std::vector<net::WireRequest> control =
            mixTemplates(rng.next());
        const std::uint64_t seeds[2] = {rng.next(), rng.next()};
        const std::size_t coldCount = 2 * scenarios.size();
        for (std::size_t k = 0; k < coldCount; ++k) {
            net::WireRequest rq = scenarios[k % scenarios.size()];
            rq.seed = seeds[k / scenarios.size()];
            p.mix.push_back(rq);
            if (k < scenarios.size())
                p.warmup.push_back(p.mix.size() - 1);
            if (k % 7 == 6) {
                p.mix.push_back(control[3]);
                if (k < 7)
                    p.warmup.push_back(p.mix.size() - 1);
            }
        }
        p.rates = coldRates;
        const double controlShare = 1.0 / 8.0;
        for (net::WireRequest rq : scenarios) {
            rq.seed = seed;
            p.layers.requests.push_back(rq);
            p.layers.weights.push_back((1.0 - controlShare) /
                                       static_cast<double>(scenarios.size()));
        }
        // The H-tree resilience template is timed but never sent.
        p.layers.requests.push_back(control[2]);
        p.layers.weights.push_back(0.0);
        p.layers.requests.push_back(control[3]);
        p.layers.weights.push_back(controlShare);
    }
    p.layers.seed = seed;
    return p;
}

/** Direct in-process references through mc::, bypassing every serving
 *  layer, so a reply is checked against the engine itself. */
std::vector<serve::RequestOutcome>
references(const std::vector<net::WireRequest> &mix)
{
    std::vector<serve::RequestOutcome> refs;
    for (const net::WireRequest &rq : mix) {
        const auto sc = buildScenario(rq);
        mc::McConfig cfg;
        cfg.seed = rq.seed;
        cfg.trials = rq.trials;
        cfg.grain = rq.grain;
        cfg.threads = referenceThreads;
        serve::RequestOutcome o;
        o.trialsRequested = o.trialsDone = rq.trials;
        if (rq.kind == net::QueryKind::Skew) {
            o.skew = mc::skewSweep(sc->layout, sc->tree, rq.delay, cfg);
        } else {
            mc::ResilienceConfig rc;
            rc.delay = rq.delay;
            o.resilience =
                mc::resilienceAtRate(sc->layout, rq.rows, rq.cols,
                                     distributionOf(rq), rq.faultRate, rc, cfg);
        }
        refs.push_back(std::move(o));
    }
    return refs;
}

/** One server with its registry; stop() before the registry dies. */
struct Server
{
    std::unique_ptr<obs::MetricsRegistry> metrics =
        std::make_unique<obs::MetricsRegistry>();
    std::unique_ptr<net::ScenarioServer> server;
};

/** Length of one nominal + overload block, seconds. */
constexpr double blockSeconds = 5.0;

/**
 * What alternating nominal and overload blocks measured. The timing
 * figures are medians over blocks, so a stall of the shared host moves
 * one block rather than the run.
 */
struct Measured
{
    /** All nominal requests pooled: counts, lag, mean latency. */
    PhaseSummary nominal;
    std::vector<RequestSample> nominalSamples;
    /** serverMs of the verified nominal replies. */
    std::vector<double> serverMs;
    std::size_t overloadAttempted = 0, overloadShed = 0, overloadFailed = 0;
    /** Medians over blocks. */
    double p50Ms = 0.0, p99Ms = 0.0, goodputRps = 0.0;
    double skewTrialsPerS = 0.0, resilienceTrialsPerS = 0.0;
    std::size_t mismatches = 0;
    bool connected = true;
    /** serve.cache.misses during the nominal blocks. */
    double nominalMisses = 0.0;
    /** Info-ping readings over the nominal blocks (when sampled). */
    std::uint64_t queueDepthMax = 0;
};

/**
 * Blocks of a nominal-rate phase then an overload phase, @p seconds in
 * all. With @p sample, info pings run on a side connection during the
 * nominal phases.
 */
Measured
runPhases(Server &srv, const Plan &p, double seconds, std::size_t &next,
          obs::Tracer *tracer, bool sample)
{
    OpenLoopConfig cfg;
    cfg.port = srv.server->port();
    cfg.mix = p.mix;
    cfg.check = [&p](std::size_t k, const net::WireResponse &rsp) {
        return replyMatches(rsp, p.refs[k],
                            p.mix[k].kind == net::QueryKind::Resilience);
    };
    cfg.tracer = tracer;
    obs::Counter &misses = srv.metrics->counter("serve.cache.misses");
    const double missingMs = patienceSeconds * 1e3;

    Measured out;
    std::vector<double> p50, p99, goodput, skewTps, resTps;
    const int blocks = std::max(2, static_cast<int>(seconds / blockSeconds));
    for (int b = 0; b < blocks; ++b) {
        const double missesBefore = static_cast<double>(misses.value());
        cfg.rps = p.rates.nominal;
        cfg.seconds = seconds / blocks * nominalShare;
        cfg.firstIndex = next;
        OpenLoopResult nom;
        {
            std::unique_ptr<InfoSampler> sampler;
            if (sample)
                sampler = std::make_unique<InfoSampler>(
                    std::vector<std::uint16_t>{cfg.port});
            nom = runOpenLoop(cfg);
            if (sampler) {
                sampler->stop();
                out.queueDepthMax =
                    std::max(out.queueDepthMax, sampler->maxQueueDepth());
            }
        }
        next += nom.samples.size();
        out.nominalMisses += static_cast<double>(misses.value()) - missesBefore;

        cfg.rps = p.rates.overload;
        cfg.seconds = seconds / blocks * (1.0 - nominalShare);
        cfg.firstIndex = next;
        const OpenLoopResult over = runOpenLoop(cfg);
        next += over.samples.size();

        const PhaseSummary ns = summarizePhase(nom.samples, missingMs);
        const PhaseSummary os = summarizePhase(over.samples, missingMs);
        p50.push_back(ns.p50Ms);
        p99.push_back(ns.p99Ms);
        goodput.push_back(os.goodputRps);
        out.overloadAttempted += os.attempted;
        out.overloadShed += os.shed;
        out.overloadFailed += os.failed;
        out.mismatches += nom.mismatches + over.mismatches;
        out.connected = out.connected && nom.connected && over.connected;
        out.nominalSamples.insert(out.nominalSamples.end(),
                                  nom.samples.begin(), nom.samples.end());
        out.serverMs.insert(out.serverMs.end(), nom.serverMs.begin(),
                            nom.serverMs.end());

        // Verified trials per second of the overload phase, by family,
        // over the same span as its goodput.
        double skew = 0.0, res = 0.0;
        for (std::size_t i = 0; i < over.samples.size(); ++i) {
            if (over.samples[i].fate != Fate::Verified)
                continue;
            const net::WireRequest &rq =
                p.mix[(cfg.firstIndex + i) % p.mix.size()];
            (rq.kind == net::QueryKind::Skew ? skew : res) +=
                static_cast<double>(rq.trials);
        }
        const double perReply =
            os.verified ? os.goodputRps / static_cast<double>(os.verified)
                        : 0.0;
        skewTps.push_back(skew * perReply);
        resTps.push_back(res * perReply);
    }
    out.nominal = summarizePhase(out.nominalSamples, missingMs);
    out.p50Ms = median(p50);
    out.p99Ms = median(p99);
    out.goodputRps = median(goodput);
    out.skewTrialsPerS = median(skewTps);
    out.resilienceTrialsPerS = median(resTps);
    return out;
}

void
addEndToEnd(const Measured &m, Report &r)
{
    r.set("goodput_rps", m.goodputRps, "1/s");
    r.set("verified_frac", 1.0 - m.nominal.failedFrac, "ratio");
    r.set("skew_trials_per_s", m.skewTrialsPerS, "1/s");
    r.set("resilience_trials_per_s", m.resilienceTrialsPerS, "1/s");
}

void
account(const Measured &m, Report &r)
{
    r.attempted += m.nominal.attempted + m.overloadAttempted;
    // Sheds at the overload rate are the server's documented answer to
    // overload, not failures; at the nominal rate they are.
    r.failed += m.nominal.shed + m.nominal.failed + m.overloadFailed;
    if (m.mismatches > 0 || !m.connected)
        r.correct = false;
    std::fprintf(stderr,
                 "  nominal: %zu offered, %zu verified, %zu shed, %zu "
                 "failed, p50 %.3f ms, p99 %.3f ms, lag p99 %.3f ms\n"
                 "  overload: %zu offered, %zu shed, %zu failed, goodput "
                 "%.1f rps\n",
                 m.nominal.attempted, m.nominal.verified, m.nominal.shed,
                 m.nominal.failed, m.p50Ms, m.p99Ms, m.nominal.lagP99Ms,
                 m.overloadAttempted, m.overloadShed, m.overloadFailed,
                 m.goodputRps);
}

} // namespace

Report
runWire(const Args &args, bool cold)
{
    Report r;
    Plan plan = makePlan(cold, args.seed);
    plan.refs = references(plan.mix);
    std::vector<net::WireRequest> warm;
    for (std::size_t k : plan.warmup)
        warm.push_back(plan.mix[k]);
    const ReplyCheck warmCheck = [&](std::size_t i,
                                     const net::WireResponse &rsp) {
        const std::size_t k = plan.warmup[i];
        return replyMatches(rsp, plan.refs[k],
                            plan.mix[k].kind == net::QueryKind::Resilience);
    };

    // Set-up: server start plus one closed-loop pass over the warm-up
    // requests, setupRepeats times; the last server is measured.
    Server srv;
    std::vector<double> setup;
    for (int rep = 0; rep < setupRepeats; ++rep) {
        if (srv.server)
            srv.server->stop();
        srv.server.reset();
        srv.metrics = std::make_unique<obs::MetricsRegistry>();
        const double t0 = nowUs();
        net::ServerConfig sc;
        sc.computeThreads = serverThreads;
        sc.metrics = srv.metrics.get();
        srv.server = std::make_unique<net::ScenarioServer>(sc);
        if (!srv.server->start()) {
            std::fprintf(stderr, "cannot start the loopback server\n");
            r.correct = false;
            return r;
        }
        const std::size_t ok = closedLoop(srv.server->port(), warm, warmCheck);
        setup.push_back((nowUs() - t0) / 1e6);
        r.attempted += warm.size();
        r.failed += warm.size() - ok;
        if (ok != warm.size())
            r.correct = false;
    }

    std::size_t next = 0;
    if (!args.trace) {
        const Measured m =
            runPhases(srv, plan, args.seconds, next, nullptr, false);
        account(m, r);
        addEndToEnd(m, r);
        r.set("setup_s", median(setup), "s");
        r.set("peak_rss_mb", peakRssMb(), "MiB");
        srv.server->stop();
        return r;
    }

    // Traced run: an untraced pass, a traced pass with the info
    // sampler, then the layer timings on the workload's own inputs.
    const double passSeconds = 0.35 * args.seconds;
    const Measured plain =
        runPhases(srv, plan, passSeconds, next, nullptr, false);
    account(plain, r);

    obs::Tracer tracer;
    tracer.nameCurrentThread("benchmark");
    const Measured traced =
        runPhases(srv, plan, passSeconds, next, &tracer, true);
    account(traced, r);
    r.set("net.queue_depth_max", static_cast<double>(traced.queueDepthMax),
          "requests");

    const auto overhead = [&](const char *name, double t, double u,
                              const char *unit) {
        r.set(std::string("trace.overhead.") + name, t - u, unit);
    };
    overhead("latency_p50_ms", traced.p50Ms, plain.p50Ms, "ms");
    overhead("latency_p99_ms", traced.p99Ms, plain.p99Ms, "ms");
    overhead("goodput_rps", traced.goodputRps, plain.goodputRps, "1/s");
    overhead("skew_trials_per_s", traced.skewTrialsPerS, plain.skewTrialsPerS,
             "1/s");
    overhead("resilience_trials_per_s", traced.resilienceTrialsPerS,
             plain.resilienceTrialsPerS, "1/s");

    r.set("net.server_ms_p50", quantile(traced.serverMs, 0.50), "ms");
    r.set("net.server_ms_p99", quantile(traced.serverMs, 0.99), "ms");
    r.set("loadgen.lag_p99_ms", traced.nominal.lagP99Ms, "ms");
    r.set("loadgen.latency_p50_ms", plain.p50Ms, "ms");
    r.set("loadgen.latency_p99_ms", plain.p99Ms, "ms");

    const ServeCounters sv = readServeCounters({srv.metrics.get()});
    r.set("serve.cache.hit_ratio", sv.hits / std::max(1.0, sv.hits + sv.misses),
          "ratio");
    r.set("serve.cache.compile_ms_per_miss",
          sv.compileMs / std::max(1.0, sv.misses), "ms");
    r.set("serve.cache.evictions", sv.evictions, "count");
    r.set("serve.pool.chunks_per_job", sv.chunks / std::max(1.0, sv.jobs),
          "chunks");
    r.set("serve.pool.active_workers_hwm", sv.activeHwm, "threads");

    // dist over the same server as a one-worker fleet.
    {
        const std::size_t n = std::min<std::size_t>(plan.mix.size(), 64);
        const std::vector<net::WireRequest> batch(plan.mix.begin(),
                                                  plan.mix.begin() + n);
        const std::vector<serve::RequestOutcome> refs(plan.refs.begin(),
                                                      plan.refs.begin() + n);
        if (!measureDist({srv.server->port()}, batch, refs, &tracer, r))
            r.correct = false;
    }
    srv.server->stop();

    plan.layers.budgetSeconds = std::max(0.5, 0.3 * args.seconds);
    plan.layers.tracer = &tracer;
    const double kernelMs = timeLayers(plan.layers, r);

    // Blocking breakdown of the median untraced nominal request, due
    // time to reply: its median rather than its mean, which a few host
    // stalls would dominate.
    const double compileMs =
        plain.nominal.attempted
            ? plain.nominalMisses / static_cast<double>(plain.nominal.attempted) *
                  sv.compileMs / std::max(1.0, sv.misses)
            : 0.0;
    setBlocking(kernelMs, compileMs, plain.p50Ms, r);

    if (!args.traceOut.empty()) {
        std::ofstream os(args.traceOut);
        tracer.writeChromeJson(os);
    }
    return r;
}

} // namespace perfbench
