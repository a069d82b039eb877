/**
 * @file
 * Per-layer timings: each layer's public functions called directly on
 * one workload's own inputs, one trace span per timed repetition.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "accounting.hh"
#include "bench.hh"
#include "common/rng.hh"
#include "core/skew_kernel.hh"
#include "dist/coordinator.hh"
#include "mc/resilience.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "openloop.hh"
#include "serve/work_unit.hh"

namespace perfbench
{

using namespace vsync;

namespace
{

/** Keeps timed results observable so no call is optimised away. */
volatile double sink = 0.0;

/**
 * Median over @p reps repetitions of the mean wall time of one fn()
 * call, ns; each repetition calls fn until @p minMs has passed and is
 * recorded as one span named @p name.
 */
template <class Fn>
double
nsPerCall(Fn &&fn, double minMs, obs::Tracer *tracer, const char *name,
          int reps = 5)
{
    std::vector<double> perCall;
    for (int r = 0; r < reps; ++r) {
        obs::Span span(tracer, name);
        const double t0 = nowUs();
        std::size_t calls = 0;
        double t = t0;
        do {
            fn();
            ++calls;
            t = nowUs();
        } while ((t - t0) / 1e3 < minMs);
        perCall.push_back((t - t0) * 1e3 / static_cast<double>(calls));
    }
    return median(std::move(perCall));
}

/** Template label of a request: serve.run_ms.<label>. */
std::string
templateOf(const net::WireRequest &rq)
{
    return std::string(net::queryKindName(rq.kind)) + "_" +
           net::wireSchemeName(rq.scheme);
}

/** Weighted mean accumulator. */
struct Mean
{
    double sum = 0.0, weight = 0.0;
    void
    add(double v, double w)
    {
        sum += v * w;
        weight += w;
    }
    double value() const { return weight > 0.0 ? sum / weight : 0.0; }
};

} // namespace

double
timeLayers(const LayerInputs &in, Report &out)
{
    obs::Tracer *tr = in.tracer;
    const std::size_t shapes = in.requests.size();
    // Spread the budget over the timings: about 10 slices for the RNG
    // and 20 per request shape.
    const double sliceMs =
        std::clamp(in.budgetSeconds * 1e3 / (10.0 + 20.0 * shapes), 0.2, 20.0);

    // common: RNG draws, scalar against the bulk fill the kernel uses.
    {
        Rng rng(in.seed);
        std::vector<double> buf(4096);
        const double scalar = nsPerCall(
            [&] {
                double s = 0.0;
                for (std::size_t k = 0; k < buf.size(); ++k)
                    s += rng.uniform(0.95, 1.05);
                sink = s;
            },
            sliceMs, tr, "common.Rng::uniform");
        const double bulk = nsPerCall(
            [&] {
                rng.fillUniform(0.95, 1.05, buf);
                sink = buf[7];
            },
            sliceMs, tr, "common.Rng::fillUniform");
        out.set("rng.uniform_ns_per_draw", scalar / 4096.0, "ns");
        out.set("rng.fill_ns_per_draw", bulk / 4096.0, "ns");
    }

    std::vector<std::unique_ptr<Scenario>> scenarios;
    for (const net::WireRequest &rq : in.requests)
        scenarios.push_back(buildScenario(rq));

    // core + mc: compile, autotune and the blocked trial entry points.
    Mean compileMs, tuneMs, width;
    double arrivalsNs = 0.0, arrivalsUnits = 0.0;
    double foldNs = 0.0, foldUnits = 0.0;
    double skewPairNs = 0.0, skewPairUnits = 0.0;
    std::map<std::string, Mean> trialUs, templateMs;
    Mean kernelMsPerRequest;
    std::vector<serve::RequestOutcome> outcomes(shapes);

    serve::SweepService svc(serve::ServiceConfig{serverThreads, shapes + 8,
                                                 nullptr});
    for (std::size_t i = 0; i < shapes; ++i) {
        const net::WireRequest &rq = in.requests[i];
        const Scenario &sc = *scenarios[i];
        const double w = in.weights[i];
        double trialNs = 0.0;
        std::shared_ptr<const core::SkewKernel> kernel;
        if (rq.kind == net::QueryKind::Skew) {
            // Fresh kernels: compile, then the first blockWidth() call
            // runs the autotuner.
            std::vector<double> c, t;
            for (int r = 0; r < 3; ++r) {
                const double t0 = nowUs();
                {
                    obs::Span span(tr, "core.SkewKernel compile");
                    kernel = std::make_shared<core::SkewKernel>(sc.layout,
                                                                sc.tree);
                }
                const double t1 = nowUs();
                {
                    obs::Span span(tr, "core.SkewKernel::blockWidth autotune");
                    sink = static_cast<double>(kernel->blockWidth());
                }
                c.push_back((t1 - t0) / 1e3);
                t.push_back((nowUs() - t1) / 1e3);
            }
            compileMs.add(median(c), 1.0);
            tuneMs.add(median(t), 1.0);
            const std::size_t W = kernel->blockWidth();
            width.add(static_cast<double>(W), 1.0);

            std::vector<Rng> lanes(W);
            const auto resetLanes = [&] {
                for (std::size_t j = 0; j < W; ++j)
                    lanes[j] = Rng::forTrial(in.seed, j);
            };
            std::vector<Time> arrival(kernel->nodeCount() *
                                      core::SkewKernel::laneStride(W));
            std::vector<Time> skew(W), scratch;
            const double a = nsPerCall(
                [&] {
                    resetLanes();
                    kernel->arrivalsBlock(rq.delay, lanes, arrival);
                },
                sliceMs, tr, "core.SkewKernel::arrivalsBlock");
            arrivalsNs += a;
            arrivalsUnits += static_cast<double>(kernel->nodeCount() * W);
            const double f = nsPerCall(
                [&] {
                    kernel->maxCommSkewBlock(arrival, skew);
                    sink = skew[0];
                },
                sliceMs, tr, "core.SkewKernel::maxCommSkewBlock");
            foldNs += f;
            foldUnits += static_cast<double>(kernel->pairCount() * W);
            trialNs = nsPerCall(
                          [&] {
                              resetLanes();
                              kernel->sampleMaxCommSkewBlock(
                                  rq.delay, lanes, skew, scratch);
                          },
                          sliceMs, tr,
                          "core.SkewKernel::sampleMaxCommSkewBlock") /
                      static_cast<double>(W);
        } else {
            mc::ResilienceConfig rc;
            rc.delay = rq.delay;
            const mc::ResilienceScenario rs = mc::compileResilienceScenario(
                sc.layout, rq.rows, rq.cols, distributionOf(rq), rq.faultRate,
                rc, core::directCompile());
            const std::size_t W = rs.kernel->blockWidth();
            std::vector<double> skew(W), clocked(W), faults(W);
            std::vector<Time> scratch;
            std::uint64_t first = 0;
            trialNs = nsPerCall(
                          [&] {
                              rs.runTrialBlock(in.seed, first, W, skew,
                                               clocked, faults, nullptr,
                                               scratch);
                              first += W;
                          },
                          sliceMs, tr,
                          "mc.ResilienceScenario::runTrialBlock") /
                      static_cast<double>(W);
            trialUs[net::wireSchemeName(rq.scheme)].add(trialNs / 1e3, 1.0);

            const std::size_t stride = core::SkewKernel::laneStride(W);
            std::vector<Time> cellArrival(rs.kernel->cellCount() * stride);
            Rng rng(in.seed);
            rng.fillUniform(0.0, 1.0, cellArrival);
            std::vector<core::ArrivalSkew> res(W);
            skewPairNs += nsPerCall(
                [&] {
                    rs.kernel->arrivalSkewBlock(cellArrival, res);
                    sink = res[0].maxCommSkew;
                },
                sliceMs, tr, "core.SkewKernel::arrivalSkewBlock");
            skewPairUnits += static_cast<double>(rs.kernel->pairCount() * W);
        }
        // One request's trial loop on its own pool: its chunks run
        // side by side on up to serverThreads threads.
        const double chunks = std::ceil(static_cast<double>(rq.trials) /
                                        static_cast<double>(rq.grain));
        kernelMsPerRequest.add(
            trialNs * static_cast<double>(rq.trials) / 1e6 /
                std::min<double>(serverThreads, chunks),
            w);

        // serve: the whole request through SweepService, cache warm.
        const std::vector<serve::SweepRequest> batch{toSweepRequest(rq, sc)};
        outcomes[i] = svc.run(batch).outcomes.at(0);
        const double ms = nsPerCall([&] { sink = svc.run(batch).wallMs; },
                                    sliceMs, tr, "serve.SweepService::run",
                                    3) /
                          1e6;
        templateMs[templateOf(rq)].add(ms, std::max(w, 1e-9));
    }
    out.set("core.compile_ms", compileMs.value(), "ms");
    out.set("core.autotune_ms", tuneMs.value(), "ms");
    out.set("core.block_width", width.value(), "lanes");
    out.set("core.arrivals_ns_per_node", arrivalsNs / arrivalsUnits, "ns");
    out.set("core.fold_ns_per_pair", foldNs / foldUnits, "ns");
    out.set("core.arrival_skew_ns_per_pair", skewPairNs / skewPairUnits,
            "ns");
    out.set("mc.resilience_trial_us.trix", trialUs["trix"].value(), "us");
    out.set("mc.resilience_trial_us.htree", trialUs["htree"].value(), "us");
    for (const char *t : {"skew_htree", "skew_spine", "resilience_htree",
                          "resilience_trix"})
        out.set(std::string("serve.run_ms.") + t, templateMs[t].value(), "ms");

    // net: the protocol's parse and render on the same requests and
    // their outcomes.
    std::vector<std::string> requestLines, responseLines;
    Mean bytes;
    for (std::size_t i = 0; i < shapes; ++i) {
        requestLines.push_back(net::encodeRequest(in.requests[i]));
        responseLines.push_back(
            net::encodeOutcome(in.requests[i], outcomes[i], 1.0));
        bytes.add(static_cast<double>(responseLines.back().size() + 1),
                  in.weights[i]);
    }
    Mean parseReq, encodeOut, parseRsp;
    net::WireRequest rq;
    net::WireResponse rsp;
    std::string error;
    for (std::size_t i = 0; i < shapes; ++i) {
        const double w = in.weights[i];
        parseReq.add(nsPerCall(
                         [&] {
                             sink = net::parseRequest(requestLines[i], rq,
                                                      error);
                         },
                         sliceMs / 4, tr, "net.parseRequest", 3),
                     w);
        encodeOut.add(nsPerCall(
                          [&] {
                              sink = static_cast<double>(
                                  net::encodeOutcome(in.requests[i],
                                                     outcomes[i], 1.0)
                                      .size());
                          },
                          sliceMs / 4, tr, "net.encodeOutcome", 3),
                      w);
        parseRsp.add(nsPerCall(
                         [&] {
                             sink = net::parseResponse(responseLines[i], rsp,
                                                       error);
                         },
                         sliceMs / 4, tr, "net.parseResponse", 3),
                     w);
    }
    out.set("net.parse_request_us", parseReq.value() / 1e3, "us");
    out.set("net.encode_outcome_us", encodeOut.value() / 1e3, "us");
    out.set("net.parse_response_us", parseRsp.value() / 1e3, "us");
    out.set("net.response_bytes", bytes.value(), "bytes");

    return kernelMsPerRequest.value();
}

void
addDistMetrics(obs::MetricsRegistry &reg, std::size_t workers,
               const dist::ShardLedger &ledger, double foldMs, Report &out)
{
    std::vector<const obs::Histogram *> rtt;
    for (std::size_t w = 0; w < workers; ++w)
        rtt.push_back(&reg.histogram(
            "dist.worker." + std::to_string(w) + ".latency_ms", {}));
    out.set("dist.shard_rtt_ms_p50", histogramQuantile(rtt, 0.50), "ms");
    out.set("dist.shard_rtt_ms_p99", histogramQuantile(rtt, 0.99), "ms");
    out.set("dist.useful_ratio",
            ledger.dispatched ? static_cast<double>(ledger.completed) /
                                    static_cast<double>(ledger.dispatched)
                              : 0.0,
            "ratio");
    out.set("dist.retried", static_cast<double>(ledger.retried), "count");
    out.set("dist.hedged", static_cast<double>(ledger.hedged), "count");
    out.set("dist.fold_ms", foldMs, "ms");
}

double
timeFold(const std::vector<net::WireRequest> &batch,
         const std::vector<serve::RequestOutcome> &outcomes,
         obs::Tracer *tracer)
{
    std::vector<serve::RequestOutcome> copy = outcomes;
    return nsPerCall(
               [&] {
                   for (std::size_t i = 0; i < copy.size(); ++i)
                       serve::foldOutcomeInTrialOrder(
                           batch[i].kind == net::QueryKind::Skew,
                           std::vector<std::uint8_t>(batch[i].trials, 1),
                           copy[i]);
               },
               2.0, tracer, "serve.foldOutcomeInTrialOrder", 3) /
           1e6;
}

bool
measureDist(const std::vector<std::uint16_t> &ports,
            const std::vector<net::WireRequest> &batch,
            const std::vector<serve::RequestOutcome> &refs,
            obs::Tracer *tracer, Report &out)
{
    obs::MetricsRegistry reg;
    dist::DistConfig dc;
    for (std::uint16_t p : ports)
        dc.workers.push_back(dist::WorkerEndpoint{"127.0.0.1", p});
    dc.metrics = &reg;
    dist::Coordinator coordinator(dc);
    dist::DistOutcome r;
    {
        obs::Span span(tracer, "dist.Coordinator::run");
        r = coordinator.run(batch);
    }
    bool ok = r.ledger.balanced() && r.ledger.lost == 0 &&
              r.outcomes.size() == batch.size();
    for (std::size_t i = 0; ok && i < batch.size(); ++i)
        ok = outcomeMatches(r.outcomes[i], refs[i],
                            batch[i].kind == net::QueryKind::Resilience);
    addDistMetrics(reg, ports.size(), r.ledger,
                   timeFold(batch, r.outcomes, tracer), out);
    return ok;
}

} // namespace perfbench
