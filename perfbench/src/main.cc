/**
 * @file
 * vsbench -- the repository benchmark.
 *
 *   vsbench --workload wire-mix|wire-cold|fleet-sweep --seed N
 *           --seconds S --trace 0|1 [--trace-out FILE]
 *
 * --trace 0 measures the end-to-end metrics with tracing off; --trace 1
 * is the separate traced run that reports the per-layer metrics (and
 * writes a Chrome trace to --trace-out). Every reply is checked bit for
 * bit against an in-process reference. The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
 * status is nonzero when any check failed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/json.hh"

namespace
{

using perfbench::Args;
using perfbench::Report;

const std::vector<std::string> &
endToEndNames()
{
    static const std::vector<std::string> names = {
        "setup_s",           "goodput_rps",
        "verified_frac",     "skew_trials_per_s",
        "resilience_trials_per_s", "peak_rss_mb",
    };
    return names;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: vsbench --workload wire-mix|wire-cold|fleet-sweep "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            args.workload = v;
        else if (k == "--seed")
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            args.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            args.trace = v == "1";
        else if (k == "--trace-out")
            args.traceOut = v;
        else
            return usage();
    }
    if (args.seconds <= 0.0)
        return usage();

    std::fprintf(stderr,
                 "vsbench: workload %s seed %llu seconds %g trace %d; host "
                 "nproc %u; build %s, flags '%s'\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds,
                 args.trace ? 1 : 0, std::thread::hardware_concurrency(),
                 PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);

    Report rep;
    if (args.workload == "wire-mix")
        rep = perfbench::runWire(args, false);
    else if (args.workload == "wire-cold")
        rep = perfbench::runWire(args, true);
    else if (args.workload == "fleet-sweep")
        rep = perfbench::runFleet(args);
    else
        return usage();

    // Report exactly the metric set of this kind of run.
    const std::vector<std::string> &names =
        args.trace ? perfbench::perLayerNames() : endToEndNames();
    std::ostringstream os;
    vsync::JsonWriter w(os, vsync::JsonWriter::Style::Compact);
    w.beginObject().key("metrics").beginObject();
    bool complete = true;
    for (const std::string &name : names) {
        const auto it = rep.metrics.find(name);
        if (it == rep.metrics.end() || !std::isfinite(it->second.value)) {
            std::fprintf(stderr, "vsbench: metric %s missing or not finite\n",
                         name.c_str());
            complete = false;
            continue;
        }
        std::printf("%-40s %14.6g %s\n", name.c_str(), it->second.value,
                    it->second.unit.c_str());
        w.key(name)
            .beginObject()
            .keyValue("value", it->second.value)
            .keyValue("unit", it->second.unit)
            .endObject();
    }
    w.endObject().endObject();
    const bool ok = rep.correct && complete && rep.attempted > 0;

    // JsonWriter holds the metrics; the top-level keys go in front.
    std::string metrics = os.str();
    metrics = metrics.substr(1, metrics.size() - 2); // "metrics":{...}
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,%s}\n",
                ok ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), metrics.c_str());
    std::fflush(stdout);
    return ok ? 0 : 1;
}
