#include "accounting.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

double
dueOffsetUs(std::size_t i, double rps)
{
    return static_cast<double>(i) * 1e6 / rps;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    const double n = static_cast<double>(values.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace
{

/** Latency of one sample from its due time, ms; missingMs unless it
 *  was verified. */
double
latencyMs(const RequestSample &s, double missingMs)
{
    return s.fate == Fate::Verified ? (s.doneUs - s.dueUs) / 1e3
                                    : missingMs;
}

} // namespace

PhaseSummary
summarizePhase(const std::vector<RequestSample> &samples,
               double missingMs)
{
    PhaseSummary out;
    out.attempted = samples.size();
    if (samples.empty())
        return out;

    std::vector<double> latency, lag;
    latency.reserve(samples.size());
    lag.reserve(samples.size());
    double firstDue = samples.front().dueUs;
    double lastDone = firstDue;
    for (const RequestSample &s : samples) {
        switch (s.fate) {
        case Fate::Verified:
            ++out.verified;
            lastDone = std::max(lastDone, s.doneUs);
            break;
        case Fate::Shed:
            ++out.shed;
            break;
        case Fate::Failed:
            ++out.failed;
            break;
        }
        firstDue = std::min(firstDue, s.dueUs);
        latency.push_back(latencyMs(s, missingMs));
        lag.push_back((s.sentUs - s.dueUs) / 1e3);
    }
    out.p50Ms = quantile(latency, 0.50);
    out.p99Ms = quantile(latency, 0.99);
    out.lagP99Ms = quantile(lag, 0.99);
    out.failedFrac = static_cast<double>(out.shed + out.failed) /
                     static_cast<double>(out.attempted);
    const double spanS = (lastDone - firstDue) / 1e6;
    out.goodputRps =
        spanS > 0.0 ? static_cast<double>(out.verified) / spanS : 0.0;
    return out;
}

} // namespace perfbench
