/**
 * @file
 * The benchmark's own bookkeeping: open-loop schedules, latency
 * percentiles in which a failed request counts as missing the limit,
 * generator lag, and the failure and goodput ratios.
 *
 * Everything here is a pure function of recorded samples, so the
 * accounting can be checked on synthetic outcomes
 * (tests/accounting_test.cc) without a server.
 */

#ifndef PERFBENCH_ACCOUNTING_HH
#define PERFBENCH_ACCOUNTING_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

/** How one offered request ended. */
enum class Fate
{
    /** A complete reply, bit-identical to the in-process reference. */
    Verified,
    /** An explicit "overloaded" reply from admission control. */
    Shed,
    /** Anything else: error reply, no reply, partial or mismatching. */
    Failed,
};

/** One offered request, times in microseconds on one clock. */
struct RequestSample
{
    /** When the schedule said to send it. */
    double dueUs = 0.0;
    /** When its line was handed to the socket. */
    double sentUs = 0.0;
    /** When its reply line arrived (unset unless a reply came). */
    double doneUs = 0.0;
    Fate fate = Fate::Failed;
};

/**
 * Offset of request @p i from the schedule start at a fixed rate of
 * @p rps requests per second, in microseconds. Computed from the index
 * (not by accumulating an interval), so no drift builds up.
 */
double dueOffsetUs(std::size_t i, double rps);

/**
 * Nearest-rank quantile (the ceil(q * n)-th smallest value, q in
 * (0, 1]) of @p values; 0 for an empty input. Sorts a copy.
 */
double quantile(std::vector<double> values, double q);

/** What one open-loop phase measured. */
struct PhaseSummary
{
    std::size_t attempted = 0;
    std::size_t verified = 0;
    std::size_t shed = 0;
    std::size_t failed = 0;
    /** Latency from due time; a shed or failed request counts as
     *  missingMs (it missed any limit), ms. */
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    /** How late the generator sent, sent - due, ms. */
    double lagP99Ms = 0.0;
    /** (shed + failed) / attempted. */
    double failedFrac = 0.0;
    /** Verified replies per second of the phase's span, first due
     *  time to last reply. */
    double goodputRps = 0.0;
};

/**
 * Summarise a phase. @p missingMs is the latency charged to a request
 * that was shed or failed -- the patience after which an unanswered
 * request is declared lost, so it is never below any latency a
 * verified reply can show.
 */
PhaseSummary summarizePhase(const std::vector<RequestSample> &samples,
                            double missingMs);

/** Median of @p values (mean of the middle two for even sizes). */
double median(std::vector<double> values);

} // namespace perfbench

#endif // PERFBENCH_ACCOUNTING_HH
