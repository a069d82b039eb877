/**
 * @file
 * Checks of the benchmark's own accounting on synthetic outcomes:
 * due-time and lag arithmetic, percentiles with failures counted as
 * missing the limit, and the failure fraction and goodput.
 *
 * Plain checks that hold in every build type; exit status 1 on any
 * failure.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "accounting.hh"

namespace
{

using namespace perfbench;

int failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
        ++failures;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

RequestSample
verified(double due, double sent, double done)
{
    return RequestSample{due, sent, done, Fate::Verified};
}

void
testDueTimes()
{
    CHECK(dueOffsetUs(0, 1000.0) == 0.0);
    CHECK(near(dueOffsetUs(1, 1000.0), 1000.0));
    CHECK(near(dueOffsetUs(4000, 4000.0), 1e6));
    // Index-derived, so the millionth slot has not drifted.
    CHECK(near(dueOffsetUs(1000000, 3000.0), 1e6 / 3.0 * 1e3));
}

void
testQuantile()
{
    CHECK(quantile({}, 0.5) == 0.0);
    CHECK(quantile({7.0}, 0.99) == 7.0);
    // Nearest rank: the ceil(q * n)-th smallest.
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    CHECK(quantile(v, 0.50) == 50.0);
    CHECK(quantile(v, 0.99) == 99.0);
    CHECK(quantile(v, 1.00) == 100.0);
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void
testLatencyFromDueAndLag()
{
    // Sent 300 us late, answered 500 us after sending: 0.8 ms from due.
    const std::vector<RequestSample> s = {verified(1000, 1300, 1800)};
    const PhaseSummary p = summarizePhase(s, 5000.0);
    CHECK(near(p.p50Ms, 0.8));
    CHECK(near(p.lagP99Ms, 0.3));
}

void
testFailuresMissTheLimit()
{
    // 98 fast verified replies, one shed, one lost: the p99 rank (99th
    // of 100) lands on a failure, which counts as missing (5000 ms),
    // although every reply that did arrive took 1 ms.
    std::vector<RequestSample> s;
    for (int i = 0; i < 98; ++i)
        s.push_back(verified(i * 1000.0, i * 1000.0, i * 1000.0 + 1000.0));
    s.push_back(RequestSample{98000, 98000, 98100, Fate::Shed});
    s.push_back(RequestSample{99000, 99000, 0, Fate::Failed});
    const PhaseSummary p = summarizePhase(s, 5000.0);
    CHECK(p.attempted == 100);
    CHECK(p.verified == 98 && p.shed == 1 && p.failed == 1);
    CHECK(near(p.p50Ms, 1.0));
    CHECK(near(p.p99Ms, 5000.0));
    CHECK(near(p.failedFrac, 0.02));

    // With one failure in 100 the p99 is still a real reply.
    s.pop_back();
    s.push_back(verified(99000, 99000, 100000));
    const PhaseSummary q = summarizePhase(s, 5000.0);
    CHECK(near(q.p99Ms, 1.0));
    CHECK(near(q.failedFrac, 0.01));
}

void
testGoodput()
{
    // 3 verified replies over the span from the first due time (0) to
    // the last verified reply (1.5 s); the shed one does not count.
    const std::vector<RequestSample> s = {
        verified(0, 0, 200000), verified(500000, 500000, 900000),
        RequestSample{600000, 600000, 2500000, Fate::Shed},
        verified(1000000, 1000000, 1500000)};
    const PhaseSummary p = summarizePhase(s, 5000.0);
    CHECK(near(p.goodputRps, 2.0));
    CHECK(near(p.failedFrac, 0.25));

    // Nothing verified: no goodput, everything failed.
    const std::vector<RequestSample> none = {
        RequestSample{0, 0, 0, Fate::Failed}};
    const PhaseSummary z = summarizePhase(none, 5000.0);
    CHECK(z.goodputRps == 0.0 && z.failedFrac == 1.0);
    CHECK(summarizePhase({}, 5000.0).attempted == 0);
}

} // namespace

int
main()
{
    testDueTimes();
    testQuantile();
    testLatencyFromDueAndLag();
    testFailuresMissTheLimit();
    testGoodput();
    if (failures == 0)
        std::printf("perfbench accounting: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
