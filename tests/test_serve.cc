/**
 * @file
 * Tests for the serving layer: the content-addressed ScenarioCache
 * (hit identity, LRU eviction, single-compile under concurrency) and
 * the SweepService (bit-identity with the mc:: entry points at 1/2/8
 * threads and under concurrent callers, cancellation, deadlines,
 * partial-result flagging).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "clocktree/builders.hh"
#include "layout/generators.hh"
#include "mc/resilience.hh"
#include "mc/sweeps.hh"
#include "obs/metrics.hh"
#include "serve/scenario_cache.hh"
#include "serve/sweep_service.hh"

namespace
{

using namespace vsync;

const unsigned kThreadCounts[] = {1, 2, 8};
const core::WireDelay kDelay{0.05, 0.005};

TEST(ScenarioCache, HitReturnsTheSameKernel)
{
    serve::ScenarioCache cache;
    const layout::Layout l = layout::meshLayout(4, 4);
    const auto tree = clocktree::buildHTreeGrid(l, 4, 4);

    const auto first = cache.get(l, tree);
    const auto second = cache.get(l, tree);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_GE(cache.compileMillis(), 0.0);
}

TEST(ScenarioCache, ContentAddressingIgnoresObjectIdentity)
{
    // Two scenarios built independently but identical in content share
    // one cache entry; a different scenario does not.
    serve::ScenarioCache cache;
    const layout::Layout a = layout::meshLayout(4, 4);
    const layout::Layout b = layout::meshLayout(4, 4);
    const auto treeA = clocktree::buildHTreeGrid(a, 4, 4);
    const auto treeB = clocktree::buildHTreeGrid(b, 4, 4);
    EXPECT_EQ(cache.get(a, treeA).get(), cache.get(b, treeB).get());
    EXPECT_EQ(cache.misses(), 1u);

    const layout::Layout c = layout::meshLayout(4, 5);
    const auto treeC = clocktree::buildHTreeGrid(c, 4, 5);
    EXPECT_NE(cache.get(c, treeC).get(), cache.get(a, treeA).get());
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(ScenarioCache, PairsOnlyAndTreeKernelsAreDistinctEntries)
{
    serve::ScenarioCache cache;
    const layout::Layout l = layout::meshLayout(3, 3);
    const auto tree = clocktree::buildHTreeGrid(l, 3, 3);
    const auto pairsOnly = cache.get(l);
    const auto withTree = cache.get(l, tree);
    EXPECT_NE(pairsOnly.get(), withTree.get());
    EXPECT_FALSE(pairsOnly->hasTree());
    EXPECT_TRUE(withTree->hasTree());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ScenarioCache, LruEvictsTheLeastRecentlyUsedEntry)
{
    serve::ScenarioCache::Config cfg;
    cfg.capacity = 2;
    serve::ScenarioCache cache(cfg);
    const layout::Layout a = layout::meshLayout(2, 2);
    const layout::Layout b = layout::meshLayout(2, 3);
    const layout::Layout c = layout::meshLayout(3, 2);

    const core::SkewKernel *ka = cache.get(a).get();
    cache.get(b);
    cache.get(a);              // touch a: b is now the coldest
    cache.get(c);              // evicts b
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.size(), 2u);

    EXPECT_EQ(cache.get(a).get(), ka); // a survived (hit)
    const auto hitsBefore = cache.hits();
    cache.get(b);              // b was evicted: recompile
    EXPECT_EQ(cache.hits(), hitsBefore);
    EXPECT_EQ(cache.misses(), 4u); // a, b, c, and b again
}

TEST(ScenarioCache, ConcurrentGetCompilesExactlyOnce)
{
    serve::ScenarioCache cache;
    const layout::Layout l = layout::meshLayout(8, 8);
    const auto tree = clocktree::buildHTreeGrid(l, 8, 8);

    constexpr int threads = 8;
    std::atomic<int> ready{0};
    std::vector<std::shared_ptr<const core::SkewKernel>> got(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            // Rendezvous so the gets really race.
            ready.fetch_add(1);
            while (ready.load() < threads)
                std::this_thread::yield();
            got[t] = cache.get(l, tree);
        });
    for (auto &th : pool)
        th.join();

    for (int t = 1; t < threads; ++t)
        EXPECT_EQ(got[t].get(), got[0].get());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(threads - 1));
}

TEST(SweepService, SkewBatchMatchesMcSweepAtAllThreadCounts)
{
    const layout::Layout l = layout::meshLayout(6, 6);
    const auto tree = clocktree::buildHTreeGrid(l, 6, 6);

    mc::McConfig cfgA;
    cfgA.seed = 11;
    cfgA.trials = 64;
    cfgA.grain = 4;
    mc::McConfig cfgB;
    cfgB.seed = 22;
    cfgB.trials = 37; // deliberately not a multiple of grain
    cfgB.grain = 16;

    const mc::McResult refA = mc::skewSweep(l, tree, kDelay, cfgA);
    const mc::McResult refB = mc::skewSweep(l, tree, kDelay, cfgB);

    for (const unsigned tc : kThreadCounts) {
        serve::ServiceConfig sc;
        sc.threads = tc;
        serve::SweepService svc(sc);
        const std::vector<serve::SweepRequest> batch = {
            serve::SkewRequest{&l, &tree, kDelay, cfgA},
            serve::SkewRequest{&l, &tree, kDelay, cfgB},
        };
        const serve::BatchOutcome out = svc.run(batch);
        ASSERT_EQ(out.outcomes.size(), 2u);
        EXPECT_FALSE(out.cancelled);
        EXPECT_FALSE(out.deadlineExpired);
        for (const auto &o : out.outcomes) {
            EXPECT_EQ(o.status, serve::RequestStatus::Complete);
            EXPECT_EQ(o.trialsDone, o.trialsRequested);
            EXPECT_TRUE(o.trialDone.empty());
        }
        EXPECT_TRUE(out.outcomes[0].skew.bitIdentical(refA)) << tc;
        EXPECT_TRUE(out.outcomes[1].skew.bitIdentical(refB)) << tc;
        // Same scenario twice: one compile, one hit.
        EXPECT_EQ(svc.cache().misses(), 1u);
        EXPECT_EQ(svc.cache().hits(), 1u);
    }
}

TEST(SweepService, ResilienceBatchMatchesMcAtAllThreadCounts)
{
    const layout::Layout l = layout::meshLayout(4, 4);
    mc::McConfig cfg;
    cfg.seed = 99;
    cfg.trials = 40;
    cfg.grain = 4;
    mc::ResilienceConfig rc;

    const mc::ResiliencePoint refTree = mc::resilienceAtRate(
        l, 4, 4, mc::DistributionKind::HTree, 0.05, rc, cfg);
    const mc::ResiliencePoint refGrid = mc::resilienceAtRate(
        l, 4, 4, mc::DistributionKind::TrixGrid, 0.05, rc, cfg);

    for (const unsigned tc : kThreadCounts) {
        serve::ServiceConfig sc;
        sc.threads = tc;
        serve::SweepService svc(sc);
        serve::ResilienceRequest tree;
        tree.layout = &l;
        tree.rows = 4;
        tree.cols = 4;
        tree.kind = mc::DistributionKind::HTree;
        tree.faultRate = 0.05;
        tree.rc = rc;
        tree.cfg = cfg;
        serve::ResilienceRequest grid = tree;
        grid.kind = mc::DistributionKind::TrixGrid;

        const serve::BatchOutcome out = svc.run({tree, grid});
        ASSERT_EQ(out.outcomes.size(), 2u);
        const auto &ot = out.outcomes[0].resilience;
        const auto &og = out.outcomes[1].resilience;
        EXPECT_TRUE(ot.maxCommSkew.bitIdentical(refTree.maxCommSkew))
            << tc;
        EXPECT_TRUE(
            ot.clockedFraction.bitIdentical(refTree.clockedFraction))
            << tc;
        EXPECT_EQ(ot.meanFaults, refTree.meanFaults) << tc;
        EXPECT_EQ(ot.faultRate, 0.05);
        EXPECT_TRUE(og.maxCommSkew.bitIdentical(refGrid.maxCommSkew))
            << tc;
        EXPECT_EQ(og.meanFaults, refGrid.meanFaults) << tc;
    }
}

TEST(SweepService, ResilienceShapeIsBuiltOncePerCachedDistribution)
{
    // Two H-tree requests of one shape at different fault rates: the
    // second builds no tree (one cache entry, a hit) and both match
    // the uncached sweep bit for bit. Evicting the entry frees the
    // distribution: nothing else keeps it alive.
    const layout::Layout l = layout::meshLayout(8, 8);
    mc::McConfig cfg;
    cfg.seed = 0xd157;
    cfg.trials = 20;
    cfg.grain = 8;
    const mc::ResilienceConfig rc;
    serve::ServiceConfig sc;
    sc.threads = 2;
    sc.cacheCapacity = 1;
    serve::SweepService svc(sc);
    serve::ResilienceRequest rq;
    rq.layout = &l;
    rq.rows = 8;
    rq.cols = 8;
    rq.kind = mc::DistributionKind::HTree;
    rq.rc = rc;
    rq.cfg = cfg;
    std::uint64_t hits = 0;
    for (const double rate : {0.02, 0.2}) {
        rq.faultRate = rate;
        const serve::BatchOutcome out = svc.run({rq});
        const mc::ResiliencePoint ref = mc::resilienceAtRate(
            l, 8, 8, mc::DistributionKind::HTree, rate, rc, cfg);
        const auto &got = out.outcomes.at(0).resilience;
        EXPECT_TRUE(got.maxCommSkew.bitIdentical(ref.maxCommSkew)) << rate;
        EXPECT_TRUE(got.clockedFraction.bitIdentical(ref.clockedFraction))
            << rate;
        EXPECT_EQ(got.meanFaults, ref.meanFaults) << rate;
        EXPECT_EQ(svc.cache().misses(), 1u) << rate;
        EXPECT_EQ(svc.cache().size(), 1u) << rate;
        EXPECT_EQ(svc.cache().hits(), hits++) << rate;
    }

    std::weak_ptr<const mc::ResilienceDistribution> held =
        svc.cache().distribution(l, 8, 8, mc::DistributionKind::HTree,
                                 rc.bufferSpacing);
    EXPECT_EQ(svc.cache().hits(), hits);
    EXPECT_FALSE(held.expired());
    rq.kind = mc::DistributionKind::TrixGrid; // another shape evicts it
    svc.run({rq});
    EXPECT_EQ(svc.cache().evictions(), 1u);
    EXPECT_TRUE(held.expired());
}

TEST(SweepService, ZeroDeadlineExpiresBeforeAnyTrial)
{
    const layout::Layout l = layout::meshLayout(4, 4);
    const auto tree = clocktree::buildHTreeGrid(l, 4, 4);
    mc::McConfig cfg;
    cfg.trials = 50;

    serve::SweepService svc;
    serve::BatchOptions opts;
    opts.deadlineSeconds = 0.0;
    const serve::BatchOutcome out =
        svc.run({serve::SkewRequest{&l, &tree, kDelay, cfg}}, opts);

    EXPECT_TRUE(out.deadlineExpired);
    EXPECT_FALSE(out.cancelled);
    EXPECT_EQ(out.outcomes[0].status, serve::RequestStatus::Partial);
    EXPECT_EQ(out.outcomes[0].trialsDone, 0u);
}

TEST(SweepService, DeadlinedPartialResultsMatchTheFullRunPrefix)
{
    // A batch too slow for its deadline must come back Partial with
    // every completed trial bit-identical to the full run -- partial
    // means "fewer trials", never "different trials". (A levelized
    // 6x6 trial takes ~10 us, so it takes this many to outlast 30 ms.)
    const layout::Layout l = layout::meshLayout(6, 6);
    mc::McConfig cfg;
    cfg.seed = 1234;
    cfg.trials = 20000;
    cfg.grain = 1;
    mc::ResilienceConfig rc;
    serve::ResilienceRequest rq;
    rq.layout = &l;
    rq.rows = 6;
    rq.cols = 6;
    rq.kind = mc::DistributionKind::HTree;
    rq.faultRate = 0.02;
    rq.rc = rc;
    rq.cfg = cfg;

    serve::ServiceConfig sc;
    sc.threads = 2;
    serve::SweepService svc(sc);
    serve::BatchOptions opts;
    opts.deadlineSeconds = 0.03;
    const serve::BatchOutcome out = svc.run({rq}, opts);
    const auto &o = out.outcomes[0];

    if (o.status == serve::RequestStatus::Complete) {
        // Machine fast enough to beat the deadline: nothing to check
        // beyond completeness (bit-identity is covered elsewhere).
        EXPECT_EQ(o.trialsDone, cfg.trials);
        return;
    }

    EXPECT_TRUE(out.deadlineExpired);
    EXPECT_LT(o.trialsDone, cfg.trials);
    ASSERT_EQ(o.trialDone.size(), cfg.trials);
    std::size_t done = 0;
    for (const auto d : o.trialDone)
        done += d;
    EXPECT_EQ(done, o.trialsDone);
    EXPECT_EQ(o.resilience.maxCommSkew.stat.count(), o.trialsDone);
    EXPECT_EQ(o.resilience.clockedFraction.stat.count(), o.trialsDone);

    const mc::ResiliencePoint full = mc::resilienceAtRate(
        l, 6, 6, mc::DistributionKind::HTree, 0.02, rc, cfg);
    for (std::size_t i = 0; i < cfg.trials; ++i) {
        if (!o.trialDone[i])
            continue;
        EXPECT_EQ(o.resilience.maxCommSkew.samples[i],
                  full.maxCommSkew.samples[i])
            << i;
        EXPECT_EQ(o.resilience.clockedFraction.samples[i],
                  full.clockedFraction.samples[i])
            << i;
    }
}

TEST(ScenarioCache, CapacityOneSequentialChurnEvictsInOrder)
{
    // The degenerate capacity: every distinct scenario evicts its
    // predecessor, in exactly insertion order, and the cache never
    // holds more than one entry.
    serve::ScenarioCache::Config cfg;
    cfg.capacity = 1;
    serve::ScenarioCache cache(cfg);

    const layout::Layout a = layout::meshLayout(1, 2);
    const layout::Layout b = layout::meshLayout(1, 3);

    cache.get(a);
    EXPECT_EQ(cache.evictions(), 0u);
    cache.get(b); // evicts a
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    cache.get(b); // resident: a hit, no churn
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.evictions(), 1u);
    cache.get(a); // evicted earlier: recompile, evicts b
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.evictions(), 2u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ScenarioCache, ConcurrentInsertStormAtCapacityOne)
{
    // Thrash a capacity-1 cache from many threads with distinct
    // scenarios: inserts race with evictions and with the
    // generation-tagged erase path. The cache must stay bounded, hand
    // every caller the kernel of *its* scenario, and keep its
    // counters consistent.
    serve::ScenarioCache::Config cfg;
    cfg.capacity = 1;
    serve::ScenarioCache cache(cfg);

    constexpr int threads = 8;
    constexpr int rounds = 6;
    std::vector<layout::Layout> layouts;
    for (int i = 0; i < threads; ++i)
        layouts.push_back(layout::meshLayout(1, 2 + i));

    std::atomic<int> ready{0};
    std::atomic<int> wrongKernels{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < threads)
                std::this_thread::yield();
            for (int r = 0; r < rounds; ++r) {
                // Rotate so threads collide on each other's entries.
                const layout::Layout &l =
                    layouts[(t + r) % threads];
                const auto kernel = cache.get(l);
                if (!kernel || kernel->cellCount() != l.size() ||
                    kernel->hasTree())
                    wrongKernels.fetch_add(1);
            }
        });
    for (auto &th : pool)
        th.join();

    EXPECT_EQ(wrongKernels.load(), 0);
    EXPECT_LE(cache.size(), 1u);
    // Every get is a hit or a miss, never both, never neither.
    EXPECT_EQ(cache.hits() + cache.misses(),
              static_cast<std::uint64_t>(threads * rounds));
    // Every miss inserted one entry; all but the survivors left
    // through the LRU bound (no compile failed, so the generation
    // erase path removed nothing).
    EXPECT_EQ(cache.evictions(), cache.misses() - cache.size());
}

TEST(SweepService, ExpiredDeadlineFailsFastWithoutCompiling)
{
    // The net:: front end maps "deadline spent in the admission
    // queue" to a non-positive budget, so this path must cost
    // nothing: no compile, no first chunk, full-size all-false mask.
    const layout::Layout l = layout::meshLayout(4, 4);
    const auto tree = clocktree::buildHTreeGrid(l, 4, 4);
    mc::McConfig cfg;
    cfg.trials = 50;

    for (const double deadline : {0.0, -3.5}) {
        serve::SweepService svc;
        serve::BatchOptions opts;
        opts.deadlineSeconds = deadline;
        const serve::BatchOutcome out =
            svc.run({serve::SkewRequest{&l, &tree, kDelay, cfg}},
                    opts);

        EXPECT_TRUE(out.deadlineExpired) << deadline;
        EXPECT_FALSE(out.cancelled) << deadline;
        EXPECT_EQ(svc.cache().misses(), 0u) << deadline;
        EXPECT_EQ(svc.cache().hits(), 0u) << deadline;
        const auto &o = out.outcomes[0];
        EXPECT_EQ(o.status, serve::RequestStatus::Partial) << deadline;
        EXPECT_EQ(o.trialsDone, 0u) << deadline;
        EXPECT_EQ(o.trialsRequested, 50u) << deadline;
        ASSERT_EQ(o.trialDone.size(), 50u) << deadline;
        for (const auto d : o.trialDone)
            EXPECT_EQ(d, 0);
        EXPECT_EQ(o.skew.stat.count(), 0u) << deadline;
    }
}

TEST(SweepService, CancelWhileIdleDoesNotPoisonTheNextRun)
{
    const layout::Layout l = layout::meshLayout(3, 3);
    const auto tree = clocktree::buildHTreeGrid(l, 3, 3);
    mc::McConfig cfg;
    cfg.trials = 16;

    serve::SweepService svc;
    svc.cancel(); // no batch in flight: must not affect the next one
    const serve::BatchOutcome out =
        svc.run({serve::SkewRequest{&l, &tree, kDelay, cfg}});
    EXPECT_FALSE(out.cancelled);
    EXPECT_EQ(out.outcomes[0].status, serve::RequestStatus::Complete);
}

TEST(SweepService, ExportsCacheAndBatchMetrics)
{
    obs::MetricsRegistry reg;
    const layout::Layout l = layout::meshLayout(4, 4);
    const auto tree = clocktree::buildHTreeGrid(l, 4, 4);
    mc::McConfig cfg;
    cfg.trials = 8;

    serve::ServiceConfig sc;
    sc.metrics = &reg;
    serve::SweepService svc(sc);
    svc.run({serve::SkewRequest{&l, &tree, kDelay, cfg},
             serve::SkewRequest{&l, &tree, kDelay, cfg}});

    EXPECT_EQ(reg.counter("serve.batch.requests").value(), 2u);
    EXPECT_EQ(reg.counter("serve.batch.trials_done").value(), 16u);
    EXPECT_EQ(reg.counter("serve.cache.misses").value(), 1u);
    EXPECT_EQ(reg.counter("serve.cache.hits").value(), 1u);
    EXPECT_EQ(reg.counter("serve.batch.cancelled").value(), 0u);
}

TEST(SweepService, ExportsResilienceFallbacksAndScalarNets)
{
    // A served 16x16 H-tree at rate 0.02 never falls back to desim,
    // sends some (trial, net) pairs down the levelized pass's
    // transition-list path, and counts the same pairs at 1 and 4
    // threads.
    const layout::Layout l = layout::meshLayout(16, 16);
    serve::ResilienceRequest rq;
    rq.layout = &l;
    rq.rows = 16;
    rq.cols = 16;
    rq.kind = mc::DistributionKind::HTree;
    rq.faultRate = 0.02;
    rq.cfg.seed = 0x5e12;
    rq.cfg.trials = 256;
    rq.cfg.grain = 64;
    std::uint64_t scalarAtOne = 0;
    for (const unsigned tc : {1u, 4u}) {
        obs::MetricsRegistry reg;
        serve::ServiceConfig sc;
        sc.threads = tc;
        sc.metrics = &reg;
        serve::SweepService svc(sc);
        const serve::BatchOutcome out = svc.run({rq});
        ASSERT_EQ(out.outcomes.at(0).trialsDone, 256u) << tc;
        const std::uint64_t scalar =
            reg.counter("mc.resilience.scalar_nets").value();
        EXPECT_EQ(reg.counter("mc.resilience.desim_fallbacks").value(), 0u)
            << tc;
        EXPECT_GT(scalar, 0u) << tc;
        if (tc == 1)
            scalarAtOne = scalar;
        EXPECT_EQ(scalar, scalarAtOne) << tc;
    }
}

TEST(SweepService, ExportsPoolUtilizationMetrics)
{
    // The ThreadPool's utilization flows through the PoolObserver
    // seam into "serve.pool.*": exact job/chunk counts, an active
    // count that returns to zero, and high-water marks.
    obs::MetricsRegistry reg;
    const layout::Layout l = layout::meshLayout(4, 4);
    const auto tree = clocktree::buildHTreeGrid(l, 4, 4);
    mc::McConfig cfg;
    cfg.trials = 8;
    cfg.grain = 2;

    serve::ServiceConfig sc;
    sc.threads = 2;
    sc.metrics = &reg;
    serve::SweepService svc(sc);
    svc.run({serve::SkewRequest{&l, &tree, kDelay, cfg},
             serve::SkewRequest{&l, &tree, kDelay, cfg}});

    // One parallelForRange per batch; its units are the grain-sized
    // trial slices of both requests: 2 * (8 / 2).
    EXPECT_EQ(reg.counter("serve.pool.jobs").value(), 1u);
    EXPECT_EQ(reg.counter("serve.pool.chunks").value(), 8u);
    EXPECT_EQ(reg.gauge("serve.pool.active_workers").value(), 0.0);
    EXPECT_GE(reg.gauge("serve.pool.active_workers_hwm").value(), 1.0);
    EXPECT_LE(reg.gauge("serve.pool.active_workers_hwm").value(), 2.0);
    // 8 chunks through a 2-wide pool: some chunk must have seen
    // others still waiting.
    EXPECT_GE(reg.gauge("serve.pool.queue_depth_hwm").value(), 1.0);
    EXPECT_LE(reg.gauge("serve.pool.queue_depth_hwm").value(), 7.0);
}

/** Bitwise equality of two outcomes of the same request. */
void
expectSameOutcome(const serve::RequestOutcome &got,
                  const serve::RequestOutcome &want)
{
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.trialsDone, want.trialsDone);
    EXPECT_EQ(got.trialDone, want.trialDone);
    EXPECT_TRUE(got.skew.bitIdentical(want.skew));
    EXPECT_TRUE(got.resilience.maxCommSkew.bitIdentical(
        want.resilience.maxCommSkew));
    EXPECT_TRUE(got.resilience.clockedFraction.bitIdentical(
        want.resilience.clockedFraction));
    EXPECT_EQ(got.resilience.meanFaults, want.resilience.meanFaults);
    EXPECT_EQ(got.faultSamples, want.faultSamples);
}

TEST(SweepService, ConcurrentRunsAreBitIdenticalToSerialRuns)
{
    // Three callers share one 2-thread service. Single-unit batches
    // run inline on their callers, multi-unit ones take turns on the
    // pool; every outcome must equal the serial run's, bit for bit.
    const layout::Layout l6 = layout::meshLayout(6, 6);
    const auto tree6 = clocktree::buildHTreeGrid(l6, 6, 6);
    const layout::Layout l4 = layout::meshLayout(4, 4);

    const auto skew = [&](std::uint64_t seed, std::size_t trials,
                          std::size_t grain) {
        mc::McConfig cfg;
        cfg.seed = seed;
        cfg.trials = trials;
        cfg.grain = grain;
        return serve::SweepRequest(
            serve::SkewRequest{&l6, &tree6, kDelay, cfg});
    };
    const auto resilience = [&](mc::DistributionKind kind,
                                std::uint64_t seed, std::size_t trials,
                                std::size_t grain) {
        serve::ResilienceRequest r;
        r.layout = &l4;
        r.rows = 4;
        r.cols = 4;
        r.kind = kind;
        r.faultRate = 0.1;
        r.cfg.seed = seed;
        r.cfg.trials = trials;
        r.cfg.grain = grain;
        return serve::SweepRequest(r);
    };
    const std::vector<std::vector<serve::SweepRequest>> batches = {
        {skew(1, 24, 24)}, // one unit
        {resilience(mc::DistributionKind::TrixGrid, 2, 12, 12)},
        {resilience(mc::DistributionKind::HTree, 3, 12, 16)},
        {skew(4, 40, 8), resilience(mc::DistributionKind::TrixGrid, 5,
                                    10, 3)}, // several units
        {resilience(mc::DistributionKind::HTree, 6, 9, 2)},
        {skew(7, 33, 5)},
    };

    std::vector<serve::BatchOutcome> serial;
    {
        serve::SweepService svc(serve::ServiceConfig{1, 32, nullptr});
        for (const auto &b : batches)
            serial.push_back(svc.run(b));
    }

    constexpr int callers = 3;
    constexpr int rounds = 4;
    serve::SweepService svc(serve::ServiceConfig{2, 32, nullptr});
    std::vector<std::vector<serve::BatchOutcome>> got(callers);
    std::vector<std::thread> threads;
    for (int c = 0; c < callers; ++c) {
        threads.emplace_back([&, c] {
            // Each caller walks the batches from its own offset, so
            // different batches overlap in every round.
            for (int k = 0; k < rounds * static_cast<int>(batches.size());
                 ++k)
                got[c].push_back(
                    svc.run(batches[(c + k) % batches.size()]));
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (int c = 0; c < callers; ++c) {
        ASSERT_EQ(got[c].size(), rounds * batches.size());
        for (std::size_t k = 0; k < got[c].size(); ++k) {
            const serve::BatchOutcome &want =
                serial[(c + k) % batches.size()];
            EXPECT_FALSE(got[c][k].cancelled);
            EXPECT_FALSE(got[c][k].deadlineExpired);
            ASSERT_EQ(got[c][k].outcomes.size(), want.outcomes.size());
            for (std::size_t r = 0; r < want.outcomes.size(); ++r) {
                SCOPED_TRACE(testing::Message()
                             << "caller " << c << " run " << k
                             << " request " << r);
                EXPECT_EQ(got[c][k].outcomes[r].status,
                          serve::RequestStatus::Complete);
                expectSameOutcome(got[c][k].outcomes[r],
                                  want.outcomes[r]);
            }
        }
    }
}

TEST(SweepService, CancelStopsEveryConcurrentRunAndLaterRunsComplete)
{
    // Three long multi-unit batches run at once; one cancel() must
    // stop all of them at a unit boundary, and a batch started after
    // the cancel must run to completion. Each batch has thousands of
    // units, far more than can finish between its compile and the
    // cancel, and the cancel is sent only once all three have
    // compiled (three cache lookups), so no timing is assumed.
    const layout::Layout l = layout::meshLayout(6, 6);
    serve::ResilienceRequest rq;
    rq.layout = &l;
    rq.rows = 6;
    rq.cols = 6;
    rq.kind = mc::DistributionKind::TrixGrid;
    rq.faultRate = 0.05;
    rq.cfg.trials = 80000;
    rq.cfg.grain = 16; // 5000 units

    for (const unsigned width : {1u, 2u}) {
        serve::SweepService svc(serve::ServiceConfig{width, 32, nullptr});
        std::vector<serve::BatchOutcome> outs(3);
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < outs.size(); ++c) {
            threads.emplace_back([&, c] {
                serve::ResilienceRequest mine = rq;
                mine.cfg.seed = 100 + c;
                outs[c] = svc.run({mine});
            });
        }
        while (svc.cache().hits() + svc.cache().misses() < outs.size())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        svc.cancel();
        for (std::thread &t : threads)
            t.join();

        for (std::size_t c = 0; c < outs.size(); ++c) {
            SCOPED_TRACE(testing::Message()
                         << "width " << width << " caller " << c);
            EXPECT_TRUE(outs[c].cancelled);
            const serve::RequestOutcome &o = outs[c].outcomes[0];
            EXPECT_EQ(o.status, serve::RequestStatus::Partial);
            EXPECT_LT(o.trialsDone, o.trialsRequested);
            ASSERT_EQ(o.trialDone.size(), o.trialsRequested);
        }

        serve::ResilienceRequest small = rq;
        small.cfg.trials = 32;
        small.cfg.grain = 8;
        const serve::BatchOutcome after = svc.run({small});
        EXPECT_FALSE(after.cancelled) << width;
        EXPECT_EQ(after.outcomes[0].status,
                  serve::RequestStatus::Complete)
            << width;
    }
}

} // namespace
