#include "fault/fault_plan.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"

namespace vsync::fault
{

std::string
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::DeadBuffer:
        return "dead-buffer";
      case FaultKind::DelayDrift:
        return "delay-drift";
      case FaultKind::StuckAtNet:
        return "stuck-at-net";
      case FaultKind::TransientGlitch:
        return "transient-glitch";
      case FaultKind::SeveredHandshakeWire:
        return "severed-handshake-wire";
    }
    return "?";
}

FaultRates
FaultRates::uniform(double rate)
{
    VSYNC_ASSERT(rate >= 0.0 && rate <= 1.0, "bad fault rate %g", rate);
    FaultRates r;
    r.deadBuffer = rate;
    r.delayDrift = rate;
    r.stuckAtNet = rate;
    r.transientGlitch = rate;
    r.severedHandshakeWire = rate;
    return r;
}

FaultRates
FaultRates::mixed(double rate)
{
    VSYNC_ASSERT(rate >= 0.0 && rate <= 1.0, "bad fault rate %g", rate);
    FaultRates r;
    r.deadBuffer = rate;
    r.delayDrift = rate / 2.0;
    r.stuckAtNet = rate / 4.0;
    r.transientGlitch = rate / 4.0;
    r.severedHandshakeWire = rate;
    return r;
}

namespace
{

/** Sites a kind's Bernoulli pass ranges over. */
std::size_t
sitesOf(FaultKind kind, const FaultUniverse &u)
{
    switch (kind) {
      case FaultKind::DeadBuffer:
      case FaultKind::DelayDrift:
        return u.bufferSites;
      case FaultKind::StuckAtNet:
      case FaultKind::TransientGlitch:
        return u.clockNets;
      case FaultKind::SeveredHandshakeWire:
        return u.handshakeWires;
    }
    return 0;
}

double
rateOf(FaultKind kind, const FaultRates &r)
{
    switch (kind) {
      case FaultKind::DeadBuffer:
        return r.deadBuffer;
      case FaultKind::DelayDrift:
        return r.delayDrift;
      case FaultKind::StuckAtNet:
        return r.stuckAtNet;
      case FaultKind::TransientGlitch:
        return r.transientGlitch;
      case FaultKind::SeveredHandshakeWire:
        return r.severedHandshakeWire;
    }
    return 0.0;
}

constexpr std::size_t laneCount = RngLanes8::width;

static_assert(std::endian::native == std::endian::little,
              "nextHit reads eight hit rows as one word, row r in byte r");

/**
 * Rows [0, rows) of eight lanes' raw uniform() draws: draws[r * 8 + j]
 * is lane j's r-th draw, and bit j of hits[r] is set when it is below
 * @p rate (bernoulli(rate)'s test). The fill and the compare sit in
 * one cloned function; outside a clone the 64-byte vectors are
 * emulated and lose to scalar draws.
 */
VSYNC_LANE_CLONES void
fillSiteRows(std::span<Rng> lanes, double rate, std::size_t rows,
             double *draws, std::uint8_t *hits)
{
    using U64x8 = RngLanes8::U64x8;
    using U64x4 = std::uint64_t __attribute__((vector_size(32)));
    using U64x2 = std::uint64_t __attribute__((vector_size(16)));
    RngLanes8 gen(lanes);
    const RngLanes8::F64x8 bound = RngLanes8::F64x8{} + rate;
    const U64x8 laneBit = {1, 2, 4, 8, 16, 32, 64, 128};
    for (std::size_t r = 0; r < rows; ++r) {
        // uniform(0, 1) is 0 + 1 * u: bitwise the raw uniform().
        RngLanes8::F64x8 row;
        gen.uniform(0.0, 1.0, row);
        std::memcpy(draws + r * laneCount, &row, sizeof row);
        // Lane j's compare is all ones or zero: keep bit j, then OR
        // the eight lanes together in three halving steps.
        const U64x8 bits = reinterpret_cast<U64x8>(row < bound) & laneBit;
        const U64x4 four = __builtin_shufflevector(bits, bits, 0, 1, 2, 3) |
                           __builtin_shufflevector(bits, bits, 4, 5, 6, 7);
        const U64x2 two = __builtin_shufflevector(four, four, 0, 1) |
                          __builtin_shufflevector(four, four, 2, 3);
        hits[r] = static_cast<std::uint8_t>(two[0] | two[1]);
    }
    gen.storeTo(lanes);
}

/** The first row at or after @p from (< rows) with lane @p j's hit bit,
 *  or @p rows; scans the zero-padded hit bytes a word at a time. */
std::size_t
nextHit(const std::uint8_t *hits, std::size_t from, std::size_t rows,
        std::size_t j)
{
    const std::uint64_t lane = 0x0101010101010101ull << j;
    std::size_t base = from & ~std::size_t{7};
    std::uint64_t word;
    std::memcpy(&word, hits + base, sizeof word);
    word &= lane & (~std::uint64_t{0} << (8 * (from - base)));
    while (word == 0) {
        base += 8;
        if (base >= rows)
            return rows;
        std::memcpy(&word, hits + base, sizeof word);
        word &= lane;
    }
    return base + static_cast<std::size_t>(std::countr_zero(word)) / 8;
}

/** Rng::uniform(lo, hi)'s expression on a raw uniform() draw. */
double
uniformOf(double lo, double hi, double u)
{
    return lo + (hi - lo) * u;
}

/**
 * Lane @p j's faults of one kind, appended to @p out in site order:
 * generate()'s loop, fed from the lane's buffered draws and then from
 * @p stream, which fillSiteRows left just past them.
 */
void
walkLane(FaultKind kind, double rate, const FaultRates &rates,
         std::size_t sites, const PlanLaneScratch &scratch, std::size_t j,
         Rng &stream, std::vector<Fault> &out)
{
    std::size_t c = 0; // the lane's next draw; buffered while c < sites
    const auto draw = [&] {
        if (c < sites)
            return scratch.draws[c++ * laneCount + j];
        ++c;
        return stream.uniform();
    };
    const auto hit = [&](std::size_t site) {
        Fault f;
        f.kind = kind;
        f.site = site;
        f.onset = rates.onsetWindow > 0.0
                      ? uniformOf(0.0, rates.onsetWindow, draw())
                      : 0.0;
        switch (kind) {
          case FaultKind::DelayDrift:
            f.magnitude =
                uniformOf(rates.driftFactorLo, rates.driftFactorHi, draw());
            break;
          case FaultKind::TransientGlitch:
            f.magnitude = rates.glitchWidth;
            break;
          case FaultKind::StuckAtNet:
            f.stuckHigh = draw() < 0.5;
            break;
          default:
            break;
        }
        out.push_back(f);
    };
    // While a site's Bernoulli draw is buffered, jump hit to hit; the
    // rows skipped are misses, one site each.
    std::size_t site = 0;
    while (c < sites) {
        const std::size_t r = nextHit(scratch.hits.data(), c, sites, j);
        site += r - c;
        c = r;
        if (r == sites)
            break;
        ++c;
        hit(site++);
    }
    // Hits' extra draws used up the buffer early: the rest as generate().
    for (; site < sites; ++site)
        if (draw() < rate)
            hit(site);
}

} // namespace

FaultPlan
FaultPlan::generate(const FaultUniverse &universe, const FaultRates &rates,
                    Rng &rng)
{
    FaultPlan plan;
    for (int k = 0; k < faultKindCount; ++k) {
        const FaultKind kind = static_cast<FaultKind>(k);
        const double rate = rateOf(kind, rates);
        const std::size_t sites = sitesOf(kind, universe);
        // Every kind consumes its own substream so one kind's rate
        // never perturbs another kind's draws.
        Rng stream = rng.deriveStream(static_cast<std::uint64_t>(k));
        if (rate <= 0.0 || sites == 0)
            continue;
        for (std::size_t s = 0; s < sites; ++s) {
            if (!stream.bernoulli(rate))
                continue;
            Fault f;
            f.kind = kind;
            f.site = s;
            f.onset = rates.onsetWindow > 0.0
                          ? stream.uniform(0.0, rates.onsetWindow)
                          : 0.0;
            switch (kind) {
              case FaultKind::DelayDrift:
                f.magnitude = stream.uniform(rates.driftFactorLo,
                                             rates.driftFactorHi);
                break;
              case FaultKind::TransientGlitch:
                f.magnitude = rates.glitchWidth;
                break;
              case FaultKind::StuckAtNet:
                f.stuckHigh = stream.bernoulli(0.5);
                break;
              default:
                break;
            }
            plan.list.push_back(f);
        }
        plan.drawCount += stream.draws();
    }
    return plan;
}

void
FaultPlan::generateBlock(const FaultUniverse &universe,
                         const FaultRates &rates, std::span<const Rng> rngs,
                         std::span<FaultPlan> plans, PlanLaneScratch &scratch)
{
    const std::size_t w = rngs.size();
    VSYNC_ASSERT(w >= 1 && w <= laneCount && plans.size() == w,
                 "%zu streams and %zu plans; 1 to %zu of each needed", w,
                 plans.size(), laneCount);
    for (FaultPlan &p : plans) {
        p.list.clear(); // keeps its capacity for the next block
        p.drawCount = 0;
    }
    std::array<Rng, laneCount> streams;
    for (int k = 0; k < faultKindCount; ++k) {
        const FaultKind kind = static_cast<FaultKind>(k);
        const double rate = rateOf(kind, rates);
        const std::size_t sites = sitesOf(kind, universe);
        if (rate <= 0.0 || sites == 0)
            continue;
        // Padding lanes repeat the last trial's stream; dropped below.
        for (std::size_t j = 0; j < laneCount; ++j)
            streams[j] = rngs[std::min(j, w - 1)].deriveStream(
                static_cast<std::uint64_t>(k));
        scratch.draws.resize(sites * laneCount);
        scratch.hits.assign((sites + 7) & ~std::size_t{7}, 0);
        fillSiteRows(streams, rate, sites, scratch.draws.data(),
                     scratch.hits.data());
        for (std::size_t j = 0; j < w; ++j) {
            walkLane(kind, rate, rates, sites, scratch, j, streams[j],
                     plans[j].list);
            plans[j].drawCount += streams[j].draws();
        }
    }
}

FaultPlan
FaultPlan::forTrial(const FaultUniverse &universe, const FaultRates &rates,
                    std::uint64_t seed, std::uint64_t trial)
{
    Rng rng = Rng::forTrial(seed, trial);
    return generate(universe, rates, rng);
}

FaultPlan
FaultPlan::singleDeadBuffer(std::size_t site, Time onset)
{
    FaultPlan plan;
    plan.list.push_back({FaultKind::DeadBuffer, site, onset, 1.0, false});
    return plan;
}

FaultPlan
FaultPlan::singleSeveredWire(std::size_t wire, Time onset)
{
    FaultPlan plan;
    plan.list.push_back(
        {FaultKind::SeveredHandshakeWire, wire, onset, 1.0, false});
    return plan;
}

std::size_t
FaultPlan::count(FaultKind kind) const
{
    return static_cast<std::size_t>(std::count_if(
        list.begin(), list.end(),
        [kind](const Fault &f) { return f.kind == kind; }));
}

bool
FaultPlan::operator==(const FaultPlan &other) const
{
    if (list.size() != other.list.size())
        return false;
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Fault &a = list[i];
        const Fault &b = other.list[i];
        if (a.kind != b.kind || a.site != b.site || a.onset != b.onset ||
            a.magnitude != b.magnitude || a.stuckHigh != b.stuckHigh)
            return false;
    }
    return true;
}

} // namespace vsync::fault
