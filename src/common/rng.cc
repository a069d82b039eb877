#include "common/rng.hh"

#include <cmath>
#include <cstring>

#include "common/logging.hh"

namespace vsync
{

using detail::rotl64;

Rng::Rng(std::uint64_t seed)
    : cachedNormal(0.0), hasCachedNormal(false), seedValue(seed)
{
    SplitMix64 sm(seed);
    for (auto &word : s)
        word = sm.next();
}

std::uint64_t
Rng::next()
{
    ++drawCount;
    const std::uint64_t result = rotl64(s[0] + s[3], 23) + s[0];
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl64(s[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits give a uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    VSYNC_ASSERT(lo <= hi, "bad uniform range [%g, %g)", lo, hi);
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    VSYNC_ASSERT(n > 0, "uniformInt needs n > 0");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~0ULL - (~0ULL % n);
    std::uint64_t x;
    do {
        x = next();
    } while (x >= limit);
    return x % n;
}

double
Rng::normal()
{
    if (hasCachedNormal) {
        hasCachedNormal = false;
        return cachedNormal;
    }
    // Box-Muller transform; u1 is kept away from zero so log is finite.
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal = r * std::sin(theta);
    hasCachedNormal = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

double
Rng::exponential(double mean)
{
    VSYNC_ASSERT(mean > 0, "exponential needs mean > 0, got %g", mean);
    double u;
    do {
        u = uniform();
    } while (u <= 1e-300);
    return -mean * std::log(u);
}

Rng
Rng::forTrial(std::uint64_t seed, std::uint64_t trial)
{
    // Two SplitMix64 passes: the first whitens the user seed, the
    // second folds in the trial counter. Consecutive trial indices end
    // up in unrelated regions of the xoshiro seed space.
    SplitMix64 whiten(seed);
    const std::uint64_t base = whiten.next();
    SplitMix64 mix(base ^
                   (trial * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL));
    return Rng(mix.next());
}

Rng
Rng::deriveStream(std::uint64_t salt) const
{
    // Mix the original seed with the salt through SplitMix64 so that
    // derived streams do not depend on how many draws were consumed.
    SplitMix64 sm(seedValue ^ (salt * 0x9e3779b97f4a7c15ULL + 0x1234567ULL));
    std::uint64_t derived = sm.next() ^ rotl64(sm.next(), 13);
    return Rng(derived);
}

VSYNC_LANE_CLONES void
RngLanes8::fillUniform(double lo, double hi, std::span<double> out)
{
    VSYNC_ASSERT(lo <= hi, "bad uniform range [%g, %g)", lo, hi);
    VSYNC_ASSERT(out.size() % width == 0,
                 "%zu slots is not a whole number of %zu-lane rows",
                 out.size(), width);
    RngLanes8 g = *this; // a local copy stays in registers
    F64x8 row;
    for (std::size_t k = 0; k < out.size(); k += width) {
        g.uniform(lo, hi, row);
        std::memcpy(out.data() + k, &row, sizeof row);
    }
    *this = g;
}

namespace
{

// One version per VSYNC_LANE_CLONES clone, picked by the same
// load-time CPU check, so the name is that of the clone that runs.
#if VSYNC_HAS_LANE_CLONES
__attribute__((target("default"))) const char *
cloneName()
{
    return "default";
}

__attribute__((target("arch=x86-64-v4"))) const char *
cloneName()
{
    return "x86-64-v4";
}
#else
const char *
cloneName()
{
    return "default";
}
#endif

} // namespace

const char *
RngLanes8::isa()
{
    return cloneName();
}

} // namespace vsync
