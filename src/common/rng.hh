/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in vlsisync (wire delay variation, per-chip
 * process spread, self-timed service times) flows through Rng so that
 * every experiment is reproducible from a single 64-bit seed. The core
 * generator is xoshiro256++ seeded via SplitMix64, which is small, fast
 * and has no measurable bias for the volumes used here.
 */

#ifndef VSYNC_COMMON_RNG_HH
#define VSYNC_COMMON_RNG_HH

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/logging.hh"

namespace vsync
{

namespace detail
{

/** Left-rotate, xoshiro's building block (shared by the scalar step in
 *  rng.cc and the inlined bulk fills below). */
inline constexpr std::uint64_t
rotl64(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace detail

/**
 * Builds the function it marks twice, once for x86-64-v4 (AVX-512) and
 * once for the portable default, and picks one at load time from the
 * host's CPU. The code is written once: 8-wide GCC vector arithmetic
 * lowers to single zmm instructions in the v4 clone and to SSE2 pairs
 * in the default one, with identical results (src/ builds with
 * -ffp-contract=off, so neither clone fuses a*b+c). ThreadSanitizer
 * instruments the load-time resolver, which then runs before the TSan
 * runtime exists and crashes, so TSan builds get the default clone.
 */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define VSYNC_HAS_LANE_CLONES 1
#define VSYNC_LANE_CLONES \
    __attribute__((target_clones("arch=x86-64-v4", "default")))
#else
#define VSYNC_HAS_LANE_CLONES 0
#define VSYNC_LANE_CLONES
#endif

/**
 * SplitMix64 generator, used to expand a single seed into a full state
 * vector and as a cheap standalone stream when quality demands are low.
 */
class SplitMix64
{
  public:
    /** Construct from a 64-bit seed. */
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Produce the next 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * xoshiro256++ pseudo-random generator with convenience distributions.
 *
 * Not thread safe; create one instance per logical random stream. Streams
 * for sub-experiments should be derived with deriveStream() so that adding
 * draws to one stream never perturbs another.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /**
     * Raw 64-bit values drawn so far (every distribution funnels
     * through next(), so this counts the stream's total consumption --
     * the observability layer's per-sweep "RNG draws" metric).
     */
    std::uint64_t draws() const { return drawCount; }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /**
     * Fill @p out with out.size() consecutive uniform(lo, hi) draws.
     *
     * Produces the exact draw sequence (and draws() accounting) of
     * calling uniform(lo, hi) once per slot, but with the xoshiro
     * state hoisted into registers for the whole span -- the scalar
     * path pays two non-inlined calls and a counter increment per
     * draw, which dominates tight sampling loops. This is the bulk
     * feed of SkewKernel::arrivalsBlock's generic lane loop (the
     * eight-lane path draws through RngLanes8 below).
     */
    void fillUniform(double lo, double hi, std::span<double> out);

    /**
     * Strided variant: writes count draws to out[0], out[stride],
     * ..., out[(count - 1) * stride]. @pre stride >= 1. Used to fill
     * one lane's column of a lane-major draw matrix; the draw
     * sequence is identical to the contiguous form.
     */
    void fillUniform(double lo, double hi, double *out,
                     std::size_t count, std::size_t stride);

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal variate (Box-Muller, cached pair). */
    double normal();

    /** Normal variate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Fill @p out with out.size() consecutive normal() draws:
     * bit-identical to calling normal() per slot, including the
     * Box-Muller cached-pair interaction -- a pair cached by an
     * earlier scalar normal() is consumed first, and a trailing
     * unpaired variate is cached for the next call, scalar or bulk.
     */
    void fillNormal(std::span<double> out);

    /** As fillNormal(out) with each draw mapped through
     *  mean + stddev * z, matching normal(mean, stddev) bitwise. */
    void fillNormal(double mean, double stddev, std::span<double> out);

    /** Bernoulli trial: true with probability p. */
    bool bernoulli(double p);

    /** Exponential variate with the given mean. @pre mean > 0. */
    double exponential(double mean);

    /**
     * Derive an independent child stream.
     *
     * @param salt distinguishes sibling streams derived from this one.
     * @return a generator whose sequence is uncorrelated with this one.
     */
    Rng deriveStream(std::uint64_t salt) const;

    /**
     * Counter-based substream derivation: the independent stream for
     * trial @p trial of the experiment seeded with @p seed.
     *
     * This is the Monte-Carlo engine's determinism contract: the stream
     * is a pure function of (seed, trial) — no shared generator state,
     * no dependence on which thread runs the trial or in what order —
     * so a parallel sweep is bit-identical to a serial one.
     */
    static Rng forTrial(std::uint64_t seed, std::uint64_t trial);

  private:
    friend class RngLanes8;

    std::array<std::uint64_t, 4> s;
    double cachedNormal;
    bool hasCachedNormal;
    std::uint64_t seedValue;
    std::uint64_t drawCount = 0;
};

inline void
Rng::fillUniform(double lo, double hi, double *out, std::size_t count,
                 std::size_t stride)
{
    VSYNC_ASSERT(lo <= hi, "bad uniform range [%g, %g)", lo, hi);
    VSYNC_ASSERT(stride >= 1, "fillUniform needs stride >= 1");
    // Local copies keep the generator state in registers across the
    // whole span; the scalar uniform(lo, hi) performs the identical
    // arithmetic (same expression shapes), so the two paths agree bit
    // for bit draw by draw.
    std::uint64_t s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3];
    const double scale = hi - lo;
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t r = detail::rotl64(s0 + s3, 23) + s0;
        const std::uint64_t t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = detail::rotl64(s3, 45);
        out[i * stride] =
            lo + scale * (static_cast<double>(r >> 11) * 0x1.0p-53);
    }
    s = {s0, s1, s2, s3};
    drawCount += count;
}

inline void
Rng::fillUniform(double lo, double hi, std::span<double> out)
{
    fillUniform(lo, hi, out.data(), out.size(), 1);
}

inline void
Rng::fillNormal(std::span<double> out)
{
    std::size_t i = 0;
    const std::size_t n = out.size();
    if (hasCachedNormal && i < n) {
        hasCachedNormal = false;
        out[i++] = cachedNormal;
    }
    while (i < n) {
        // One Box-Muller round, spelled exactly as normal(): cos first,
        // sin second; an unpaired sin is cached, never dropped.
        double u1;
        do {
            u1 = uniform();
        } while (u1 <= 1e-300);
        const double u2 = uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 2.0 * M_PI * u2;
        const double first = r * std::cos(theta);
        const double second = r * std::sin(theta);
        out[i++] = first;
        if (i < n) {
            out[i++] = second;
        } else {
            cachedNormal = second;
            hasCachedNormal = true;
        }
    }
}

inline void
Rng::fillNormal(double mean, double stddev, std::span<double> out)
{
    fillNormal(out);
    for (double &z : out)
        z = mean + stddev * z;
}

/**
 * Eight Rng streams stepped in lockstep: xoshiro256++ with each of its
 * four state words held as an 8-wide vector, lane j being stream j.
 *
 * Lane j's draws are bitwise the scalar Rng::uniform(lo, hi) sequence
 * of the Rng it was loaded from, and storeTo() hands that Rng back its
 * advanced state and draws() count, so a run can switch between lanes
 * and scalar draws without a single bit changing. The step functions
 * are inline so that they compile into the VSYNC_LANE_CLONES caller
 * they are used from (SkewKernel::arrivalsBlock's eight-lane path,
 * FaultPlan::generateBlock's site rows); fillUniform() is the one
 * cloned entry of its own.
 */
class RngLanes8
{
  public:
    /** Streams per generator. */
    static constexpr std::size_t width = 8;

    using U64x8 = std::uint64_t __attribute__((vector_size(64)));
    using F64x8 = double __attribute__((vector_size(64)));

    /** Load the states of lanes[0..8). @pre lanes.size() == 8. */
    [[gnu::always_inline]] explicit RngLanes8(std::span<const Rng> lanes)
    {
        VSYNC_ASSERT(lanes.size() == width, "%zu lanes, %zu needed",
                     lanes.size(), width);
        for (std::size_t j = 0; j < width; ++j) {
            s0[j] = lanes[j].s[0];
            s1[j] = lanes[j].s[1];
            s2[j] = lanes[j].s[2];
            s3[j] = lanes[j].s[3];
        }
    }

    /** One draw per lane: out[j] is bitwise what lane j's scalar
     *  uniform(lo, hi) would return next. */
    [[gnu::always_inline]] void
    uniform(double lo, double hi, F64x8 &out)
    {
        // The scalar next() and uniform() expressions, lane-wise.
        // r >> 11 < 2^53, so the signed conversion (one instruction
        // on AVX-512) is exact, as the scalar unsigned one is.
        const U64x8 sum = s0 + s3;
        const U64x8 r = ((sum << 23) | (sum >> 41)) + s0;
        const U64x8 t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = (s3 << 45) | (s3 >> 19);
        using I64x8 = std::int64_t __attribute__((vector_size(64)));
        const I64x8 bits = __builtin_convertvector(r >> 11, I64x8);
        const F64x8 u = __builtin_convertvector(bits, F64x8) * 0x1.0p-53;
        out = lo + (hi - lo) * u;
        ++drawn;
    }

    /** Store every lane's state back into lanes[j] and add the draws
     *  taken to its draws() count. @pre lanes.size() == 8. */
    [[gnu::always_inline]] void
    storeTo(std::span<Rng> lanes) const
    {
        VSYNC_ASSERT(lanes.size() == width, "%zu lanes, %zu needed",
                     lanes.size(), width);
        for (std::size_t j = 0; j < width; ++j) {
            lanes[j].s = {s0[j], s1[j], s2[j], s3[j]};
            lanes[j].drawCount += drawn;
        }
    }

    /**
     * out.size() / 8 draws per lane, draw-major: out[k * 8 + j] is
     * lane j's k-th uniform(lo, hi). @pre out.size() % 8 == 0. The
     * bulk form: a resilience block's wire delays, and the generator's
     * own throughput measure; defined with VSYNC_LANE_CLONES in rng.cc.
     */
    void fillUniform(double lo, double hi, std::span<double> out);

    /** The clone VSYNC_LANE_CLONES functions run on this host:
     *  "x86-64-v4" or "default". */
    static const char *isa();

  private:
    U64x8 s0{}, s1{}, s2{}, s3{};
    std::uint64_t drawn = 0;
};

} // namespace vsync

#endif // VSYNC_COMMON_RNG_HH
