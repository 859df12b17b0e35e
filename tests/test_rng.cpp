#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <set>
#include <vector>

namespace {

using espread::sim::Rng;

TEST(Rng, SameSeedSameSequence) {
    Rng a{42};
    Rng b{42};
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a{1};
    Rng b{2};
    int equal = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(Rng, ZeroSeedIsUsable) {
    Rng r{0};
    std::set<std::uint64_t> vals;
    for (int i = 0; i < 100; ++i) vals.insert(r.next_u64());
    EXPECT_GT(vals.size(), 95u) << "degenerate state from zero seed";
}

TEST(Rng, UniformInUnitInterval) {
    Rng r{7};
    double sum = 0.0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
    Rng r{8};
    for (int i = 0; i < 1000; ++i) {
        const double v = r.uniform(-3.0, 5.0);
        ASSERT_GE(v, -3.0);
        ASSERT_LT(v, 5.0);
    }
}

TEST(Rng, UniformIntCoversRangeExactly) {
    Rng r{9};
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = r.uniform_int(10, 15);
        ASSERT_GE(v, 10u);
        ASSERT_LE(v, 15u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformIntDegenerateRange) {
    Rng r{10};
    EXPECT_EQ(r.uniform_int(4, 4), 4u);
}

TEST(Rng, BernoulliExtremes) {
    Rng r{11};
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
        EXPECT_FALSE(r.bernoulli(-0.5));
        EXPECT_TRUE(r.bernoulli(1.5));
    }
}

TEST(Rng, BernoulliFrequency) {
    Rng r{12};
    int hits = 0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) {
        if (r.bernoulli(0.3)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
    Rng r{13};
    double sum = 0.0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) {
        const double v = r.exponential(2.5);
        ASSERT_GE(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum / kN, 2.5, 0.1);
}

TEST(Rng, NormalMoments) {
    Rng r{14};
    double sum = 0.0;
    double sq = 0.0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) {
        const double v = r.normal(3.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / kN;
    const double var = sq / kN - mean * mean;
    EXPECT_NEAR(mean, 3.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, LognormalIsExpOfNormal) {
    Rng r{15};
    for (int i = 0; i < 1000; ++i) {
        ASSERT_GT(r.lognormal(0.0, 1.0), 0.0);
    }
}

TEST(Rng, GeometricMean) {
    Rng r{16};
    double sum = 0.0;
    constexpr int kN = 50000;
    for (int i = 0; i < kN; ++i) {
        sum += static_cast<double>(r.geometric(0.25));
    }
    // mean failures before success = (1-p)/p = 3
    EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(Rng, GeometricCertainSuccess) {
    Rng r{17};
    EXPECT_EQ(r.geometric(1.0), 0u);
}

// With p <= 0 or NaN no trial can succeed: the draw returns the
// distribution's limit at once and leaves the stream where it was.
TEST(Rng, GeometricNeverSucceedingReturnsLimit) {
    const double never[] = {0.0, -0.5, -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
    for (const double p : never) {
        Rng r{18};
        Rng untouched{18};
        EXPECT_EQ(r.geometric(p), std::numeric_limits<std::uint64_t>::max()) << p;
        EXPECT_EQ(r.next_u64(), untouched.next_u64()) << p;
    }
}

// The per-word Bernoulli loop Rng::geometric replaced, kept as its
// reference.
std::uint64_t geometric_reference(Rng& r, double p) {
    if (p >= 1.0) return 0;
    std::uint64_t n = 0;
    while (!r.bernoulli(p)) ++n;
    return n;
}

// Inverse of an odd a modulo 2^64 (Newton: each step doubles the correct
// low bits, starting from 3).
constexpr std::uint64_t inverse_mod_2_64(std::uint64_t a) {
    std::uint64_t x = a;
    for (int i = 0; i < 5; ++i) x *= 2 - a * x;
    return x;
}

// Inverse of y = x ^ (x >> s).
constexpr std::uint64_t unxorshift(std::uint64_t y, int s) {
    std::uint64_t x = y;
    for (int i = 0; i < 64 / s; ++i) x = y ^ (x >> s);
    return x;
}

// A generator whose first word is `w`.  Rng(seed) sets state word 1 to
// SplitMix64's second output, mix(seed + 2·golden), and xoshiro256**'s
// first word is rotl(s1·5, 7)·9; both steps are inverted here.
Rng rng_with_first_word(std::uint64_t w) {
    std::uint64_t z = std::rotr(w * inverse_mod_2_64(9), 7) * inverse_mod_2_64(5);
    z = unxorshift(z, 31) * inverse_mod_2_64(0x94D049BB133111EBULL);
    z = unxorshift(z, 27) * inverse_mod_2_64(0xBF58476D1CE4E5B9ULL);
    z = unxorshift(z, 30);
    return Rng{z - 2 * 0x9E3779B97F4A7C15ULL};
}

// Rng::geometric counts words against the integer threshold
// t = ceil(p·2^53); the loop it replaced tested uniform() < p per word.
// Both must return the same count and leave the stream at the same next
// word, for dyadic p (p·2^53 an integer), their neighbours, the
// benchmark's churn probabilities 1/49 and 1/9, and the extremes.  Random
// streams almost never hit the threshold itself, so each p also starts
// from planted words whose top 53 bits are k = t - 1 (a success) and
// k = t (a failure): a wrong rounding or compare shows there.
TEST(Rng, GeometricMatchesBernoulliLoop) {
    std::vector<double> ps;
    for (const double d : {0.5, 0.25, 0x1.0p-20}) {
        ps.insert(ps.end(), {d, std::nextafter(d, 0.0), std::nextafter(d, 1.0)});
    }
    ps.insert(ps.end(),
              {1.0 / 49.0, 1.0 / 9.0, 1.0 - 0x1.0p-53, 0x1.0p-53, 0x1.0p-60});
    for (const double p : ps) {
        SCOPED_TRACE(testing::Message() << std::hexfloat << p);
        const auto t = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
        // Below 2^-20 a failed trial leaves about 1/p words still to draw,
        // so only the planted success is tractable there.
        const bool failures_ok = p >= 0x1.0p-20;
        std::vector<std::uint64_t> planted_k{t - 1};  // a success
        if (failures_ok) planted_k.push_back(t);      // a failure
        std::vector<Rng> starts;
        for (const std::uint64_t k : planted_k) {
            Rng planted = rng_with_first_word(k << 11 | 0x5A5);
            ASSERT_EQ(Rng{planted}.next_u64(), k << 11 | 0x5A5);
            Rng ref = planted;
            ASSERT_EQ(geometric_reference(ref, p) == 0, k < t) << k;
            starts.push_back(planted);
        }
        if (failures_ok) {
            for (std::uint64_t seed = 1; seed <= 8; ++seed) starts.emplace_back(seed);
        }
        const int draws = p >= 0x1.0p-10 ? 256 : 1;
        for (const Rng& start : starts) {
            Rng got = start;
            Rng ref = start;
            for (int d = 0; d < draws; ++d) {
                ASSERT_EQ(got.geometric(p), geometric_reference(ref, p)) << d;
            }
            ASSERT_EQ(got.next_u64(), ref.next_u64());
        }
    }
}

TEST(Rng, SplitStreamsAreIndependent) {
    Rng parent{42};
    Rng a = parent.split(1);
    Rng b = parent.split(2);
    int equal = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(Rng, SplitIsDeterministic) {
    Rng p1{42};
    Rng p2{42};
    Rng a = p1.split(7);
    Rng b = p2.split(7);
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(a.next_u64(), b.next_u64());
    }
}

// Known-answer words of the generator, so a change to the xoshiro256**
// step, the SplitMix64 seeding, the 53-bit uniform() scaling or split()
// cannot pass unnoticed.
TEST(Rng, KnownAnswerWords) {
    Rng a{1};
    EXPECT_EQ(a.next_u64(), 0xB3F2AF6D0FC710C5ULL);
    EXPECT_EQ(a.next_u64(), 0x853B559647364CEAULL);
    EXPECT_EQ(a.uniform(), 0x1.25f12eac10548p-1);
    Rng b{2026};
    EXPECT_EQ(b.next_u64(), 0x92E011592E98AE15ULL);
    EXPECT_EQ(b.next_u64(), 0x489F37946D6D18D8ULL);
    EXPECT_EQ(b.uniform(), 0x1.a0013c4f3b39bp-1);
    Rng child = b.split(3);
    EXPECT_EQ(child.next_u64(), 0xCECAEFED14081FD9ULL);
    EXPECT_EQ(child.uniform(), 0x1.e4ee1f9ac150bp-1);
}

}  // namespace
