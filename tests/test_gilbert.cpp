#include "net/gilbert.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/stats.hpp"

namespace {

using espread::net::GilbertLoss;
using espread::net::GilbertModel;
using espread::net::GilbertParams;
using espread::sim::Rng;

TEST(Gilbert, StartsGoodSoFirstPacketSurvives) {
    GilbertLoss g{GilbertParams{1.0, 1.0}, Rng{1}};
    EXPECT_FALSE(g.drop_next());
    EXPECT_EQ(g.state(), GilbertLoss::State::kGood);
}

TEST(Gilbert, AlwaysBadOnceEntered) {
    // p_good = 0: leaves GOOD immediately; p_bad = 1: never recovers.
    GilbertLoss g{GilbertParams{0.0, 1.0}, Rng{2}};
    EXPECT_FALSE(g.drop_next());  // first packet sees initial GOOD state
    for (int i = 0; i < 100; ++i) EXPECT_TRUE(g.drop_next());
}

TEST(Gilbert, PerfectNetworkNeverDrops) {
    GilbertLoss g{GilbertParams{1.0, 0.0}, Rng{3}};
    for (int i = 0; i < 1000; ++i) EXPECT_FALSE(g.drop_next());
}

TEST(Gilbert, StationaryLossFormula) {
    EXPECT_NEAR(GilbertLoss::stationary_loss({0.92, 0.6}), 0.08 / 0.48, 1e-12);
    EXPECT_NEAR(GilbertLoss::stationary_loss({0.92, 0.7}), 0.08 / 0.38, 1e-12);
    EXPECT_DOUBLE_EQ(GilbertLoss::stationary_loss({1.0, 1.0}), 0.0);
}

TEST(Gilbert, MeanBurstLengthFormula) {
    EXPECT_DOUBLE_EQ(GilbertLoss::mean_burst_length({0.92, 0.6}), 2.5);
    EXPECT_NEAR(GilbertLoss::mean_burst_length({0.92, 0.7}), 10.0 / 3.0, 1e-12);
}

TEST(Gilbert, EmpiricalLossMatchesStationary) {
    const GilbertParams params{0.92, 0.6};
    GilbertLoss g{params, Rng{42}};
    constexpr int kN = 200000;
    int lost = 0;
    for (int i = 0; i < kN; ++i) {
        if (g.drop_next()) ++lost;
    }
    EXPECT_NEAR(static_cast<double>(lost) / kN,
                GilbertLoss::stationary_loss(params), 0.01);
}

TEST(Gilbert, EmpiricalBurstLengthMatchesGeometric) {
    const GilbertParams params{0.92, 0.7};
    GilbertLoss g{params, Rng{43}};
    espread::sim::RunningStats bursts;
    int current = 0;
    for (int i = 0; i < 300000; ++i) {
        if (g.drop_next()) {
            ++current;
        } else if (current > 0) {
            bursts.add(current);
            current = 0;
        }
    }
    EXPECT_NEAR(bursts.mean(), GilbertLoss::mean_burst_length(params), 0.1);
}

TEST(Gilbert, LossesAreBurstyNotIndependent) {
    // With the paper's parameters, P(loss | previous loss) = p_bad = 0.6 is
    // far above the marginal loss rate (~0.17).
    GilbertLoss g{GilbertParams{0.92, 0.6}, Rng{44}};
    int after_loss = 0;
    int after_loss_lost = 0;
    bool prev = false;
    for (int i = 0; i < 200000; ++i) {
        const bool lost = g.drop_next();
        if (prev) {
            ++after_loss;
            if (lost) ++after_loss_lost;
        }
        prev = lost;
    }
    const double conditional =
        static_cast<double>(after_loss_lost) / static_cast<double>(after_loss);
    EXPECT_NEAR(conditional, 0.6, 0.02);
}

TEST(Gilbert, DeterministicPerSeed) {
    GilbertLoss a{GilbertParams{0.9, 0.5}, Rng{7}};
    GilbertLoss b{GilbertParams{0.9, 0.5}, Rng{7}};
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.drop_next(), b.drop_next());
}

TEST(Gilbert, RejectsInvalidProbabilities) {
    EXPECT_THROW(GilbertLoss(GilbertParams{-0.1, 0.5}, Rng{1}), std::invalid_argument);
    EXPECT_THROW(GilbertLoss(GilbertParams{0.5, 1.5}, Rng{1}), std::invalid_argument);
    EXPECT_THROW(GilbertLoss(GilbertParams{0.5, 0.5, -0.1, 1.0}, Rng{1}),
                 std::invalid_argument);
    EXPECT_THROW(GilbertLoss(GilbertParams{0.5, 0.5, 0.0, 1.1}, Rng{1}),
                 std::invalid_argument);
}

// ---- Gilbert–Elliott generalization (per-state drop probabilities) ----

TEST(GilbertElliott, ClassicDefaultsUnchangedByExtension) {
    // Same seed, classic params: the extended model must produce the exact
    // same stream (no extra RNG draws for degenerate emissions).
    GilbertLoss classic{GilbertParams{0.9, 0.5}, Rng{21}};
    GilbertLoss spelled{GilbertParams{0.9, 0.5, 0.0, 1.0}, Rng{21}};
    for (int i = 0; i < 2000; ++i) ASSERT_EQ(classic.drop_next(), spelled.drop_next());
}

TEST(GilbertElliott, GoodStateResidualLoss) {
    // Never leaves GOOD; drops at the GOOD-state residual rate.
    const GilbertParams params{1.0, 0.0, 0.05, 1.0};
    GilbertLoss g{params, Rng{22}};
    int lost = 0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) {
        if (g.drop_next()) ++lost;
    }
    EXPECT_NEAR(static_cast<double>(lost) / kN, 0.05, 0.005);
    EXPECT_DOUBLE_EQ(GilbertLoss::stationary_loss(params), 0.05);
}

TEST(GilbertElliott, PartialBadStateDelivery) {
    // BAD drops only 80% of packets: the burst structure softens.
    const GilbertParams params{0.92, 0.6, 0.0, 0.8};
    GilbertLoss g{params, Rng{23}};
    constexpr int kN = 200000;
    int lost = 0;
    for (int i = 0; i < kN; ++i) {
        if (g.drop_next()) ++lost;
    }
    const double expected = GilbertLoss::stationary_loss(params);
    EXPECT_NEAR(expected, (0.08 / 0.48) * 0.8, 1e-12);
    EXPECT_NEAR(static_cast<double>(lost) / kN, expected, 0.01);
}

TEST(GilbertElliott, StationaryLossMixesBothStates) {
    const GilbertParams params{0.9, 0.5, 0.01, 0.9};
    const double pi_bad = 0.1 / 0.6;
    EXPECT_NEAR(GilbertLoss::stationary_loss(params),
                pi_bad * 0.9 + (1.0 - pi_bad) * 0.01, 1e-12);
}

// Equivalence contract of the batched sampler: expanding next_run() spans
// reproduces the drop_next() packet stream of an identically seeded chain,
// for both classic (degenerate) and Gilbert-Elliott emissions and across
// arbitrary max_packets caps.
TEST(GilbertNextRun, ExpandsToDropNextStream) {
    const GilbertParams cases[] = {
        {0.92, 0.6, 0.0, 1.0},   // classic: whole-sojourn runs
        {0.9, 0.5, 0.01, 0.9},   // Gilbert-Elliott: one-packet runs
        {0.92, 0.7, 0.0, 0.0},   // never loses
    };
    for (const GilbertParams& params : cases) {
        GilbertLoss scalar{params, Rng{99}};
        GilbertLoss batched{params, Rng{99}};
        Rng caps{7};
        constexpr std::size_t kPackets = 5000;
        std::vector<bool> expected;
        expected.reserve(kPackets);
        for (std::size_t i = 0; i < kPackets; ++i) {
            expected.push_back(scalar.drop_next());
        }
        std::vector<bool> got;
        got.reserve(kPackets);
        while (got.size() < kPackets) {
            const std::uint64_t cap =
                caps.uniform_int(1, kPackets - got.size());
            const GilbertLoss::Run run = batched.next_run(cap);
            ASSERT_GE(run.length, 1u);
            ASSERT_LE(run.length, cap);
            for (std::uint64_t i = 0; i < run.length; ++i) {
                got.push_back(run.lost);
            }
        }
        EXPECT_EQ(expected, got) << "p_bad=" << params.p_bad
                                 << " loss_bad=" << params.loss_bad;
    }
}

// Exactness of the table-driven dwell sampler: for every 53-bit word k
// the table lookup must return what the inversion formula returns, or
// some random stream would change.  libm's few-ulp error can move the
// floor only for k within a few dozen units of an integer crossing, and
// the crossings sit within 1 of ceil((1 - stay^j) * 2^53), so a +-2^16
// window around each of those covers every place the two could disagree.
constexpr double kStays[] = {0.45, 0.6, 0.7, 0.9, 0.92, 0.999};
constexpr std::uint64_t kWords = std::uint64_t{1} << 53;

/// The inversion formula itself: 1 + floor(log1p(-k * 2^-53) / log(stay)).
std::uint64_t formula_dwell(double stay, std::uint64_t k) {
    return 1 + static_cast<std::uint64_t>(std::floor(
                   std::log1p(-(static_cast<double>(k) * 0x1.0p-53)) / std::log(stay)));
}

/// Where the formula's dwell reaches j + 1 in exact arithmetic.
std::uint64_t crossing(double stay, std::size_t j) {
    const double c = std::ceil(-std::expm1(static_cast<double>(j) * std::log(stay)) * 0x1.0p53);
    return c < 0x1.0p53 ? static_cast<std::uint64_t>(c) : kWords;
}

TEST(GilbertModel, TableMatchesFormulaAroundEveryThreshold) {
    constexpr std::uint64_t kReach = std::uint64_t{1} << 16;
    for (const double stay : kStays) {
        SCOPED_TRACE(stay);
        const GilbertModel m{GilbertParams{stay, stay}};
        // Past the 64 stored thresholds as well, into the formula path.
        for (std::size_t j = 1; j <= GilbertModel::kMaxThresholds + 2; ++j) {
            const std::uint64_t t = crossing(stay, j);
            if (t >= kWords) break;
            const std::uint64_t lo = t > kReach ? t - kReach : 0;
            const std::uint64_t hi = t + kReach < kWords ? t + kReach : kWords - 1;
            for (std::uint64_t k = lo; k <= hi; ++k) {
                if (m.dwell(0, k) != formula_dwell(stay, k)) {
                    FAIL() << "crossing " << j << " word " << k;
                }
            }
        }
    }
}

TEST(GilbertModel, TableMatchesFormulaOnRandomWords) {
    Rng words{2024};
    std::vector<GilbertModel> models;
    for (const double stay : kStays) models.emplace_back(GilbertParams{stay, stay});
    constexpr std::size_t kDraws = 10'000'000;
    for (std::size_t i = 0; i < kDraws; ++i) {
        const std::uint64_t k = words.next_u64() >> 11;
        const double stay = kStays[i % models.size()];
        if (models[i % models.size()].dwell(0, k) != formula_dwell(stay, k)) {
            FAIL() << "stay " << stay << " word " << k;
        }
    }
}

TEST(GilbertModel, DegenerateStaysNeedNoDraw) {
    // stay 0: every sojourn lasts one packet; stay 1: absorbed.  Neither
    // consumes a random word, as the formula never needed one.
    const GilbertModel m{GilbertParams{0.0, 1.0}};
    Rng rng{5};
    Rng untouched = rng;
    EXPECT_EQ(m.draw_dwell(0, rng), 1u);
    EXPECT_EQ(m.draw_dwell(1, rng), std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(GilbertModel, DrawPastLastThresholdTakesTheFormula) {
    // stay 0.999 keeps 94% of its mass past the 64th crossing: those
    // draws fall through to the logarithms and must still agree.
    const double stay = 0.999;
    const GilbertModel m{GilbertParams{stay, stay}};
    const std::uint64_t last = crossing(stay, GilbertModel::kMaxThresholds);
    for (const std::uint64_t k : {last + 1, (last + kWords) / 2, kWords - 1}) {
        EXPECT_EQ(m.dwell(0, k), formula_dwell(stay, k)) << k;
        EXPECT_GE(m.dwell(0, k), GilbertModel::kMaxThresholds + 1) << k;
    }
    // A dwell the 64 thresholds alone could not give.
    EXPECT_GT(m.dwell(0, kWords - 1), GilbertModel::kMaxThresholds + 1);
}

// The engine keeps one chain per slot and direction; its arena cost is
// the chain's size (the model and its tables are shared).
TEST(GilbertModel, ChainIsFortyEightBytes) {
    EXPECT_EQ(sizeof(espread::net::GilbertChain), 48u);
}

// Stream-level pin: a GilbertLoss reproduces, packet for packet, a chain
// that draws every sojourn with the inversion formula directly.
TEST(GilbertModel, StreamsMatchFormulaChain) {
    const GilbertParams cases[] = {
        {0.92, 0.6, 0.0, 1.0},
        {0.92, 0.7, 0.0, 1.0},
        {0.999, 0.45, 0.0, 1.0},
        {0.9, 0.5, 0.01, 0.9},
    };
    for (const GilbertParams& p : cases) {
        GilbertLoss table{p, Rng{31}};
        Rng rng{31};
        bool bad = false;
        std::uint64_t remaining = 0;
        for (int i = 0; i < 200000; ++i) {
            if (remaining == 0) {
                const double stay = bad ? p.p_bad : p.p_good;
                remaining = 1 + static_cast<std::uint64_t>(std::floor(
                                    std::log1p(-rng.uniform()) / std::log(stay)));
            }
            const double h = bad ? p.loss_bad : p.loss_good;
            const bool lost = h <= 0.0 ? false : h >= 1.0 ? true : rng.bernoulli(h);
            if (--remaining == 0) bad = !bad;
            ASSERT_EQ(table.drop_next(), lost) << "p_good=" << p.p_good << " i=" << i;
        }
    }
}

}  // namespace
