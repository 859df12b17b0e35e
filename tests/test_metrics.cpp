#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"

namespace {

using espread::aggregate_loss_count;
using espread::consecutive_loss;
using espread::ContinuityMeter;
using espread::ContinuityReport;
using espread::loss_runs;
using espread::LossMask;
using espread::measure_continuity;

// Paper Fig. 1: two streams, both with aggregate loss 2/4, but stream 1 has
// its losses back-to-back (CLF 2) while stream 2 spreads them (CLF 1).
TEST(Metrics, Figure1Streams) {
    const LossMask stream1{true, false, false, true};
    const LossMask stream2{false, true, false, true};
    const ContinuityReport r1 = measure_continuity(stream1);
    const ContinuityReport r2 = measure_continuity(stream2);
    EXPECT_EQ(r1.unit_losses, 2u);
    EXPECT_EQ(r2.unit_losses, 2u);
    EXPECT_DOUBLE_EQ(r1.alf, 0.5);
    EXPECT_DOUBLE_EQ(r2.alf, 0.5);
    EXPECT_EQ(r1.clf, 2u);
    EXPECT_EQ(r2.clf, 1u);
}

TEST(Metrics, LossRunsEnumeratesMaximalRuns) {
    EXPECT_EQ(loss_runs({true, false, false, true, false}),
              (std::vector<std::size_t>{2, 1}));
    EXPECT_EQ(loss_runs({false, false, false}), (std::vector<std::size_t>{3}));
    EXPECT_TRUE(loss_runs(LossMask{true, true}).empty());
    EXPECT_TRUE(loss_runs(LossMask{}).empty());
}

TEST(Metrics, ConsecutiveLossEdgeCases) {
    EXPECT_EQ(consecutive_loss(LossMask{}), 0u);
    EXPECT_EQ(consecutive_loss({true, true, true}), 0u);
    EXPECT_EQ(consecutive_loss({false, false, false}), 3u);
    EXPECT_EQ(consecutive_loss({false, true, false, false}), 2u);
}

TEST(Metrics, AggregateLossCounts) {
    EXPECT_EQ(aggregate_loss_count(LossMask{}), 0u);
    EXPECT_EQ(aggregate_loss_count({false, true, false}), 2u);
}

TEST(Metrics, EmptyMaskReport) {
    const ContinuityReport r = measure_continuity(LossMask{});
    EXPECT_EQ(r.slots, 0u);
    EXPECT_EQ(r.clf, 0u);
    EXPECT_DOUBLE_EQ(r.alf, 0.0);
}

TEST(ContinuityMeter, TracksPerWindowSeries) {
    ContinuityMeter m;
    m.add_window({false, false, true, true});  // CLF 2
    m.add_window({true, false, true, false});  // CLF 1
    m.add_window({true, true, true, true});    // CLF 0
    ASSERT_EQ(m.windows(), 3u);
    EXPECT_EQ(m.clf_series().ys(), (std::vector<double>{2, 1, 0}));
    EXPECT_DOUBLE_EQ(m.clf_stats().mean(), 1.0);
}

TEST(ContinuityMeter, WindowBoundariesDoNotMergeRuns) {
    ContinuityMeter m;
    // Losses at the tail of window 1 and head of window 2 stay separate.
    m.add_window({true, true, false, false});
    m.add_window({false, false, true, true});
    EXPECT_EQ(m.total().clf, 2u);
    EXPECT_EQ(m.total().unit_losses, 4u);
    EXPECT_EQ(m.total().slots, 8u);
    EXPECT_DOUBLE_EQ(m.total().alf, 0.5);
}

TEST(ContinuityMeter, TotalsTrackWorstWindowClf) {
    ContinuityMeter m;
    m.add_window({false, true, true, true});
    m.add_window({true, false, false, false});
    EXPECT_EQ(m.total().clf, 3u);
}

// Property check of the raw-word engine entry points against the scalar
// metrics: random delivery masks of many sizes, converted to loss-polarity
// words (set bit = loss, tail clear), must agree with consecutive_loss()
// and aggregate_loss_count() exactly.
TEST(RawWordMetrics, MatchScalarMetricsOnRandomMasks) {
    espread::sim::Rng rng(11);
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{24}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{128}, std::size_t{200}}) {
        for (int trial = 0; trial < 50; ++trial) {
            LossMask delivered(n);
            std::vector<std::uint64_t> loss_words((n + 63) / 64, 0);
            const double p_loss = rng.uniform();
            for (std::size_t i = 0; i < n; ++i) {
                const bool ok = !rng.bernoulli(p_loss);
                delivered[i] = ok;
                if (!ok) loss_words[i >> 6] |= std::uint64_t{1} << (i & 63);
            }
            EXPECT_EQ(espread::max_set_run(loss_words.data(), loss_words.size()),
                      consecutive_loss(delivered))
                << "n=" << n << " trial=" << trial;
            EXPECT_EQ(
                espread::count_set_bits(loss_words.data(), loss_words.size()),
                aggregate_loss_count(delivered))
                << "n=" << n << " trial=" << trial;
        }
    }
}

// The engine's one-word CLF (shift-and rounds) must equal max_set_run on
// a single word: the edge words, then random words of low, medium and
// high density so long runs and runs touching either end both occur.
TEST(RawWordMetrics, ShiftAndRunMatchesMaxSetRun) {
    const auto check = [](std::uint64_t x) {
        EXPECT_EQ(espread::max_set_run_word(x), espread::max_set_run(&x, 1))
            << std::hex << "x=0x" << x;
    };
    check(0);
    check(~std::uint64_t{0});
    check(std::uint64_t{1} << 63);
    check(0x5555555555555555ULL);
    check(~std::uint64_t{0} >> 1);
    espread::sim::Rng rng(19);
    for (int trial = 0; trial < 10000; ++trial) {
        const std::uint64_t a = rng.next_u64();
        const std::uint64_t b = rng.next_u64();
        const std::uint64_t c = rng.next_u64();
        check(a);
        check(a & b & c);
        check(a | b | c);
    }
}

TEST(RawWordMetrics, AllSetAndAllClearWords) {
    const std::vector<std::uint64_t> clear(3, 0);
    EXPECT_EQ(espread::max_set_run(clear.data(), clear.size()), 0u);
    EXPECT_EQ(espread::count_set_bits(clear.data(), clear.size()), 0u);
    const std::vector<std::uint64_t> full(3, ~std::uint64_t{0});
    EXPECT_EQ(espread::max_set_run(full.data(), full.size()), 192u);
    EXPECT_EQ(espread::count_set_bits(full.data(), full.size()), 192u);
}

}  // namespace
