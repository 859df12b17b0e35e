#include "core/permutation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cpo.hpp"
#include "core/interleaver.hpp"
#include "sim/rng.hpp"

namespace {

using espread::Permutation;

TEST(Permutation, IdentityMapsEachSlotToItself) {
    const Permutation p = Permutation::identity(5);
    EXPECT_EQ(p.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(p.at(i), i);
    EXPECT_TRUE(p.is_identity());
}

TEST(Permutation, DefaultConstructedIsEmpty) {
    const Permutation p;
    EXPECT_EQ(p.size(), 0u);
    EXPECT_TRUE(p.is_identity());
}

TEST(Permutation, RejectsDuplicates) {
    EXPECT_THROW(Permutation({0, 1, 1}), std::invalid_argument);
}

TEST(Permutation, RejectsOutOfRangeValues) {
    EXPECT_THROW(Permutation({0, 1, 3}), std::invalid_argument);
}

TEST(Permutation, AtThrowsOutOfRange) {
    const Permutation p = Permutation::identity(3);
    EXPECT_THROW(static_cast<void>(p.at(3)), std::out_of_range);
}

TEST(Permutation, InverseRoundTrips) {
    const Permutation p({2, 0, 3, 1});
    const Permutation inv = p.inverse();
    EXPECT_TRUE(p.compose(inv).is_identity());
    EXPECT_TRUE(inv.compose(p).is_identity());
    for (std::size_t slot = 0; slot < p.size(); ++slot) {
        EXPECT_EQ(inv.at(p.at(slot)), slot);
    }
}

TEST(Permutation, ComposeAppliesRightThenLeft) {
    const Permutation f({1, 2, 0});
    const Permutation g({2, 0, 1});
    const Permutation fg = f.compose(g);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(fg.at(i), f.at(g.at(i)));
}

TEST(Permutation, ComposeSizeMismatchThrows) {
    EXPECT_THROW(Permutation::identity(3).compose(Permutation::identity(4)),
                 std::invalid_argument);
}

TEST(Permutation, ApplyReordersIntoTransmissionOrder) {
    const Permutation p({2, 0, 1});
    const std::vector<std::string> items{"a", "b", "c"};
    const auto tx = p.apply(items);
    EXPECT_EQ(tx, (std::vector<std::string>{"c", "a", "b"}));
}

TEST(Permutation, UnapplyInvertsApply) {
    const Permutation p({3, 1, 0, 2});
    const std::vector<int> items{10, 20, 30, 40};
    EXPECT_EQ(p.unapply(p.apply(items)), items);
    EXPECT_EQ(p.apply(p.unapply(items)), items);
}

TEST(Permutation, ApplySizeMismatchThrows) {
    const Permutation p = Permutation::identity(3);
    const std::vector<int> wrong{1, 2};
    EXPECT_THROW(p.apply(wrong), std::invalid_argument);
    EXPECT_THROW(p.unapply(wrong), std::invalid_argument);
}

TEST(Permutation, EqualityComparesImages) {
    EXPECT_EQ(Permutation({0, 1}), Permutation({0, 1}));
    EXPECT_NE(Permutation({0, 1}), Permutation({1, 0}));
}

TEST(Permutation, Table1StringMatchesPaper) {
    // Paper Table 1, permuted row: "01 06 11 16 04 09 14 02 07 12 17 05 10 15 03 08 13"
    const Permutation p = espread::cyclic_stride_order(17, 5, 0);
    EXPECT_EQ(p.to_string_one_based(),
              "01 06 11 16 04 09 14 02 07 12 17 05 10 15 03 08 13");
}

// scatter_set_bits (the engine's bit-packed unapply) must place each set
// transmission bit at its playback index exactly like unapply() does for a
// bool vector, across word-boundary sizes and random masks.
TEST(Permutation, ScatterSetBitsMatchesUnapply) {
    espread::sim::Rng rng(5);
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{17}, std::size_t{64}, std::size_t{65},
          std::size_t{130}}) {
        // residue_class_order accepts any stride in [1, n] (no coprimality
        // requirement), so it exercises irregular images at every size.
        const Permutation p =
            espread::residue_class_order(n, n > 4 ? 3 : 1);
        const std::size_t nwords = (n + 63) / 64;
        for (int trial = 0; trial < 40; ++trial) {
            std::vector<bool> tx_lost(n);
            std::vector<std::uint64_t> src(nwords, 0);
            for (std::size_t i = 0; i < n; ++i) {
                if (rng.bernoulli(0.3)) {
                    tx_lost[i] = true;
                    src[i >> 6] |= std::uint64_t{1} << (i & 63);
                }
            }
            std::vector<std::uint64_t> dst(nwords, 0);
            p.scatter_set_bits(src.data(), dst.data(), nwords);
            const std::vector<bool> playback_lost = p.unapply(tx_lost);
            for (std::size_t i = 0; i < n; ++i) {
                const bool bit = ((dst[i >> 6] >> (i & 63)) & 1u) != 0;
                ASSERT_EQ(bit, playback_lost[i])
                    << "n=" << n << " trial=" << trial << " slot=" << i;
            }
        }
    }
}

// The engine's one-word scatter (one nibble-table lookup per nibble) must
// equal scatter_set_bits for every k-CPO order it can be handed: every
// n in 1..64 and every bound 1..n, on every single-bit mask, the all-ones
// mask and 10^4 seeded random masks.
TEST(Permutation, NibbleScatterMatchesScatterSetBits) {
    espread::sim::Rng rng(23);
    std::vector<std::uint64_t> table;
    for (std::size_t n = 1; n <= 64; ++n) {
        const std::uint64_t all =
            n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
        const std::size_t count = Permutation::nibbles(n);
        table.assign(16 * count, 0);
        for (std::size_t b = 1; b <= n; ++b) {
            const Permutation p = espread::calculate_permutation(n, b).perm;
            p.fill_nibble_table(table.data());
            const auto agrees = [&](std::uint64_t src) {
                std::uint64_t want = 0;
                p.scatter_set_bits(&src, &want, 1);
                return Permutation::scatter_word(table.data(), count, src) ==
                       want;
            };
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_TRUE(agrees(std::uint64_t{1} << i))
                    << "n=" << n << " b=" << b << " bit=" << i;
            }
            ASSERT_TRUE(agrees(all)) << "n=" << n << " b=" << b;
            for (int trial = 0; trial < 10000; ++trial) {
                const std::uint64_t src = rng.next_u64() & all;
                ASSERT_TRUE(agrees(src))
                    << "n=" << n << " b=" << b << std::hex << " src=0x" << src;
            }
        }
    }
}

}  // namespace
