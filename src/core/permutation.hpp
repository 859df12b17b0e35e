// Permutations over a transmission window.
//
// A Permutation describes the order in which a window of n LDUs (frames) is
// put on the wire: slot s of the transmission carries the LDU whose playback
// index is perm[s].  The receiver applies the inverse to restore playback
// order.  This is the object the paper's calculatePermutation(n, b)
// algorithm produces (its "k-Cyclic Permutation Order").
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace espread {

/// A bijection on {0, 1, ..., n-1}, stored as the image sequence.
///
/// Convention used throughout the library:
///   `at(slot) == original` — transmission slot `slot` carries the LDU with
///   playback (original) index `original`.
///
/// Class invariant: the stored sequence is a permutation of 0..n-1
/// (validated at construction; constructors throw std::invalid_argument on
/// malformed input).
class Permutation {
public:
    /// Empty permutation (size 0); useful as a default before assignment.
    Permutation() = default;

    /// Identity permutation of size n (in-order transmission).
    static Permutation identity(std::size_t n);

    /// Builds from an explicit image sequence; throws if not a bijection.
    explicit Permutation(std::vector<std::size_t> image);
    Permutation(std::initializer_list<std::size_t> image);

    [[nodiscard]] std::size_t size() const noexcept { return image_.size(); }

    /// Playback index carried in transmission slot `slot`.
    [[nodiscard]] std::size_t at(std::size_t slot) const {
        if (slot >= image_.size()) throw std::out_of_range("Permutation::at");
        return image_[slot];
    }
    [[nodiscard]] std::size_t operator[](std::size_t slot) const noexcept {
        return image_[slot];
    }

    [[nodiscard]] const std::vector<std::size_t>& image() const noexcept {
        return image_;
    }

    /// Inverse permutation: inverse()[original] == slot.
    [[nodiscard]] Permutation inverse() const;

    /// Composition: (this ∘ other)[i] == this[other[i]].  Sizes must match.
    [[nodiscard]] Permutation compose(const Permutation& other) const;

    [[nodiscard]] bool is_identity() const noexcept;

    bool operator==(const Permutation& rhs) const noexcept = default;

    /// Reorders `items` (playback order) into transmission order:
    /// result[slot] = items[perm[slot]].
    template <typename T>
    [[nodiscard]] std::vector<T> apply(const std::vector<T>& items) const {
        require_size(items.size());
        std::vector<T> out;
        out.reserve(items.size());
        for (std::size_t slot = 0; slot < image_.size(); ++slot) {
            out.push_back(items[image_[slot]]);
        }
        return out;
    }

    /// Move-aware apply(): each source element is consumed exactly once
    /// (the image is a bijection), so expensive payloads are moved rather
    /// than copied into transmission order.
    template <typename T>
    [[nodiscard]] std::vector<T> apply(std::vector<T>&& items) const {
        require_size(items.size());
        std::vector<T> out;
        out.reserve(items.size());
        for (std::size_t slot = 0; slot < image_.size(); ++slot) {
            out.push_back(std::move(items[image_[slot]]));
        }
        return out;
    }

    /// Restores playback order from transmission order:
    /// result[perm[slot]] = items[slot].  Inverse of apply().
    template <typename T>
    [[nodiscard]] std::vector<T> unapply(const std::vector<T>& items) const {
        require_size(items.size());
        std::vector<T> out(items.size());
        for (std::size_t slot = 0; slot < image_.size(); ++slot) {
            out[image_[slot]] = items[slot];
        }
        return out;
    }

    /// apply() into a caller-owned scratch buffer: no allocation once `out`
    /// has reached capacity.  `out` must not alias `items`.
    template <typename T>
    void apply_into(const std::vector<T>& items, std::vector<T>& out) const {
        require_size(items.size());
        out.resize(items.size());
        for (std::size_t slot = 0; slot < image_.size(); ++slot) {
            out[slot] = items[image_[slot]];
        }
    }

    /// unapply() into a caller-owned scratch buffer: no allocation once
    /// `out` has reached capacity.  `out` must not alias `items`.
    template <typename T>
    void unapply_into(const std::vector<T>& items, std::vector<T>& out) const {
        require_size(items.size());
        out.resize(items.size());
        for (std::size_t slot = 0; slot < image_.size(); ++slot) {
            out[image_[slot]] = items[slot];
        }
    }

    /// Batch entry point for bit-packed masks (multi-session engine hot
    /// path): every set bit `slot` of `src` sets bit `image()[slot]` in
    /// `dst` — transmission-order loss bits scattered into playback order,
    /// the bitwise analogue of unapply() for a set-bit predicate.  Both
    /// arrays hold `nwords` words covering size() bits; bits past size()
    /// must be clear in `src`; `dst` is OR-accumulated (clear it first for
    /// a plain permute).  No allocation, no aliasing allowed.
    void scatter_set_bits(const std::uint64_t* src, std::uint64_t* dst,
                          std::size_t nwords) const noexcept {
        for (std::size_t wi = 0; wi < nwords; ++wi) {
            std::uint64_t w = src[wi];
            while (w != 0) {
                const unsigned bit = static_cast<unsigned>(std::countr_zero(w));
                w &= w - 1;  // clear lowest set bit
                const std::size_t original = image_[wi * 64 + bit];
                dst[original >> 6] |= std::uint64_t{1} << (original & 63);
            }
        }
    }

    /// Nibbles in a one-word mask of `n` bits: the row length of a nibble
    /// scatter table is 16 * nibbles(n) words.
    [[nodiscard]] static constexpr std::size_t nibbles(std::size_t n) noexcept {
        return (n + 3) / 4;
    }

    /// Builds the table scatter_word() reads, for size() <= 64:
    /// `table[16 * j + v]` (j < nibbles(size()), v < 16) is the
    /// playback-order mask that scatter_set_bits gives for the
    /// transmission-order word v << 4j.  Bits of v past size() are
    /// ignored.  `table` holds 16 * nibbles(size()) words.
    void fill_nibble_table(std::uint64_t* table) const noexcept;

    /// scatter_set_bits() of the one word `src` by table lookup: the OR of
    /// one fill_nibble_table() entry per nibble, with no store and no
    /// per-bit dependency.  `count` is nibbles(size()) of the table's
    /// permutation; bits of `src` past size() must be clear.
    [[nodiscard]] static std::uint64_t scatter_word(const std::uint64_t* table,
                                                    std::size_t count,
                                                    std::uint64_t src) noexcept {
        std::uint64_t out = 0;
        for (std::size_t j = 0; j < count; ++j) {
            out |= table[16 * j + ((src >> (4 * j)) & 15U)];
        }
        return out;
    }

    /// Human-readable 1-based rendering, e.g. "01 06 11 16 ..." as printed
    /// in the paper's Table 1.
    std::string to_string_one_based() const;

private:
    void validate() const;
    void require_size(std::size_t n) const;

    std::vector<std::size_t> image_;
};

}  // namespace espread
