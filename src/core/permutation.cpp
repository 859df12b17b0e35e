#include "core/permutation.hpp"

#include <cstdio>
#include <numeric>
#include <utility>

namespace espread {

Permutation Permutation::identity(std::size_t n) {
    std::vector<std::size_t> image(n);
    std::iota(image.begin(), image.end(), std::size_t{0});
    return Permutation{std::move(image)};
}

Permutation::Permutation(std::vector<std::size_t> image) : image_(std::move(image)) {
    validate();
}

Permutation::Permutation(std::initializer_list<std::size_t> image)
    : image_(image) {
    validate();
}

void Permutation::validate() const {
    std::vector<bool> seen(image_.size(), false);
    for (const std::size_t v : image_) {
        if (v >= image_.size() || seen[v]) {
            throw std::invalid_argument("Permutation: image is not a bijection on 0..n-1");
        }
        seen[v] = true;
    }
}

void Permutation::require_size(std::size_t n) const {
    if (n != image_.size()) {
        throw std::invalid_argument("Permutation: size mismatch with argument");
    }
}

Permutation Permutation::inverse() const {
    std::vector<std::size_t> inv(image_.size());
    for (std::size_t slot = 0; slot < image_.size(); ++slot) inv[image_[slot]] = slot;
    return Permutation{std::move(inv)};
}

Permutation Permutation::compose(const Permutation& other) const {
    require_size(other.size());
    std::vector<std::size_t> out(image_.size());
    for (std::size_t i = 0; i < image_.size(); ++i) out[i] = image_[other.image_[i]];
    return Permutation{std::move(out)};
}

bool Permutation::is_identity() const noexcept {
    for (std::size_t i = 0; i < image_.size(); ++i) {
        if (image_[i] != i) return false;
    }
    return true;
}

void Permutation::fill_nibble_table(std::uint64_t* table) const noexcept {
    for (std::size_t j = 0; j < nibbles(image_.size()); ++j) {
        for (unsigned v = 0; v < 16; ++v) {
            std::uint64_t out = 0;
            for (unsigned bit = 0; bit < 4; ++bit) {
                const std::size_t slot = 4 * j + bit;
                if ((v >> bit & 1U) != 0 && slot < image_.size()) {
                    out |= std::uint64_t{1} << image_[slot];
                }
            }
            table[16 * j + v] = out;
        }
    }
}

std::string Permutation::to_string_one_based() const {
    std::string out;
    char buf[16];
    for (std::size_t i = 0; i < image_.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%02zu", image_[i] + 1);
        if (i > 0) out += ' ';
        out += buf;
    }
    return out;
}

}  // namespace espread
