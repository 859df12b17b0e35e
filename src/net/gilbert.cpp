#include "net/gilbert.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace espread::net {

namespace {

/// Dwell draws use the top 53 bits of an RNG word: k in [0, 2^53).
constexpr std::uint64_t kWords = std::uint64_t{1} << 53;

/// floor(log1p(-u) / log(stay)) with u = k * 2^-53, written exactly as the
/// inversion formula so that table and formula agree bit for bit.
double extra_packets(std::uint64_t k, double log_stay) noexcept {
    return std::floor(std::log1p(-(static_cast<double>(k) * 0x1.0p-53)) / log_stay);
}

/// The smallest k in [1, 2^53) with extra_packets(k) >= j (j >= 1), or
/// kWords when no word reaches j, found by walking from `guess`.  The
/// closed-form guess has been within one word of the answer, so this
/// costs two evaluations.
std::uint64_t first_word_reaching(double j, std::uint64_t guess,
                                  double log_stay) noexcept {
    const auto reaches = [&](std::uint64_t k) {
        return k >= kWords || extra_packets(k, log_stay) >= j;
    };
    std::uint64_t k = guess;
    while (!reaches(k)) ++k;
    while (k > 1 && reaches(k - 1)) --k;
    return k;
}

}  // namespace

GilbertModel::GilbertModel(GilbertParams params)
    : params_(params),
      emission_{params.loss_good, params.loss_bad},
      table_{table_for(params.p_good), table_for(params.p_bad)} {
    const auto valid = [](double p) { return p >= 0.0 && p <= 1.0; };
    if (!valid(params_.p_good) || !valid(params_.p_bad) ||
        !valid(params_.loss_good) || !valid(params_.loss_bad)) {
        throw std::invalid_argument("GilbertModel: probabilities must be in [0, 1]");
    }
}

const GilbertModel::DwellTable& GilbertModel::table_for(double stay) {
    // A table is a pure function of `stay`, and code that builds many
    // short-lived models (a Session per trial, each with two channels)
    // sees few distinct stays, so each thread keeps the tables it built
    // last instead of paying two formula evaluations per threshold again.
    struct Entry {
        double stay = std::numeric_limits<double>::quiet_NaN();  // empty
        DwellTable table;
    };
    thread_local std::array<Entry, kCachedTables> cache{};
    thread_local std::size_t next = 0;
    for (const Entry& e : cache) {
        if (e.stay == stay) return e.table;
    }
    Entry& e = cache[next];
    next = (next + 1) % kCachedTables;
    e.stay = stay;
    e.table = build_table(stay);
    return e.table;
}

GilbertModel::DwellTable GilbertModel::build_table(double stay) {
    DwellTable t;
    t.thresholds.fill(std::numeric_limits<std::uint64_t>::max());
    if (!(stay > 0.0)) {  // leaves after every packet (NaN is rejected later)
        t.fixed = 1;
        return t;
    }
    if (stay >= 1.0) {  // absorbed
        t.fixed = std::numeric_limits<std::uint64_t>::max();
        return t;
    }
    t.log_stay = std::log(stay);
    // extra_packets(k) >= j  <=>  1 - k * 2^-53 <= stay^j, so T_j is
    // ceil((1 - stay^j) * 2^53) up to libm rounding; the guess is then
    // corrected against the formula itself.  Tabulating stops once the
    // draws past T_j (probability stay^j) are too rare to repay the two
    // formula evaluations each threshold costs to build.
    for (std::size_t j = 1; j <= kMaxThresholds; ++j) {
        const double jd = static_cast<double>(j);
        const double reached = -std::expm1(jd * t.log_stay);  // 1 - stay^j
        const double guess = std::ceil(reached * 0x1.0p53);
        const std::uint64_t tj = first_word_reaching(
            jd, guess < 0x1.0p53 ? static_cast<std::uint64_t>(guess) : kWords - 1,
            t.log_stay);
        if (tj >= kWords) break;  // no word draws j extra packets
        t.thresholds[t.count++] = tj;
        if (1.0 - reached < kTailMass) break;
    }
    std::uint32_t c = 0;
    for (std::size_t g = 0; g < kGuideBuckets; ++g) {
        const std::uint64_t start = static_cast<std::uint64_t>(g) << kGuideShift;
        while (c < t.count && t.thresholds[c] <= start) ++c;
        t.guide[g] = static_cast<std::uint8_t>(c);
    }
    return t;
}

std::uint64_t GilbertModel::tail_dwell(const DwellTable& t,
                                       std::uint64_t k) noexcept {
    const double extra = extra_packets(k, t.log_stay);
    constexpr double kCap = 9.0e18;  // stays below uint64 range
    if (!(extra < kCap)) return std::numeric_limits<std::uint64_t>::max();
    return 1 + static_cast<std::uint64_t>(extra);
}

double GilbertLoss::stationary_loss(const GilbertParams& p) noexcept {
    const double to_bad = 1.0 - p.p_good;
    const double to_good = 1.0 - p.p_bad;
    if (to_bad + to_good == 0.0) return p.loss_good;  // stays GOOD forever
    const double pi_bad = to_bad / (to_bad + to_good);
    return pi_bad * p.loss_bad + (1.0 - pi_bad) * p.loss_good;
}

double GilbertLoss::mean_burst_length(const GilbertParams& p) noexcept {
    if (p.p_bad >= 1.0) return 0.0;  // never leaves BAD once entered
    return 1.0 / (1.0 - p.p_bad);
}

}  // namespace espread::net
