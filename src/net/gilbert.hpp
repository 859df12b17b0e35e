// Two-state Markov (Gilbert) packet-loss model (paper §5.1, Fig. 7).
//
// The network alternates between a GOOD state (packets delivered) and a BAD
// state (packets dropped).  From GOOD it stays with probability p_good;
// from BAD it stays with probability p_bad.  Because p_bad is large in the
// paper's experiments (0.6 / 0.7), losses arrive in bursts — exactly the
// error pattern error spreading targets.  The chain starts in GOOD and
// steps once per packet.
//
// The sampler is split in two so that many chains can share one set of
// tables: an immutable GilbertModel (validated parameters plus per-state
// dwell tables) and a small GilbertChain (RNG, state, sojourn remainder)
// stepped against a model.  GilbertLoss owns one of each and is what a
// single channel uses; the engine keeps one model per direction and an
// arena of chains.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/rng.hpp"

namespace espread::net {

/// Stay-probabilities of the two states, plus per-state drop probabilities.
///
/// The defaults (loss_good = 0, loss_bad = 1) give the paper's classic
/// Gilbert model: GOOD always delivers, BAD always drops.  Setting them to
/// intermediate values yields the Gilbert–Elliott generalization, where
/// each state only biases the drop probability — useful for modelling
/// residual loss on "good" paths and partial delivery inside congestion
/// episodes.
struct GilbertParams {
    double p_good = 0.92;   ///< P(stay GOOD | GOOD); paper uses 0.92
    double p_bad = 0.6;     ///< P(stay BAD | BAD); paper varies 0.6 / 0.7
    double loss_good = 0.0; ///< P(drop | GOOD)
    double loss_bad = 1.0;  ///< P(drop | BAD)
};

/// Validated parameters plus the per-state dwell tables.  Immutable after
/// construction, so any number of chains (on any number of threads) may
/// share one model.
///
/// Dwell draws are geometric sojourns by inversion: with k the top 53 bits
/// of one RNG word, dwell = 1 + floor(log1p(-k * 2^-53) / log(stay)),
/// giving P(dwell = d) = stay^(d-1) * (1 - stay).  Rather than evaluating
/// the two logarithms per draw, the model stores, per state, the
/// thresholds T_j = the smallest k at which that expression reaches j, for
/// j up to kMaxThresholds (fewer once stay^j, the mass past T_j, is
/// negligible).  A draw is then 1 + #{T_j <= k}, found by a short scan
/// from a 256-entry guide indexed by the top 8 bits of k.  The thresholds
/// are checked against the expression itself when a table is built, and a
/// k at or past the last stored threshold still evaluates the expression,
/// so every draw equals the logarithm form exactly: no random stream
/// depends on whether the table is used.  A table is a pure function of
/// stay; each thread reuses the last few it built.
class GilbertModel {
public:
    /// Thresholds stored per state, at most; a draw past the last stored
    /// one evaluates the logarithms.
    static constexpr std::size_t kMaxThresholds = 64;

    /// Throws std::invalid_argument unless every probability is in [0, 1].
    explicit GilbertModel(GilbertParams params);

    const GilbertParams& params() const noexcept { return params_; }

    /// P(drop | state), state 0 = GOOD, 1 = BAD.
    double emission(unsigned bad) const noexcept { return emission_[bad]; }

    /// Samples a dwell time (>= 1 packets) for state `bad` from `rng`.
    /// Consumes one RNG word when 0 < stay < 1 and none otherwise.
    std::uint64_t draw_dwell(unsigned bad, sim::Rng& rng) const noexcept {
        const DwellTable& t = table_[bad];
        if (t.fixed != 0) return t.fixed;
        return dwell(bad, rng.next_u64() >> 11);
    }

    /// The dwell time of state `bad` for the 53-bit word `k`, by table.
    std::uint64_t dwell(unsigned bad, std::uint64_t k) const noexcept {
        const DwellTable& t = table_[bad];
        if (t.fixed != 0) return t.fixed;
        std::uint32_t c = t.guide[k >> kGuideShift];
        while (t.thresholds[c] <= k) ++c;  // thresholds[count] = sentinel
        if (c < t.count) return 1 + c;
        return tail_dwell(t, k);
    }

private:
    /// Tabulating stops early once a draw lands past the last threshold
    /// with probability below this.
    static constexpr double kTailMass = 0x1.0p-10;
    /// Guide buckets per state, indexed by the top 8 of k's 53 bits.
    static constexpr std::size_t kGuideBuckets = 256;
    static constexpr int kGuideShift = 53 - 8;
    /// Tables each thread keeps for reuse (see table_for).
    static constexpr std::size_t kCachedTables = 8;

    struct DwellTable {
        /// Nonzero when the dwell needs no draw: 1 (stay <= 0) or
        /// UINT64_MAX (stay >= 1, absorbed).
        std::uint64_t fixed = 0;
        double log_stay = 0.0;
        /// Ascending T_1..T_count, then a sentinel above every 53-bit k.
        std::array<std::uint64_t, kMaxThresholds + 1> thresholds{};
        /// guide[g] = #{T_j <= g << kGuideShift}: where a scan for any k
        /// in bucket g may start.
        std::array<std::uint8_t, kGuideBuckets> guide{};
        std::uint32_t count = 0;
    };

    static const DwellTable& table_for(double stay);
    static DwellTable build_table(double stay);
    static std::uint64_t tail_dwell(const DwellTable& t, std::uint64_t k) noexcept;

    GilbertParams params_;
    double emission_[2];
    DwellTable table_[2];
};

/// A maximal span of consecutive packets with one shared outcome.
struct GilbertRun {
    std::uint64_t length = 0;  ///< packets covered (>= 1)
    bool lost = false;         ///< outcome of every packet in the span
};

/// Per-chain mutable state: 48 bytes, stepped against a GilbertModel.
///
/// Rather than one Bernoulli draw per packet to decide "stay or leave", the
/// chain samples the whole geometric sojourn (dwell time) of each state
/// when the state is entered, then merely decrements a counter per packet.
/// The dwell distribution is identical to the step-by-step chain, but the
/// per-packet path costs one RNG draw per *burst/gap* instead of per
/// packet (for the classic emission probabilities, zero per-packet draws).
class GilbertChain {
public:
    enum class State : std::uint8_t { kGood, kBad };

    explicit GilbertChain(sim::Rng rng) noexcept : rng_(rng) {}

    /// Steps the chain by one packet; returns true if that packet is lost
    /// (i.e. the chain was in BAD while the packet crossed the link).
    bool drop_next(const GilbertModel& m) noexcept {
        // The packet experiences the current state, then the chain
        // transitions (here: the sojourn counter expires).  The degenerate
        // emission probabilities (the classic Gilbert defaults) avoid a
        // per-packet RNG draw so classic-model streams are unchanged by
        // the Gilbert–Elliott extension.
        if (remaining_ == 0) remaining_ = m.draw_dwell(bad_, rng_);
        const double h = m.emission(bad_);
        const bool lost = h <= 0.0 ? false : h >= 1.0 ? true : rng_.bernoulli(h);
        advance(1);
        return lost;
    }

    /// Batched sampling for the multi-session engine: advances the chain
    /// by up to `max_packets` (>= 1) packets that all share one outcome
    /// and returns the span.  For the classic emission probabilities (the
    /// per-state drop probability is 0 or 1) this consumes a whole sojourn
    /// remainder per call; a non-degenerate emission falls back to
    /// one-packet runs so the per-packet Bernoulli draws are preserved.
    /// Equivalence contract: consuming runs yields exactly the drop_next()
    /// stream of the same seeded chain (pinned by test_gilbert).
    GilbertRun next_run(const GilbertModel& m, std::uint64_t max_packets) noexcept {
        if (remaining_ == 0) remaining_ = m.draw_dwell(bad_, rng_);
        const double h = m.emission(bad_);
        if (h > 0.0 && h < 1.0) {
            const bool lost = rng_.bernoulli(h);
            advance(1);
            return {1, lost};
        }
        const std::uint64_t len = remaining_ < max_packets ? remaining_ : max_packets;
        advance(len);
        return {len, h >= 1.0};
    }

    State state() const noexcept { return bad_ != 0 ? State::kBad : State::kGood; }

private:
    void advance(std::uint64_t packets) noexcept {
        remaining_ -= packets;
        if (remaining_ == 0) bad_ ^= 1U;
    }

    sim::Rng rng_;
    std::uint64_t remaining_ = 0;  ///< packets left in the current sojourn
    std::uint8_t bad_ = 0;         ///< 0 = GOOD, 1 = BAD
};

/// Per-packet loss process of one channel: a model and the chain it
/// drives.
class GilbertLoss {
public:
    using State = GilbertChain::State;
    using Run = GilbertRun;

    /// Throws std::invalid_argument unless every probability is in [0, 1].
    GilbertLoss(GilbertParams params, sim::Rng rng)
        : model_(params), chain_(rng) {}

    /// See GilbertChain::drop_next.
    bool drop_next() noexcept { return chain_.drop_next(model_); }

    /// See GilbertChain::next_run.
    Run next_run(std::uint64_t max_packets) noexcept {
        return chain_.next_run(model_, max_packets);
    }

    State state() const noexcept { return chain_.state(); }
    const GilbertParams& params() const noexcept { return model_.params(); }

    /// Long-run fraction of packets lost:
    /// pi_bad * loss_bad + pi_good * loss_good, where
    /// pi_bad = (1 - p_good) / ((1 - p_good) + (1 - p_bad)).
    static double stationary_loss(const GilbertParams& p) noexcept;

    /// Mean length of a loss burst for the CLASSIC emissions
    /// (loss_good = 0, loss_bad = 1): 1 / (1 - p_bad).
    static double mean_burst_length(const GilbertParams& p) noexcept;

private:
    GilbertModel model_;
    GilbertChain chain_;
};

}  // namespace espread::net
