#include "engine/pool.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/cpo.hpp"
#include "core/estimator.hpp"
#include "core/metrics.hpp"
#include "sim/contracts.hpp"
#include "sim/rng.hpp"

namespace espread::engine {

namespace {

constexpr std::uint32_t kNoObs = std::numeric_limits<std::uint32_t>::max();

/// Sets bits [lo, hi] (inclusive) across packed words.
void set_bits(std::uint64_t* w, std::size_t lo, std::size_t hi) noexcept {
    const std::size_t wlo = lo >> 6;
    const std::size_t whi = hi >> 6;
    const std::uint64_t mlo = ~std::uint64_t{0} << (lo & 63);
    const std::uint64_t mhi = (hi & 63) == 63
                                  ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << ((hi & 63) + 1)) - 1;
    if (wlo == whi) {
        w[wlo] |= mlo & mhi;
        return;
    }
    w[wlo] |= mlo;
    for (std::size_t i = wlo + 1; i < whi; ++i) w[i] = ~std::uint64_t{0};
    w[whi] |= mhi;
}

/// Bits [lo, hi] (inclusive, hi < 64) of one word.  At hi == 63 the shift
/// 2 << 63 wraps to 0, and 0 - 1 is the all-ones word the span needs.
constexpr std::uint64_t span_bits(std::size_t lo, std::size_t hi) noexcept {
    return ((std::uint64_t{2} << hi) - 1) & ~((std::uint64_t{1} << lo) - 1);
}

const EngineConfig& validated(const EngineConfig& cfg) {
    cfg.validate();
    return cfg;
}

std::uint32_t clamp_u32(std::uint64_t v) noexcept {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
    return static_cast<std::uint32_t>(v < kMax ? v : kMax);
}

/// Feeds every maximal run of set bits (consecutive lost LDUs in the
/// scanned order) to the telemetry slab, word at a time, with runs
/// crossing word boundaries intact.  Bits past the window are zero by
/// construction, so runs terminate correctly at the tail.
void record_loss_runs(const std::uint64_t* w, std::size_t words,
                      obs::telemetry::TelemetrySlab& slab) noexcept {
    std::uint64_t run = 0;
    for (std::size_t i = 0; i < words; ++i) {
        std::uint64_t word = w[i];
        unsigned remaining = 64;
        while (remaining > 0) {
            if ((word & 1U) != 0) {
                unsigned ones = static_cast<unsigned>(std::countr_one(word));
                if (ones > remaining) ones = remaining;
                run += ones;
                word = ones >= 64 ? 0 : word >> ones;
                remaining -= ones;
            } else {
                unsigned zeros =
                    word == 0 ? remaining
                              : static_cast<unsigned>(std::countr_zero(word));
                if (zeros > remaining) zeros = remaining;
                if (run > 0) slab.observe_loss_run(run);
                run = 0;
                word = zeros >= 64 ? 0 : word >> zeros;
                remaining -= zeros;
            }
        }
    }
    if (run > 0) slab.observe_loss_run(run);
}

}  // namespace

SessionPool::SessionPool(const EngineConfig& cfg)
    : cfg_(validated(cfg)),
      data_model_(cfg_.data_loss),
      feedback_model_(cfg_.feedback_loss) {
    capacity_ = cfg_.sessions;
    n_ = cfg_.window_ldus;
    f_ = cfg_.packets_per_ldu;
    words_ = (n_ + 63) / 64;

    if (cfg_.spread && words_ == 1) {
        // One-word windows keep only the scatter tables, allocated before
        // the calculate_permutation temporaries.  Keeping perms_ as well
        // changed the heap layout enough that glibc trimmed and re-faulted
        // the freed heap on every back-to-back construction.
        nibbles_ = Permutation::nibbles(n_);
        scatter_lut_.assign((n_ + 1) * 16 * nibbles_, 0);
        for (std::size_t b = 1; b <= n_; ++b) {
            calculate_permutation(n_, b).perm.fill_nibble_table(
                &scatter_lut_[b * 16 * nibbles_]);
        }
    } else if (cfg_.spread) {
        perms_.resize(n_ + 1);
        for (std::size_t b = 1; b <= n_; ++b) {
            perms_[b] = calculate_permutation(n_, b).perm;
        }
    }

    const std::size_t D = cfg_.feedback_delay_windows;
    data_chain_.reserve(capacity_);
    feedback_chain_.reserve(capacity_);
    estimate_.assign(capacity_, 0.0);
    pending_.assign(capacity_ * D, kNoObs);
    windows_run_.assign(capacity_, 0);
    lifetime_left_.assign(capacity_, 0);
    idle_left_.assign(capacity_, 0);
    gap_next_.assign(capacity_, 0);
    generation_.assign(capacity_, 0);
    if (cfg_.fec.enabled) {
        const std::size_t packets = n_ * f_;
        fec_repairs_per_window_ =
            packets * cfg_.fec.overhead_num / cfg_.fec.overhead_den;
        if (cfg_.fec.nack) {
            nack_credit_.assign(capacity_, 0);
            nack_wd_.assign(capacity_, 0);
        }
    }
    if (cfg_.governor.enabled) gov_.assign(capacity_, GovernorLiteState{});

    for (std::size_t slot = 0; slot < capacity_; ++slot) spawn(slot);
}

std::pair<std::uint32_t, std::uint32_t> SessionPool::churn_draw(
    const EngineConfig& cfg, std::uint64_t session_id) {
    sim::Rng root(sim::derive_seed(cfg.seed, session_id));
    sim::Rng life = root.split(contracts::kEngineLaneChurn);
    const double min_life =
        static_cast<double>(cfg.churn.min_lifetime_windows);
    const double extra = cfg.churn.mean_lifetime_windows > min_life
                             ? cfg.churn.mean_lifetime_windows - min_life
                             : 0.0;
    std::uint64_t lifetime = static_cast<std::uint64_t>(
                                 cfg.churn.min_lifetime_windows) +
                             life.geometric(1.0 / (1.0 + extra));
    if (lifetime == 0) lifetime = 1;
    std::uint64_t gap = 0;
    if (cfg.churn.mean_arrival_gap_windows > 0.0) {
        gap = life.geometric(1.0 / (1.0 + cfg.churn.mean_arrival_gap_windows));
    }
    return {clamp_u32(lifetime), clamp_u32(gap)};
}

void SessionPool::spawn(std::size_t slot) {
    const std::uint64_t id =
        static_cast<std::uint64_t>(generation_[slot]) *
            static_cast<std::uint64_t>(capacity_) +
        static_cast<std::uint64_t>(slot);
    sim::Rng root(sim::derive_seed(cfg_.seed, id));
    const net::GilbertChain data(root.split(contracts::kEngineLaneDataChain));
    const net::GilbertChain feedback(
        root.split(contracts::kEngineLaneFeedbackChain));
    if (slot < data_chain_.size()) {
        data_chain_[slot] = data;
        feedback_chain_[slot] = feedback;
    } else {  // generation 0, appended in slot order (capacity reserved)
        data_chain_.push_back(data);
        feedback_chain_.push_back(feedback);
    }
    estimate_[slot] = static_cast<double>(n_) / 2.0;
    windows_run_[slot] = 0;
    const std::size_t D = cfg_.feedback_delay_windows;
    for (std::size_t d = 0; d < D; ++d) pending_[slot * D + d] = kNoObs;
    if (cfg_.churn.enabled) {
        const auto [life, gap] = churn_draw(cfg_, id);
        lifetime_left_[slot] = life;
        gap_next_[slot] = gap;
    } else {
        lifetime_left_[slot] = 0;
        gap_next_[slot] = 0;
    }
    if (cfg_.governor.enabled) {
        // Fresh session, fresh supervision: Normal with the prior's bound
        // as the slew reference (the in-progress dwell of a departing
        // session ends unrecorded — only completed visits are observed).
        gov_[slot] = GovernorLiteState{};
        gov_[slot].published = static_cast<std::uint32_t>(
            BurstEstimator::bound_for(estimate_[slot], n_));
    }
    if (cfg_.fec.nack) {
        // A fresh session starts with an empty bank and a live path.
        nack_credit_[slot] = 0;
        nack_wd_[slot] = 0;
    }
}

void SessionPool::init_scratch(ShardScratch& s) const {
    s.tx_words.assign(words_, 0);
    s.pb_words.assign(words_, 0);
    s.clf_hist.assign(n_ + 1, 0);
    s.bound_hist.assign(n_ + 1, 0);
    s.counters = ShardCounters{};
}

void SessionPool::run_window_range(std::size_t begin, std::size_t end,
                                   ShardScratch& s) noexcept {
    if (words_ == 1) {
        run_range<true>(begin, end, s);
    } else {
        run_range<false>(begin, end, s);
    }
}

template <bool OneWord>
void SessionPool::run_range(std::size_t begin, std::size_t end,
                            ShardScratch& s) noexcept {
    const std::size_t D = cfg_.feedback_delay_windows;
    const std::size_t packets = n_ * f_;
    const bool governed = cfg_.governor.enabled;
    const bool fec_on = cfg_.fec.enabled;
    const bool nack_on = cfg_.fec.nack;
    std::uint64_t* tx = s.tx_words.data();
    std::uint64_t* pb = s.pb_words.data();
    // Locals, not members: stores to the uint64_t histograms below could
    // otherwise alias them and force a reload every window.
    const std::uint64_t* const lut = scatter_lut_.data();
    const std::size_t nibbles = nibbles_;
    obs::telemetry::TelemetrySlab* const tel = s.telemetry;
    const net::GilbertModel& data_model = data_model_;
    const net::GilbertModel& feedback_model = feedback_model_;
    ShardCounters c = s.counters;  // written back once, after the range
    for (std::size_t slot = begin; slot < end; ++slot) {
        if (idle_left_[slot] > 0) {
            // Churn gap: the slot carries no session this window.  The
            // arriving session's first window runs on the next step.
            ++c.shared.idle_windows;
            if (--idle_left_[slot] == 0) {
                ++generation_[slot];
                spawn(slot);
                ++c.shared.sessions_spawned;
            }
            continue;
        }

        // 1. Feedback that has aged feedback_delay_windows becomes the
        //    Eq. 1 observation shaping this window (Fig. 6 pipeline).
        const std::uint32_t w = windows_run_[slot];
        std::uint32_t& cell = pending_[slot * D + (w % D)];
        const bool fed = cell != kNoObs;
        if (fed) {
            estimate_[slot] = cfg_.alpha * static_cast<double>(cell) +
                              (1.0 - cfg_.alpha) * estimate_[slot];
            cell = kNoObs;
        }
        std::size_t bound;
        std::uint8_t gov_state = kGovNormal;
        if (governed) {
            // Governor-lite supervision: the watchdog arms once feedback
            // could have arrived (w >= D); the published bound may be
            // decayed, pinned to the prior or slew-limited by state.
            const GovernorLiteOutcome o = governor_lite_step(
                gov_[slot], cfg_.governor, static_cast<std::size_t>(w) >= D,
                fed, estimate_[slot], n_);
            bound = o.bound;
            gov_state = gov_[slot].state;
            if (o.transitioned) {
                ++c.governor_transitions;
                if (tel != nullptr) tel->observe_governor_exit(o.exit_dwell);
            }
        } else {
            bound = BurstEstimator::bound_for(estimate_[slot], n_);
        }

        // 2. Channel: batched Gilbert runs -> lost-LDU bit ranges in
        //    transmission order (an LDU is lost if any of its packets is).
        //    One-word windows OR each range into tx1; wider ones mark tx.
        std::uint64_t tx1 = 0;
        if constexpr (!OneWord) std::fill_n(tx, words_, std::uint64_t{0});
        net::GilbertChain& chain = data_chain_[slot];
        std::size_t pkt = 0;
        std::size_t lost_pkts = 0;
        bool any_loss = false;
        while (pkt < packets) {
            const net::GilbertRun run = chain.next_run(
                data_model, static_cast<std::uint64_t>(packets - pkt));
            const std::size_t len = static_cast<std::size_t>(run.length);
            if (run.lost) {
                any_loss = true;
                lost_pkts += len;
                const std::size_t lo = pkt / f_;
                const std::size_t hi = (pkt + len - 1) / f_;
                if constexpr (OneWord) {
                    tx1 |= span_bits(lo, hi);
                } else {
                    set_bits(tx, lo, hi);
                }
            }
            pkt += len;
        }

        // 2b. FEC-lite: the window's repair packets ride the same chain,
        //     and are always sent (constant bandwidth, shard-independent
        //     chain advance even on loss-free windows).  Under NACK-lite
        //     the accrual banks instead, and releases only for a lossy
        //     window whose NACK — piggybacked on this window's feedback
        //     packet, drawn here so the feedback chain still advances
        //     exactly once per window — survives the channel; a watchdog
        //     of consecutive lost feedbacks reverts to the fixed schedule.
        std::size_t fec_survived = 0;
        std::size_t fec_repairs_this_window = 0;
        bool nack_fb_lost = false;     // this window's feedback draw
        bool nack_reactive = false;    // draw happened here, skip stage 4's
        if (fec_on) {
            if (nack_on && nack_wd_[slot] < cfg_.fec.nack_watchdog_windows) {
                nack_reactive = true;
                const std::size_t cap = cfg_.fec.nack_credit_cap;
                const std::size_t bank = nack_credit_[slot];
                const std::size_t add =
                    std::min(cap - std::min(cap, bank),
                             fec_repairs_per_window_);
                nack_credit_[slot] = static_cast<std::uint32_t>(bank + add);
                c.nack_credits_expired += fec_repairs_per_window_ - add;
                nack_fb_lost = feedback_chain_[slot].drop_next(feedback_model);
                if (any_loss) {
                    ++c.nack_requests_sent;
                    if (nack_fb_lost) {
                        ++c.nack_requests_lost;
                    } else {
                        fec_repairs_this_window = std::min<std::size_t>(
                            nack_credit_[slot], lost_pkts);
                        nack_credit_[slot] -= static_cast<std::uint32_t>(
                            fec_repairs_this_window);
                        c.nack_repair_packets += fec_repairs_this_window;
                    }
                }
            } else {
                // Plain FEC-lite, or the NACK watchdog fired: fixed
                // proactive schedule (graceful degradation).
                fec_repairs_this_window = fec_repairs_per_window_;
                if (nack_on) ++c.nack_windows_proactive;
            }
            std::size_t rp = 0;
            while (rp < fec_repairs_this_window) {
                const net::GilbertRun run = chain.next_run(
                    data_model,
                    static_cast<std::uint64_t>(fec_repairs_this_window - rp));
                const std::size_t len = static_cast<std::size_t>(run.length);
                if (!run.lost) fec_survived += len;
                rp += len;
            }
        }

        // 3. Unspread + continuity accounting, word at a time.  A window
        //    whose surviving repairs cover its lost source packets is
        //    repaired whole before playback (all-or-nothing MDS limit);
        //    the transmission-order observation `obs` is taken first, so
        //    feedback still reports the raw channel.
        std::size_t obs = 0;
        std::size_t clf = 0;
        std::size_t losses = 0;
        bool recovered = false;
        std::uint64_t pb1 = 0;
        if (any_loss) {
            if constexpr (OneWord) {
                losses = static_cast<std::size_t>(std::popcount(tx1));
                obs = max_set_run_word(tx1);
            } else {
                losses = count_set_bits(tx, words_);
                obs = max_set_run(tx, words_);
            }
            if (fec_on && fec_survived >= lost_pkts) {
                recovered = true;
                losses = 0;
            } else if (cfg_.spread) {
                if constexpr (OneWord) {
                    pb1 = Permutation::scatter_word(lut + bound * 16 * nibbles,
                                                    nibbles, tx1);
                    clf = max_set_run_word(pb1);
                } else {
                    std::fill_n(pb, words_, std::uint64_t{0});
                    perms_[bound].scatter_set_bits(tx, pb, words_);
                    clf = max_set_run(pb, words_);
                }
            } else {
                clf = obs;
            }
        }

        // 4. The client ACKs its transmission-order burst observation
        //    across the (lossy) feedback channel.  Under reactive
        //    NACK-lite the draw already happened in 2b (the NACK and ACK
        //    share the window's feedback packet); reusing it keeps the
        //    chain at one draw per window in every mode.
        const bool ack_lost =
            nack_reactive ? nack_fb_lost
                          : feedback_chain_[slot].drop_next(feedback_model);
        if (nack_on) nack_wd_[slot] = ack_lost ? nack_wd_[slot] + 1 : 0;
        if (ack_lost) {
            ++c.shared.acks_lost;
        } else {
            pending_[slot * D + (w % D)] = static_cast<std::uint32_t>(obs);
            ++c.shared.acks_delivered;
        }

        // 5. Integer accumulators (grouping-independent merge); the CLF
        //    histogram alone carries windows and the CLF moments.
        c.shared.unit_losses += losses;
        ++c.shared.governor_windows[gov_state];
        ++s.clf_hist[clf];
        ++s.bound_hist[bound];
        if (fec_on) {
            c.fec_repair_packets += fec_repairs_this_window;
            if (any_loss) {
                if (recovered) {
                    ++c.fec_windows_recovered;
                } else {
                    ++c.fec_windows_unrecovered;
                }
            }
        }
        windows_run_[slot] = w + 1;
        if (tel != nullptr && any_loss && !recovered) {
            if constexpr (OneWord) {
                tx[0] = tx1;
                pb[0] = pb1;
            }
            record_loss_runs(cfg_.spread ? pb : tx, words_, *tel);
        }

        // 6. Churn: departure, then either an idle gap or an immediate
        //    respawn with a fresh RNG stream (new session id).
        if (lifetime_left_[slot] > 0 && --lifetime_left_[slot] == 0) {
            ++c.shared.sessions_completed;
            if (gap_next_[slot] > 0) {
                idle_left_[slot] = gap_next_[slot];
            } else {
                ++generation_[slot];
                spawn(slot);
                ++c.shared.sessions_spawned;
            }
        }
    }
    s.counters = c;

    // The slab is a view of this shard's totals, rebuilt from them here.
    // windows is the CLF histogram's mass, and a window has CLF 0 exactly
    // when no loss survived repair.
    if (tel != nullptr) {
        tel->counters = c.shared;
        tel->window_clf = {};
        tel->bound_used = {};
        for (std::size_t v = 0; v <= n_; ++v) {
            tel->window_clf.record(v, s.clf_hist[v]);
            tel->bound_used.record(v, s.bound_hist[v]);
        }
        tel->counters.windows = tel->window_clf.total();
        tel->counters.loss_windows = tel->counters.windows - s.clf_hist[0];
    }
}

EngineSummary SessionPool::summarize(
    const std::vector<ShardScratch>& shards) const {
    EngineSummary out;
    out.sessions = capacity_;
    out.sessions_spawned = capacity_;  // generation 0, spawned by the ctor
    out.fec = cfg_.fec.enabled;
    out.nack = cfg_.fec.nack;
    for (std::size_t slot = 0; slot < capacity_; ++slot) {
        if (idle_left_[slot] == 0) ++out.active_sessions;
    }
    obs::telemetry::TelemetryCounters shared;
    for (const ShardScratch& s : shards) {
        const ShardCounters& c = s.counters;
        shared.merge(c.shared);
        out.governor_transitions += c.governor_transitions;
        out.fec_repair_packets += c.fec_repair_packets;
        out.fec_windows_recovered += c.fec_windows_recovered;
        out.fec_windows_unrecovered += c.fec_windows_unrecovered;
        out.nack_requests_sent += c.nack_requests_sent;
        out.nack_requests_lost += c.nack_requests_lost;
        out.nack_repair_packets += c.nack_repair_packets;
        out.nack_credits_expired += c.nack_credits_expired;
        out.nack_windows_proactive += c.nack_windows_proactive;
        for (std::size_t v = 0; v < s.clf_hist.size(); ++v) {
            if (s.clf_hist[v] > 0) {
                out.clf_histogram.add(static_cast<std::int64_t>(v),
                                      static_cast<std::size_t>(s.clf_hist[v]));
            }
        }
        for (std::size_t b = 0; b < s.bound_hist.size(); ++b) {
            if (s.bound_hist[b] > 0) {
                out.bound_histogram.add(static_cast<std::int64_t>(b),
                                        static_cast<std::size_t>(s.bound_hist[b]));
            }
        }
    }
    out.unit_losses = shared.unit_losses;
    out.idle_windows = shared.idle_windows;
    out.acks_delivered = shared.acks_delivered;
    out.acks_lost = shared.acks_lost;
    out.sessions_spawned += shared.sessions_spawned;
    out.sessions_completed = shared.sessions_completed;
    std::copy_n(shared.governor_windows, 4, out.governor_windows);
    // Windows and the CLF moments, from the merged per-window CLF bins.
    std::uint64_t clf_sum = 0;
    std::uint64_t clf_sq = 0;
    for (const auto& [v, count] : out.clf_histogram.bins()) {
        const auto clf = static_cast<std::uint64_t>(v);
        const auto k = static_cast<std::uint64_t>(count);
        out.windows += k;
        clf_sum += clf * k;
        clf_sq += clf * clf * k;
        out.clf_max = clf;  // bins ascend, so the last one is the max
    }
    out.slots = out.windows * static_cast<std::uint64_t>(n_);
    if (out.windows > 0) {
        const double w = static_cast<double>(out.windows);
        out.alf = static_cast<double>(out.unit_losses) /
                  static_cast<double>(out.slots);
        out.clf_mean = static_cast<double>(clf_sum) / w;
        const double var =
            static_cast<double>(clf_sq) / w - out.clf_mean * out.clf_mean;
        out.clf_dev = var > 0.0 ? std::sqrt(var) : 0.0;
    }
    if (cfg_.collect_metrics) {
        out.metrics.add_counter("engine/windows", out.windows);
        out.metrics.add_counter("engine/unit_losses", out.unit_losses);
        out.metrics.add_counter("engine/acks_delivered", out.acks_delivered);
        out.metrics.add_counter("engine/acks_lost", out.acks_lost);
        out.metrics.add_counter("engine/sessions_spawned", out.sessions_spawned);
        out.metrics.add_counter("engine/sessions_completed",
                                out.sessions_completed);
        out.metrics.add_counter("engine/idle_windows", out.idle_windows);
        if (cfg_.fec.enabled) {
            out.metrics.add_counter("engine/fec_repair_packets",
                                    out.fec_repair_packets);
            out.metrics.add_counter("engine/fec_windows_recovered",
                                    out.fec_windows_recovered);
            out.metrics.add_counter("engine/fec_windows_unrecovered",
                                    out.fec_windows_unrecovered);
        }
        if (cfg_.fec.nack) {
            out.metrics.add_counter("engine/nack_requests_sent",
                                    out.nack_requests_sent);
            out.metrics.add_counter("engine/nack_requests_lost",
                                    out.nack_requests_lost);
            out.metrics.add_counter("engine/nack_repair_packets",
                                    out.nack_repair_packets);
            out.metrics.add_counter("engine/nack_credits_expired",
                                    out.nack_credits_expired);
            out.metrics.add_counter("engine/nack_windows_proactive",
                                    out.nack_windows_proactive);
        }
        if (cfg_.governor.enabled) {
            out.metrics.add_counter("engine/governor_windows_normal",
                                    out.governor_windows[0]);
            out.metrics.add_counter("engine/governor_windows_degraded",
                                    out.governor_windows[1]);
            out.metrics.add_counter("engine/governor_windows_fallback",
                                    out.governor_windows[2]);
            out.metrics.add_counter("engine/governor_windows_recovering",
                                    out.governor_windows[3]);
            out.metrics.add_counter("engine/governor_transitions",
                                    out.governor_transitions);
        }
        out.metrics.histogram("engine/window_clf").merge(out.clf_histogram);
        out.metrics.histogram("engine/bound_used").merge(out.bound_histogram);
    }
    return out;
}

}  // namespace espread::engine
