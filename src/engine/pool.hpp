// Structure-of-arrays session pool — the engine's hot data.
//
// Per-session state that must survive from one window to the next
// (Gilbert chains, Eq. 1 estimate, pending-feedback ring, churn, arm and
// governor state) lives in parallel arrays indexed by slot, not in
// per-session objects.  Running totals live per shard instead, in the
// shard's ShardScratch, and are counted once: a shard's telemetry slab,
// when on, is a range-end mirror of them.  A window step walks a
// contiguous slot range touching only these arenas plus that scratch and
// slab, so the steady-state path performs zero heap allocations (pinned
// by test_alloc) and shards never write to shared cache lines.
//
// Determinism contract: every random draw of slot s in its g-th occupancy
// comes from the stream seeded by derive_seed(seed, g * capacity + s), and
// every total is an integer sum (or a histogram of integers) folded in
// shard order, so summaries are byte-identical for any shard count
// (pinned by test_engine).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/permutation.hpp"
#include "engine/config.hpp"
#include "engine/governor_lite.hpp"
#include "net/gilbert.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/slab.hpp"
#include "sim/stats.hpp"

namespace espread::engine {

/// Per-shard running totals: plain integer sums over every window the
/// shard ran, so folding shards by addition gives the same totals however
/// the slot axis was cut.  The totals the telemetry plane exports too are
/// the embedded TelemetryCounters block, declared there once; its
/// `windows` and `loss_windows` stay 0 here, because both derive from
/// the shard's clf_hist.  Names match the EngineSummary fields they feed.
struct ShardCounters {
    obs::telemetry::TelemetryCounters shared;  ///< sessions_spawned: churn only
    std::uint64_t governor_transitions = 0;
    std::uint64_t fec_repair_packets = 0;
    std::uint64_t fec_windows_recovered = 0;
    std::uint64_t fec_windows_unrecovered = 0;
    std::uint64_t nack_requests_sent = 0;
    std::uint64_t nack_requests_lost = 0;
    std::uint64_t nack_repair_packets = 0;
    std::uint64_t nack_credits_expired = 0;
    std::uint64_t nack_windows_proactive = 0;
};

/// Per-shard working memory: the packed loss-mask scratch words (read by
/// the telemetry loss-run scan; windows wider than 64 LDUs also mark and
/// scatter in them) plus the shard's totals and distribution
/// accumulators.  All counts are integers, and histograms are flat arrays
/// merged by addition, so folding shards in index order yields
/// grouping-independent totals.
/// Cache-line aligned so adjacent shards never share a line.
struct alignas(64) ShardScratch {
    std::vector<std::uint64_t> tx_words;   ///< transmission-order loss bits
    std::vector<std::uint64_t> pb_words;   ///< playback-order loss bits
    std::vector<std::uint64_t> clf_hist;   ///< bin v = windows with CLF == v
    std::vector<std::uint64_t> bound_hist; ///< bin b = windows sent with bound b
    ShardCounters counters;
    /// Telemetry plane slab bound to this shard; null when telemetry is
    /// off.  run_window_range mirrors the shard's totals into it once per
    /// range and observes only loss runs and governor exits per event;
    /// every use is null-gated (one predictable branch), so the disabled
    /// step loop stays allocation-free and unperturbed.
    obs::telemetry::TelemetrySlab* telemetry = nullptr;
};

/// Everything summarize() folds from the shard scratches.  Doubles are
/// computed from integer totals in a fixed order, so they too are
/// bit-identical across shard counts.
struct EngineSummary {
    std::size_t sessions = 0;          ///< pool capacity (slots)
    std::size_t active_sessions = 0;   ///< slots occupied at summary time
    std::uint64_t windows = 0;         ///< session-windows executed
    std::uint64_t slots = 0;           ///< LDU playback slots (windows * n)
    std::uint64_t unit_losses = 0;     ///< lost LDU slots
    std::uint64_t idle_windows = 0;    ///< churn gaps (no session in slot)
    double alf = 0.0;                  ///< unit_losses / slots
    double clf_mean = 0.0;             ///< mean per-window CLF
    double clf_dev = 0.0;              ///< population std-dev of window CLF
    std::uint64_t clf_max = 0;         ///< worst window CLF seen
    std::uint64_t acks_delivered = 0;  ///< feedback packets that survived
    std::uint64_t acks_lost = 0;       ///< feedback packets dropped
    std::uint64_t sessions_spawned = 0;  ///< capacity + churn respawns
    std::uint64_t sessions_completed = 0;
    /// Windows run under each governor-lite state, counted every window
    /// (all in [0] = Normal when supervision is off).  Equal to the
    /// telemetry plane's TelemetryCounters::governor_windows by
    /// construction: both are the shards' one ShardCounters::shared block.
    std::uint64_t governor_windows[4] = {0, 0, 0, 0};
    std::uint64_t governor_transitions = 0;  ///< governor-lite state changes
    /// FEC-lite arm (all zero, and absent from summary_json, when off).
    bool fec = false;                        ///< arm enabled this run
    std::uint64_t fec_repair_packets = 0;    ///< repair packets sent
    std::uint64_t fec_windows_recovered = 0; ///< lossy windows fully repaired
    std::uint64_t fec_windows_unrecovered = 0;  ///< lossy windows left coded-out
    /// NACK-lite arm (all zero, and absent from summary_json, when off).
    bool nack = false;                        ///< receiver-driven repair on
    std::uint64_t nack_requests_sent = 0;     ///< lossy reactive windows
    std::uint64_t nack_requests_lost = 0;     ///< NACKs the channel dropped
    std::uint64_t nack_repair_packets = 0;    ///< banked repairs released
    std::uint64_t nack_credits_expired = 0;   ///< accrual lost to the cap
    std::uint64_t nack_windows_proactive = 0; ///< watchdog-degraded windows
    sim::Histogram clf_histogram;      ///< per-window CLF distribution
    sim::Histogram bound_histogram;    ///< Eq. 1 bound usage distribution
    obs::MetricsRegistry metrics;      ///< filled when collect_metrics
};

/// SoA arenas plus the batched window step.  Thread-safety: disjoint slot
/// ranges may run concurrently (each slot's state is written only by the
/// shard that owns its range); construction and summarize() are
/// single-threaded.
class SessionPool {
public:
    /// Validates `cfg`, sizes every arena to cfg.sessions slots, builds
    /// the k-CPO permutation cache for bounds 1..n, and spawns generation
    /// 0 of every slot.
    explicit SessionPool(const EngineConfig& cfg);

    std::size_t capacity() const noexcept { return capacity_; }
    std::size_t window_ldus() const noexcept { return n_; }
    const EngineConfig& config() const noexcept { return cfg_; }

    /// Sizes a shard's scratch buffers for this pool.  Any later
    /// run_window_range into it allocates nothing.
    void init_scratch(ShardScratch& s) const;

    /// Runs one buffer window for every occupied slot in [begin, end):
    /// pending feedback -> Eq. 1 bound -> batched Gilbert runs marked into
    /// a transmission-order loss mask -> permutation scatter into playback
    /// order -> CLF/ALF accounting -> ACK across the feedback channel ->
    /// churn bookkeeping.  Windows of n <= 64 LDUs keep both masks in one
    /// register (nibble-table scatter, shift-and CLF); wider windows use
    /// the scratch words.  Touches only slot state in the range and `s`;
    /// never allocates.  When `s.telemetry` is set, the range ends by
    /// mirroring the shard's totals and histograms into that slab.
    void run_window_range(std::size_t begin, std::size_t end,
                          ShardScratch& s) noexcept;

    /// Folds the shard scratches (in shard order) into an EngineSummary;
    /// windows and the CLF moments come from the CLF histogram.
    EngineSummary summarize(const std::vector<ShardScratch>& shards) const;

    /// The (lifetime, arrival-gap) pair the churn model draws for a
    /// session id, exposed so tests can predict generation boundaries.
    /// Draws come from stream 3 of the session's root RNG; data and
    /// feedback chains use streams 1 and 2.
    static std::pair<std::uint32_t, std::uint32_t> churn_draw(
        const EngineConfig& cfg, std::uint64_t session_id);

private:
    /// (Re)initializes slot state for session id
    /// generation_[slot] * capacity + slot: re-seeds the slot's chains
    /// (generation 0, spawned in slot order by the constructor, appends
    /// them) and resets its window state.
    void spawn(std::size_t slot);

    /// run_window_range's one window loop.  OneWord (words_ == 1) holds a
    /// window's loss masks in registers; otherwise they live in the
    /// scratch words.  The two differ only in marking, counting and
    /// scattering a mask.
    template <bool OneWord>
    void run_range(std::size_t begin, std::size_t end,
                   ShardScratch& s) noexcept;

    EngineConfig cfg_;
    std::size_t capacity_ = 0;
    std::size_t n_ = 0;      ///< LDUs per window
    std::size_t f_ = 0;      ///< packets per LDU
    std::size_t words_ = 0;  ///< 64-bit words covering n_ bits

    /// The k-CPO order of every bound, built once so the hot path never
    /// recomputes one, in the form the window width scatters with (both
    /// empty when spreading is off).  n > 64: perms_[b] =
    /// calculate_permutation(n, b).perm for b in 1..n (index 0 unused).
    std::vector<Permutation> perms_;

    /// n <= 64: row b, the 16 * nibbles_ words from
    /// scatter_lut_[b * 16 * nibbles_], is that order's
    /// fill_nibble_table() (row 0 unused).  About 19 KB at n = 24, so the
    /// rows stay L1-resident.
    std::vector<std::uint64_t> scatter_lut_;
    std::size_t nibbles_ = 0;  ///< Permutation::nibbles(n_)

    /// One immutable loss model per direction, shared by every slot's
    /// chain (validated params plus the dwell tables).
    net::GilbertModel data_model_;
    net::GilbertModel feedback_model_;

    // Hot per-slot state (SoA).
    std::vector<net::GilbertChain> data_chain_;      ///< 48 B per slot
    std::vector<net::GilbertChain> feedback_chain_;  ///< 48 B per slot
    std::vector<double> estimate_;         ///< Eq. 1 EWMA, prior n/2
    std::vector<std::uint32_t> pending_;   ///< feedback ring, kNoObs = empty
    std::vector<std::uint32_t> windows_run_;
    std::vector<std::uint32_t> lifetime_left_;  ///< 0 = immortal
    std::vector<std::uint32_t> idle_left_;      ///< > 0: slot unoccupied
    std::vector<std::uint32_t> gap_next_;       ///< idle gap after departure
    std::vector<std::uint32_t> generation_;     ///< occupancy count of slot

    /// FEC-lite repairs accrued per window (0 when the arm is off).
    std::size_t fec_repairs_per_window_ = 0;

    // NACK-lite state (sized iff cfg.fec.nack).
    std::vector<std::uint32_t> nack_credit_;  ///< banked repair packets
    std::vector<std::uint32_t> nack_wd_;      ///< consecutive lost feedbacks

    // Governor-lite supervision (sized only when cfg_.governor.enabled,
    // so an unsupervised pool pays nothing).
    std::vector<GovernorLiteState> gov_;
};

}  // namespace espread::engine
