// Per-shard telemetry slab: the fleet telemetry plane's per-shard sink.
//
// One TelemetrySlab per engine shard, written ONLY by the shard that owns
// it (single-writer, so plain stores — no atomics, no locks) and read
// only between steps, when every shard is idle.  Its totals are a view of
// the shard's own, mirrored at the end of every range; only loss runs and
// governor dwell are observed per event, each call site null-gated (the
// same contract as obs::TraceSink, enforced by espread-lint D4 for the
// observe_* calls).  The struct is cache-line-aligned and slabs are
// stored contiguously, so two shards never share a line.
//
// Everything in the slab is a uint64 counter or a fixed-size
// QuantileHistogram: folding slabs in shard index order is pure integer
// addition, so an epoch snapshot is byte-identical for any shard count.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/telemetry/quantile.hpp"

namespace espread::obs::telemetry {

/// Monotone fleet counters, one block per slab and (merged) per snapshot,
/// and the engine's own per-shard totals (engine::ShardCounters embeds
/// this block, so each total is declared and counted once).  merge() is
/// element-wise addition; delta() the element-wise difference of two
/// states of the same cumulative block.
struct TelemetryCounters {
    std::uint64_t windows = 0;         ///< session-windows executed (Σ CLF bins)
    std::uint64_t unit_losses = 0;     ///< lost LDU playback slots
    /// Windows with at least one unrecovered loss: windows minus the CLF-0
    /// bin, since a window has CLF 0 exactly when no loss survived repair.
    std::uint64_t loss_windows = 0;
    std::uint64_t idle_windows = 0;    ///< churn gaps (slot unoccupied)
    std::uint64_t acks_delivered = 0;  ///< feedback packets that survived
    std::uint64_t acks_lost = 0;       ///< feedback packets dropped
    /// Churn arrivals while stepping (the pool's generation-0 prefill is
    /// construction, not churn, and is not counted).
    std::uint64_t sessions_spawned = 0;
    std::uint64_t sessions_completed = 0;  ///< churn departures
    /// Windows run under each engine governor state (indexed by
    /// engine::GovernorLiteState::state; all-Normal when supervision is
    /// off).
    std::uint64_t governor_windows[4] = {0, 0, 0, 0};

    void merge(const TelemetryCounters& o) noexcept {
        windows += o.windows;
        unit_losses += o.unit_losses;
        loss_windows += o.loss_windows;
        idle_windows += o.idle_windows;
        acks_delivered += o.acks_delivered;
        acks_lost += o.acks_lost;
        sessions_spawned += o.sessions_spawned;
        sessions_completed += o.sessions_completed;
        for (std::size_t s = 0; s < 4; ++s) {
            governor_windows[s] += o.governor_windows[s];
        }
    }

    static TelemetryCounters delta(const TelemetryCounters& now,
                                   const TelemetryCounters& prev) noexcept {
        TelemetryCounters d;
        d.windows = now.windows - prev.windows;
        d.unit_losses = now.unit_losses - prev.unit_losses;
        d.loss_windows = now.loss_windows - prev.loss_windows;
        d.idle_windows = now.idle_windows - prev.idle_windows;
        d.acks_delivered = now.acks_delivered - prev.acks_delivered;
        d.acks_lost = now.acks_lost - prev.acks_lost;
        d.sessions_spawned = now.sessions_spawned - prev.sessions_spawned;
        d.sessions_completed = now.sessions_completed - prev.sessions_completed;
        for (std::size_t s = 0; s < 4; ++s) {
            d.governor_windows[s] =
                now.governor_windows[s] - prev.governor_windows[s];
        }
        return d;
    }

    bool operator==(const TelemetryCounters&) const noexcept = default;
};

/// One shard's telemetry arena.  `counters`, `window_clf` and
/// `bound_used` are the range-end mirror of the bound ShardScratch;
/// `loss_run` and `governor_dwell` accumulate per event.  A slab must stay
/// bound to one ShardScratch for its lifetime: the mirror overwrites its
/// totals with that scratch's.
struct alignas(64) TelemetrySlab {
    TelemetryCounters counters;
    QuantileHistogram window_clf;     ///< per-window playback CLF
    QuantileHistogram loss_run;       ///< consecutive-loss run lengths
    QuantileHistogram bound_used;     ///< Eq. 1 bound the window was sent with
    QuantileHistogram governor_dwell; ///< windows per completed state visit

    /// One maximal run of consecutive lost LDU slots in playback order.
    void observe_loss_run(std::uint64_t length) noexcept {
        loss_run.record(length);
    }

    /// A governor state visit ended after `dwell` windows.
    void observe_governor_exit(std::uint64_t dwell) noexcept {
        governor_dwell.record(dwell);
    }
};

}  // namespace espread::obs::telemetry
