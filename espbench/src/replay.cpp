// Layer replays for traced runs: benchmark-owned loops over each layer's
// public API, fed with the workload's window shape, plus the assembly of
// the per-layer metric list.
//
// Each replay times batches of calls until its slice of the budget is
// spent and reports wall time per unit (window, packet, event, record,
// NACK, repair, symbol).  Inputs (loss patterns, observations) are built
// before the timed batches.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "common.hpp"
#include "core/cpo.hpp"
#include "core/estimator.hpp"
#include "core/metrics.hpp"
#include "core/permutation.hpp"
#include "fec/rlc.hpp"
#include "net/channel.hpp"
#include "net/gilbert.hpp"
#include "protocol/codec.hpp"
#include "protocol/governor.hpp"
#include "protocol/planner.hpp"
#include "protocol/receiver.hpp"
#include "protocol/recovery.hpp"
#include "protocol/wire.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "trace.hpp"

namespace espbench {

using espread::net::GilbertLoss;
using espread::sim::derive_seed;
using espread::sim::Rng;

namespace {

constexpr std::size_t kPatternWindows = 1024;  ///< precomputed loss windows
constexpr std::size_t kCountWindows = 10000;   ///< loss-run count prefix

/// Keeps replay results observable so the optimizer cannot drop the calls.
volatile std::uint64_t g_sink = 0;

/// Runs `batch` (which returns the units it processed) until `slice_s`
/// has passed, at least twice; returns nanoseconds per unit.
template <typename F>
double ns_per_unit(double slice_s, F&& batch) {
    double units = 0.0;
    const double t0 = now_s();
    double elapsed = 0.0;
    for (int rounds = 0; rounds < 2 || elapsed < slice_s; ++rounds) {
        units += static_cast<double>(batch());
        elapsed = now_s() - t0;
    }
    return elapsed * 1e9 / units;
}

/// Per-packet loss outcomes of `windows` windows of `per_window` packets.
std::vector<std::vector<bool>> loss_pattern(const Shape& s, std::size_t per_window,
                                            std::size_t windows, std::uint64_t lane) {
    GilbertLoss g(s.data_loss, Rng(derive_seed(s.seed, lane)));
    std::vector<std::vector<bool>> out(windows, std::vector<bool>(per_window));
    for (auto& w : out) {
        for (std::size_t i = 0; i < per_window; ++i) w[i] = g.drop_next();
    }
    return out;
}

/// Per-LDU loss bits (an LDU is lost when any of its packets is lost), in
/// 64-bit words, one vector per window.
std::vector<std::vector<std::uint64_t>> ldu_words(const Shape& s, std::size_t windows) {
    const std::size_t words = (s.n + 63) / 64;
    const auto pat = loss_pattern(s, s.n * s.packets_per_ldu, windows, 2);
    std::vector<std::vector<std::uint64_t>> out(windows, std::vector<std::uint64_t>(words));
    for (std::size_t w = 0; w < windows; ++w) {
        for (std::size_t i = 0; i < s.n * s.packets_per_ldu; ++i) {
            const std::size_t ldu = i / s.packets_per_ldu;
            if (pat[w][i]) out[w][ldu / 64] |= std::uint64_t{1} << (ldu % 64);
        }
    }
    return out;
}

std::size_t typical_bound(const Shape& s) {
    const double b = std::round(GilbertLoss::mean_burst_length(s.data_loss));
    return std::clamp<std::size_t>(static_cast<std::size_t>(b), 1, s.n);
}

}  // namespace

LayerCosts replay_layers(const Shape& s, double budget_s) {
    LayerCosts c;
    const double slice = budget_s / 14.0;
    const std::size_t per_window = s.n * s.packets_per_ldu + s.repairs_per_window;
    const std::size_t words = (s.n + 63) / 64;

    // net: Gilbert loss runs covering one window's packets.
    {
        GilbertLoss g(s.data_loss, Rng(derive_seed(s.seed, 1)));
        const auto window = [&] {
            std::uint64_t left = per_window, runs = 0;
            while (left > 0) {
                left -= g.next_run(left).length;
                ++runs;
            }
            return runs;
        };
        std::uint64_t runs = 0;
        for (std::size_t w = 0; w < kCountWindows; ++w) runs += window();
        c.loss_runs_per_window = static_cast<double>(runs) / kCountWindows;
        c.gilbert_ns_per_window = ns_per_unit(slice, [&] {
            for (int w = 0; w < 256; ++w) g_sink = g_sink + window();
            return 256;
        });
    }

    // core: permutation apply/unapply plus the engine's bit scatter.
    const auto pb = ldu_words(s, kPatternWindows);
    const espread::Permutation perm = espread::calculate_permutation(s.n, typical_bound(s)).perm;
    {
        std::vector<std::size_t> items(s.n), tx, back;
        std::iota(items.begin(), items.end(), std::size_t{0});
        std::vector<std::uint64_t> dst(words);
        std::size_t w = 0;
        c.scatter_ns_per_window = ns_per_unit(slice, [&] {
            for (int i = 0; i < 256; ++i, w = (w + 1) % kPatternWindows) {
                perm.apply_into(items, tx);
                perm.unapply_into(tx, back);
                std::fill(dst.begin(), dst.end(), 0);
                perm.scatter_set_bits(pb[w].data(), dst.data(), words);
                g_sink = g_sink + back[0] + dst[0];
            }
            return 256;
        });
        c.clf_fold_ns_per_window = ns_per_unit(slice, [&] {
            for (int i = 0; i < 256; ++i, w = (w + 1) % kPatternWindows) {
                g_sink = g_sink + espread::max_set_run(pb[w].data(), words) +
                         espread::count_set_bits(pb[w].data(), words);
            }
            return 256;
        });
    }

    // core: Eq. 1 estimator update + bound, fed the windows' CLFs.
    std::vector<std::size_t> observed(kPatternWindows);
    for (std::size_t w = 0; w < kPatternWindows; ++w) {
        observed[w] = espread::max_set_run(pb[w].data(), words);
    }
    {
        espread::BurstEstimator est(s.n, s.alpha);
        std::size_t w = 0;
        c.estimator_ns_per_update = ns_per_unit(slice, [&] {
            for (int i = 0; i < 256; ++i, w = (w + 1) % kPatternWindows) {
                est.update(observed[w]);
                g_sink = g_sink + est.bound();
            }
            return 256;
        });
    }

    // core: the k-CPO cache, calculate_permutation(n, b) for b = 1..n.
    {
        std::vector<double> builds;
        const double t0 = now_s();
        while (builds.size() < 3 || now_s() - t0 < slice) {
            const double b0 = now_s();
            for (std::size_t b = 1; b <= s.n; ++b) {
                g_sink = g_sink + espread::calculate_permutation(s.n, b).stride;
            }
            builds.push_back((now_s() - b0) * 1e6);
        }
        c.cpo_build_us = median(builds);
    }

    const std::size_t wire_bits = s.session.packet_bits + 256;

    // sim: schedule_at + step through a benchmark-owned queue.
    {
        espread::sim::EventQueue q;
        std::uint64_t fired = 0;
        c.event_ns = ns_per_unit(slice, [&] {
            for (int i = 0; i < 64; ++i) {
                q.schedule_at(q.now() + (i % 7), [&fired] { ++fired; });
            }
            while (q.step()) {
            }
            g_sink = g_sink + fired;
            return 64;
        });
    }

    // net: Channel send -> deliver through a benchmark-owned queue.
    {
        espread::sim::EventQueue q;
        espread::net::Channel<espread::proto::DataPacket> ch(
            q, s.session.data_link, s.data_loss, Rng(derive_seed(s.seed, 3)));
        std::uint64_t got = 0;
        ch.set_receiver([&got](espread::proto::DataPacket p) { got += p.seq; });
        std::uint64_t seq = 0;
        c.channel_ns_per_packet = ns_per_unit(slice, [&] {
            for (int i = 0; i < 64; ++i) {
                espread::proto::DataPacket p;
                p.seq = seq++;
                p.size_bits = s.session.packet_bits;
                ch.send(p, wire_bits);
            }
            q.run();
            g_sink = g_sink + got;
            return 64;
        });
    }

    // protocol: Receiver reassembly of planned windows, finalize amortized.
    {
        espread::proto::Planner planner(s.session);
        const espread::proto::WindowPlan plan = planner.plan(typical_bound(s));
        const std::size_t n = planner.window_ldus();
        const auto pat = loss_pattern(s, n * s.packets_per_ldu, kPatternWindows, 4);
        auto rx = std::make_unique<espread::proto::Receiver>(
            n, planner.layer_sizes(), planner.prerequisites());
        std::size_t window = 0;
        std::uint64_t seq = 0;
        c.receiver_ns_per_packet = ns_per_unit(slice, [&] {
            if (window >= 4096) {  // bound the receiver's finalized-window set
                rx = std::make_unique<espread::proto::Receiver>(
                    n, planner.layer_sizes(), planner.prerequisites());
                window = 0;
            }
            std::size_t delivered = 0;
            const auto& lost = pat[window % kPatternWindows];
            std::size_t k = 0;
            for (const auto& e : plan.order) {
                for (std::size_t f = 0; f < s.packets_per_ldu; ++f, ++k) {
                    if (lost[k]) continue;
                    espread::proto::DataPacket p;
                    p.seq = seq++;
                    p.window = window;
                    p.layer = e.layer;
                    p.tx_pos = e.tx_pos;
                    p.frame_index = window * n + e.local_frame;
                    p.fragment = f;
                    p.num_fragments = s.packets_per_ldu;
                    p.size_bits = s.session.packet_bits;
                    rx->on_packet(p);
                    ++delivered;
                }
            }
            g_sink = g_sink + rx->finalize(window).frames_received;
            ++window;
            return std::max<std::size_t>(delivered, 1);
        });
    }

    // protocol: wire codec encode + canonical decode (CRC-16 included).
    {
        espread::proto::DataPacket p;
        p.window = 3;
        p.layer = 1;
        p.num_fragments = s.packets_per_ldu;
        p.size_bits = s.session.packet_bits;
        c.codec_ns_per_record = ns_per_unit(slice, [&] {
            for (int i = 0; i < 64; ++i) {
                ++p.seq;
                p.frame_index = p.seq % 1000;
                const auto bytes = espread::proto::encode(p);
                g_sink = g_sink + espread::proto::decode_data(bytes)->seq;
            }
            return 64;
        });
    }

    // protocol: RepairScheduler admission + EDF queue per NACK (an initial
    // request and one retry per window).
    {
        constexpr std::size_t kWindows = 512;
        const espread::sim::SimTime T = s.session.window_duration();
        c.recovery_ns_per_nack = ns_per_unit(slice, [&] {
            espread::proto::RepairScheduler rs(s.session.recovery, kWindows);
            std::uint64_t seq = 0;
            for (std::size_t k = 0; k < kWindows; ++k) {
                rs.on_window_start(k, std::nullopt);
                rs.on_feedback_alive();
                for (std::size_t retry = 0; retry < 2; ++retry) {
                    espread::proto::NackRequest nr;
                    nr.seq = seq++;
                    nr.window = k;
                    nr.missing = observed[k % kPatternWindows] | 1;
                    nr.rank_deficit = 1;
                    nr.retry = retry;
                    const auto now = static_cast<espread::sim::SimTime>(k) * T;
                    if (auto job = rs.admit(nr, now + 2 * T, now)) rs.enqueue(*job);
                    if (auto job = rs.next_job(now)) {
                        rs.note_serviced();
                        g_sink = g_sink + job->seq;
                    }
                }
            }
            return 2 * kWindows;
        });
    }

    // protocol: AdaptationGovernor window clock + ACK admission + update,
    // with ACKs lost on the workload's loss pattern.
    {
        espread::proto::GovernorConfig gc = s.session.governor;
        gc.enabled = true;
        const auto acks = loss_pattern(s, 1, kPatternWindows, 5);
        c.governor_ns_per_window = ns_per_unit(slice, [&] {
            espread::BurstEstimator est(s.n, s.alpha);
            espread::proto::AdaptationGovernor gov(gc, est);
            for (std::size_t k = 0; k < kPatternWindows; ++k) {
                gov.on_window_start(k);
                if (k > 0 && !acks[k][0] && !gov.admit_ack(k - 1, k)) {
                    gov.on_observation(observed[k]);
                }
                g_sink = g_sink + gov.governed_bound();
            }
            return kPatternWindows;
        });
    }

    // fec: RlcEncoder::make_repair over a full window of packet-sized
    // symbols (payload mode).
    const std::size_t fec_window = s.session.rlc.window_packets;
    {
        const std::size_t bytes = s.session.packet_bits / 8;
        espread::fec::RlcEncoder enc(fec_window, bytes, derive_seed(s.seed, 6));
        std::vector<std::uint8_t> sym(bytes, 0x5A);
        for (std::size_t i = 0; i < fec_window; ++i) {
            sym[0] = static_cast<std::uint8_t>(i);
            enc.add_source(sym.data(), sym.size());
        }
        c.fec_repair_ns = ns_per_unit(slice, [&] {
            for (int i = 0; i < 16; ++i) g_sink = g_sink + enc.make_repair().payload[0];
            return 16;
        });
    }

    // fec: rank-only RlcDecoder fed the surviving sources and repairs of
    // the workload's loss pattern, per symbol added.
    {
        const std::size_t num = std::max<std::size_t>(s.session.rlc.overhead_num, 1);
        const std::size_t den = std::max<std::size_t>(s.session.rlc.overhead_den, 1);
        const auto pat = loss_pattern(s, 1024, 4, 7);
        Rng rng(derive_seed(s.seed, 8));
        std::size_t round = 0;
        c.fec_decode_ns_per_symbol = ns_per_unit(slice, [&] {
            const auto& lost = pat[round++ % pat.size()];
            espread::fec::RlcDecoder dec(fec_window);
            std::size_t fed = 0, credit = 0, k = 0;
            for (std::uint64_t i = 0; i < 1024 - 128; ++i) {
                const double at = static_cast<double>(i) * 1e-3;
                if (!lost[k++]) {
                    dec.add_source(i, nullptr, 0, at);
                    ++fed;
                }
                credit += num;
                while (credit >= den) {
                    credit -= den;
                    const std::uint64_t base = i + 1 > fec_window ? i + 1 - fec_window : 0;
                    const std::uint64_t cseed = rng.next_u64();
                    if (!lost[k++]) {
                        dec.add_repair(base, static_cast<std::size_t>(i + 1 - base),
                                       cseed, nullptr, 0, at);
                        ++fed;
                    }
                }
            }
            dec.close(1.0);
            g_sink = g_sink + dec.rank();
            return std::max<std::size_t>(fed, 1);
        });
    }
    return c;
}

void add_layer_metrics(Report& r, const EngineTrace& e, const SessionTrace& s,
                       const LayerCosts& c, const Shape& shape,
                       bool engine_primary) {
    // Replayed engine-step work: loss sampling, scatter, CLF fold and the
    // estimator, per window, against the measured range time.
    const double engine_covered_ms =
        e.windows_per_step *
        (c.gilbert_ns_per_window + c.scatter_ns_per_window +
         c.clf_fold_ns_per_window + c.estimator_ns_per_update) * 1e-6;
    // Replayed Session work per window: channel (incl. event dispatch) for
    // every packet, receiver reassembly per data packet, the estimator and
    // governor once, RLC decoding per data-path symbol, recovery per NACK.
    const auto& cfg = shape.session;
    double covered_ns =
        c.channel_ns_per_packet * (s.data_packets + s.feedback_packets) +
        c.receiver_ns_per_packet * s.data_packets + c.estimator_ns_per_update;
    if (cfg.governor.enabled) covered_ns += c.governor_ns_per_window;
    if (cfg.rlc_active()) covered_ns += c.fec_decode_ns_per_symbol * s.data_packets;
    if (cfg.recovery.enabled) covered_ns += c.recovery_ns_per_nack * s.nacks;
    const double session_ns_per_window = s.session_ms * 1e6 / s.windows_per_session;

    const double wps_untraced = engine_primary ? e.wps_untraced : s.wps_untraced;
    const double wps_traced = engine_primary ? e.wps_traced : s.wps_traced;

    r.metrics = {
        {"engine.range_ms", e.range_ms, "ms"},
        {"engine.dispatch_ms", e.dispatch_ms, "ms"},
        {"engine.shard_imbalance", e.imbalance, "ratio"},
        {"engine.setup_ms", e.setup_ms, "ms"},
        {"engine.bytes_per_slot", e.bytes_per_slot, "B"},
        {"engine.unattributed_frac", 1.0 - engine_covered_ms / e.range_ms, "ratio"},
        {"engine.repairs_per_window", e.repairs_per_window, "count"},
        {"engine.nacks_per_window", e.nacks_per_window, "count"},
        {"engine.governor_transitions", e.governor_transitions, "count"},
        {"net.gilbert_ns_per_window", c.gilbert_ns_per_window, "ns"},
        {"net.loss_runs_per_window", c.loss_runs_per_window, "count"},
        {"net.channel_ns_per_packet", c.channel_ns_per_packet, "ns"},
        {"net.packets_per_window",
         engine_primary ? e.packets_per_window : s.data_packets, "count"},
        {"sim.event_ns", c.event_ns, "ns"},
        {"core.scatter_ns_per_window", c.scatter_ns_per_window, "ns"},
        {"core.clf_fold_ns_per_window", c.clf_fold_ns_per_window, "ns"},
        {"core.estimator_ns_per_update", c.estimator_ns_per_update, "ns"},
        {"core.cpo_build_us", c.cpo_build_us, "us"},
        {"protocol.session_ctor_ms", s.ctor_ms, "ms"},
        {"protocol.receiver_ns_per_packet", c.receiver_ns_per_packet, "ns"},
        {"protocol.allocs_per_window",
         engine_primary ? e.allocs_per_window : s.allocs_per_window, "count"},
        {"protocol.codec_ns_per_record", c.codec_ns_per_record, "ns"},
        {"protocol.recovery_ns_per_nack", c.recovery_ns_per_nack, "ns"},
        {"protocol.governor_ns_per_window", c.governor_ns_per_window, "ns"},
        {"protocol.retransmissions_per_window", s.retransmissions, "count"},
        {"protocol.nacks_per_window", s.nacks, "count"},
        {"protocol.unattributed_frac", 1.0 - covered_ns / session_ns_per_window, "ratio"},
        {"fec.repair_ns", c.fec_repair_ns, "ns"},
        {"fec.decode_ns_per_symbol", c.fec_decode_ns_per_symbol, "ns"},
        {"fec.repairs_per_window", s.repairs, "count"},
        {"obs.fold_ms", e.fold_ms, "ms"},
        {"obs.trace_overhead", wps_untraced / wps_traced - 1.0, "ratio"},
    };
}

}  // namespace espbench
