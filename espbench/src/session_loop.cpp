// Session workloads: session_fig8 and session_repair.
//
// Closed loop on one thread: session i+1 is constructed when
// session i's run() returns.  Only the Session constructor plus run() is
// timed; configs are generated from (seed, index) before the span and the
// correctness checks run after it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/config.hpp"
#include "protocol/session.hpp"
#include "sim/rng.hpp"
#include "trace.hpp"

namespace espbench {

using espread::proto::Scheme;
using espread::proto::Session;
using espread::proto::SessionConfig;
using espread::proto::SessionResult;

namespace {

constexpr std::size_t kMinSamples = 100;  ///< timed steps per run, at least
/// clf_mean / bandwidth_overhead prefix, in sessions: 20k windows of
/// session_fig8, 32k windows of session_repair.
constexpr std::size_t kFig8Prefix = 200;
constexpr std::size_t kRepairPrefix = 2000;
constexpr std::size_t kSetupRepeats = 9;
constexpr std::size_t kSetupBatch = 256;  ///< Session constructions per repeat

SessionConfig session_config(const Options& opt, std::size_t index) {
    SessionConfig cfg;  // Jurassic Park MPEG, W=2 GOPs, kLayeredSpread, critical retx
    cfg.seed = espread::sim::derive_seed(opt.seed, index);
    if (opt.workload == "session_fig8") {
        // Alternate the two Fig. 8 panels.
        const double p_bad = index % 2 == 0 ? 0.6 : 0.7;
        cfg.data_loss = {0.92, p_bad};
        cfg.feedback_loss = {0.92, p_bad};
        cfg.num_windows = opt.tiny ? 20 : 100;
        return cfg;
    }
    // session_repair: the bench_nack cell with retransmission, governor and
    // a modest impairment mix on the data path.
    cfg.stream.kind = espread::proto::StreamKind::kMjpeg;
    cfg.stream.ldus_per_window = 16;
    cfg.stream.frame_rate = 24.0;
    cfg.scheme = Scheme::kHybridSpreadRlc;
    cfg.rlc = {64, 1, 10};
    cfg.data_loss = {0.9, 0.45};
    cfg.retransmit_critical = true;
    cfg.recovery.enabled = true;
    cfg.governor.enabled = true;
    cfg.data_impairment.reorder_rate = 0.02;
    cfg.data_impairment.duplicate_rate = 0.01;
    cfg.data_impairment.corrupt_rate = 0.01;
    cfg.num_windows = opt.tiny ? 10 : 16;
    cfg.blackout_feedback_windows(4, 7);
    return cfg;
}

std::size_t prefix_sessions(const Options& opt) {
    if (opt.tiny) return 8;
    return opt.workload == "session_fig8" ? kFig8Prefix : kRepairPrefix;
}

/// session_fig8 steps through Fig. 8 pairs (the P_bad 0.6 session, then
/// the 0.7 one), so step time is not split across the two panels' modes.
std::size_t sessions_per_step(const Options& opt) {
    return opt.workload == "session_fig8" ? 2 : 1;
}

/// Side-band (RLC repairs, NACK retransmissions) plus feedback-path
/// (ACK, NACK) bits per in-band data-path bit.
double session_overhead(const SessionResult& r) {
    const double inband = static_cast<double>(r.data_channel.bits_sent -
                                              r.data_channel.sideband_bits);
    const double extra = static_cast<double>(r.data_channel.sideband_bits +
                                             r.feedback_channel.bits_sent);
    return inband > 0.0 ? extra / inband : 0.0;
}

/// NACK requests the session sent: the feedback path carries one ACK per
/// ACKed window and every NACK.
std::size_t nacks_sent(const SessionResult& r) {
    return r.feedback_channel.sent - r.acks_sent;
}

bool ledger_holds(const espread::net::ChannelStats& c) {
    return c.delivered + c.dropped + c.corrupt_rejected == c.sent + c.duplicated;
}

std::string session_violation(SessionResult r, const SessionConfig& cfg,
                              const std::string& plant) {
    if (plant == "ledger") ++r.feedback_channel.delivered;
    if (plant == "clf_range" && !r.windows.empty()) r.windows[0].clf = cfg.window_ldus() + 1;
    if (plant == "nack_cap") {  // extra NACKs, all dropped: the ledger still balances
        r.feedback_channel.sent += cfg.num_windows * 64;
        r.feedback_channel.dropped += cfg.num_windows * 64;
    }
    if (!ledger_holds(r.data_channel)) return "data channel ledger does not balance";
    if (!ledger_holds(r.feedback_channel)) return "feedback channel ledger does not balance";
    const std::size_t n = cfg.window_ldus();
    if (r.windows.size() != cfg.num_windows) return "window count != num_windows";
    for (const auto& w : r.windows) {
        if (w.clf > n || w.lost_ldus > n || !(w.alf >= 0.0 && w.alf <= 1.0)) {
            return "window CLF outside [0, n] or ALF outside [0, 1]";
        }
    }
    if (r.total.clf > n || !(r.total.alf >= 0.0 && r.total.alf <= 1.0)) {
        return "session CLF/ALF out of range";
    }
    if (cfg.recovery.enabled &&
        nacks_sent(r) > cfg.num_windows * (cfg.recovery.max_retries + 1)) {
        return "NACKs exceed windows * (max_retries + 1)";
    }
    return {};
}

/// Field-for-field rendering of a result (everything but the optional
/// metrics registry), for the re-execution check.
std::string fingerprint(const SessionResult& r) {
    std::string s;
    char buf[256];
    const auto add = [&](const char* fmt, auto... v) {
        std::snprintf(buf, sizeof buf, fmt, v...);
        s += buf;
    };
    for (const auto& w : r.windows) {
        add("w%zu:%zu,%zu,%.17g,%zu,%zu,%zu,%zu,%zu,%d;", w.window, w.clf,
            w.lost_ldus, w.alf, w.undecodable, w.sender_dropped,
            w.retransmissions, w.actual_packet_burst, w.bound_used,
            static_cast<int>(w.governor_state));
    }
    for (const auto* c : {&r.data_channel, &r.feedback_channel}) {
        add("c:%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu;", c->sent, c->delivered,
            c->dropped, c->bits_sent, c->duplicated, c->corrupt_rejected,
            c->reordered, c->forced_dropped, c->sideband_sent, c->sideband_bits);
    }
    for (const auto* t : {&r.total, &r.playout_total}) {
        add("t:%zu,%zu,%zu,%.17g;", t->slots, t->unit_losses, t->clf, t->alf);
    }
    for (const std::size_t clf : r.playout_window_clf) add("%zu,", clf);
    add("a:%zu,%zu,%lld;", r.acks_sent, r.acks_applied,
        static_cast<long long>(r.required_startup));
    const auto& g = r.governor;
    for (int i = 0; i < 4; ++i) {
        add("g%d:%zu,%zu,%zu;", i, g.windows_in_state[i], g.state_entries[i],
            g.longest_dwell[i]);
    }
    add("g:%zu,%zu,%zu,%zu,%zu,%zu,%zu", g.acks_rejected_duplicate,
        g.acks_rejected_stale, g.acks_rejected_future, g.observations_clamped,
        g.fallbacks, g.recoveries, g.transitions);
    return s;
}

double clf_sum(const SessionResult& r) {
    double sum = 0.0;
    for (const auto& w : r.windows) sum += static_cast<double>(w.clf);
    return sum;
}

}  // namespace

bool is_session_workload(const std::string& name) {
    return name == "session_fig8" || name == "session_repair";
}

Report run_session_workload(const Options& opt) {
    Report r;

    // Set-up: the Session constructors of the first kSetupBatch configs,
    // repeated; median of the repeats.
    std::vector<double> setup;
    for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
        double total = 0.0;
        for (std::size_t i = 0; i < kSetupBatch; ++i) {
            const SessionConfig cfg = session_config(opt, i);
            const double t0 = now_s();
            { Session s(cfg); }
            total += now_s() - t0;
        }
        setup.push_back(total);
    }

    // One closed-loop step runs sessions_per_step(opt) sessions back to back.
    const std::size_t per_step = sessions_per_step(opt);
    const std::size_t min_samples = opt.tiny ? 10 : kMinSamples;
    const std::size_t prefix = prefix_sessions(opt);
    const std::size_t rerun = static_cast<std::size_t>(opt.seed % prefix);
    std::string rerun_print;
    std::vector<double> op_ms;
    double busy = 0.0, windows = 0.0, clf = 0.0, clf_windows = 0.0;
    double extra = 0.0;
    std::size_t next = 0;  // index of the next session to run
    double rss_mb = 0.0;
    const double t_end = now_s() + opt.seconds;
    while (op_ms.size() < min_samples || next < prefix || now_s() < t_end) {
        double op = 0.0;
        for (std::size_t j = 0; j < per_step; ++j, ++next) {
            const SessionConfig cfg = session_config(opt, next);
            const double t0 = now_s();
            Session session(cfg);
            const SessionResult res = session.run();
            op += now_s() - t0;
            windows += static_cast<double>(res.windows.size());

            const std::string why = session_violation(res, cfg, opt.plant);
            r.checks.expect(why.empty(), 1,
                            "session " + std::to_string(next) + ": " + why);
            if (next < prefix) {
                clf += clf_sum(res);
                clf_windows += static_cast<double>(res.windows.size());
                extra += session_overhead(res);
            }
            if (next == rerun) rerun_print = fingerprint(res);
        }
        op_ms.push_back(op * 1e3);
        busy += op;
        if (rss_mb == 0.0 && next >= prefix) rss_mb = peak_rss_mb();
    }

    // Re-execute one session of the prefix; it must match field for field.
    const SessionResult again = Session(session_config(opt, rerun)).run();
    std::string again_print = fingerprint(again);
    if (opt.plant == "rerun") again_print += "!";
    r.checks.expect(again_print == rerun_print, 1,
                    "session " + std::to_string(rerun) + " differs on re-execution");

    r.clf_mean = clf / clf_windows;
    r.bandwidth_overhead = extra / static_cast<double>(prefix);
    r.samples = op_ms.size();
    r.metrics = {
        {"windows_per_s", windows / busy, "1/s"},
        {"step_ms_p50", quantile(op_ms, 0.5), "ms"},
        {"step_ms_p90", quantile(op_ms, 0.9), "ms"},
        {"clf_mean", r.clf_mean, "LDU"},
        {"bandwidth_overhead", r.bandwidth_overhead, "ratio"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    return r;
}

SessionTrace trace_sessions(const SessionFactory& make, double budget_s,
                            std::size_t prefix, Checks& checks) {
    SessionTrace t;
    const std::size_t min_sessions = std::max<std::size_t>(prefix, 8);

    // Untraced reference rate: metrics collection off.
    {
        double busy = 0.0, windows = 0.0;
        const double t_end = now_s() + budget_s * 0.3;
        for (std::size_t i = 0; i < min_sessions || now_s() < t_end; ++i) {
            const SessionConfig cfg = make(i);
            const double t0 = now_s();
            const SessionResult res = Session(cfg).run();
            busy += now_s() - t0;
            windows += static_cast<double>(res.windows.size());
        }
        t.wps_untraced = windows / busy;
    }

    std::vector<double> ctor_ms, total_ms;
    double busy = 0.0, windows = 0.0, allocs = 0.0;
    double pw = 0.0, data = 0.0, fb = 0.0, inband = 0.0, retx = 0.0, nacks = 0.0,
           repairs = 0.0, clf = 0.0, extra = 0.0, ldus = 0.0;
    const double t_end = now_s() + budget_s * 0.7;
    for (std::size_t i = 0; i < min_sessions || now_s() < t_end; ++i) {
        SessionConfig cfg = make(i);
        cfg.collect_metrics = true;
        alloc_counting(true);
        const std::uint64_t a0 = alloc_count();
        const double t0 = now_s();
        Session session(cfg);
        const double t1 = now_s();
        const SessionResult res = session.run();
        const double t2 = now_s();
        allocs += static_cast<double>(alloc_count() - a0);
        alloc_counting(false);
        ctor_ms.push_back((t1 - t0) * 1e3);
        total_ms.push_back((t2 - t0) * 1e3);
        busy += t2 - t0;
        windows += static_cast<double>(res.windows.size());

        // The untraced runs derive the NACK count from the channel ledger;
        // the program's own counter must agree.
        checks.expect(res.metrics.counter("nack_requests_sent") == nacks_sent(res) &&
                          ledger_holds(res.data_channel) &&
                          ledger_holds(res.feedback_channel),
                      1, "traced session " + std::to_string(i) +
                             ": NACK counter or channel ledger mismatch");
        if (i < prefix) {
            pw += static_cast<double>(res.windows.size());
            ldus += static_cast<double>(res.windows.size() * cfg.window_ldus());
            data += static_cast<double>(res.data_channel.sent);
            inband += static_cast<double>(res.data_channel.sent - res.data_channel.sideband_sent);
            fb += static_cast<double>(res.feedback_channel.sent);
            retx += static_cast<double>(res.metrics.counter("retransmissions") +
                                        res.metrics.counter("nack_retx_packets"));
            nacks += static_cast<double>(res.metrics.counter("nack_requests_sent"));
            repairs += static_cast<double>(res.metrics.counter("rlc_repairs_sent"));
            clf += clf_sum(res);
            extra += session_overhead(res);
        }
    }
    t.ctor_ms = median(ctor_ms);
    t.session_ms = median(total_ms);
    t.windows_per_session = windows / static_cast<double>(total_ms.size());
    t.wps_traced = windows / busy;
    t.allocs_per_window = allocs / windows;
    t.data_packets = data / pw;
    t.feedback_packets = fb / pw;
    t.packets_per_ldu = inband / ldus;
    t.retransmissions = retx / pw;
    t.nacks = nacks / pw;
    t.repairs = repairs / pw;
    t.clf_mean = clf / pw;
    t.bandwidth_overhead = extra / static_cast<double>(prefix);
    return t;
}

Report trace_session_workload(const Options& opt) {
    Report r;
    const std::size_t prefix = prefix_sessions(opt);
    const SessionTrace s = trace_sessions(
        [&](std::size_t i) { return session_config(opt, i); },
        opt.seconds * 0.45, prefix, r.checks);

    const SessionConfig cfg = session_config(opt, 0);
    const std::size_t ppl = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(s.packets_per_ldu)));
    const EngineTrace e = trace_engine(engine_twin_of(cfg, ppl, opt),
                                       opt.seconds * 0.25, opt.tiny ? 8 : 32,
                                       r.checks);
    Shape shape;
    shape.n = cfg.window_ldus();
    shape.packets_per_ldu = ppl;
    shape.repairs_per_window = static_cast<std::size_t>(std::lround(s.repairs));
    shape.data_loss = cfg.data_loss;
    shape.alpha = cfg.alpha;
    shape.session = cfg;
    shape.seed = opt.seed;
    const LayerCosts c = replay_layers(shape, opt.seconds * 0.3);

    r.clf_mean = s.clf_mean;
    r.bandwidth_overhead = s.bandwidth_overhead;
    add_layer_metrics(r, e, s, c, shape, /*engine_primary=*/false);
    return r;
}

SessionConfig session_twin_of(const espread::engine::EngineConfig& e,
                              const Options& opt, std::size_t index) {
    SessionConfig cfg;
    cfg.seed = espread::sim::derive_seed(espread::sim::derive_seed(opt.seed, 0x5E), index);
    cfg.stream.kind = espread::proto::StreamKind::kMjpeg;
    cfg.stream.ldus_per_window = e.window_ldus;
    // Mean frame size that fragments into about f packets.
    cfg.stream.mjpeg_mean_bits =
        (static_cast<double>(e.packets_per_ldu) - 0.5) *
        static_cast<double>(cfg.packet_bits);
    cfg.scheme = e.fec.enabled ? Scheme::kHybridSpreadRlc : Scheme::kLayeredSpread;
    cfg.rlc = {64, e.fec.overhead_num, e.fec.overhead_den};
    cfg.recovery.enabled = e.fec.enabled && e.fec.nack;
    cfg.governor.enabled = e.governor.enabled;
    cfg.alpha = e.alpha;
    cfg.data_loss = e.data_loss;
    cfg.feedback_loss = e.feedback_loss;
    cfg.num_windows = opt.tiny ? 20 : 100;
    return cfg;
}

}  // namespace espbench
