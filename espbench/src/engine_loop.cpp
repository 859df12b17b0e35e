// Engine workloads: engine_fleet and engine_arms.
//
// Closed loop on one thread: the next ShardedEngine::step() starts
// when the previous one returns.  Only construction and step() are timed;
// summaries and correctness checks run between steps, outside the spans.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "engine/pool.hpp"
#include "obs/telemetry/slab.hpp"
#include "obs/telemetry/snapshot.hpp"
#include "sim/rng.hpp"
#include "trace.hpp"

namespace espbench {

using espread::engine::EngineConfig;
using espread::engine::EngineSummary;
using espread::engine::SessionPool;
using espread::engine::ShardedEngine;
using espread::engine::ShardScratch;

namespace {

constexpr std::size_t kMinSamples = 100;   ///< timed steps per run, at least
constexpr std::size_t kPrefixSteps = 100;  ///< clf_mean / counters prefix
constexpr std::size_t kSetupRepeats = 5;   ///< constructions behind setup_s
constexpr std::size_t kWarmupSteps = 3;
constexpr std::size_t kCheckpointSteps = 16;
constexpr std::size_t kTwinPrefixSteps = 6;

EngineConfig engine_config(const Options& opt) {
    EngineConfig cfg;  // Fig. 8 defaults: n=24, f=2, Gilbert(0.92, 0.6), alpha 1/2, delay 2
    cfg.seed = opt.seed;
    cfg.churn.enabled = true;
    cfg.churn.min_lifetime_windows = 16;
    cfg.churn.mean_lifetime_windows = 64.0;
    if (opt.workload == "engine_fleet") {
        cfg.sessions = opt.tiny ? 2000 : 100000;
        cfg.shards = 1;
        cfg.churn.mean_arrival_gap_windows = 0.0;
    } else {  // engine_arms
        cfg.sessions = opt.tiny ? 1000 : 20000;
        cfg.shards = 2;
        cfg.churn.mean_arrival_gap_windows = 8.0;
        cfg.data_loss = {0.92, 0.7};
        cfg.feedback_loss = {0.92, 0.7};
        cfg.fec.enabled = true;
        cfg.fec.overhead_num = 1;
        cfg.fec.overhead_den = 10;
        cfg.fec.nack = true;
        cfg.governor.enabled = true;
        cfg.telemetry.enabled = true;
        cfg.telemetry.epoch_steps = 16;
    }
    return cfg;
}

std::size_t prefix_steps(const Options& opt) {
    return opt.tiny ? 10 : kPrefixSteps;
}

/// Repair + feedback packets per data packet.  The engine counts packets,
/// not bits; every window sends n*f data packets and one feedback packet
/// (NACK-lite requests ride on it).
double engine_overhead(const EngineSummary& s, const EngineConfig& cfg) {
    const double data = static_cast<double>(s.windows) *
                        static_cast<double>(cfg.window_ldus * cfg.packets_per_ldu);
    const double extra = static_cast<double>(s.fec_repair_packets +
                                             s.nack_repair_packets +
                                             s.acks_delivered + s.acks_lost);
    return data > 0.0 ? extra / data : 0.0;
}

/// Cumulative invariants of a summary after `steps` engine steps.
std::string engine_violation(EngineSummary s, std::uint64_t steps,
                             const EngineConfig& cfg, const std::string& plant) {
    const std::uint64_t n = cfg.window_ldus;
    if (plant == "clf_range") s.clf_max = n + 1;
    if (plant == "window_count") s.windows += 1;
    if (s.windows + s.idle_windows != steps * cfg.sessions) {
        return "windows + idle != steps * sessions";
    }
    if (s.slots != s.windows * n) return "slots != windows * n";
    if (s.clf_histogram.total() != s.windows) return "CLF histogram total != windows";
    if (s.acks_delivered + s.acks_lost != s.windows) return "acks != windows";
    if (s.clf_max > n || !(s.clf_mean >= 0.0 && s.clf_mean <= static_cast<double>(n))) {
        return "CLF outside [0, n]";
    }
    if (!(s.alf >= 0.0 && s.alf <= 1.0) || s.unit_losses > s.slots) {
        return "ALF outside [0, 1]";
    }
    return {};
}

/// summary_json of the workload's shard count against a twin with another
/// shard count (1, or 2 when the workload itself runs one shard), over a
/// short untimed prefix.  The engines run one after the other.
bool shard_twin_matches(const EngineConfig& cfg, std::size_t steps,
                        const std::string& plant) {
    const auto render = [&](std::size_t shards) {
        EngineConfig c = cfg;
        c.shards = shards;
        ShardedEngine e(c);
        e.run(steps);
        return espread::engine::summary_json(e.summary());
    };
    const std::string own = render(cfg.shards);
    std::string twin = render(cfg.shards == 1 ? 2 : 1);
    if (plant == "shard_twin") twin += " ";
    return own == twin;
}

}  // namespace

bool is_engine_workload(const std::string& name) {
    return name == "engine_fleet" || name == "engine_arms";
}

Report run_engine_workload(const Options& opt) {
    const EngineConfig cfg = engine_config(opt);
    Report r;

    std::vector<double> setup;
    std::unique_ptr<ShardedEngine> engine;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        engine.reset();
        const double t0 = now_s();
        engine = std::make_unique<ShardedEngine>(cfg);
        setup.push_back(now_s() - t0);
    }

    for (std::size_t i = 0; i < kWarmupSteps; ++i) engine->step();
    std::uint64_t checked_steps = 0;
    const auto checkpoint = [&](const EngineSummary& s) {
        const std::uint64_t steps = engine->steps();
        const std::string why = engine_violation(s, steps, cfg, opt.plant);
        r.checks.expect(why.empty(), steps - checked_steps,
                        "engine step " + std::to_string(steps) + ": " + why);
        checked_steps = steps;
    };
    const EngineSummary start = engine->summary();
    checkpoint(start);

    const std::size_t min_samples = opt.tiny ? 10 : kMinSamples;
    const std::size_t prefix = prefix_steps(opt);
    std::vector<double> step_s;
    double busy = 0.0;
    double rss_mb = 0.0;
    const double t_end = now_s() + opt.seconds;
    while (step_s.size() < min_samples || engine->steps() < prefix ||
           now_s() < t_end) {
        const double t0 = now_s();
        engine->step();
        const double dt = now_s() - t0;
        step_s.push_back(dt);
        busy += dt;
        if (engine->steps() == prefix) {
            const EngineSummary s = engine->summary();
            r.clf_mean = s.clf_mean;
            r.bandwidth_overhead = engine_overhead(s, cfg);
            // Read at the fixed prefix: the telemetry plane keeps every
            // snapshot, so memory after it grows with the steps run.
            rss_mb = peak_rss_mb();
        }
        if (engine->steps() % kCheckpointSteps == 0) checkpoint(engine->summary());
    }
    const EngineSummary end = engine->summary();
    checkpoint(end);
    engine.reset();

    r.checks.expect(shard_twin_matches(cfg, kTwinPrefixSteps, opt.plant), 1,
                    "summary_json differs between shard counts");

    std::vector<double> step_ms;
    for (const double s : step_s) step_ms.push_back(s * 1e3);
    r.samples = step_s.size();
    const double windows = static_cast<double>(end.windows - start.windows);
    r.metrics = {
        {"windows_per_s", windows / busy, "1/s"},
        {"step_ms_p50", quantile(step_ms, 0.5), "ms"},
        {"step_ms_p90", quantile(step_ms, 0.9), "ms"},
        {"clf_mean", r.clf_mean, "LDU"},
        {"bandwidth_overhead", r.bandwidth_overhead, "ratio"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    return r;
}

EngineTrace trace_engine(const EngineConfig& base, double budget_s,
                         std::size_t prefix, Checks& checks) {
    EngineTrace t;
    const std::size_t min_steps = std::max<std::size_t>(prefix, 16);

    // Untraced reference rate: same config, metrics off, no twin.
    {
        ShardedEngine e(base);
        for (std::size_t i = 0; i < kWarmupSteps; ++i) e.step();
        const std::uint64_t w0 = e.summary().windows;
        double busy = 0.0;
        std::size_t steps = 0;
        const double t_end = now_s() + budget_s * 0.3;
        while (steps < min_steps || now_s() < t_end) {
            const double t0 = now_s();
            e.step();
            busy += now_s() - t0;
            ++steps;
        }
        t.wps_untraced = static_cast<double>(e.summary().windows - w0) / busy;
    }

    EngineConfig cfg = base;
    cfg.collect_metrics = true;
    ShardedEngine engine(cfg);
    const std::size_t shards = engine.shards();

    // Benchmark-owned twin pool, stepped range by range in lockstep with
    // the engine; ranges split the slots exactly as ShardedEngine does.
    const std::uint64_t heap0 = heap_in_use_bytes();
    const double c0 = now_s();
    SessionPool pool(engine.config());
    t.setup_ms = (now_s() - c0) * 1e3;
    t.bytes_per_slot = static_cast<double>(heap_in_use_bytes() - heap0) /
                       static_cast<double>(pool.capacity());
    std::vector<ShardScratch> scratch(shards);
    for (ShardScratch& s : scratch) pool.init_scratch(s);
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    for (std::size_t s = 0, begin = 0; s < shards; ++s) {
        const std::size_t len = pool.capacity() / shards +
                                (s < pool.capacity() % shards ? 1 : 0);
        ranges.emplace_back(begin, begin + len);
        begin += len;
    }

    // The obs fold, timed by the harness: SnapshotRegistry::capture over
    // one slab per shard at every epoch step.  The slabs are the twin's
    // own when the workload has telemetry on; otherwise they stay empty
    // and the fold is a control.
    std::vector<espread::obs::telemetry::TelemetrySlab> slabs(shards);
    if (cfg.telemetry.enabled) {
        for (std::size_t s = 0; s < shards; ++s) scratch[s].telemetry = &slabs[s];
    }
    const std::size_t epoch = cfg.telemetry.enabled ? cfg.telemetry.epoch_steps : 16;
    espread::obs::telemetry::SnapshotRegistry registry(epoch);

    std::vector<double> step_ms, range_sum, slowest, fold_ms;
    double imbalance = 0.0;
    double busy = 0.0;
    std::uint64_t allocs = 0;
    const double t_end = now_s() + budget_s * 0.5;
    while (step_ms.size() < min_steps || now_s() < t_end) {
        alloc_counting(true);
        const std::uint64_t a0 = alloc_count();
        const double t0 = now_s();
        engine.step();
        const double dt = now_s() - t0;
        allocs += alloc_count() - a0;
        alloc_counting(false);
        busy += dt;
        step_ms.push_back(dt * 1e3);

        double sum = 0.0, worst = 0.0;
        for (std::size_t s = 0; s < shards; ++s) {
            const double r0 = now_s();
            pool.run_window_range(ranges[s].first, ranges[s].second, scratch[s]);
            const double rt = (now_s() - r0) * 1e3;
            sum += rt;
            worst = std::max(worst, rt);
        }
        range_sum.push_back(sum);
        slowest.push_back(worst);
        imbalance += sum > 0.0 ? worst / (sum / static_cast<double>(shards)) : 1.0;
        if (registry.due(engine.steps())) {
            const double f0 = now_s();
            registry.capture(engine.steps(), slabs.data(), shards);
            fold_ms.push_back((now_s() - f0) * 1e3);
        }

        if (engine.steps() == prefix) {
            const EngineSummary s = engine.summary();
            const double w = static_cast<double>(s.windows);
            t.repairs_per_window =
                static_cast<double>(s.fec_repair_packets + s.nack_repair_packets) / w;
            t.packets_per_window =
                static_cast<double>(cfg.window_ldus * cfg.packets_per_ldu) +
                t.repairs_per_window;
            t.nacks_per_window = static_cast<double>(s.nack_requests_sent) / w;
            t.governor_transitions = static_cast<double>(s.governor_transitions);
            t.clf_mean = s.clf_mean;
            t.bandwidth_overhead = engine_overhead(s, cfg);
        }
    }
    const EngineSummary end = engine.summary();
    checks.expect(espread::engine::summary_json(pool.summarize(scratch)) ==
                      espread::engine::summary_json(end),
                  1, "twin pool summary differs from the engine's");

    t.range_ms = median(range_sum);
    t.step_ms = median(step_ms);
    t.dispatch_ms = t.step_ms - median(slowest);
    t.imbalance = imbalance / static_cast<double>(step_ms.size());
    t.fold_ms = median(fold_ms);
    t.windows_per_step = static_cast<double>(end.windows) /
                         static_cast<double>(engine.steps());
    t.wps_traced = static_cast<double>(end.windows) / busy;
    t.allocs_per_window = static_cast<double>(allocs) / static_cast<double>(end.windows);
    return t;
}

Report trace_engine_workload(const Options& opt) {
    const EngineConfig cfg = engine_config(opt);
    Report r;
    const EngineTrace e = trace_engine(cfg, opt.seconds * 0.5,
                                       prefix_steps(opt), r.checks);
    const SessionTrace s = trace_sessions(
        [&](std::size_t i) { return session_twin_of(cfg, opt, i); },
        opt.seconds * 0.2, opt.tiny ? 4 : 16, r.checks);

    Shape shape;
    shape.n = cfg.window_ldus;
    shape.packets_per_ldu = cfg.packets_per_ldu;
    shape.repairs_per_window =
        cfg.fec.enabled ? cfg.window_ldus * cfg.packets_per_ldu *
                              cfg.fec.overhead_num / cfg.fec.overhead_den
                        : 0;
    shape.data_loss = cfg.data_loss;
    shape.alpha = cfg.alpha;
    shape.session = session_twin_of(cfg, opt, 0);
    shape.seed = opt.seed;
    const LayerCosts c = replay_layers(shape, opt.seconds * 0.3);

    r.clf_mean = e.clf_mean;
    r.bandwidth_overhead = e.bandwidth_overhead;
    r.samples = 0;
    add_layer_metrics(r, e, s, c, shape, /*engine_primary=*/true);
    return r;
}

EngineConfig engine_twin_of(const espread::proto::SessionConfig& s,
                            std::size_t packets_per_ldu, const Options& opt) {
    EngineConfig cfg;
    cfg.sessions = opt.tiny ? 512 : 8192;
    cfg.shards = 2;
    cfg.window_ldus = s.window_ldus();
    cfg.packets_per_ldu = std::max<std::size_t>(1, packets_per_ldu);
    cfg.alpha = s.alpha;
    cfg.data_loss = s.data_loss;
    cfg.feedback_loss = s.feedback_loss;
    cfg.churn.enabled = true;
    cfg.fec.enabled = s.rlc_active();
    cfg.fec.overhead_num = s.rlc.overhead_num;
    cfg.fec.overhead_den = s.rlc.overhead_den;
    cfg.fec.nack = s.rlc_active() && s.recovery.enabled;
    cfg.governor.enabled = s.governor.enabled;
    cfg.telemetry.enabled = true;
    cfg.telemetry.epoch_steps = 16;
    cfg.seed = espread::sim::derive_seed(opt.seed, 0xE1);
    return cfg;
}

}  // namespace espbench
