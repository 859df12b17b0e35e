// Observability layer: TraceRecorder ring semantics, Chrome trace export
// validity, MetricsRegistry merge determinism, and the consistency of the
// metrics a real session collects.
#include "obs/trace.hpp"

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/slo.hpp"
#include "protocol/session.hpp"
#include "json_check.hpp"

namespace sim = espread::sim;

using espread::obs::Actor;
using espread::obs::EventType;
using espread::obs::MetricsRegistry;
using espread::obs::TraceEvent;
using espread::obs::TraceRecorder;
using espread::testing::is_valid_json;

namespace {

TraceEvent make_event(sim::SimTime t, Actor actor, std::uint64_t seq) {
    TraceEvent e;
    e.time = t;
    e.actor = actor;
    e.seq = seq;
    return e;
}

TEST(TraceRecorder, KeepsEventsInRecordOrder) {
    TraceRecorder rec(8);
    for (std::uint64_t i = 0; i < 5; ++i) {
        rec.record(make_event(static_cast<sim::SimTime>(i), Actor::kServer, i));
    }
    EXPECT_EQ(rec.size(), 5u);
    EXPECT_EQ(rec.capacity(), 8u);
    EXPECT_EQ(rec.evicted(), 0u);
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].seq, i);
}

TEST(TraceRecorder, RingEvictsOldestFirst) {
    TraceRecorder rec(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        rec.record(make_event(static_cast<sim::SimTime>(i), Actor::kClient, i));
    }
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.evicted(), 6u);
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    // The four youngest survive, oldest-first.
    for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].seq, 6 + i);
}

TEST(TraceRecorder, ClearResets) {
    TraceRecorder rec(2);
    rec.record(make_event(1, Actor::kServer, 1));
    rec.record(make_event(2, Actor::kServer, 2));
    rec.record(make_event(3, Actor::kServer, 3));
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.evicted(), 0u);
    EXPECT_TRUE(rec.events().empty());
    rec.record(make_event(4, Actor::kServer, 4));
    ASSERT_EQ(rec.events().size(), 1u);
    EXPECT_EQ(rec.events()[0].seq, 4u);
}

TEST(TraceRecorder, RejectsZeroCapacity) {
    EXPECT_THROW(TraceRecorder(0), std::invalid_argument);
}

// Extracts the ts values of every instant event, grouped by track.  Relies
// on the exporter's fixed key order ("tid" immediately followed by "ts");
// metadata events carry no "ts" and are skipped.
std::map<long long, std::vector<double>> per_track_timestamps(
    const std::string& json) {
    std::map<long long, std::vector<double>> out;
    std::size_t pos = 0;
    while ((pos = json.find("\"tid\":", pos)) != std::string::npos) {
        pos += 6;
        char* end = nullptr;
        const long long tid = std::strtoll(json.c_str() + pos, &end, 10);
        std::size_t next = static_cast<std::size_t>(end - json.c_str());
        if (json.compare(next, 6, ",\"ts\":") == 0) {
            out[tid].push_back(std::strtod(json.c_str() + next + 6, nullptr));
        }
        pos = next;
    }
    return out;
}

TEST(ChromeTrace, EmptyRecordingIsValidJson) {
    const std::string json = espread::obs::chrome_trace_json({});
    EXPECT_TRUE(is_valid_json(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(ChromeTrace, SortsInterleavedEventsByTime) {
    std::vector<TraceEvent> events;
    events.push_back(make_event(sim::from_millis(5), Actor::kServer, 2));
    events.push_back(make_event(sim::from_millis(1), Actor::kServer, 1));
    events.push_back(make_event(sim::from_millis(3), Actor::kClient, 3));
    const std::string json = espread::obs::chrome_trace_json(events);
    EXPECT_TRUE(is_valid_json(json));
    const auto tracks = per_track_timestamps(json);
    // Server track: 1 ms then 5 ms (microsecond units).
    const auto server = tracks.at(static_cast<long long>(Actor::kServer) + 1);
    ASSERT_EQ(server.size(), 2u);
    EXPECT_DOUBLE_EQ(server[0], 1000.0);
    EXPECT_DOUBLE_EQ(server[1], 5000.0);
}

TEST(ChromeTrace, TracedSessionExportsValidMonotoneTimeline) {
    espread::proto::SessionConfig cfg;
    cfg.num_windows = 20;
    cfg.seed = 11;
    TraceRecorder rec(1 << 18);
    cfg.trace = &rec;
    espread::proto::run_session(cfg);

    ASSERT_GT(rec.size(), 0u);
    EXPECT_EQ(rec.evicted(), 0u) << "capacity too small for the test session";

    // Every event class the session emits should actually show up.
    std::map<EventType, std::size_t> by_type;
    for (const TraceEvent& e : rec.events()) ++by_type[e.type];
    EXPECT_GT(by_type[EventType::kPacketSent], 0u);
    EXPECT_GT(by_type[EventType::kPacketLost], 0u);
    EXPECT_GT(by_type[EventType::kFrameComplete], 0u);
    EXPECT_GT(by_type[EventType::kWindowFinalized], 0u);
    EXPECT_GT(by_type[EventType::kAckSent], 0u);
    EXPECT_GT(by_type[EventType::kEstimatorUpdate], 0u);

    const std::string json = espread::obs::chrome_trace_json(rec.events());
    ASSERT_TRUE(is_valid_json(json));

    const auto tracks = per_track_timestamps(json);
    EXPECT_GE(tracks.size(), 3u);  // server, data channel, client at least
    for (const auto& [tid, ts] : tracks) {
        for (std::size_t i = 1; i < ts.size(); ++i) {
            ASSERT_LE(ts[i - 1], ts[i])
                << "track " << tid << " not monotone at event " << i;
        }
    }
}

TEST(ChromeTrace, WritesLoadableFile) {
    const std::string path = ::testing::TempDir() + "/espread_trace_test.json";
    std::vector<TraceEvent> events;
    events.push_back(make_event(sim::from_millis(2), Actor::kDataChannel, 7));
    espread::obs::write_chrome_trace_file(path, events);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_TRUE(is_valid_json(ss.str()));
    EXPECT_NE(ss.str().find("\"PacketSent\""), std::string::npos);
}

// Trace event and actor labels and SLO health names are each spelled once,
// in their name function; this pins every label in enum order (FNV-1a,
// one '\n' after each) so a rename fails here.
TEST(TraceLabels, EveryEventActorAndHealthLabelIsPinned) {
    using espread::obs::telemetry::SloHealth;
    std::uint64_t h = 1469598103934665603ull;
    std::set<std::string> seen;
    const auto mix_label = [&](const char* label) {
        seen.insert(label);
        for (const char* c = label; *c != '\0'; ++c) {
            h ^= static_cast<unsigned char>(*c);
            h *= 1099511628211ull;
        }
        h ^= '\n';
        h *= 1099511628211ull;
    };
    for (int e = 0; e <= static_cast<int>(EventType::kRepairShed); ++e) {
        mix_label(espread::obs::event_name(static_cast<EventType>(e)));
    }
    for (int a = 0; a <= static_cast<int>(Actor::kGateway); ++a) {
        mix_label(espread::obs::actor_name(static_cast<Actor>(a)));
    }
    for (int k = 0; k <= static_cast<int>(SloHealth::kBreached); ++k) {
        mix_label(espread::obs::telemetry::slo_health_name(
            static_cast<SloHealth>(k)));
    }
    EXPECT_EQ(seen.size(), 25u + 5u + 3u);  // no label is shared
    EXPECT_EQ(h, 0xAA1A709DBC9F078Full);
}

TEST(MetricsRegistry, CountersAccumulate) {
    MetricsRegistry m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.counter("missing"), 0u);
    m.add_counter("x");
    m.add_counter("x", 4);
    EXPECT_EQ(m.counter("x"), 5u);
    EXPECT_FALSE(m.empty());
}

TEST(MetricsRegistry, HistogramsCreatedOnFirstUse) {
    MetricsRegistry m;
    EXPECT_EQ(m.find_histogram("h"), nullptr);
    m.histogram("h").add(3);
    m.histogram("h").add(3);
    ASSERT_NE(m.find_histogram("h"), nullptr);
    EXPECT_EQ(m.find_histogram("h")->total(), 2u);
}

TEST(MetricsRegistry, MergeAddsCountersAndHistograms) {
    MetricsRegistry a, b;
    a.add_counter("shared", 1);
    a.add_counter("only_a", 2);
    a.histogram("h").add(1);
    b.add_counter("shared", 10);
    b.add_counter("only_b", 20);
    b.histogram("h").add(2);
    b.histogram("g").add(3);
    a.merge(b);
    EXPECT_EQ(a.counter("shared"), 11u);
    EXPECT_EQ(a.counter("only_a"), 2u);
    EXPECT_EQ(a.counter("only_b"), 20u);
    EXPECT_EQ(a.find_histogram("h")->total(), 2u);
    EXPECT_EQ(a.find_histogram("g")->total(), 1u);
}

std::string metrics_json(const MetricsRegistry& m) {
    espread::exp::JsonWriter j;
    espread::obs::append_metrics(j, m);
    return j.str();
}

TEST(MetricsRegistry, SerializationIndependentOfInsertionOrder) {
    MetricsRegistry a;
    a.add_counter("zeta", 1);
    a.add_counter("alpha", 2);
    a.histogram("late").add(1);
    a.histogram("early").add(2);

    MetricsRegistry b;
    b.histogram("early").add(2);
    b.histogram("late").add(1);
    b.add_counter("alpha", 2);
    b.add_counter("zeta", 1);

    EXPECT_EQ(metrics_json(a), metrics_json(b));
    EXPECT_TRUE(is_valid_json(metrics_json(a)));
}

TEST(SessionMetrics, ConsistentWithSessionResult) {
    espread::proto::SessionConfig cfg;
    cfg.num_windows = 30;
    cfg.seed = 5;
    cfg.collect_metrics = true;
    const espread::proto::SessionResult r = espread::proto::run_session(cfg);

    ASSERT_FALSE(r.metrics.empty());
    EXPECT_EQ(r.metrics.counter("data_packets_sent"), r.data_channel.sent);
    EXPECT_EQ(r.metrics.counter("data_packets_dropped"),
              r.data_channel.dropped);
    EXPECT_EQ(r.metrics.counter("acks_sent"), r.acks_sent);
    EXPECT_EQ(r.metrics.counter("acks_applied"), r.acks_applied);

    std::uint64_t retx = 0;
    for (const auto& w : r.windows) retx += w.retransmissions;
    EXPECT_EQ(r.metrics.counter("retransmissions"), retx);

    // Every lost packet belongs to exactly one loss run.
    const auto* runs = r.metrics.find_histogram("loss_run_length");
    ASSERT_NE(runs, nullptr);
    std::uint64_t lost_in_runs = 0;
    for (const auto& [len, count] : runs->bins()) {
        lost_in_runs += static_cast<std::uint64_t>(len) * count;
    }
    EXPECT_EQ(lost_in_runs, r.data_channel.dropped);

    const auto* clf = r.metrics.find_histogram("window_clf");
    ASSERT_NE(clf, nullptr);
    EXPECT_EQ(clf->total(), r.windows.size());
}

TEST(SessionMetrics, OffByDefault) {
    espread::proto::SessionConfig cfg;
    cfg.num_windows = 3;
    const espread::proto::SessionResult r = espread::proto::run_session(cfg);
    EXPECT_TRUE(r.metrics.empty());
}

}  // namespace
