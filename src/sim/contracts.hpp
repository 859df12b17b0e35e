// Cross-TU contract registry (DESIGN.md §14).
//
// A value that more than one translation unit must agree on, and that code
// reads by name, is declared here exactly once.  `espread_lint --contracts`
// (rules C1, C2, C4, C5) proves the rest of the tree uses it:
//
//   * RNG split lanes.  Each independent consumer of a root Rng owns one
//     lane per root family; a duplicated lane silently correlates two
//     processes that every figure assumes are independent.  Lane constants
//     are named k<Family>Lane<Name>; the family names the root the lane is
//     split from (C1: no magic `.split(<int>)` anywhere in src/ or bench/,
//     no value collision within a family).
//   * Wire-format type tags.  One byte on the wire, one constant here;
//     protocol/codec.hpp's WireType enumerators must take their values
//     from these (C2: declared exactly once, canonical decode coverage in
//     src/protocol/codec.cpp, structure-aware fuzz-corpus coverage).
//   * Governor state labels, read by every exporter that names a state.
//   * Bench claim-gate keys.  tools/perf_gate and the CI workflow gate on
//     top-level BENCH_*.json keys; the keys they consume must stay a
//     subset of what the benches emit (C4).
//   Lanes, tags and gate keys that nothing uses are dead (C5).
//
// Metric, trace, SLO and telemetry names are not listed here: each is
// spelled once, where it is emitted (or in the one name function that
// both writer and parser call), so there is no second copy to drift.
// Golden fingerprints in test_engine, test_telemetry, test_nack and
// test_obs pin the exported names.
//
// To add a lane, tag or gate key: declare it here first, then use it at
// the producing/consuming sites.  The lint target fails until both sides
// agree — that is the point.
#pragma once

#include <cstdint>
#include <string_view>

namespace espread::contracts {

// ---- RNG split lanes -------------------------------------------------------
//
// Family "Session": lanes split from proto::Session's per-session root
// (src/protocol).  A lane that is only split when its feature is enabled
// (RLC, recovery) keeps feature-off runs byte-identical.
inline constexpr std::uint64_t kSessionLaneDataChannel = 1;
inline constexpr std::uint64_t kSessionLaneFeedbackChannel = 2;
inline constexpr std::uint64_t kSessionLaneMediaTrace = 3;
inline constexpr std::uint64_t kSessionLaneDataImpairment = 4;
inline constexpr std::uint64_t kSessionLaneFeedbackImpairment = 5;
inline constexpr std::uint64_t kSessionLaneRlcCoefficients = 6;
inline constexpr std::uint64_t kSessionLaneNackJitter = 7;

// Family "Engine": lanes split from the data-oriented engine's per-session
// root (src/engine).  The scalar reference model deliberately reuses the
// pool's chain lanes — tests/engine_reference.cpp predicting pool.cpp
// bit-for-bit is the shard-invariance contract, not a collision.
inline constexpr std::uint64_t kEngineLaneDataChain = 1;
inline constexpr std::uint64_t kEngineLaneFeedbackChain = 2;
inline constexpr std::uint64_t kEngineLaneChurn = 3;

// Family "Analysis": lanes split from the analysis/validation tools' local
// roots (src/analysis, bench/bench_validation).
inline constexpr std::uint64_t kAnalysisLaneGilbertChain = 1;

// ---- wire-format type tags -------------------------------------------------
//
// First byte of every encoded record (src/protocol/codec.hpp WireType).
inline constexpr std::uint8_t kWireTagData = 1;
inline constexpr std::uint8_t kWireTagTrailer = 2;
inline constexpr std::uint8_t kWireTagFeedback = 3;
inline constexpr std::uint8_t kWireTagRepair = 4;
inline constexpr std::uint8_t kWireTagNack = 5;

// ---- governor state names --------------------------------------------------
//
// Governor state labels, in proto::GovernorState (and engine kGov*) order:
// the only copy, read by proto::governor_state_name, the Prometheus
// exposition and the report tool's occupancy line.
inline constexpr std::string_view kGovernorStateNames[] = {
    "normal",
    "degraded",
    "fallback",
    "recovering",
};

// ---- bench claim-gate keys ------------------------------------------------
//
// Top-level BENCH_*.json keys that CI claim gates consume: tools/perf_gate
// greps the first by default, and .github/workflows/ci.yml names the rest
// via --key=.  Every key here must be emitted by at least one gated bench.
inline constexpr std::string_view kBenchGateKeys[] = {
    "windows_per_second",
    "gf256_mul_mbytes_per_second",
};

}  // namespace espread::contracts
