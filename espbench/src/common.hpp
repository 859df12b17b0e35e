// Shared pieces of the espbench harness: options, the metric list a run
// emits, the correctness ledger, wall-clock and percentile helpers, and
// the process probes (allocation counter, heap and RSS readings).
//
// The gated (untraced) numbers time only the program's entry points —
// ShardedEngine construction and step(), Session construction and run().
// Everything else here is harness bookkeeping done outside those spans.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace espbench {

/// Command-line options of one run.  `tiny` shrinks every workload so the
/// benchmark's own tests run in seconds; `plant` sabotages one named
/// correctness check so the tests can show that it fires.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string plant;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Correctness ledger.  `attempted` counts timed operations (engine steps,
/// sessions) plus the standalone comparisons; a failed check charges the
/// operations it covers to `failed`.
struct Checks {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> messages;

    /// Records `ops` operations whose correctness `ok` vouches for.
    void expect(bool ok, std::uint64_t ops, const std::string& what) {
        attempted += ops;
        if (!ok) {
            failed += ops;
            if (messages.size() < 16) messages.push_back(what);
        }
    }
};

/// What a run reports.  `clf_mean` and `bandwidth_overhead` are repeated
/// on a separate quality line in both modes so traced and untraced runs
/// can be compared.
struct Report {
    std::vector<Metric> metrics;
    Checks checks;
    double clf_mean = 0.0;
    double bandwidth_overhead = 0.0;
    std::size_t samples = 0;  ///< timed operations behind the percentiles
};

/// Monotonic wall clock in seconds.  The only clock read in the harness;
/// every timing goes through it.
inline double now_s() {
    // espread-lint: allow(D1) wall-clock timing of benchmarked calls; never feeds simulated results
    const auto t = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/// Linearly interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);

double median(const std::vector<double>& v);

// ---- process probes (probe.cpp) -------------------------------------

/// Allocation counter behind the harness's replacement operator new.
/// Counting is off unless a traced span switches it on.
void alloc_counting(bool on) noexcept;
std::uint64_t alloc_count() noexcept;

/// Bytes currently held by the heap allocator (in-use arena + mmapped).
std::uint64_t heap_in_use_bytes() noexcept;

/// Peak resident set size of the process, in MiB.
double peak_rss_mb() noexcept;

// ---- workloads ------------------------------------------------------

bool is_engine_workload(const std::string& name);
bool is_session_workload(const std::string& name);

Report run_engine_workload(const Options& opt);
Report run_session_workload(const Options& opt);
Report trace_engine_workload(const Options& opt);
Report trace_session_workload(const Options& opt);

}  // namespace espbench
