// espbench: one closed-loop benchmark over espread's two simulation paths.
//
//   espbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//            [--plant CHECK]
//
// Workloads: engine_fleet, engine_arms (ShardedEngine), session_fig8,
// session_repair (Session).  --trace 0 times only the program's entry
// points and prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics instead.  --tiny shrinks every workload (for the
// benchmark's own tests); --plant sabotages one correctness check
// (shard_twin, clf_range, window_count, ledger, nack_cap, rerun) so a
// test can show that it fires.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad
// usage or a build that must not report timings.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef ESPBENCH_BUILD_TYPE
#define ESPBENCH_BUILD_TYPE "unknown"
#endif
#ifndef ESPBENCH_CXX_FLAGS
#define ESPBENCH_CXX_FLAGS ""
#endif
#ifndef ESPBENCH_COMPILER
#define ESPBENCH_COMPILER "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ESPBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ESPBENCH_SANITIZED 1
#endif
#endif
#ifndef ESPBENCH_SANITIZED
#define ESPBENCH_SANITIZED 0
#endif

namespace {

using espbench::Options;

int usage(const char* why) {
    std::fprintf(stderr,
                 "espbench: %s\nusage: espbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--plant CHECK]\n",
                 why);
    return 2;
}

/// Why this build must not report timings, or nullptr if it may.
const char* unfit_build() {
#ifndef NDEBUG
    return "assertions are enabled (NDEBUG unset): not an optimized build";
#endif
    if (ESPBENCH_SANITIZED || std::strstr(ESPBENCH_CXX_FLAGS, "-fsanitize")) {
        return "sanitizer build";
    }
    const std::string bt = ESPBENCH_BUILD_TYPE;
    if (bt != "Release" && bt != "RelWithDebInfo" && bt != "MinSizeRel") {
        return "build type is not optimized (want Release)";
    }
    return nullptr;
}

/// JSON string literal (the strings printed here are plain ASCII).
std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') out += '\\';
        out += ch;
    }
    return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--tiny") {
            opt.tiny = true;
            continue;
        }
        const char* v = value();
        if (v == nullptr) return usage(("missing value for " + a).c_str());
        char* end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
            if (*end != '\0') return usage("--seed takes an integer");
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(opt.seconds > 0.0)) return usage("--seconds takes a positive number");
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
                return usage("--trace takes 0 or 1");
            }
            opt.trace = v[0] == '1';
        } else if (a == "--plant") {
            opt.plant = v;
        } else {
            return usage(("unknown flag " + a).c_str());
        }
    }
    const bool engine = espbench::is_engine_workload(opt.workload);
    if (!have_workload || (!engine && !espbench::is_session_workload(opt.workload))) {
        return usage("--workload must be engine_fleet, engine_arms, session_fig8 or session_repair");
    }
    if (const char* why = unfit_build()) {
        std::fprintf(stderr, "espbench: refusing to report timings: %s\n", why);
        return 2;
    }

    std::printf("espbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, opt.tiny ? " tiny" : "");
    std::fflush(stdout);

    const espbench::Report r =
        opt.trace ? (engine ? espbench::trace_engine_workload(opt)
                            : espbench::trace_session_workload(opt))
                  : (engine ? espbench::run_engine_workload(opt)
                            : espbench::run_session_workload(opt));

    for (const auto& m : r.metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "espbench: metric %s is not finite\n", m.name.c_str());
            return 2;
        }
    }
    for (const auto& m : r.metrics) {
        std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    const double failed_frac = r.checks.attempted > 0
        ? static_cast<double>(r.checks.failed) / static_cast<double>(r.checks.attempted)
        : 0.0;
    std::printf("  %-34s %16.6g (%llu of %llu operations)\n", "failed_frac", failed_frac,
                static_cast<unsigned long long>(r.checks.failed),
                static_cast<unsigned long long>(r.checks.attempted));
    for (const auto& msg : r.checks.messages) std::printf("  check failed: %s\n", msg.c_str());

    std::printf("# quality {\"clf_mean\": %.17g, \"bandwidth_overhead\": %.17g}\n",
                r.clf_mean, r.bandwidth_overhead);
    std::printf("# build {\"build_type\": %s, \"cxx_flags\": %s, \"compiler\": %s, "
                "\"sanitizer\": false, \"nproc\": %u, \"samples\": %zu}\n",
                quoted(ESPBENCH_BUILD_TYPE).c_str(), quoted(ESPBENCH_CXX_FLAGS).c_str(),
                quoted(ESPBENCH_COMPILER).c_str(), std::thread::hardware_concurrency(),
                r.samples);

    const bool correct = r.checks.failed == 0 && r.checks.attempted > 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.checks.attempted);
    json += ", \"failed\": " + std::to_string(r.checks.failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const auto& m = r.metrics[i];
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        json += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " + buf +
                ", \"unit\": " + quoted(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
