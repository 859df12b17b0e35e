// Process probes: percentile helpers, the allocation counter, heap and
// peak-RSS readings.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace espbench {

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void alloc_counting(bool on) noexcept {
    g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_count() noexcept {
    return g_allocs.load(std::memory_order_relaxed);
}

std::uint64_t heap_in_use_bytes() noexcept {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<std::uint64_t>(mi.uordblks) +
           static_cast<std::uint64_t>(mi.hblkhd);
}

double peak_rss_mb() noexcept {
    // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so it
    // would report the launching process's peak when that was larger.
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    return kib / 1024.0;
}

}  // namespace espbench

// Replacement global allocation functions: the counter behind
// protocol.allocs_per_window.  Untraced runs pay one relaxed load per
// allocation.
void* operator new(std::size_t size) {
    if (espbench::g_counting.load(std::memory_order_relaxed)) {
        espbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
