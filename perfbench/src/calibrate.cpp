#include "calibrate.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

/// Where the kernel's result goes, so it cannot be optimized away.
volatile std::uint64_t g_sink = 0;

}  // namespace

double calibrate() {
    std::vector<std::uint32_t> v(1 << 17);
    std::uint64_t x = 88172645463325252ULL;
    for (auto& e : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        e = static_cast<std::uint32_t>(x);
    }
    const double t0 = now_s();
    std::sort(v.begin(), v.end());
    std::unordered_map<std::uint64_t, std::uint32_t> m;
    for (std::uint32_t i = 0; i < 20000; ++i) m[v[i * 5] ^ i] = i;
    std::uint64_t h = 0;
    for (std::uint32_t i = 0; i < 40000; ++i) {
        const auto it = m.find(v[i * 3] ^ i);
        if (it != m.end()) h += it->second;
    }
    for (const auto e : v) h = (h ^ e) * 1099511628211ULL;
    const double t = now_s() - t0;
    g_sink = h;
    return t;
}

double HostSpeed::sample() {
    double best = calibrate();
    for (int i = 1; i < tries_; ++i) best = std::min(best, calibrate());
    samples_.push_back(best);
    return best;
}

double HostSpeed::normalize_since_last(double t) {
    const double before = samples_.empty() ? sample() : samples_.back();
    const double after = sample();
    return normalized(t, (before + after) / 2);
}

double HostSpeed::normalize_at_last(double t) const {
    return samples_.empty() ? t : normalized(t, samples_.back());
}

double HostSpeed::speed() const {
    const double m = median(samples_);
    return m > 0 ? kCalibrationRefS / m : 0;
}

}  // namespace perfbench
