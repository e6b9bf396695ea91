#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2) return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return (lo + hi) / 2;
}

namespace {

/// Nearest rank of the pct-th percentile of n samples (1-based).  The
/// epsilon keeps 99.9 % of 10000 at rank 9990: in binary floating point
/// the product comes out a hair above the integer.
double nearest_rank(double pct, std::size_t n) {
    return std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double percentile(std::vector<double> v, double pct) {
    if (v.empty()) return 0;
    const double rank = nearest_rank(pct, v.size());
    std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    idx = std::min(idx, v.size() - 1);
    std::nth_element(v.begin(), v.begin() + idx, v.end());
    return v[idx];
}

double tail_percentile_rank(std::size_t n) {
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const double rank = nearest_rank(p, n);
        if (static_cast<double>(n) - rank >= 10) return p;
    }
    return 0;
}

std::vector<double> latencies_ms(const std::vector<Request>& reqs) {
    std::vector<double> out;
    out.reserve(reqs.size());
    for (const auto& r : reqs) out.push_back((r.done - r.due) * 1e3);
    return out;
}

std::vector<double> generator_lateness_ms(const std::vector<Request>& reqs) {
    std::vector<double> out;
    out.reserve(reqs.size());
    double prev_done = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const double ready =
            i == 0 ? reqs[i].due : std::max(reqs[i].due, prev_done);
        out.push_back(std::max(0.0, reqs[i].sent - ready) * 1e3);
        prev_done = reqs[i].done;
    }
    return out;
}

bool backlog_grows(const std::vector<Request>& reqs, double slack_ms) {
    const std::size_t q = reqs.size() / 4;
    if (q == 0) return false;
    double first = 0, last = 0;
    for (std::size_t i = 0; i < q; ++i) {
        first += reqs[i].sent - reqs[i].due;
        last += reqs[reqs.size() - q + i].sent - reqs[reqs.size() - q + i].due;
    }
    return (last - first) / static_cast<double>(q) * 1e3 > slack_ms;
}

}  // namespace perfbench
