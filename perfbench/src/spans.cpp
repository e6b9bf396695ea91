#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double now_s() {
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

SpanLog::Id SpanLog::begin(const char* name, Id parent) {
    const double t = now_s();
    return add(name, parent, t, t);
}

void SpanLog::end(Id id) { spans_[id].t1 = now_s(); }

SpanLog::Id SpanLog::add(const char* name, Id parent, double t0, double t1) {
    spans_.push_back(Span{name, parent, t0, t1});
    return static_cast<Id>(spans_.size() - 1);
}

std::map<std::string, double> SpanLog::self_seconds() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const auto& s : spans_)
        if (s.parent != kNone && s.parent < spans_.size())
            kids[s.parent].emplace_back(s.t0, s.t1);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.t0);
            hi = std::min(hi, s.t1);
            if (hi <= lo) continue;
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open) covered += cur_hi - cur_lo;
        out[s.name] += std::max(0.0, (s.t1 - s.t0) - covered);
    }
    return out;
}

bool SpanLog::write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f, "%zu\t%ld\t%s\t%.9f\t%.9f\n", i,
                     s.parent == kNone ? -1L : static_cast<long>(s.parent),
                     s.name, s.t0, s.t1);
    }
    return std::fclose(f) == 0;
}

}  // namespace perfbench
