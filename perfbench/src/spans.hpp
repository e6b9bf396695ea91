// In-memory span log for the traced run.  Spans are recorded by the
// benchmark around its own calls into the library (nothing inside the
// library is instrumented); they stay in memory until the run ends and
// are then reduced to per-layer self times and optionally written out.
//
// A SpanLog is used from one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the process-wide steady clock (all spans, request
/// timestamps and deadlines share it).
double now_s();

class SpanLog {
  public:
    using Id = std::uint32_t;
    static constexpr Id kNone = 0xffffffffu;

    /// Opens a span starting now; close it with end().
    Id begin(const char* name, Id parent = kNone);
    void end(Id id);

    /// Records a finished span with explicit times.
    Id add(const char* name, Id parent, double t0, double t1);

    /// Per span name, the sum of self time: each span's duration minus
    /// the part of its interval covered by its direct children (the
    /// union of their intervals, clipped to the parent).
    std::map<std::string, double> self_seconds() const;

    std::size_t size() const { return spans_.size(); }

    /// Writes one line per span: id, parent, name, start, end (seconds).
    bool write_tsv(const std::string& path) const;

  private:
    struct Span {
        const char* name;
        Id parent;
        double t0;
        double t1;
    };
    std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
  public:
    Scope(SpanLog& log, const char* name, SpanLog::Id parent = SpanLog::kNone)
        : log_(log), id_(log.begin(name, parent)) {}
    ~Scope() { log_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    SpanLog::Id id() const { return id_; }

  private:
    SpanLog& log_;
    SpanLog::Id id_;
};

}  // namespace perfbench
