// Structured parse diagnostics for trace ingestion.
//
// Both trace decoders (text lines, IOCT records) tolerate corruption by
// skipping what they cannot parse.  A bare drop counter says *that*
// input was lost but not *where* or *why* — useless when a 10 GiB
// trace produces "dropped: 3".  ParseDiagnostics records every drop
// with its position and a stable reason string, retaining the first K
// verbatim (a corrupt region usually repeats one failure mode; the
// first few entries identify it) while still counting the rest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace iocov::trace {

/// One skipped piece of input.
struct ParseDiagnostic {
    /// 1-based line number for text input; 0 for binary records.
    std::uint64_t line = 0;
    /// Byte offset of the offending line/record from the start of the
    /// input.
    std::uint64_t offset = 0;
    /// Stable, human-readable failure reason ("bad sequence number",
    /// "unknown record tag", ...).
    std::string reason;
    /// Leading bytes of the offending input (empty for binary records).
    std::string excerpt;
};

/// Bounded accumulator: counts every drop, retains the first
/// `max_retained` diagnostics in input order.
class ParseDiagnostics {
  public:
    static constexpr std::size_t kDefaultMaxRetained = 16;
    /// Excerpts are clipped to this many bytes.
    static constexpr std::size_t kExcerptBytes = 48;

    explicit ParseDiagnostics(std::size_t max_retained = kDefaultMaxRetained)
        : max_retained_(max_retained) {}

    void record(std::uint64_t line, std::uint64_t offset,
                std::string_view reason, std::string_view excerpt = {});

    /// Folds another accumulator in (parallel shards each keep their
    /// own).  Entries are re-sorted by (line, offset) and re-truncated,
    /// so merging per-shard diagnostics yields exactly the entries the
    /// serial pass would have retained: each shard covers a disjoint
    /// input range and retains at least `max_retained` of its own, so
    /// every candidate for the global first K survives until the merge.
    void merge(const ParseDiagnostics& other);

    /// Folds another accumulator in as if its drops were recorded here
    /// after this one's, in order (no re-sort), each reason prefixed
    /// with `prefix` — how a directory walk keys a file's diagnostics
    /// by file name.  Entries beyond the retention cap are counted.
    void append(const ParseDiagnostics& other, std::string_view prefix = {});

    /// Total drops recorded, including those beyond the retention cap.
    std::uint64_t total() const { return total_; }

    /// Counts `n` additional drops without retaining entries (a count
    /// whose per-record reasons are not available, e.g. a snapshot's).
    void count_only(std::uint64_t n) { total_ += n; }

    /// First-K retained diagnostics, in input order.
    const std::vector<ParseDiagnostic>& entries() const { return entries_; }

    std::size_t max_retained() const { return max_retained_; }

    void clear() {
        entries_.clear();
        total_ = 0;
    }

    /// Multi-line summary: one line per retained entry plus an
    /// "... and N more" tail when drops exceeded the retention cap.
    std::string to_string() const;

  private:
    std::size_t max_retained_;
    std::vector<ParseDiagnostic> entries_;
    std::uint64_t total_ = 0;
};

}  // namespace iocov::trace
