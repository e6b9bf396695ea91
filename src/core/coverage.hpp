// Coverage data model and the analyzer that fills it from a trace.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "core/syscall_spec.hpp"
#include "core/syscall_table.hpp"
#include "core/variant_handler.hpp"
#include "stats/histogram.hpp"
#include "trace/event.hpp"

namespace iocov::trace {
struct EventBatch;
}

namespace iocov::core {

/// Input coverage for one tracked argument of one base syscall.
struct ArgCoverage {
    std::string base;
    std::string key;
    ArgClass cls = ArgClass::Numeric;

    /// Frequency per partition (Fig. 2 / Fig. 3 of the paper).
    stats::PartitionHistogram hist;

    // Bitmap extras (populated only for the open-flags argument):
    /// How many flags were combined per call — Table 1, "all flags" row.
    stats::PartitionHistogram combo_cardinality;
    /// Same, restricted to calls that include O_RDONLY — Table 1 row 2.
    stats::PartitionHistogram combo_cardinality_rdonly;
    /// Unordered flag pairs seen together ("O_CREAT+O_TRUNC") — the
    /// paper's future-work "bit combinations" extension.
    stats::PartitionHistogram pairs;

    friend bool operator==(const ArgCoverage&, const ArgCoverage&) = default;
};

/// Output coverage for one base syscall (Fig. 4).
struct OutputCoverage {
    std::string base;
    SuccessKind success = SuccessKind::Unit;
    stats::PartitionHistogram hist;

    friend bool operator==(const OutputCoverage&,
                           const OutputCoverage&) = default;
};

/// Everything IOCov measured over one trace.
struct CoverageReport {
    std::vector<ArgCoverage> inputs;     // 14 entries
    std::vector<OutputCoverage> outputs;  // 11 entries
    std::uint64_t events_seen = 0;     ///< events fed to the analyzer
    std::uint64_t events_tracked = 0;  ///< events in the tracked 27

    ArgCoverage* find_input(std::string_view base, std::string_view key);
    const ArgCoverage* find_input(std::string_view base,
                                  std::string_view key) const;
    OutputCoverage* find_output(std::string_view base);
    const OutputCoverage* find_output(std::string_view base) const;

    /// Merges another report (e.g. per-process shards) into this one.
    /// Histogram row order is canonical (see PartitionHistogram), so
    /// merging the same shard set in any order yields bit-identical
    /// reports — the property the parallel pipeline relies on.
    void merge(const CoverageReport& other);

    friend bool operator==(const CoverageReport&,
                           const CoverageReport&) = default;
};

/// Streams trace events into a CoverageReport.
///
/// Every tracked argument is reduced to ArgBits and mapped by its
/// partition class (core/partition.hpp) to histogram row indices, which
/// are bumped in place: no label is rendered or compared unless a value
/// falls outside the declared partitions.  The row entry point reads a
/// decoded or parsed batch row through its string table's bindings; the
/// TraceEvent entry points read a materialized event.  Both locate each
/// argument by the same rule and count it through the same functions,
/// so they produce the same report.
class Analyzer {
  public:
    /// Tracks the paper's 27-syscall registry by default; pass
    /// extended_syscall_registry() (or a custom one) to widen tracking.
    explicit Analyzer(
        const std::vector<SyscallSpec>& registry = syscall_registry());

    /// Consumes one (already filtered) trace event.
    void consume(const trace::TraceEvent& event);

    /// consume() for callers that pre-resolved the event's syscall name:
    /// `binding` must be `table().bind(event.syscall)` or the
    /// table().bind_all() entry of that name.
    void consume(const trace::TraceEvent& event,
                 const SyscallTable::Binding& binding);

    /// Consumes `batch.rows[row]` (decoded IOCT or parsed text) without
    /// materializing it.  `table` must be table().bind_all() over the
    /// string table the batch indexes.  Exactly what consume() does on
    /// the materialized row; allocation-free once the report holds
    /// every partition the rows reach.
    void consume_row(const trace::EventBatch& batch, std::size_t row,
                     const std::vector<SyscallTable::Binding>& table);

    /// Convenience over a whole buffer.
    void consume_all(const std::vector<trace::TraceEvent>& events);

    /// The name-interning table (for pre-binding via bind()/bind_all()).
    const SyscallTable& table() const { return table_; }

    /// Folds a shard's report into this analyzer's (used by the parallel
    /// pipeline after per-worker analysis).
    void merge_report(const CoverageReport& shard) { report_.merge(shard); }

    const CoverageReport& report() const { return report_; }
    CoverageReport take_report() { return std::move(report_); }

  private:
    /// Counts one value of arg slot `slot`.
    void count_input(std::size_t slot, const ArgBits& value);
    /// Counts one return value of base `id`.
    void count_output(SyscallId id, std::int64_t ret);
    /// Counts the open-flag pairs among `flags` (open_flag_table rows).
    void count_pairs(stats::PartitionHistogram& pairs,
                     const std::uint8_t* flags, std::size_t n);
    /// Rebuilds pair_rows_ from `pairs`' rows.
    void index_pairs(const stats::PartitionHistogram& pairs);

    CoverageReport report_;
    /// Variant names resolved once into dense indices (report_.inputs
    /// and input_classes_, report_.outputs and output_parts_ share the
    /// table's arg-slot / SyscallId numbering).
    SyscallTable table_;
    struct InputSlot {
        PartitionClass cls;
        std::uint8_t declared;  ///< declared_count(cls)
    };
    std::vector<InputSlot> input_classes_;
    std::vector<OutputPartitioner> output_parts_;
    /// Flat slot of open/flags, whose bitmap combination statistics are
    /// tracked beyond the plain histogram; npos if not in the registry.
    std::size_t open_flags_slot_ = SyscallTable::npos;
    /// Open-flag pair (a, b) -> row of its "A+B" label in the pairs
    /// histogram (kNoRow when absent), valid while that histogram has
    /// pair_rows_size_ rows: a pair row is inserted, or a merge adds
    /// one, only by growing it.  Built on first use.
    static constexpr std::uint32_t kNoRow = 0xffffffffu;
    std::vector<std::uint32_t> pair_rows_;
    std::size_t pair_rows_size_ = 0;
    std::string pair_label_;  ///< a new pair's label, capacity reused
};

}  // namespace iocov::core
