// IOCov facade: the public entry point of the library.
//
// Wires the three components of the paper's Section 3 pipeline —
// trace filter, syscall variant handler, input/output partitioner —
// behind one object:
//
//     iocov::core::IOCov iocov(
//         iocov::trace::FilterConfig::mount_point("/mnt/test"));
//     iocov.consume_all(buffer.events());
//     const auto& report = iocov.report();
//
// As in the real tool, the only knob a new file-system tester needs is
// the mount point: the path itself and everything beneath it.
//
// Shard rule.  The trace filter is stateful (watched fds, per-pid cwd
// scope), so where its state starts decides the report.  Every
// consume_text* and consume_binary* call, every file of a directory
// and every LiveCoverage push is one shard — or, with n_threads > 1,
// one shard per pid group — analyzed from empty filter state; shards
// meet only through the report merge.  That makes every route over the
// same inputs bit-identical: serial, parallel, file by file, directory,
// snapshot merge, serve push, and a checkpointed walk resumed after a
// kill.  Only consume(), consume_all() and live_sink() stream events
// through one persistent filter, for callers that feed a live trace in
// order.
#pragma once

#include <istream>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/coverage.hpp"
#include "core/tcd.hpp"
#include "core/untested.hpp"
#include "host/io.hpp"
#include "trace/binary_format.hpp"
#include "trace/diagnostics.hpp"
#include "trace/filter.hpp"
#include "trace/sink.hpp"

namespace iocov::core {

/// Cumulative ingest statistics across every consume_text* /
/// consume_binary* call on one IOCov (surfaced by `iocov analyze
/// --stats`).
struct IngestStats {
    std::uint64_t events = 0;  ///< events decoded or parsed (pre-filter)
    std::uint64_t bytes = 0;   ///< trace bytes ingested
    std::uint64_t files = 0;   ///< files analyzed (file/dir entry points)
    unsigned threads = 1;      ///< widest thread count used
    /// Heap allocations inside the steady-state IOCT decode -> filter
    /// -> analyze loops (stays 0 once histograms and scratch are warm;
    /// always 0 when exec::has_allocation_counting() is false).
    std::uint64_t hot_loop_allocs = 0;
    double seconds = 0;        ///< wall time spent in ingestion

    /// Accumulates `other`: counters and `seconds` sum, `threads` keeps
    /// the widest value.
    IngestStats& operator+=(const IngestStats& other);

    friend bool operator==(const IngestStats&, const IngestStats&) = default;
};

struct IOCovSnapshot;  // core/snapshot.hpp
struct ShardResult;    // core/iocov.cpp: what one ingest shard yields

class IOCov {
  public:
    /// `filter_config` selects the file system under test; the default
    /// matches the paper's xfstests setup (/mnt/test).  `registry`
    /// selects the tracked syscall set (pass
    /// extended_syscall_registry() for the future-work superset).
    explicit IOCov(trace::FilterConfig filter_config =
                       trace::FilterConfig::mount_point("/mnt/test"),
                   const std::vector<SyscallSpec>& registry =
                       syscall_registry());

    /// Feeds one raw trace event through the persistent filter (events
    /// must arrive in trace order for fd tracking to work; state carries
    /// across calls).
    void consume(const trace::TraceEvent& event);

    void consume_all(const std::vector<trace::TraceEvent>& events);

    /// Parses an LTTng-style text trace and analyzes it as one shard.
    /// Returns the number of malformed lines skipped.
    std::size_t consume_text(std::istream& in);

    /// consume_text on `n_threads` lanes: the trace is split into line
    /// chunks parsed in parallel, events are re-sharded by pid, and
    /// each pid group runs filter+analyze on its own lane before the
    /// reports merge here.  The filter's state is keyed strictly by
    /// pid, so per-pid order — which sharding preserves — is all that
    /// determinism needs: the result is bit-identical to consume_text.
    /// `n_threads` 0 means hardware concurrency.  Returns the number of
    /// malformed lines skipped.
    std::size_t consume_text_parallel(std::istream& in,
                                      unsigned n_threads = 0);

    /// Analyzes an IOCT binary trace held in memory (typically an
    /// mmap'd file; see trace::MappedFile) as one shard.  Records are
    /// decoded into rows whose strings stay table ids; the trace filter
    /// admits each row from those ids (TraceFilter::admit_row — the
    /// same state machine consume_text drives), and only admitted rows
    /// are materialized into a reusable scratch event for the analyzer,
    /// so the report is bit-identical to analyzing the equivalent text
    /// trace.  Returns the number of undecodable records dropped (torn
    /// tails and corrupt payloads), mirroring consume_text's
    /// malformed-line count.  A buffer that is not an IOCT file (bad
    /// magic/version) analyzes as empty with 0 dropped — callers that
    /// need to distinguish should sniff with trace::is_ioct first.
    std::size_t consume_binary(std::string_view data);

    /// consume_binary on `n_threads` lanes, mirroring
    /// consume_text_parallel: one structural scan locates record
    /// boundaries and pre-decodes pids, records are sharded by pid, and
    /// each pid group decodes + filters + analyzes on its own lane
    /// before the reports merge.  Bit-identical to consume_binary.
    std::size_t consume_binary_parallel(std::string_view data,
                                        unsigned n_threads = 0);

    /// Opens `path` (mmap with a read() fallback) and runs
    /// consume_binary_parallel on it.  `n_threads` 1 is serial, 0
    /// auto-detects hardware concurrency.  Returns nullopt when the
    /// file cannot be opened.
    std::optional<std::size_t> consume_binary_file(const std::string& path,
                                                   unsigned n_threads = 1);

    /// Result of a directory ingestion (consume_binary_dir).
    struct DirIngest {
        std::size_t files = 0;     ///< IOCT files analyzed
        std::size_t rejected = 0;  ///< entries skipped (not IOCT / unreadable)
        std::size_t dropped = 0;   ///< undecodable records across all files
        std::uint64_t bytes = 0;   ///< bytes analyzed
    };

    /// Analyzes every regular file in `dir` (sorted by name; not
    /// recursive) with consume_binary_files.  Returns nullopt when
    /// `dir` cannot be enumerated.
    std::optional<DirIngest> consume_binary_dir(const std::string& dir,
                                                unsigned n_threads = 1);

    /// Analyzes `files`, each as its own shard.  Non-IOCT files are
    /// rejected with a per-file diagnostic, not an error — a trace
    /// directory routinely holds a README or checksum file.  Files are
    /// scheduled onto a work-stealing pool weighted by size
    /// (`n_threads` 0 = hardware concurrency, 1 = serial), and their
    /// results fold in the given order, diagnostics keyed by file name,
    /// so the result is independent of the thread count and equals
    /// consume_binary_file on each file in turn.
    DirIngest consume_binary_files(std::span<const host::DirFile> files,
                                   unsigned n_threads = 1);

    /// Parses a syzkaller program/log and analyzes its *input* coverage
    /// (declarative programs carry no return values, so output coverage
    /// is unaffected).  Fuzzer programs run confined to their sandbox,
    /// so no mount-point filtering is applied.  Returns the number of
    /// syscall lines parsed.
    std::size_t consume_syz(std::istream& in);

    /// Folds another IOCov's coverage state into this one: report
    /// histograms merge row-wise, filtered/dropped/shard counters and
    /// IngestStats accumulate (see the accumulation contract below),
    /// and retained diagnostics fold under the usual first-K retention.
    /// Associative and commutative in the report — for any split of a
    /// workload into per-pid-ordered parts, merging the parts' IOCovs
    /// (in any order, any grouping) is bit-identical to one IOCov
    /// ingesting the whole workload.  `other`'s live filter state
    /// (watched fds, cwd) is NOT transferred: merge combines finished
    /// measurements, it does not splice mid-trace sessions.
    void merge(const IOCov& other);

    /// Same fold from a deserialized snapshot (see core/snapshot.hpp):
    /// merge(ingest(A).snapshot(), ingest(B).snapshot()) ==
    /// ingest(A+B).snapshot() bit-identically.  The snapshot's dropped
    /// count accumulates into diagnostics().total() count-only (the
    /// per-record reasons live with the original producer).
    void merge(const IOCovSnapshot& snapshot);

    /// merge(snapshot) where the producer's diagnostics were kept
    /// beside the snapshot (an IOCK manifest): `diags` stands in for
    /// the snapshot's dropped count, so its retained entries survive.
    void merge(const IOCovSnapshot& snapshot,
               const trace::ParseDiagnostics& diags);

    /// Captures the full mergeable state as a snapshot value (report,
    /// filtered/dropped counters, ingest stats).  `label`/`timestamp`
    /// are left for the caller to stamp.  decode(encode(snapshot()))
    /// round-trips bit-identically.
    IOCovSnapshot snapshot() const;

    /// A sink that can be handed to a Kernel for live analysis.
    trace::TraceSink& live_sink() { return live_sink_; }

    const CoverageReport& report() const { return analyzer_.report(); }

    std::uint64_t events_filtered_out() const { return filtered_out_; }

    /// Where and why input was dropped, accumulated across every
    /// consume_* call: malformed text lines, corrupt IOCT records, and
    /// parallel chunks/shards lost to worker failures.  total() is the
    /// number the --max-errors budget is checked against.
    const trace::ParseDiagnostics& diagnostics() const {
        return diagnostics_;
    }

    /// Parallel chunks/shards whose worker failed outright (the events
    /// they held are counted into the dropped totals and diagnostics).
    /// A corrupt record never fails a shard — this counts isolation
    /// events, not parse errors.
    std::uint64_t shards_lost() const { return shards_lost_; }

    /// Cumulative ingest throughput/allocation statistics.
    ///
    /// Accumulation contract (holds for diagnostics(), shards_lost()
    /// and events_filtered_out() too): an IOCov never self-resets.
    /// Every consume_* call and every merge() adds to the running
    /// totals — counters and `seconds` sum, `threads` keeps the widest
    /// value seen — so after any interleaving of N calls each total
    /// equals the sum of what the calls would have reported
    /// individually.  Snapshots inherit the same semantics: snapshot()
    /// captures the running totals, and merging a snapshot adds its
    /// totals in.  To measure one ingestion in isolation, use a fresh
    /// IOCov and subtract nothing.
    const IngestStats& ingest_stats() const { return ingest_stats_; }

  private:
    /// Folds one shard's result into this IOCov; returns its dropped
    /// count.  With merge(), the only code that touches the counters
    /// below.  A non-empty `name` keys the shard's diagnostics (a
    /// directory file), appended in fold order.
    std::size_t fold(ShardResult&& shard, std::string_view name = {});

    /// Kept beyond construction so every shard can build a fresh
    /// filter from the same configuration.
    trace::FilterConfig filter_config_;
    const std::vector<SyscallSpec>* registry_;
    /// consume()/live_sink() state: carries across calls.
    trace::TraceFilter stream_filter_;
    /// The one-lane shard's filter: reset per shard with capacity kept.
    trace::TraceFilter shard_filter_;
    Analyzer analyzer_;
    trace::CallbackSink live_sink_;
    std::uint64_t filtered_out_ = 0;
    trace::ParseDiagnostics diagnostics_;
    std::uint64_t shards_lost_ = 0;
    /// One-lane decode scratch, persistent across consume_binary calls
    /// so repeated ingestion reuses warm capacity (parallel shards keep
    /// their own).
    trace::EventBatch batch_;
    trace::EventScratch scratch_;
    IngestStats ingest_stats_;
};

}  // namespace iocov::core
