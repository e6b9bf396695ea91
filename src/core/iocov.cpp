#include "core/iocov.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "core/snapshot.hpp"
#include "exec/alloc_hook.hpp"
#include "exec/thread_pool.hpp"
#include "trace/syz_format.hpp"
#include "trace/text_format.hpp"

namespace iocov::core {

/// What running one shard yields.  A shard is a row source analyzed
/// from empty filter state: IOCT refs over one string table, or the
/// rows of parsed text blocks, each over its own table.  The same type
/// carries a call's own share (scan drops, bytes, wall time) and a
/// text block's parse; IOCov::fold() is the only way any of it reaches
/// the IOCov.
struct ShardResult {
    /// The shard's coverage when it ran on its own analyzer; empty when
    /// it analyzed in place (one lane) or analyzed nothing.
    std::optional<CoverageReport> report;
    std::uint64_t filtered = 0;  ///< events the trace filter rejected
    /// Undecodable records or malformed lines, or every event a lost
    /// shard held.
    std::size_t dropped = 0;
    trace::ParseDiagnostics diags;
    IngestStats stats;
    bool rejected = false;  ///< a file that is not a readable IOCT trace
    bool lost = false;      ///< the shard failed outright
};

namespace {

/// Rows decoded per decode_batch() chunk: large enough to amortize the
/// loop setup, small enough that the SoA scratch stays cache-resident.
constexpr std::size_t kBatchRows = 512;

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

unsigned lanes_for(unsigned n_threads) {
    return n_threads ? n_threads : exec::ThreadPool::default_thread_count();
}

/// One string table — an IOCT file's or a parsed text block's —
/// pre-resolved for analysis: bindings[name_id] replaces a per-event
/// syscall lookup with a vector index, and `scope` lets the filter
/// admit a row from its string ids.
struct BoundTable {
    const std::vector<std::string_view>* strings = nullptr;
    std::vector<SyscallTable::Binding> bindings;
    trace::TraceFilter::Binding scope;
};

BoundTable bind_table(const std::vector<std::string_view>& strings,
                      const SyscallTable& syscalls,
                      const trace::TraceFilter& filter) {
    return {&strings, syscalls.bind_all(strings), filter.bind(strings)};
}

/// The row loop every route runs: admit_row -> analyze each admitted
/// row in place (Analyzer::consume_row), over the rows of `batch` that
/// `owns` selects.  Filter state is keyed by pid and fd, never by
/// string id, so one filter carries across batches bound to different
/// tables.  Its heap allocations count into hot_loop_allocs (zero once
/// the filter's fd sets and the report's rows are warm).
template <class Owns>
void analyze_rows(const BoundTable& table, const trace::EventBatch& batch,
                  Owns&& owns, trace::TraceFilter& filter,
                  Analyzer& analyzer, ShardResult& out) {
    const std::uint64_t allocs0 = exec::thread_allocation_count();
    for (std::size_t r = 0; r < batch.rows.size(); ++r) {
        if (!owns(batch.rows[r])) continue;
        if (!filter.admit_row(batch, r, table.scope)) {
            ++out.filtered;
            continue;
        }
        analyzer.consume_row(batch, r, table.bindings);
    }
    out.stats.hot_loop_allocs += exec::thread_allocation_count() - allocs0;
}

/// The IOCT row source: decode_batch, then analyze_rows.  Chunked
/// through the reusable EventBatch, whose decode allocations count into
/// hot_loop_allocs too, so steady state performs zero heap allocations.
void analyze_refs(std::string_view data, const BoundTable& table,
                  const trace::EventRef* refs, std::size_t n,
                  trace::TraceFilter& filter, Analyzer& analyzer,
                  trace::EventBatch& batch, ShardResult& out) {
    for (std::size_t i = 0; i < n; i += kBatchRows) {
        const std::size_t chunk = std::min(kBatchRows, n - i);
        const std::uint64_t allocs0 = exec::thread_allocation_count();
        batch.clear();
        trace::decode_batch(data, *table.strings, refs + i, chunk, batch,
                            &out.dropped, &out.diags);
        out.stats.hot_loop_allocs +=
            exec::thread_allocation_count() - allocs0;
        analyze_rows(table, batch, [](const trace::BatchRow&) { return true; },
                     filter, analyzer, out);
        out.stats.events += batch.rows.size();
    }
}

/// Rows per pid — IoctFooter::pid_events' shape — and its tally form.
using PidCounts = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
using PidTally = std::unordered_map<std::uint32_t, std::uint64_t>;

/// The lane that analyzes each pid: exec::lpt_place over per-pid row
/// counts in ascending pid order, so the busiest pids spread first and
/// equal counts go to the smaller pid first.  A pid the counts miss (a
/// footer that omits it) goes to lane 0: any fixed pid -> lane map
/// keeps each pid's rows in trace order, which is all the filter needs.
class PidLanes {
  public:
    PidLanes(PidCounts counts, unsigned lanes) : rows_(lanes, 0) {
        std::sort(counts.begin(), counts.end());
        std::vector<std::uint64_t> weights;
        for (const auto& [pid, n] : counts) {
            pids_.push_back(pid);
            weights.push_back(n);
        }
        lanes_ = exec::lpt_place(weights, lanes);
        for (std::size_t i = 0; i < counts.size(); ++i)
            rows_[lanes_[i]] += counts[i].second;
    }

    unsigned operator()(std::uint32_t pid) const {
        const auto it = std::lower_bound(pids_.begin(), pids_.end(), pid);
        return it != pids_.end() && *it == pid
                   ? lanes_[static_cast<std::size_t>(it - pids_.begin())]
                   : 0;
    }

    /// Rows placed on each lane, by the counts given.
    const std::vector<std::uint64_t>& rows() const { return rows_; }

  private:
    std::vector<std::uint32_t> pids_;
    std::vector<unsigned> lanes_;
    std::vector<std::uint64_t> rows_;
};

/// One block of a text trace: the buffer it was read into (handed back
/// for the next read once parsed), its lines, and its parse — rows, the
/// string table they index, that table bound once for analysis, and
/// its rows per pid.
struct TextBlock {
    trace::LineBlock buffer;
    std::uint64_t lines = 0;
    ShardResult parse;  ///< drops, diagnostics (from line 1), rows
    trace::EventBatch batch;
    trace::TextStrings strings;
    BoundTable table;
    PidTally pids;
};

/// Runs `rows(filter, analyzer)` on a fresh filter and analyzer and
/// keeps the analyzer's report in `out`.
template <class Rows>
void run_own(const trace::FilterConfig& config,
             const std::vector<SyscallSpec>& registry, ShardResult& out,
             Rows&& rows) {
    trace::TraceFilter filter(config);
    Analyzer analyzer(registry);
    rows(filter, analyzer);
    out.report = analyzer.take_report();
}

/// Runs `body(result)` with failure isolation: a shard that throws
/// (corrupt input never does; this guards worker failures) degrades to
/// a counted loss of `lost_events` with one diagnostic at
/// (line, offset), instead of poisoning the analysis.
template <class Body>
ShardResult isolated(const char* what, std::uint64_t line,
                     std::uint64_t offset, std::size_t lost_events,
                     Body&& body) {
    ShardResult r;
    try {
        body(r);
    } catch (const std::exception& e) {
        r = ShardResult();
        r.lost = true;
        r.dropped = lost_events;
        r.diags.record(line, offset, std::string(what) + e.what());
    }
    return r;
}

}  // namespace

IngestStats& IngestStats::operator+=(const IngestStats& other) {
    events += other.events;
    bytes += other.bytes;
    files += other.files;
    threads = std::max(threads, other.threads);
    hot_loop_allocs += other.hot_loop_allocs;
    seconds += other.seconds;
    return *this;
}

IOCov::IOCov(trace::FilterConfig filter_config,
             const std::vector<SyscallSpec>& registry)
    : filter_config_(std::move(filter_config)),
      registry_(&registry),
      stream_filter_(filter_config_),
      shard_filter_(filter_config_),
      analyzer_(registry),
      live_sink_([this](const trace::TraceEvent& ev) { consume(ev); }) {}

void IOCov::consume(const trace::TraceEvent& event) {
    if (stream_filter_.admit(event)) analyzer_.consume(event);
    else ++filtered_out_;
}

void IOCov::consume_all(const std::vector<trace::TraceEvent>& events) {
    for (const auto& ev : events) consume(ev);
}

std::size_t IOCov::consume_syz(std::istream& in) {
    trace::SyzParseStats stats;
    const auto events = trace::parse_syz_program(in, &stats);
    for (const auto& ev : events) analyzer_.consume(ev);
    return stats.parsed;
}

std::size_t IOCov::fold(ShardResult&& shard, std::string_view name) {
    if (shard.report) analyzer_.merge_report(*shard.report);
    if (shard.lost) ++shards_lost_;
    filtered_out_ += shard.filtered;
    if (name.empty()) diagnostics_.merge(shard.diags);
    else diagnostics_.append(shard.diags, std::string(name) + ": ");
    ingest_stats_ += shard.stats;
    return shard.dropped;
}

template <class Body>
std::size_t IOCov::run_lanes(const std::vector<std::uint64_t>& lane_rows,
                             Body&& body, ShardResult& call) {
    if (lane_rows.size() == 1) {
        // One lane analyzes in place — the IOCov's own analyzer and
        // decode batch, and a shard filter reset with capacity kept —
        // which is what keeps repeated ingestion allocation-free.  A
        // failure here propagates: there is no shard report to discard.
        shard_filter_.reset();
        body(0, shard_filter_, analyzer_, batch_, call);
        return 0;
    }
    std::vector<ShardResult> results(lane_rows.size());
    exec::parallel_for_stealing(
        static_cast<unsigned>(lane_rows.size()), lane_rows,
        [&](std::size_t s) {
            results[s] = isolated(
                "shard lost: ", 0, 0, static_cast<std::size_t>(lane_rows[s]),
                [&](ShardResult& r) {
                    run_own(filter_config_, *registry_, r,
                            [&](trace::TraceFilter& f, Analyzer& a) {
                                trace::EventBatch batch;
                                body(s, f, a, batch, r);
                            });
                });
        });
    std::size_t dropped = 0;
    for (auto& r : results) dropped += fold(std::move(r));
    return dropped;
}

std::size_t IOCov::consume_text(std::istream& in) {
    return consume_text_parallel(in, 1);
}

std::size_t IOCov::consume_text_parallel(std::istream& in,
                                         unsigned n_threads) {
    const auto t0 = std::chrono::steady_clock::now();
    const unsigned lanes = lanes_for(n_threads);

    // Read line-aligned blocks on this thread and parse each on a lane
    // as soon as it arrives, into rows over its own string table, bound
    // once.  Tables copy their strings, so a parsed block's buffer goes
    // back to `spare` for a later read: with at most lanes + 2 blocks
    // read and not yet parsed, at most that many buffers exist.
    trace::LineBlockReader reader(in);
    std::deque<TextBlock> blocks;  // grows here; lanes touch only their own
    std::vector<trace::LineBlock> spare;
    std::mutex spare_mu;
    std::uint64_t bytes = 0;
    auto parse = [&](TextBlock& b) {
        const std::string_view text = b.buffer.text();
        b.parse = isolated(
            "block lost: ", 1, b.buffer.offset, 0, [&](ShardResult& r) {
                b.lines = trace::parse_chunk_rows(text, b.batch, b.strings,
                                                  &r.dropped, &r.diags, 1,
                                                  b.buffer.offset);
                b.table = bind_table(b.strings.strings(), analyzer_.table(),
                                     shard_filter_);
                if (lanes > 1)
                    for (const auto& row : b.batch.rows) ++b.pids[row.pid];
                r.stats.events = b.batch.rows.size();
            });
        if (b.parse.lost) {
            // Every line of a lost block is dropped.
            b.lines = static_cast<std::uint64_t>(
                std::count(text.begin(), text.end(), '\n') +
                (text.back() != '\n'));
            b.parse.dropped = static_cast<std::size_t>(b.lines);
        }
        std::lock_guard<std::mutex> lock(spare_mu);
        spare.push_back(std::move(b.buffer));
    };
    exec::parallel_stream(lanes, lanes + 2, [&]() -> std::function<void()> {
        trace::LineBlock buffer;
        {
            std::lock_guard<std::mutex> lock(spare_mu);
            if (!spare.empty()) {
                buffer = std::move(spare.back());
                spare.pop_back();
            }
        }
        if (!reader.next(buffer)) return {};
        bytes += buffer.size;
        TextBlock& b = blocks.emplace_back();
        b.buffer = std::move(buffer);
        return [&parse, &b] { parse(b); };
    });
    spare.clear();  // every block is parsed: free the buffers now

    // Blocks were parsed from line 1: number their diagnostics by the
    // lines before them, then fold.
    std::size_t dropped = 0;
    std::uint64_t first_line = 1;
    PidTally tally;
    for (TextBlock& b : blocks) {
        b.parse.diags.shift_lines(first_line - 1);
        first_line += b.lines;
        if (b.parse.lost) {
            b.batch.clear();
            b.pids.clear();
        }
        for (const auto& [pid, n] : b.pids) tally[pid] += n;
        dropped += fold(std::move(b.parse));
    }

    // Place pids on lanes by row count.  Each lane walks the blocks in
    // order, so every pid's rows reach its filter in trace order.
    const PidLanes place(PidCounts(tally.begin(), tally.end()), lanes);
    ShardResult call;
    dropped += run_lanes(
        place.rows(),
        [&](std::size_t lane, trace::TraceFilter& f, Analyzer& a,
            trace::EventBatch&, ShardResult& r) {
            // One lane counted no pids, so place() is 0 for every row.
            for (const auto& b : blocks)
                analyze_rows(b.table, b.batch,
                             [&](const trace::BatchRow& row) {
                                 return place(row.pid) == lane;
                             },
                             f, a, r);
        },
        call);

    call.stats.bytes = bytes;
    call.stats.threads = lanes;
    call.stats.seconds = seconds_since(t0);
    fold(std::move(call));
    return dropped;
}

std::size_t IOCov::consume_binary(std::string_view data) {
    return consume_binary_parallel(data, 1);
}

std::size_t IOCov::consume_binary_parallel(std::string_view data,
                                           unsigned n_threads) {
    const auto t0 = std::chrono::steady_clock::now();
    const unsigned lanes = lanes_for(n_threads);
    auto scan = trace::scan_ioct(data);
    const BoundTable table =
        bind_table(scan.strings, analyzer_.table(), shard_filter_);

    // The call's own share: scan-stage drops, bytes, lanes, wall time.
    ShardResult call;
    call.dropped = scan.dropped;
    call.diags = std::move(scan.diags);
    call.stats.bytes = data.size();
    call.stats.threads = lanes;

    // Shard record references (not events) by pid, placed by the
    // footer's per-pid counts or, without one, the scan's.  Scan order
    // is file order, so each pid's event order is preserved inside its
    // shard.
    std::vector<std::vector<trace::EventRef>> shards;
    std::vector<std::uint64_t> lane_rows{scan.events.size()};
    if (lanes > 1) {
        PidTally tally;
        if (!scan.footer)
            for (const auto& ref : scan.events) ++tally[ref.pid];
        const PidLanes place(
            scan.footer ? scan.footer->pid_events
                        : PidCounts(tally.begin(), tally.end()),
            lanes);
        shards.resize(lanes);
        for (unsigned s = 0; s < lanes; ++s)
            shards[s].reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
                place.rows()[s], scan.events.size())));
        for (const auto& ref : scan.events)
            shards[place(ref.pid)].push_back(ref);
        lane_rows.assign(lanes, 0);
        for (unsigned s = 0; s < lanes; ++s) lane_rows[s] = shards[s].size();
    }
    const std::size_t dropped = run_lanes(
        lane_rows,
        [&](std::size_t lane, trace::TraceFilter& f, Analyzer& a,
            trace::EventBatch& batch, ShardResult& r) {
            const auto& refs = lanes == 1 ? scan.events : shards[lane];
            analyze_refs(data, table, refs.data(), refs.size(), f, a, batch,
                         r);
        },
        call);
    call.stats.seconds = seconds_since(t0);
    return dropped + fold(std::move(call));
}

std::optional<std::size_t> IOCov::consume_binary_file(const std::string& path,
                                                      unsigned n_threads) {
    auto mapped = trace::MappedFile::open(path);
    if (!mapped) return std::nullopt;
    ShardResult opened;
    opened.stats.files = 1;
    fold(std::move(opened));
    return consume_binary_parallel(mapped->data(), n_threads);
}

std::optional<IOCov::DirIngest> IOCov::consume_binary_dir(
    const std::string& dir, unsigned n_threads) {
    const auto files = host::list_dir(dir);
    if (!files) return std::nullopt;
    return consume_binary_files(*files, n_threads);
}

IOCov::DirIngest IOCov::consume_binary_files(
    std::span<const host::DirFile> files, unsigned n_threads) {
    const auto t0 = std::chrono::steady_clock::now();
    // Per-file slots, filled by lanes in any order and folded in the
    // given order afterwards so the result is independent of
    // scheduling.
    std::vector<ShardResult> results(files.size());
    auto run_file = [&](std::size_t i) {
        results[i] = isolated("file analysis lost: ", 0, 0, 0,
                              [&](ShardResult& r) {
            auto mapped = trace::MappedFile::open(files[i].path);
            const std::string_view data =
                mapped ? mapped->data() : std::string_view();
            if (!mapped || !trace::is_ioct(data)) {
                r.rejected = true;
                r.diags.record(0, 0,
                               mapped ? "not an IOCT file (bad magic/version)"
                                      : "cannot open file");
                return;
            }
            const auto scan = trace::scan_ioct(data);
            const BoundTable table =
                bind_table(scan.strings, analyzer_.table(), shard_filter_);
            r.diags.merge(scan.diags);
            r.dropped = scan.dropped;
            r.stats.files = 1;
            r.stats.bytes = data.size();
            run_own(filter_config_, *registry_, r,
                    [&](trace::TraceFilter& f, Analyzer& a) {
                        trace::EventBatch batch;
                        analyze_refs(data, table, scan.events.data(),
                                     scan.events.size(), f, a, batch, r);
                    });
        });
    };
    std::vector<std::uint64_t> weights(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) weights[i] = files[i].bytes;
    exec::parallel_for_stealing(n_threads, weights, run_file);

    DirIngest result;
    for (std::size_t i = 0; i < files.size(); ++i) {
        ShardResult& r = results[i];
        if (r.rejected) {
            ++result.rejected;
        } else if (!r.lost) {
            ++result.files;
            result.bytes += r.stats.bytes;
        }
        result.dropped += fold(std::move(r), files[i].name);
    }
    ShardResult call;
    call.stats.threads = static_cast<unsigned>(std::min<std::size_t>(
        lanes_for(n_threads), std::max<std::size_t>(files.size(), 1)));
    call.stats.seconds = seconds_since(t0);
    fold(std::move(call));
    return result;
}

void IOCov::merge(const IOCov& other) {
    analyzer_.merge_report(other.report());
    filtered_out_ += other.filtered_out_;
    shards_lost_ += other.shards_lost_;
    diagnostics_.merge(other.diagnostics_);
    ingest_stats_ += other.ingest_stats_;
}

void IOCov::merge(const IOCovSnapshot& snapshot) {
    // The producer's per-record reasons are not serialized, only the
    // count — fold it in without displacing locally retained entries.
    trace::ParseDiagnostics count;
    count.count_only(snapshot.dropped);
    merge(snapshot, count);
}

void IOCov::merge(const IOCovSnapshot& snapshot,
                  const trace::ParseDiagnostics& diags) {
    analyzer_.merge_report(snapshot.report);
    filtered_out_ += snapshot.filtered_out;
    diagnostics_.append(diags);
    ingest_stats_ += snapshot.ingest;
}

IOCovSnapshot IOCov::snapshot() const {
    IOCovSnapshot snap;
    snap.report = analyzer_.report();
    snap.filtered_out = filtered_out_;
    snap.dropped = diagnostics_.total();
    snap.ingest = ingest_stats_;
    return snap;
}

}  // namespace iocov::core
