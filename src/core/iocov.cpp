#include "core/iocov.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "core/snapshot.hpp"
#include "exec/alloc_hook.hpp"
#include "exec/thread_pool.hpp"
#include "trace/syz_format.hpp"
#include "trace/text_format.hpp"

namespace iocov::core {

/// What running one shard yields.  A shard is a row source analyzed
/// from empty filter state: IOCT refs over one string table, or parsed
/// text events.  The same type carries a call's own share (scan drops,
/// bytes, wall time) and a parse chunk's; IOCov::fold() is the only
/// way any of it reaches the IOCov.
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

/// One scanned IOCT string table, pre-resolved for analysis:
/// bindings[name_id] replaces a per-event syscall lookup with a vector
/// index, and `scope` lets the filter admit a row from its string ids.
struct RefTable {
    std::string_view data;
    const std::vector<std::string_view>& strings;
    std::vector<SyscallTable::Binding> bindings;
    trace::TraceFilter::Binding scope;
};

/// The IOCT row source: decode_batch -> admit_row -> materialize only
/// admitted rows -> analyze.  Chunked through the reusable EventBatch/
/// EventScratch so steady state performs zero heap allocations
/// (tracked per thread via the exec allocation hook).
void analyze_refs(const RefTable& table, const trace::EventRef* refs,
                  std::size_t n, trace::TraceFilter& filter,
                  Analyzer& analyzer, trace::EventBatch& batch,
                  trace::EventScratch& scratch, ShardResult& out) {
    const std::uint64_t allocs0 = exec::thread_allocation_count();
    for (std::size_t i = 0; i < n; i += kBatchRows) {
        const std::size_t chunk = std::min(kBatchRows, n - i);
        batch.clear();
        trace::decode_batch(table.data, table.strings, refs + i, chunk,
                            batch, &out.dropped, &out.diags);
        for (std::size_t r = 0; r < batch.rows.size(); ++r) {
            if (!filter.admit_row(batch, r, table.scope)) {
                ++out.filtered;
                continue;
            }
            analyzer.consume(scratch.materialize(batch, r, table.strings),
                             table.bindings[batch.rows[r].name_id]);
        }
        out.stats.events += batch.rows.size();
    }
    out.stats.hot_loop_allocs += exec::thread_allocation_count() - allocs0;
}

/// The text row source: parsed events through admit().
void analyze_events(const std::vector<trace::TraceEvent>& events,
                    trace::TraceFilter& filter, Analyzer& analyzer,
                    ShardResult& out) {
    for (const auto& ev : events) {
        if (filter.admit(ev)) analyzer.consume(ev);
        else ++out.filtered;
    }
    out.stats.events += events.size();
}

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

std::size_t IOCov::consume_text(std::istream& in) {
    return consume_text_parallel(in, 1);
}

std::size_t IOCov::consume_text_parallel(std::istream& in,
                                         unsigned n_threads) {
    const auto t0 = std::chrono::steady_clock::now();
    const unsigned lanes = lanes_for(n_threads);
    // Chunking needs random access to line boundaries, so slurp the
    // stream once (the events it parses into are larger anyway).
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    // More chunks than lanes so one expensive chunk can't serialize the
    // tail of the parse stage.
    const auto chunks =
        trace::split_line_chunks(text, lanes == 1 ? 1 : lanes * 4);

    // Position each chunk within the whole input so diagnostics carry
    // file-absolute line numbers and byte offsets.
    std::vector<std::uint64_t> first_line(chunks.size(), 1);
    std::vector<std::uint64_t> line_count(chunks.size(), 0);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        line_count[i] = static_cast<std::uint64_t>(
            std::count(chunks[i].begin(), chunks[i].end(), '\n'));
        if (!chunks[i].empty() && chunks[i].back() != '\n') ++line_count[i];
        if (i + 1 < chunks.size())
            first_line[i + 1] = first_line[i] + line_count[i];
    }
    auto base_offset = [&](std::size_t i) {
        return static_cast<std::uint64_t>(chunks[i].data() - text.data());
    };

    std::vector<std::vector<trace::TraceEvent>> parsed(chunks.size());
    std::vector<ShardResult> parses(chunks.size());
    exec::parallel_for_stealing(
        lanes, std::vector<std::uint64_t>(chunks.size(), 1),
        [&](std::size_t i) {
            parses[i] = isolated(
                "chunk lost: ", first_line[i], base_offset(i), line_count[i],
                [&](ShardResult& r) {
                    parsed[i] = trace::parse_chunk(chunks[i], &r.dropped,
                                                   &r.diags, first_line[i],
                                                   base_offset(i));
                });
        });
    std::size_t dropped = 0;
    for (auto& r : parses) dropped += fold(std::move(r));

    // Re-shard by pid.  Scanning the chunks in order preserves each
    // pid's trace order, which is the only ordering the stateful filter
    // (per-pid fd watches and cwd) depends on.
    std::vector<std::vector<trace::TraceEvent>> shards(lanes);
    std::size_t total_events = 0;
    for (const auto& chunk_events : parsed) total_events += chunk_events.size();
    for (auto& shard : shards) shard.reserve(total_events / lanes + 1);
    for (auto& chunk_events : parsed) {
        for (auto& ev : chunk_events)
            shards[ev.pid % lanes].push_back(std::move(ev));
        chunk_events.clear();
    }

    std::vector<ShardResult> results(lanes);
    exec::parallel_for_stealing(
        lanes, std::vector<std::uint64_t>(lanes, 1), [&](std::size_t s) {
            results[s] = isolated(
                "shard lost: ", 0, 0, shards[s].size(), [&](ShardResult& r) {
                    run_own(filter_config_, *registry_, r,
                            [&](trace::TraceFilter& f, Analyzer& a) {
                                analyze_events(shards[s], f, a, r);
                            });
                });
        });
    for (auto& r : results) dropped += fold(std::move(r));

    ShardResult call;
    call.stats.bytes = text.size();
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
    const RefTable table{data, scan.strings,
                         analyzer_.table().bind_all(scan.strings),
                         shard_filter_.bind(scan.strings)};

    // The call's own share: scan-stage drops, bytes, lanes, wall time.
    ShardResult call;
    call.dropped = scan.dropped;
    call.diags = std::move(scan.diags);
    call.stats.bytes = data.size();
    call.stats.threads = lanes;
    std::size_t dropped = 0;
    if (lanes == 1) {
        // One lane analyzes in place — the IOCov's own analyzer and
        // decode scratch, and a shard filter reset with capacity kept —
        // which is what keeps repeated ingestion allocation-free.  A
        // failure here propagates: there is no shard report to discard.
        shard_filter_.reset();
        analyze_refs(table, scan.events.data(), scan.events.size(),
                     shard_filter_, analyzer_, batch_, scratch_, call);
    } else {
        // Shard record references (not events) by pid.  Scan order is
        // file order, so each pid's event order is preserved inside its
        // shard.  The footer's per-pid counts, when present, size each
        // shard exactly.
        std::vector<std::vector<trace::EventRef>> shards(lanes);
        if (scan.footer) {
            std::vector<std::size_t> sizes(lanes, 0);
            for (const auto& [pid, count] : scan.footer->pid_events)
                sizes[pid % lanes] += count;
            for (unsigned s = 0; s < lanes; ++s) shards[s].reserve(sizes[s]);
        }
        for (const auto& ref : scan.events)
            shards[ref.pid % lanes].push_back(ref);

        std::vector<ShardResult> results(lanes);
        exec::parallel_for_stealing(
            lanes, std::vector<std::uint64_t>(lanes, 1), [&](std::size_t s) {
                const auto& refs = shards[s];
                results[s] = isolated(
                    "shard lost: ", 0, refs.empty() ? 0 : refs.front().offset,
                    refs.size(), [&](ShardResult& r) {
                        run_own(filter_config_, *registry_, r,
                                [&](trace::TraceFilter& f, Analyzer& a) {
                                    trace::EventBatch batch;
                                    trace::EventScratch scratch;
                                    analyze_refs(table, refs.data(),
                                                 refs.size(), f, a, batch,
                                                 scratch, r);
                                });
                    });
            });
        for (auto& r : results) dropped += fold(std::move(r));
    }
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
            const RefTable table{data, scan.strings,
                                 analyzer_.table().bind_all(scan.strings),
                                 shard_filter_.bind(scan.strings)};
            r.diags.merge(scan.diags);
            r.dropped = scan.dropped;
            r.stats.files = 1;
            r.stats.bytes = data.size();
            run_own(filter_config_, *registry_, r,
                    [&](trace::TraceFilter& f, Analyzer& a) {
                        trace::EventBatch batch;
                        trace::EventScratch scratch;
                        analyze_refs(table, scan.events.data(),
                                     scan.events.size(), f, a, batch,
                                     scratch, r);
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
