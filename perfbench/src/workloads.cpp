// The four workloads.  Untraced runs measure the end-to-end metrics;
// traced runs re-run the same work with spans around each call into a
// library module (the per-event stages get one span per 512-row batch)
// and reduce the spans to per-layer self times (serve-live: untraced runs
// repeat the push plan closed loop, traced runs push it open loop).  Both
// kinds check every output against the generator's reference report.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "core/checkpoint.hpp"
#include "core/iocov.hpp"
#include "core/live.hpp"
#include "core/report_io.hpp"
#include "core/snapshot.hpp"
#include "host/io.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "calibrate.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "trace/binary_format.hpp"
#include "trace/filter.hpp"
#include "trace/text_format.hpp"

namespace perfbench {
namespace {
namespace fs = std::filesystem;
using namespace iocov;

constexpr std::size_t kBatchRows = 512;      ///< rows per decode batch, as in the library
constexpr int kSetupTrials = 11;             ///< set-ups per run; setup_s is their median
constexpr double kLateLimitMs = 50;          ///< generator p99 lateness that voids a run
constexpr double kLadderLimitMs = 25;        ///< push tail limit for serve.push_rate_max
constexpr double kLadderRungS = 0.4;         ///< length of one rung of the rate ladder
constexpr std::size_t kMinReps = 5;          ///< serve-live closed-loop reps per run, at least
constexpr int kServeKernelTries = 3;         ///< kernel runs per serve-live rep speed sample

/// Where touched bytes go, so touching cannot be optimized away.
volatile std::uint64_t g_touched = 0;

struct MetricDef {
    const char* name;
    const char* unit;
};

const std::vector<MetricDef>& end_to_end_defs() {
    static const std::vector<MetricDef> k{
        {"setup_s", "s"},
        {"events_per_s", "1/s"},
        {"peak_rss_mb", "MB"},
        {"ingest_p50_ms", "ms"}};
    return k;
}

const std::vector<MetricDef>& per_layer_defs() {
    static const std::vector<MetricDef> k{
        {"trace.map_s", "s"},
        {"trace.scan_s", "s"},
        {"trace.decode_s", "s"},
        {"trace.materialize_s", "s"},
        {"trace.text_parse_s", "s"},
        {"trace.filter_s", "s"},
        {"trace.filter_kept_ratio", "ratio"},
        {"trace.dropped_records", "count"},
        {"core.fresh_s", "s"},
        {"core.bind_s", "s"},
        {"core.analyze_s", "s"},
        {"core.merge_s", "s"},
        {"core.snapshot_s", "s"},
        {"core.report_render_s", "s"},
        {"core.snapshot_encode_s", "s"},
        {"core.snapshot_decode_s", "s"},
        {"core.snapshot_bytes", "B"},
        {"exec.dir_speedup", "x"},
        {"exec.lpt_ratio", "ratio"},
        {"exec.text_speedup", "x"},
        {"host.save_s", "s"},
        {"host.save_count", "count"},
        {"serve.frame_s", "s"},
        {"serve.push_service_s", "s"},
        {"serve.push_wait_ms", "ms"},
        {"serve.push_p50_ms", "ms"},
        {"serve.push_p99_ms", "ms"},
        {"serve.push_rate_max", "1/s"},
        {"serve.query_p50_ms", "ms"},
        {"serve.query_p99_ms", "ms"},
        {"serve.stats.pushes_accepted", "count"},
        {"serve.stats.pushes_duplicate", "count"},
        {"serve.stats.pushes_rejected", "count"},
        {"serve.stats.queries", "count"},
        {"serve.stats.torn_frames", "count"},
        {"serve.stats.sock_errors", "count"},
        {"serve.stats.shard_bytes", "B"},
        {"serve.stats.deltas", "count"},
        {"serve.stats.checkpoints", "count"},
        {"span.coverage", "ratio"},
        {"span.overhead", "ratio"},
        {"span.count", "count"},
        {"bench.gen_late_p99_ms", "ms"}};
    return k;
}

/// Span names that only group other spans; every other span is a stage.
bool is_container(const std::string& name) {
    return name == "unit" || name == "file" || name == "push";
}

class Result {
  public:
    explicit Result(bool trace) {
        for (const auto& d : trace ? per_layer_defs() : end_to_end_defs())
            metrics_.push_back({d.name, d.unit, 0});
    }

    void set(const std::string& name, double v) {
        for (auto& m : metrics_)
            if (name == m.name) {
                m.value = v;
                return;
            }
        extra_.emplace_back(name, v);
    }

    void check(bool ok, const std::string& what) {
        if (ok) return;
        correct_ = false;
        problems_.push_back(what);
    }

    void attempt(bool ok) {
        ++attempted_;
        if (!ok) ++failed_;
    }

    /// Human-readable lines, then the result as the last line.
    void print(const std::string& workload) const {
        for (const auto& p : problems_)
            std::printf("# CHECK FAILED (%s): %s\n", workload.c_str(),
                        p.c_str());
        for (const auto& m : metrics_)
            std::printf("# %-32s %16.6f %s\n", m.name, m.value, m.unit);
        for (const auto& [n, v] : extra_)
            std::printf("# %-32s %16.6f (info)\n", n.c_str(), v);
        std::printf("# error_rate %.6f (%llu failed of %llu attempted)\n",
                    attempted_ ? static_cast<double>(failed_) /
                                     static_cast<double>(attempted_)
                               : 0.0,
                    static_cast<unsigned long long>(failed_),
                    static_cast<unsigned long long>(attempted_));
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": {",
                    correct_ && failed_ == 0 ? "true" : "false",
                    static_cast<unsigned long long>(attempted_),
                    static_cast<unsigned long long>(failed_));
        for (std::size_t i = 0; i < metrics_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics_[i].name, metrics_[i].value,
                        metrics_[i].unit);
        std::printf("}, \"decode_isa\": \"%s\"}\n",
                    trace::decode_isa_name(trace::active_decode_isa()));
        std::fflush(stdout);
    }

  private:
    struct M {
        const char* name;
        const char* unit;
        double value;
    };
    std::vector<M> metrics_;
    std::vector<std::pair<std::string, double>> extra_;
    std::vector<std::string> problems_;
    bool correct_ = true;
    std::uint64_t attempted_ = 0, failed_ = 0;
};

double peak_rss_mb() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string render(const core::CoverageReport& r) {
    std::ostringstream os;
    core::save_report(os, r);
    return os.str();
}

bool save_durable(const std::string& path, std::string_view bytes) {
    return !host::write_file_atomic(path, bytes).has_value();
}

/// Reads one byte per page so the mapping is resident.
std::uint64_t touch(std::string_view data) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < data.size(); i += 4096)
        sum += static_cast<unsigned char>(data[i]);
    return sum;
}

std::uint64_t u64(const std::string& s) {
    return s.empty() ? 0 : std::stoull(s);
}

void wait_until(double t) {
    for (;;) {
        const double left = t - now_s();
        if (left <= 0) return;
        if (left > 0.0005)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(left - 0.0003));
    }
}

std::vector<std::string> dir_files(const std::string& dir) {
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.is_regular_file()) out.push_back(e.path().string());
    std::sort(out.begin(), out.end());
    return out;
}

// ---- traced building blocks -------------------------------------------------

struct Counts {
    std::uint64_t decoded = 0, kept = 0, dropped = 0;
};

/// Decode -> filter -> analyze over one IOCT buffer, exactly as the
/// library's serial ingest loop does it, with one span per stage per
/// 512-row batch.  Rows are materialized into one scratch each, so the
/// three per-row passes see the same events the fused loop would.
void traced_ioct(SpanLog& log, SpanLog::Id parent, std::string_view data,
                 trace::TraceFilter& filter, core::Analyzer& analyzer,
                 std::vector<trace::EventScratch>& scratch, Counts& c) {
    trace::IoctScan scan;
    {
        Scope s(log, "trace.scan", parent);
        scan = trace::scan_ioct(data);
    }
    std::vector<core::SyscallTable::Binding> bindings;
    {
        Scope s(log, "core.bind", parent);
        bindings = analyzer.table().bind_all(scan.strings);
    }
    c.dropped += scan.dropped;
    trace::EventBatch batch;
    std::size_t dropped = 0;
    const trace::TraceEvent* evs[kBatchRows];
    bool keep[kBatchRows];
    for (std::size_t i = 0; i < scan.events.size(); i += kBatchRows) {
        const std::size_t n = std::min(kBatchRows, scan.events.size() - i);
        batch.clear();
        {
            Scope s(log, "trace.decode", parent);
            trace::decode_batch(data, scan.strings, scan.events.data() + i, n,
                                batch, &dropped);
        }
        const std::size_t rows = batch.rows.size();
        {
            Scope s(log, "trace.materialize", parent);
            for (std::size_t r = 0; r < rows; ++r)
                evs[r] = &scratch[r].materialize(batch, r, scan.strings);
        }
        {
            Scope s(log, "trace.filter", parent);
            for (std::size_t r = 0; r < rows; ++r) keep[r] = filter.admit(*evs[r]);
        }
        {
            Scope s(log, "core.analyze", parent);
            for (std::size_t r = 0; r < rows; ++r)
                if (keep[r])
                    analyzer.consume(*evs[r], bindings[batch.rows[r].name_id]);
        }
        c.decoded += rows;
        for (std::size_t r = 0; r < rows; ++r) c.kept += keep[r];
    }
    c.dropped += dropped;
}

/// Sets every per-stage `<name>_s` metric from the spans, per unit of
/// work, and returns the summed stage self time per unit.
double set_stage_metrics(Result& res, const SpanLog& log, double units) {
    double stages = 0;
    for (const auto& [name, secs] : log.self_seconds()) {
        if (is_container(name)) continue;
        res.set(name + "_s", secs / units);
        stages += secs / units;
    }
    res.set("span.count", static_cast<double>(log.size()));
    return stages;
}

void write_spans(const SpanLog& log, const RunArgs& a) {
    const std::string path = a.work + "/spans-" + a.workload + ".tsv";
    if (!log.write_tsv(path))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    else std::printf("# spans written to %s\n", path.c_str());
}

// ---- batch workloads ----------------------------------------------------------

enum class Batch { Large, Text, Fleet };

struct BatchCtx {
    Batch kind;
    const RunArgs& args;
    std::string input;  ///< trace file or fleet directory
    std::string ref;    ///< reference report digest
    std::uint64_t events = 0;
    std::uint64_t kept = 0;
    std::uint64_t files = 0;
    std::string saved;  ///< where each rep saves its report
};

/// One timed ingest: a fresh IOCov analyzes the input, and the report is
/// rendered and durably saved.  Returns the wall time, or a negative
/// value on failure.
double ingest_once(const BatchCtx& c, unsigned threads, std::string* digest) {
    const double t0 = now_s();
    core::IOCov iocov;
    bool ok = false;
    if (c.kind == Batch::Large) {
        const auto d = iocov.consume_binary_file(c.input, threads);
        ok = d && *d == 0;
    } else if (c.kind == Batch::Text) {
        std::ifstream in(c.input, std::ios::binary);
        ok = in && (threads > 1 ? iocov.consume_text_parallel(in, threads)
                                : iocov.consume_text(in)) == 0;
    } else {
        const auto d = iocov.consume_binary_dir(c.input, threads);
        ok = d && d->files == c.files && d->rejected == 0 && d->dropped == 0;
    }
    const std::string text = render(iocov.report());
    ok = save_durable(c.saved, text) && ok;
    const double wall = now_s() - t0;
    if (digest) *digest = fnv_hex(text);
    return ok ? wall : -1;
}

double batch_setup_once(const BatchCtx& c) {
    const double t0 = now_s();
    core::IOCov iocov;
    std::vector<trace::MappedFile> maps;
    const auto paths = c.kind == Batch::Fleet ? dir_files(c.input)
                                              : std::vector<std::string>{c.input};
    for (const auto& p : paths) {
        auto m = trace::MappedFile::open(p);
        if (!m) return -1;
        g_touched = g_touched + touch(m->data());
        maps.push_back(std::move(*m));
    }
    return now_s() - t0;
}

void batch_untraced(const BatchCtx& c, Result& res) {
    const unsigned threads = c.kind == Batch::Large ? 1 : c.args.threads;
    HostSpeed speed;
    std::vector<double> setups, raw_setups;
    speed.sample();
    for (int i = 0; i < kSetupTrials; ++i) {
        const double s = batch_setup_once(c);
        res.check(s >= 0, "set-up could not map the input");
        raw_setups.push_back(s);
        setups.push_back(speed.normalize_since_last(s));
    }
    res.set("setup_s", median(setups));

    std::string digest;
    const double t_start = now_s();
    const double warm = ingest_once(c, threads, &digest);  // fills caches
    res.check(warm >= 0 && digest == c.ref,
              "warm-up report differs from the reference");
    const double deadline = t_start + 0.9 * c.args.seconds;
    std::vector<double> walls, raw_walls;
    speed.sample();
    while (walls.size() < 3 || now_s() < deadline) {
        const double w = ingest_once(c, threads, &digest);
        const bool ok = w >= 0 && digest == c.ref;
        res.attempt(ok);
        res.check(ok, "ingest failed or its report differs from the reference");
        if (w >= 0) {
            raw_walls.push_back(w);
            walls.push_back(speed.normalize_since_last(w));
        }
        if (!ok && walls.empty()) break;
    }
    const double med = median(walls);
    res.set("ingest_p50_ms", med * 1e3);
    res.set("events_per_s", med > 0 ? static_cast<double>(c.events) / med : 0);
    res.set("peak_rss_mb", peak_rss_mb());
    res.set("reps", static_cast<double>(walls.size()));
    res.set("host_speed", speed.speed());
    res.set("raw.setup_s", median(raw_setups));
    res.set("raw.events_per_s", static_cast<double>(c.events) / median(raw_walls));
    res.set("raw.ingest_p50_ms", median(raw_walls) * 1e3);
}

/// The traced form of one ingest (serial), with a `unit` span around it.
void traced_ingest(const BatchCtx& c, SpanLog& log, Counts& counts,
                   std::string& digest) {
    Scope unit(log, "unit");
    std::vector<trace::EventScratch> scratch(kBatchRows);
    core::CoverageReport report;
    if (c.kind == Batch::Fleet) {
        core::Analyzer acc;
        for (const auto& path : dir_files(c.input)) {
            Scope file(log, "file", unit.id());
            std::optional<trace::MappedFile> m;
            {
                Scope s(log, "trace.map", file.id());
                m = trace::MappedFile::open(path);
            }
            if (!m) return;
            std::unique_ptr<trace::TraceFilter> filter;
            std::unique_ptr<core::Analyzer> analyzer;
            {
                Scope s(log, "core.fresh", file.id());
                filter = std::make_unique<trace::TraceFilter>(
                    trace::FilterConfig::mount_point("/mnt/test"));
                analyzer = std::make_unique<core::Analyzer>();
            }
            traced_ioct(log, file.id(), m->data(), *filter, *analyzer, scratch,
                        counts);
            Scope s(log, "core.merge", file.id());
            acc.merge_report(analyzer->report());
        }
        report = acc.take_report();
    } else {
        std::unique_ptr<trace::TraceFilter> filter;
        std::unique_ptr<core::Analyzer> analyzer;
        {
            Scope s(log, "core.fresh", unit.id());
            filter = std::make_unique<trace::TraceFilter>(
                trace::FilterConfig::mount_point("/mnt/test"));
            analyzer = std::make_unique<core::Analyzer>();
        }
        std::optional<trace::MappedFile> m;
        {
            Scope s(log, "trace.map", unit.id());
            m = trace::MappedFile::open(c.input);
        }
        if (!m) return;
        if (c.kind == Batch::Large) {
            traced_ioct(log, unit.id(), m->data(), *filter, *analyzer, scratch,
                        counts);
        } else {
            const std::string_view text = m->data();
            std::vector<std::string_view> chunks;
            {
                Scope s(log, "trace.text_parse", unit.id());
                const auto lines = static_cast<std::size_t>(
                    std::count(text.begin(), text.end(), '\n'));
                chunks = trace::split_line_chunks(
                    text, std::max<std::size_t>(1, lines / kBatchRows));
            }
            std::vector<char> keep;
            for (const auto chunk : chunks) {
                std::vector<trace::TraceEvent> evs;
                std::size_t dropped = 0;
                {
                    Scope s(log, "trace.text_parse", unit.id());
                    evs = trace::parse_chunk(chunk, &dropped);
                }
                keep.assign(evs.size(), 0);
                {
                    Scope s(log, "trace.filter", unit.id());
                    for (std::size_t r = 0; r < evs.size(); ++r)
                        keep[r] = filter->admit(evs[r]);
                }
                {
                    Scope s(log, "core.analyze", unit.id());
                    for (std::size_t r = 0; r < evs.size(); ++r)
                        if (keep[r]) analyzer->consume(evs[r]);
                }
                counts.decoded += evs.size();
                counts.dropped += dropped;
                for (const char k : keep) counts.kept += k;
            }
        }
        report = analyzer->take_report();
    }
    std::string text;
    {
        Scope s(log, "core.report_render", unit.id());
        text = render(report);
    }
    Scope s(log, "host.save", unit.id());
    if (save_durable(c.saved, text)) digest = fnv_hex(text);
}

void batch_traced(const BatchCtx& c, Result& res) {
    const unsigned t = c.args.threads;
    // Each round runs the untraced serial ingest (the wall the stages must
    // add up to), for text and fleet the untraced T-thread ingest (what the
    // executor achieves), and the traced decomposition, until the run's
    // time is up; interleaving keeps host drift out of the ratios.
    std::string digest;
    ingest_once(c, 1, &digest);  // warm-up
    const double deadline = now_s() + 0.9 * c.args.seconds;
    std::vector<double> serial, par, traced;
    SpanLog log;
    Counts counts;
    auto untraced = [&](unsigned threads, std::vector<double>& walls) {
        const double w = ingest_once(c, threads, &digest);
        res.attempt(w >= 0 && digest == c.ref);
        res.check(w >= 0 && digest == c.ref,
                  "untraced report differs from the reference");
        walls.push_back(w);
    };
    int reps = 0;
    while (reps < 2 || now_s() < deadline) {
        untraced(1, serial);
        if (c.kind != Batch::Large) untraced(t, par);
        const double t0 = now_s();
        digest.clear();
        traced_ingest(c, log, counts, digest);
        traced.push_back(now_s() - t0);
        res.attempt(digest == c.ref);
        res.check(digest == c.ref, "traced report differs from the reference");
        ++reps;
    }
    const double u = median(serial);
    const double stages = set_stage_metrics(res, log, reps);
    res.set("span.coverage", stages / u);
    res.set("span.overhead", median(traced) / u - 1);
    res.set("host.save_count", 1);
    res.set("trace.filter_kept_ratio",
            counts.decoded ? static_cast<double>(counts.kept) /
                                 static_cast<double>(counts.decoded)
                           : 0);
    res.set("trace.dropped_records", static_cast<double>(counts.dropped / reps));
    res.check(counts.kept / reps == c.kept, "filter kept a different event count");
    if (c.kind == Batch::Text) res.set("exec.text_speedup", u / median(par));
    if (c.kind == Batch::Fleet) {
        const double wall_t = median(par);
        res.set("exec.dir_speedup", u / wall_t);
        // Per-file serial walls give the scheduling bound
        // max(sum / T, largest file) that no placement can beat.
        double sum = 0, largest = 0;
        for (const auto& path : dir_files(c.input)) {
            const double t0 = now_s();
            core::IOCov one;
            one.consume_binary_file(path, 1);
            const double w = now_s() - t0;
            sum += w;
            largest = std::max(largest, w);
        }
        const double bound = std::max(sum / t, largest);
        res.set("exec.lpt_ratio", bound > 0 ? wall_t / bound : 0);
    }
    write_spans(log, c.args);
}

// ---- serve-live -----------------------------------------------------------------

struct ServeInputs {
    std::vector<std::pair<std::string, std::string>> shards;
    std::vector<std::uint64_t> plan;
    std::string resume;  ///< IOCK bytes
    std::string ref;
};

struct PushRecord {
    Request req;
    bool ok = false;
};

std::uint64_t reply_events(const std::string& text) {
    // "accepted NAME (N events, M torn records)"; duplicates carry none.
    if (text.rfind("accepted ", 0) != 0) return 0;
    const auto open = text.rfind('(');
    return open == std::string::npos ? 0 : std::strtoull(text.c_str() + open + 1,
                                                         nullptr, 10);
}

const char* query_text(std::size_t i) {
    static const char* const k[] = {"report", "status", "tcd open.flags 100"};
    return k[i % 3];
}

/// One running daemon: LiveCoverage + Server on a Unix socket, with the
/// event loop on its own thread.
class Daemon {
  public:
    Daemon(const std::string& work, const std::string& resume_bytes,
           double* setup_s) {
        fs::create_directories(work + "/deltas");
        opts_.unix_path = work + "/serve.sock";
        opts_.checkpoint_path = work + "/serve.iock";
        opts_.checkpoint_every = 16;
        opts_.resume = true;
        opts_.delta_dir = work + "/deltas";
        opts_.delta_every = 64;
        write_file(opts_.checkpoint_path, resume_bytes);
        const double t0 = now_s();
        live_ = std::make_unique<core::LiveCoverage>();
        server_ = std::make_unique<serve::Server>(*live_, opts_);
        ok_ = !server_->start().has_value();
        if (setup_s) *setup_s = now_s() - t0;
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    bool ok() const { return ok_; }
    const std::string& socket() const { return opts_.unix_path; }
    /// Starts the event loop; with `cpu` >= 0 it runs on that CPU only.
    void run(int cpu = -1) {
        if (!ok_) return;
        loop_ = std::thread([this] { server_->run(); });
        if (cpu >= 0) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(cpu, &set);
            ::pthread_setaffinity_np(loop_.native_handle(), sizeof set, &set);
        }
    }
    void stop() {
        if (loop_.joinable()) {
            server_->request_stop();
            loop_.join();
        }
    }

  private:
    serve::ServeOptions opts_;
    std::unique_ptr<core::LiveCoverage> live_;
    std::unique_ptr<serve::Server> server_;
    std::thread loop_;
    bool ok_ = false;
};

std::optional<serve::Client> connect(const std::string& sock) {
    return serve::Client::connect(serve::Endpoint{sock, -1}, 5000);
}

PushRecord push_one(serve::Client& cl, const std::pair<std::string, std::string>& shard,
                    const std::string& name, double due) {
    PushRecord r;
    r.req.due = due;
    r.req.sent = now_s();
    const auto reply = cl.push(name, shard.second);
    r.req.done = now_s();
    r.ok = reply && reply->ok;
    return r;
}

struct ServeRun {
    std::vector<PushRecord> pushes;
    std::vector<Request> queries;
    std::vector<bool> query_ok;
    std::size_t report_queries = 0;
};

/// The open-loop phase: one producer at kPushRate and one query thread
/// at kQueriesPerPush times that rate, each on its own connection and on
/// a schedule fixed in advance.
bool drive(const ServeInputs& in, const std::string& sock, ServeRun& run) {
    auto producer = connect(sock);
    auto querier = connect(sock);
    if (!producer || !querier) return false;
    // kQueriesPerPush queries per push interval, at fixed offsets after
    // each push is due: every push is probed at the same points, so how
    // long queries wait behind pushes depends on the pushes' service
    // times, not on where a query happened to land.
    const double start = now_s() + 0.01;
    std::vector<double> query_due;
    for (std::size_t i = 0; i < in.plan.size(); ++i)
        for (int k = 0; k < kQueriesPerPush; ++k)
            query_due.push_back(start + (static_cast<double>(i) +
                                         (k + 0.4) / kQueriesPerPush) /
                                            kPushRate);
    const std::size_t n_queries = query_due.size();
    std::thread qt([&] {
        for (std::size_t q = 0; q < n_queries; ++q) {
            Request r;
            r.due = query_due[q];
            wait_until(r.due);
            r.sent = now_s();
            const auto reply = querier->query(query_text(q));
            r.done = now_s();
            run.queries.push_back(r);
            run.query_ok.push_back(reply && reply->ok && !reply->text.empty());
        }
    });
    for (std::size_t i = 0; i < in.plan.size(); ++i) {
        const double due = start + static_cast<double>(i) / kPushRate;
        wait_until(due);
        const auto& shard = in.shards[in.plan[i]];
        run.pushes.push_back(push_one(*producer, shard, shard.first, due));
    }
    qt.join();
    run.report_queries = (n_queries + 2) / 3;
    return true;
}

std::map<std::string, std::uint64_t> parse_status(const std::string& text) {
    std::map<std::string, std::uint64_t> out;
    std::istringstream is(text);
    std::string k;
    std::uint64_t v = 0;
    while (is >> k >> v) out[k] = v;
    return out;
}

void check_quiesced(const ServeInputs& in, const std::string& sock, Result& res,
                    std::map<std::string, std::uint64_t>* status) {
    auto cl = connect(sock);
    res.check(cl.has_value(), "cannot connect to the daemon");
    if (!cl) return;
    const auto report = cl->query("report");
    res.check(report && report->ok && fnv_hex(report->text) == in.ref,
              "quiesced report differs from batch analysis of the shard set");
    const auto st = cl->query("status");
    res.check(st && st->ok, "status query failed");
    if (!st || !st->ok) return;
    *status = parse_status(st->text);
    std::unordered_set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < kResumeShards; ++i) seen.insert(i);
    std::uint64_t accepted = kResumeShards, dup = 0;
    for (const auto idx : in.plan) {
        if (seen.insert(idx).second) ++accepted;
        else ++dup;
    }
    res.check((*status)["pushes_accepted"] == accepted &&
                  (*status)["pushes_duplicate"] == dup &&
                  (*status)["pushes_rejected"] == 0,
              "daemon push counters differ from the push plan");
}

struct RepResult {
    bool ok = false;
    double wall = 0;                ///< seconds, first push to last reply
    std::uint64_t events = 0;       ///< events the daemon acknowledged
    std::vector<double> push_ms;    ///< per-push round trips
};

/// One closed-loop repetition of the push plan on a fresh daemon resumed
/// from the checkpoint: each push is followed by one query (report,
/// status and tcd in turn) on the same connection, so reads and writes
/// share the event loop in the same order every time.  The quiesced
/// report and counters are checked after the clock stops.
RepResult closed_loop_rep(const ServeInputs& in, const RunArgs& a, int cpu,
                          Result& res) {
    RepResult r;
    Daemon d(a.work, in.resume, nullptr);
    if (!d.ok()) return r;
    d.run(cpu);
    auto cl = connect(d.socket());
    if (!cl) return r;
    bool ok = true;
    const double t0 = now_s();
    for (std::size_t i = 0; i < in.plan.size(); ++i) {
        const auto& shard = in.shards[in.plan[i]];
        const double sent = now_s();
        const auto reply = cl->push(shard.first, shard.second);
        r.push_ms.push_back((now_s() - sent) * 1e3);
        const bool pushed = reply && reply->ok;
        if (pushed) r.events += reply_events(reply->text);
        const auto q = cl->query(query_text(i));
        const bool queried = q && q->ok && !q->text.empty();
        res.attempt(pushed);
        res.attempt(queried);
        ok = ok && pushed && queried;
    }
    r.wall = now_s() - t0;
    std::map<std::string, std::uint64_t> status;
    check_quiesced(in, d.socket(), res, &status);
    r.ok = ok;
    return r;
}

/// Repeats closed_loop_rep until `deadline` (at least kMinReps times),
/// each between two calibration samples (the fastest of
/// kServeKernelTries kernel runs each: over ten seeds that halved the
/// spread of events_per_s against one run; the batch workloads showed
/// no such gain and keep one run).  Sets events_per_s (events per
/// scaled rep wall) and ingest_p50_ms (the rep's median push round trip,
/// scaled), both as medians over the reps.
///
/// The client and the event loop never run at once in a closed loop, so
/// both are pinned to the CPU this thread is on: that costs no
/// parallelism, replaces cross-CPU wake-ups with same-CPU switches, and
/// makes the calibration kernel (run on this thread) time the CPU that
/// does the daemon's work.
void closed_loop(const ServeInputs& in, const RunArgs& a, double deadline,
                 Result& res) {
    cpu_set_t saved;
    const bool pin = ::sched_getaffinity(0, sizeof saved, &saved) == 0;
    const int cpu = pin ? ::sched_getcpu() : -1;
    if (cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        ::sched_setaffinity(0, sizeof one, &one);
    }
    HostSpeed speed(kServeKernelTries);
    speed.sample();
    std::vector<double> rates, p50s, raw_rates, raw_p50s;
    std::uint64_t events = 0;
    while (rates.size() < kMinReps || now_s() < deadline) {
        const auto r = closed_loop_rep(in, a, cpu, res);
        res.check(r.ok, "a closed-loop push or query failed");
        if (!r.ok) break;
        if (rates.empty()) events = r.events;
        res.check(r.events == events,
                  "closed-loop repetitions acknowledged different events");
        const double scaled = speed.normalize_since_last(r.wall);
        const double p50 = median(r.push_ms);
        raw_rates.push_back(static_cast<double>(r.events) / r.wall);
        raw_p50s.push_back(p50);
        rates.push_back(static_cast<double>(r.events) / scaled);
        p50s.push_back(p50 * scaled / r.wall);
    }
    if (cpu >= 0) ::sched_setaffinity(0, sizeof saved, &saved);
    res.set("cpu", cpu);
    res.set("events_per_s", median(rates));
    res.set("ingest_p50_ms", median(p50s));
    res.set("reps", static_cast<double>(rates.size()));
    res.set("host_speed", speed.speed());
    res.set("raw.events_per_s", median(raw_rates));
    res.set("raw.ingest_p50_ms", median(raw_p50s));
}

/// Median daemon set-up over kSetupTrials, scaled to the reference host
/// speed like the batch set-ups (`*raw` gets the unscaled median); the
/// last daemon is kept running.
double setup_daemon(const ServeInputs& in, const RunArgs& a,
                    std::unique_ptr<Daemon>& keep, double* raw) {
    HostSpeed speed;
    std::vector<double> setups, raw_setups;
    speed.sample();
    for (int i = 0; i < kSetupTrials; ++i) {
        double s = 0;
        keep.reset();
        keep = std::make_unique<Daemon>(a.work, in.resume, &s);
        if (!keep->ok()) return -1;
        raw_setups.push_back(s);
        setups.push_back(speed.normalize_since_last(s));
    }
    *raw = median(raw_setups);
    return median(setups);
}

/// Replays the push sequence through the library in process (no socket,
/// no queries): per push, frame encode/decode, then LiveCoverage::push
/// plus the checkpoint and delta the daemon writes on its schedule.
/// Returns the latter's time per plan entry in seconds; `*total_s` gets
/// the whole replay's wall.
std::vector<double> replay_service(const ServeInputs& in, const RunArgs& a,
                                   double* total_s) {
    std::vector<double> service;
    core::LiveCoverage live;
    auto cp = core::decode_checkpoint(in.resume);
    if (!cp) return service;
    live.restore(cp->blocks.front().snapshot, cp->consumed);
    std::uint64_t since_cp = 0, since_delta = 0, bytes = cp->bytes;
    const double t_all = now_s();
    for (const auto idx : in.plan) {
        const auto& shard = in.shards[idx];
        serve::FrameDecoder dec;
        dec.feed(serve::encode_push(shard.first, shard.second));
        serve::Frame f;
        std::string name;
        std::string_view body;
        dec.next(f);
        serve::decode_push(f.body, name, body);
        const double t1 = now_s();
        const auto r = live.push(name, body);
        if (r.accepted) {
            bytes += body.size();
            if (++since_delta >= 64) {
                since_delta = 0;
                auto d = live.take_delta();
                save_durable(a.work + "/replay-delta.iocs",
                             core::encode_snapshot(d));
            }
            if (++since_cp >= 16) {
                since_cp = 0;
                core::Checkpoint c;
                c.mode = core::CheckpointMode::Serve;
                c.consumed = live.consumed();
                c.bytes = bytes;
                c.blocks.push_back({c.consumed.size(), live.read()->state});
                save_durable(a.work + "/replay.iock", core::encode_checkpoint(c));
            }
        }
        service.push_back(now_s() - t1);
    }
    *total_s = now_s() - t_all;
    return service;
}

/// The same replay decomposed into library calls, one span each; the
/// per-shard decode/filter/analyze stages get one span per 512-row
/// batch.  Checks that the decomposition reproduces the reference.
double replay_traced(const ServeInputs& in, const RunArgs& a,
                     std::size_t report_queries, SpanLog& log, Counts& counts,
                     Result& res) {
    const double t_all = now_s();
    std::optional<core::Checkpoint> cp;
    {
        Scope s(log, "core.snapshot_decode");
        cp = core::decode_checkpoint(in.resume);
    }
    if (!cp) return 0;
    auto acc = std::make_unique<core::IOCov>();
    auto delta = std::make_unique<core::IOCov>();
    {
        Scope s(log, "core.merge");
        acc->merge(cp->blocks.front().snapshot);
    }
    std::vector<std::string> consumed = cp->consumed;
    std::unordered_set<std::string> seen(consumed.begin(), consumed.end());
    std::vector<trace::EventScratch> scratch(kBatchRows);
    std::uint64_t since_cp = 0, since_delta = 0, bytes = cp->bytes, saves = 0;
    double snapshot_bytes = 0;
    for (const auto idx : in.plan) {
        const auto& shard = in.shards[idx];
        Scope push(log, "push");
        std::string name;
        std::string_view body;
        serve::Frame f;
        {
            Scope s(log, "serve.frame", push.id());
            serve::FrameDecoder dec;
            dec.feed(serve::encode_push(shard.first, shard.second));
            dec.next(f);
            serve::decode_push(f.body, name, body);
        }
        if (!seen.insert(name).second) continue;
        std::unique_ptr<trace::TraceFilter> filter;
        std::unique_ptr<core::Analyzer> analyzer;
        {
            Scope s(log, "core.fresh", push.id());
            filter = std::make_unique<trace::TraceFilter>(
                trace::FilterConfig::mount_point("/mnt/test"));
            analyzer = std::make_unique<core::Analyzer>();
        }
        Counts c;
        traced_ioct(log, push.id(), body, *filter, *analyzer, scratch, c);
        counts.decoded += c.decoded;
        counts.kept += c.kept;
        counts.dropped += c.dropped;
        core::IOCovSnapshot snap;
        snap.report = analyzer->take_report();
        snap.filtered_out = c.decoded - c.kept;
        {
            Scope s(log, "core.merge", push.id());
            acc->merge(snap);
            delta->merge(snap);
        }
        consumed.push_back(name);
        bytes += body.size();
        core::IOCovSnapshot published;
        {
            Scope s(log, "core.snapshot", push.id());
            published = acc->snapshot();
        }
        if (++since_delta >= 64) {
            since_delta = 0;
            core::IOCovSnapshot d;
            {
                Scope s(log, "core.snapshot", push.id());
                d = delta->snapshot();
            }
            {
                Scope s(log, "core.fresh", push.id());
                delta = std::make_unique<core::IOCov>();
            }
            std::string enc;
            {
                Scope s(log, "core.snapshot_encode", push.id());
                enc = core::encode_snapshot(d);
            }
            Scope s(log, "host.save", push.id());
            save_durable(a.work + "/replay-delta.iocs", enc);
            ++saves;
        }
        if (++since_cp >= 16) {
            since_cp = 0;
            core::Checkpoint c2;
            c2.mode = core::CheckpointMode::Serve;
            c2.consumed = consumed;
            c2.bytes = bytes;
            c2.blocks.push_back({consumed.size(), std::move(published)});
            std::string enc;
            {
                Scope s(log, "core.snapshot_encode", push.id());
                enc = core::encode_checkpoint(c2);
            }
            snapshot_bytes = static_cast<double>(enc.size());
            Scope s(log, "host.save", push.id());
            save_durable(a.work + "/replay.iock", enc);
            ++saves;
        }
    }
    std::string text;
    for (std::size_t q = 0; q < std::max<std::size_t>(1, report_queries); ++q) {
        Scope s(log, "core.report_render");
        text = render(acc->report());
    }
    res.check(fnv_hex(text) == in.ref,
              "decomposed replay differs from the reference report");
    res.set("core.snapshot_bytes", snapshot_bytes);
    res.set("host.save_count", static_cast<double>(saves));
    return now_s() - t_all;
}

/// Open-loop rate ladder: the highest rate whose push tail stays under
/// kLadderLimitMs without a growing backlog.
double push_rate_max(const ServeInputs& in, const std::string& sock) {
    auto cl = connect(sock);
    if (!cl) return 0;
    double best = 0;
    std::size_t k = 0;
    for (const double rate : {100.0, 200.0, 300.0, 400.0, 600.0, 800.0, 1000.0,
                              1400.0, 2000.0}) {
        const auto n = static_cast<std::size_t>(rate * kLadderRungS);
        std::vector<Request> reqs;
        const double start = now_s() + 0.005;
        bool ok = true;
        for (std::size_t i = 0; i < n; ++i, ++k) {
            const auto& shard = in.shards[kResumeShards + k % (in.shards.size() - kResumeShards)];
            const double due = start + static_cast<double>(i) / rate;
            wait_until(due);
            const auto r = push_one(*cl, shard,
                                    "ladder-" + std::to_string(k), due);
            ok = ok && r.ok;
            reqs.push_back(r.req);
        }
        const double rank = tail_percentile_rank(reqs.size());
        const double tail = percentile(latencies_ms(reqs), rank > 0 ? rank : 100);
        if (!ok || tail >= kLadderLimitMs ||
            backlog_grows(reqs, std::max(2.0, 2e3 / rate)))
            break;
        best = rate;
    }
    return best;
}

void serve_live(const RunArgs& a, const std::vector<std::pair<std::string, std::string>>& m,
                Result& res) {
    ServeInputs in;
    in.ref = manifest_get(m, "report_digest");
    std::string plan_text;
    const bool loaded = read_pack(a.inputs + "/shards.pack", in.shards) &&
                        read_file(a.inputs + "/resume.iock", in.resume) &&
                        read_file(a.inputs + "/plan.txt", plan_text);
    res.check(loaded, "serve-live inputs are missing");
    if (!loaded) return;
    std::istringstream ps(plan_text);
    for (std::uint64_t v; ps >> v;) in.plan.push_back(v);
    res.check(in.plan.size() == u64(manifest_get(m, "pushes")) &&
                  in.shards.size() == u64(manifest_get(m, "shards")),
              "serve-live inputs do not match their manifest");

    std::unique_ptr<Daemon> daemon;
    double raw_setup = 0;
    const double setup = setup_daemon(in, a, daemon, &raw_setup);
    res.check(setup >= 0, "daemon failed to start or restore");
    if (setup < 0) return;
    if (!a.trace) {
        // Open-loop latencies depend on where pushes and queries meet on
        // the loop and on host load (over ten seeds they spread several
        // times the bounds), so the traced run measures them as per-layer
        // metrics, and the gated metrics come from closed-loop reps.
        daemon.reset();
        res.set("setup_s", setup);
        res.set("raw.setup_s", raw_setup);
        closed_loop(in, a, now_s() + 0.9 * a.seconds, res);
        res.set("peak_rss_mb", peak_rss_mb());
        return;
    }
    daemon->run();

    ServeRun run;
    res.check(drive(in, daemon->socket(), run), "cannot connect to the daemon");
    for (const auto& r : run.pushes) res.attempt(r.ok);
    for (const bool ok : run.query_ok) res.attempt(ok);

    std::map<std::string, std::uint64_t> status;
    check_quiesced(in, daemon->socket(), res, &status);

    std::vector<Request> push_reqs;
    for (const auto& r : run.pushes) push_reqs.push_back(r.req);
    const auto push_lat = latencies_ms(push_reqs);
    const auto query_lat = latencies_ms(run.queries);
    auto late = generator_lateness_ms(push_reqs);
    const auto qlate = generator_lateness_ms(run.queries);
    late.insert(late.end(), qlate.begin(), qlate.end());
    const double late_p99 = percentile(late, 99);
    res.check(late_p99 < kLateLimitMs,
              "load generator ran late (p99 " + std::to_string(late_p99) +
                  " ms): the run is invalid");
    res.check(push_lat.size() >= 1000 && query_lat.size() >= 1000,
              "fewer than 1000 samples behind a p99");

    res.set("serve.push_p50_ms", median(push_lat));
    res.set("serve.push_p99_ms", percentile(push_lat, 99));
    res.set("serve.query_p50_ms", median(query_lat));
    res.set("serve.query_p99_ms", percentile(query_lat, 99));
    res.set("bench.gen_late_p99_ms", late_p99);
    for (const char* k : {"pushes_accepted", "pushes_duplicate",
                          "pushes_rejected", "queries", "torn_frames",
                          "sock_errors", "shard_bytes", "deltas", "checkpoints"})
        res.set(std::string("serve.stats.") + k,
                static_cast<double>(status[k]));
    res.set("serve.push_rate_max", push_rate_max(in, daemon->socket()));
    daemon->stop();
    daemon.reset();

    double replay_s = 0;
    const auto service = replay_service(in, a, &replay_s);
    res.check(service.size() == in.plan.size(), "replay could not restore");
    if (service.size() != in.plan.size()) return;
    double service_s = 0;
    for (const double s : service) service_s += s;
    std::vector<double> wait;
    for (std::size_t i = 0; i < run.pushes.size(); ++i) {
        const auto& r = run.pushes[i].req;
        wait.push_back(std::max(
            0.0, (r.done - r.sent - service[i]) * 1e3));
    }
    res.set("serve.push_service_s", service_s);
    res.set("serve.push_wait_ms", percentile(wait, 99));

    SpanLog log;
    Counts counts;
    const double traced_s =
        replay_traced(in, a, run.report_queries, log, counts, res);
    const double stages = set_stage_metrics(res, log, 1);
    res.set("span.coverage", stages / replay_s);
    res.set("span.overhead", traced_s / replay_s - 1);
    res.set("trace.filter_kept_ratio",
            counts.decoded ? static_cast<double>(counts.kept) /
                                 static_cast<double>(counts.decoded)
                           : 0);
    res.set("trace.dropped_records", static_cast<double>(counts.dropped));
    write_spans(log, a);
}

}  // namespace

int run_workload(const RunArgs& a) {
    const auto m = read_manifest(a.inputs + "/manifest.txt");
    if (manifest_get(m, "workload") != a.workload) {
        std::fprintf(stderr, "perfbench: %s holds no %s inputs\n",
                     a.inputs.c_str(), a.workload.c_str());
        return 2;
    }
    fs::create_directories(a.work);
    Result res(a.trace);
    if (a.workload == "serve-live") {
        serve_live(a, m, res);
    } else {
        BatchCtx c{a.workload == "trace-large"  ? Batch::Large
                   : a.workload == "trace-text" ? Batch::Text
                                                : Batch::Fleet,
                   a,
                   a.inputs + "/" + manifest_get(m, "input"),
                   manifest_get(m, "report_digest"),
                   u64(manifest_get(m, "events")),
                   u64(manifest_get(m, "kept")),
                   u64(manifest_get(m, "files")),
                   a.work + "/report.cov"};
        if (a.trace) batch_traced(c, res);
        else batch_untraced(c, res);
    }
    res.print(a.workload);
    return 0;
}

}  // namespace perfbench
