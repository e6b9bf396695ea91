// Input generation.  Simulating the testers is the slow part (seconds per
// run), so it happens once per generator version in a seed-independent
// pool of segments (xfstests, CrashMonkey and LTP runs).  A workload's
// inputs are then composed from the pool by its seed: which segments and
// windows each pid replays, how much harness noise (syscalls outside the
// mount point, on fds opened outside it) is mixed in, and how the pids
// interleave.  Per-pid order is always kept, which is all the stateful
// trace filter depends on.
//
// Every composed input also gets a reference report digest, computed
// through the plain event-at-a-time path (IOCov::consume per event,
// straight from the generator) so the run can check the IOCT, text,
// directory and serve paths against a path none of them shares.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/checkpoint.hpp"
#include "core/iocov.hpp"
#include "core/live.hpp"
#include "core/report_io.hpp"
#include "syscall/kernel.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "trace/binary_format.hpp"
#include "trace/sink.hpp"
#include "trace/text_format.hpp"
#include "vfs/filesystem.hpp"

namespace perfbench {
namespace fs = std::filesystem;
using iocov::trace::TraceEvent;

std::string fnv_hex(std::string_view bytes) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

bool read_file(const std::string& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return static_cast<bool>(in) || in.eof();
}

bool write_file(const std::string& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

std::vector<std::pair<std::string, std::string>> read_manifest(
    const std::string& path) {
    std::vector<std::pair<std::string, std::string>> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const auto sp = line.find(' ');
        if (sp == std::string::npos) continue;
        out.emplace_back(line.substr(0, sp), line.substr(sp + 1));
    }
    return out;
}

std::string manifest_get(
    const std::vector<std::pair<std::string, std::string>>& m,
    const std::string& key) {
    for (const auto& [k, v] : m)
        if (k == key) return v;
    return "";
}

namespace {

void put_u32(std::string& s, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}

bool get_u32(std::string_view s, std::size_t& off, std::uint32_t& v) {
    if (s.size() - off < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(s[off + i]))
             << (8 * i);
    off += 4;
    return true;
}

}  // namespace

bool write_pack(const std::string& path,
                const std::vector<std::pair<std::string, std::string>>& blobs) {
    std::string out;
    for (const auto& [name, bytes] : blobs) {
        put_u32(out, static_cast<std::uint32_t>(name.size()));
        out += name;
        put_u32(out, static_cast<std::uint32_t>(bytes.size()));
        out += bytes;
    }
    return write_file(path, out);
}

bool read_pack(const std::string& path,
               std::vector<std::pair<std::string, std::string>>& blobs) {
    std::string data;
    if (!read_file(path, data)) return false;
    std::size_t off = 0;
    while (off < data.size()) {
        std::uint32_t n = 0, m = 0;
        if (!get_u32(data, off, n) || data.size() - off < n) return false;
        std::string name = data.substr(off, n);
        off += n;
        if (!get_u32(data, off, m) || data.size() - off < m) return false;
        blobs.emplace_back(std::move(name), data.substr(off, m));
        off += m;
    }
    return true;
}

std::uint64_t serve_pushes(double seconds) {
    return std::max<std::uint64_t>(
        1000, static_cast<std::uint64_t>(std::llround(0.45 * seconds * kPushRate)));
}

namespace {

// ---- pool -------------------------------------------------------------------

struct PoolSpec {
    char kind;  ///< x = xfstests, c = CrashMonkey, l = LTP
    std::uint64_t seed;
    double scale;
};

std::vector<PoolSpec> pool_specs() {
    std::vector<PoolSpec> out;
    for (std::uint64_t s = 0; s < 24; ++s) out.push_back({'x', 101 + s, 0.004});
    for (std::uint64_t s = 0; s < 8; ++s) out.push_back({'c', 201 + s, 1.0});
    for (std::uint64_t s = 0; s < 8; ++s) out.push_back({'l', 301 + s, 1.0});
    return out;
}

std::string pool_file(const PoolSpec& p) {
    return std::string(1, p.kind) + "-" + std::to_string(p.seed) + ".ioct";
}

std::string simulate(const PoolSpec& p) {
    using namespace iocov;
    vfs::FileSystem vfs_(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(vfs_, "/mnt/test");
    std::ostringstream os;
    {
        trace::BinarySink sink(os);
        syscall::Kernel kernel(vfs_, &sink);
        if (p.kind == 'x') testers::run_xfstests(kernel, fx, p.scale, p.seed);
        else if (p.kind == 'c')
            testers::run_crashmonkey(kernel, fx, p.scale, p.seed);
        else testers::run_ltp(kernel, fx, p.scale, p.seed);
    }
    return os.str();
}

// ---- composition -------------------------------------------------------------

/// One decoded pool segment.  `scan` aliases `bytes`, so a Segment never
/// moves once loaded.
struct Segment {
    char kind = 'x';
    std::string bytes;
    iocov::trace::IoctScan scan;
    std::size_t size() const { return scan.events.size(); }
    bool decode(std::size_t i, TraceEvent& out) const {
        const auto& ref = scan.events[i];
        return iocov::trace::decode_event(
            std::string_view(bytes).substr(ref.offset, ref.length),
            scan.strings, out);
    }
};

struct Pool {
    std::vector<std::unique_ptr<Segment>> segs;
    std::map<std::string, TraceEvent> templates;  ///< by syscall name

    /// A random xfstests segment (`xfstests`) or CrashMonkey/LTP one.
    const Segment& pick(Rng& rng, bool xfstests) const {
        std::vector<const Segment*> of_kind;
        for (const auto& seg : segs)
            if ((seg->kind == 'x') == xfstests) of_kind.push_back(seg.get());
        return *of_kind[rng.below(of_kind.size())];
    }
};

bool load_pool(const std::string& dir, Pool& pool) {
    for (const auto& p : pool_specs()) {
        auto seg = std::make_unique<Segment>();
        seg->kind = p.kind;
        if (!read_file(dir + "/" + pool_file(p), seg->bytes)) return false;
        seg->scan = iocov::trace::scan_ioct(seg->bytes);
        if (!seg->scan.header_ok || seg->scan.dropped || seg->size() == 0)
            return false;
        pool.segs.push_back(std::move(seg));
    }
    // Argument layouts for the synthetic harness noise are copied from
    // real events, so noise goes through exactly the decoder and filter
    // paths real records do.
    TraceEvent ev;
    for (const auto& seg : pool.segs)
        for (std::size_t i = 0; i < seg->size(); ++i)
            if (seg->decode(i, ev) && ev.ok() && !pool.templates.count(ev.syscall))
                pool.templates.emplace(ev.syscall, ev);
    for (const char* need : {"openat", "read", "write", "pread64", "lseek",
                             "close", "chmod", "mkdir", "truncate", "unlink"})
        if (!pool.templates.count(need)) return false;
    return true;
}

void set_arg(TraceEvent& ev, std::string_view name, std::int64_t v) {
    for (auto& a : ev.args)
        if (a.name == name) {
            if (std::holds_alternative<std::uint64_t>(a.value))
                a.value = static_cast<std::uint64_t>(v);
            else a.value = v;
        }
}

void set_path(TraceEvent& ev, const std::string& path) {
    for (auto& a : ev.args)
        if (a.name == "pathname") a.value = path;
}

/// Harness noise for one pid: opens outside the mount point followed by
/// reads, writes and seeks on those fds, plus path calls on harness
/// files.  Noise fds live at 700 and up, a range the simulated testers
/// never reach, so noise and tester fds never alias within a pid.
class Noise {
  public:
    Noise(const Pool& pool, std::uint64_t seed) : pool_(pool), rng_{seed} {}

    TraceEvent next() {
        const double r = rng_.unit();
        if (fds_.empty() || (r < 0.12 && fds_.size() < 6)) return open();
        if (r < 0.22) return close(rng_.below(fds_.size()));
        if (r < 0.32) return path_call();
        return fd_call();
    }

    bool has_open() const { return !fds_.empty(); }
    TraceEvent close_one() { return close(fds_.size() - 1); }

  private:
    std::string path() {
        static const char* const kPaths[] = {
            "/var/log/xfstests/check.log", "/var/tmp/harness/%u.out",
            "/usr/lib/x86_64-linux-gnu/libc.so.6", "/etc/ld.so.cache",
            "/proc/self/mountinfo", "/tmp/xfs.%u", "/mnt/testx/decoy.%u",
            "/mnt/test.bak/%u", "/results/generic/%u.full"};
        char buf[96];
        std::snprintf(buf, sizeof buf, kPaths[rng_.below(9)],
                      static_cast<unsigned>(rng_.below(64)));
        return buf;
    }

    TraceEvent open() {
        TraceEvent ev = pool_.templates.at("openat");
        set_path(ev, path());
        set_arg(ev, "dfd", -100);
        set_arg(ev, "flags", rng_.unit() < 0.5 ? 0 : 0x241);
        std::int64_t fd = 700;
        while (std::find(fds_.begin(), fds_.end(), fd) != fds_.end()) ++fd;
        fds_.push_back(fd);
        ev.ret = fd;
        return ev;
    }

    TraceEvent close(std::size_t i) {
        TraceEvent ev = pool_.templates.at("close");
        set_arg(ev, "fd", fds_[i]);
        ev.ret = 0;
        fds_.erase(fds_.begin() + static_cast<std::ptrdiff_t>(i));
        return ev;
    }

    TraceEvent fd_call() {
        static const char* const kCalls[] = {"read", "write", "pread64",
                                             "lseek"};
        const char* name = kCalls[rng_.below(4)];
        TraceEvent ev = pool_.templates.at(name);
        set_arg(ev, "fd", fds_[rng_.below(fds_.size())]);
        const std::int64_t count = std::int64_t{1} << rng_.below(16);
        set_arg(ev, "count", count);
        set_arg(ev, "pos", static_cast<std::int64_t>(rng_.below(1 << 20)));
        set_arg(ev, "offset", static_cast<std::int64_t>(rng_.below(1 << 20)));
        set_arg(ev, "whence", static_cast<std::int64_t>(rng_.below(3)));
        ev.ret = std::string_view(name) == "lseek"
                     ? static_cast<std::int64_t>(rng_.below(1 << 20))
                     : count;
        return ev;
    }

    TraceEvent path_call() {
        static const char* const kCalls[] = {"chmod", "mkdir", "truncate",
                                             "unlink"};
        TraceEvent ev = pool_.templates.at(kCalls[rng_.below(4)]);
        set_path(ev, path());
        ev.ret = rng_.unit() < 0.8 ? 0 : -17;
        return ev;
    }

    const Pool& pool_;
    Rng rng_;
    std::vector<std::int64_t> fds_;
};

/// One pid's event stream: tester windows from the pool, with noise
/// mixed in at probability `noise_p`, then the noise fds closed.  The
/// simulators run a user (pid 1000) and a root (pid 999) process; they
/// map to `pid` and `pid + 1`.
class PidStream {
  public:
    PidStream(const Pool& pool, std::uint32_t pid, double noise_p,
              std::uint64_t seed)
        : pid_(pid), noise_p_(noise_p), noise_(pool, seed), rng_{seed ^ 0x5a5a} {}

    void add_window(const Segment& seg, std::size_t begin, std::size_t end) {
        parts_.push_back({&seg, begin, end});
        tester_left_ += end - begin;
    }

    std::uint64_t tester_events() const { return tester_left_; }

    bool next(TraceEvent& out) {
        if (tester_left_ > 0 && rng_.unit() >= noise_p_) {
            while (part_ < parts_.size()) {
                Part& p = parts_[part_];
                if (p.begin == p.end) {
                    ++part_;
                    continue;
                }
                const std::size_t i = p.begin++;
                --tester_left_;
                if (!p.seg->decode(i, out)) continue;
                out.pid = out.pid == 999 ? pid_ + 1 : pid_;
                out.tid = out.pid;
                return true;
            }
        }
        if (tester_left_ > 0) out = noise_.next();
        else if (noise_.has_open()) out = noise_.close_one();
        else return false;
        out.pid = out.tid = pid_;
        return true;
    }

  private:
    struct Part {
        const Segment* seg;
        std::size_t begin, end;
    };
    std::uint32_t pid_;
    double noise_p_;
    Noise noise_;
    Rng rng_;
    std::vector<Part> parts_;
    std::size_t part_ = 0;
    std::uint64_t tester_left_ = 0;
};

/// A window start that begins at an open, so the window's fd calls
/// mostly refer to fds it opened itself.
std::size_t open_aligned(const Segment& seg, std::size_t start) {
    TraceEvent ev;
    for (std::size_t i = start; i < seg.size() && i < start + 4096; ++i)
        if (seg.decode(i, ev) && ev.syscall.rfind("open", 0) == 0) return i;
    return start;
}

/// Fills `s` with about `events` tester events from one kind of tester:
/// whole segments while they fit, then one window.
void fill_stream(const Pool& pool, Rng& rng, PidStream& s, std::uint64_t events,
                 bool xfstests) {
    while (s.tester_events() < events) {
        const Segment& seg = pool.pick(rng, xfstests);
        const std::uint64_t want = events - s.tester_events();
        if (want >= seg.size()) {
            s.add_window(seg, 0, seg.size());
            continue;
        }
        const std::size_t begin =
            open_aligned(seg, rng.below(seg.size() - want + 1));
        s.add_window(seg, begin, std::min<std::size_t>(seg.size(), begin + want));
    }
}

/// `n` sizes from `draw` on a fixed generator, shuffled by the workload's
/// rng: every seed gets the same multiset of sizes, so the work a run
/// does (and its memory high-water mark) does not depend on the seed,
/// while order and content do.
template <class Draw>
std::vector<std::uint64_t> seed_independent_sizes(std::size_t n, Rng& rng,
                                                  Draw draw) {
    Rng fixed{0x1f2e3d4c5b6a7988ULL};
    std::vector<std::uint64_t> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(draw(fixed, i));
    for (std::size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
    return v;
}

/// Sink that feeds every event to an IOCov one at a time: the reference
/// path the run's ingest paths are checked against.
class ReferenceSink final : public iocov::trace::TraceSink {
  public:
    explicit ReferenceSink(iocov::core::IOCov& iocov) : iocov_(iocov) {}
    void emit(const TraceEvent& ev) override { iocov_.consume(ev); }

  private:
    iocov::core::IOCov& iocov_;
};

/// Interleaves the streams into `sinks`: a random pid emits a run of
/// 1..32 events, until every stream is drained.  Sequence numbers are
/// renumbered globally.  Returns the number of events emitted.
std::uint64_t interleave(std::vector<PidStream>& streams, Rng& rng,
                         const std::vector<iocov::trace::TraceSink*>& sinks) {
    std::vector<std::size_t> active(streams.size());
    for (std::size_t i = 0; i < active.size(); ++i) active[i] = i;
    std::uint64_t seq = 0;
    TraceEvent ev;
    while (!active.empty()) {
        const std::size_t k = rng.below(active.size());
        const std::uint64_t run = 1 + rng.below(32);
        for (std::uint64_t j = 0; j < run; ++j) {
            if (!streams[active[k]].next(ev)) {
                active.erase(active.begin() + static_cast<std::ptrdiff_t>(k));
                break;
            }
            ev.seq = seq++;
            for (auto* sink : sinks) sink->emit(ev);
        }
    }
    return seq;
}

std::string report_text(const iocov::core::CoverageReport& r) {
    std::ostringstream os;
    iocov::core::save_report(os, r);
    return os.str();
}

/// trace-large / trace-text: one trace of `pids` interleaved streams, two
/// of them CrashMonkey/LTP and the rest xfstests, each ~30 % noise.  The
/// mix is fixed so that seeds vary the events, not the workload's cost.
int gen_trace(const Pool& pool, Rng& rng, bool text, std::uint64_t pids,
              std::uint64_t tester_per_pid, const std::string& out,
              std::ostream& manifest) {
    std::vector<PidStream> streams;
    streams.reserve(pids);
    for (std::uint64_t p = 0; p < pids; ++p) {
        streams.emplace_back(pool, static_cast<std::uint32_t>(2000 + 2 * p),
                             0.3, rng.next());
        fill_stream(pool, rng, streams.back(), tester_per_pid, p >= 2);
    }
    iocov::core::IOCov ref;
    ReferenceSink ref_sink(ref);
    const std::string path = out + (text ? "/trace.txt" : "/trace.ioct");
    std::ofstream os(path, std::ios::binary);
    std::uint64_t events = 0;
    if (text) {
        iocov::trace::TextSink sink(os);
        events = interleave(streams, rng, {&sink, &ref_sink});
    } else {
        iocov::trace::BinarySink sink(os);
        events = interleave(streams, rng, {&sink, &ref_sink});
        sink.finish();
    }
    os.close();
    if (!os) return 1;
    manifest << "input " << (text ? "trace.txt" : "trace.ioct") << "\n"
             << "events " << events << "\n"
             << "kept " << ref.report().events_seen << "\n"
             << "filtered " << ref.events_filtered_out() << "\n"
             << "bytes " << fs::file_size(path) << "\n"
             << "report_digest " << fnv_hex(report_text(ref.report())) << "\n";
    return 0;
}

/// fleet-dir: 48 single-pid IOCT files with skewed sizes.
int gen_fleet(const Pool& pool, Rng& rng, const std::string& out,
              std::ostream& manifest) {
    fs::create_directories(out + "/fleet");
    iocov::core::IOCov acc;
    std::uint64_t events = 0, bytes = 0, largest = 0;
    constexpr int kFiles = 48;
    // 14 single short tests (CrashMonkey/LTP), 24 medium runs, and 10
    // full suite runs about ten times the median.
    const auto sizes = seed_independent_sizes(kFiles, rng, [](Rng& r, std::size_t i) {
        return i < 14   ? 50 + r.below(350)
               : i < 38 ? r.lognormal(6000, 0.7, 1500, 20000)
                        : 50000 + r.below(40000);
    });
    for (int f = 0; f < kFiles; ++f) {
        const std::uint64_t n = sizes[f];
        PidStream s(pool, static_cast<std::uint32_t>(3000 + 2 * f), 0.18,
                    rng.next());
        fill_stream(pool, rng, s, n, n >= 1000 && n % 4 != 0);
        std::vector<PidStream> one;
        one.push_back(std::move(s));
        iocov::core::IOCov ref;
        ReferenceSink ref_sink(ref);
        char name[64];
        std::snprintf(name, sizeof name, "/fleet/run-%02d.ioct", f);
        std::ofstream os(out + name, std::ios::binary);
        {
            iocov::trace::BinarySink sink(os);
            events += interleave(one, rng, {&sink, &ref_sink});
        }
        os.close();
        if (!os) return 1;
        acc.merge(ref);
        const auto size = fs::file_size(out + name);
        bytes += size;
        largest = std::max<std::uint64_t>(largest, size);
    }
    manifest << "input fleet\n"
             << "files " << kFiles << "\n"
             << "events " << events << "\n"
             << "kept " << acc.report().events_seen << "\n"
             << "filtered " << acc.events_filtered_out() << "\n"
             << "bytes " << bytes << "\n"
             << "largest_bytes " << largest << "\n"
             << "report_digest " << fnv_hex(report_text(acc.report())) << "\n";
    return 0;
}

/// serve-live: one-test shards (2 KB - 400 KB, median ~20 KB), the push
/// plan (about 5 % re-pushes of earlier names), and a resume checkpoint
/// holding the first kResumeShards shards.
int gen_serve(const Pool& pool, Rng& rng, double seconds,
              const std::string& out, std::ostream& manifest) {
    const std::uint64_t pushes = serve_pushes(seconds);
    // Exactly one push in twenty re-pushes an earlier name (after the
    // first 16), at seed-chosen positions.
    std::vector<char> dup(pushes, 0);
    for (std::uint64_t i = 0; i < pushes / 20; ++i) dup[16 + i] = 1;
    for (std::uint64_t i = pushes; i > 17; --i)
        std::swap(dup[i - 1], dup[16 + rng.below(i - 16)]);
    std::vector<std::uint64_t> plan;
    std::uint64_t distinct = kResumeShards;
    for (std::uint64_t p = 0; p < pushes; ++p)
        plan.push_back(dup[p] ? rng.below(distinct) : distinct++);
    std::vector<std::pair<std::string, std::string>> shards;
    iocov::core::IOCov acc;
    iocov::core::LiveCoverage prefix;
    std::uint64_t events = 0, bytes = 0;
    const auto sizes = seed_independent_sizes(distinct, rng, [](Rng& r, std::size_t) {
        return r.lognormal(830, 1.0, 80, 16000);
    });
    for (std::uint64_t i = 0; i < distinct; ++i) {
        const std::uint64_t n = sizes[i];
        PidStream s(pool, static_cast<std::uint32_t>(5000 + 2 * (i % 97)), 0.075,
                    rng.next());
        const Segment& seg = pool.pick(rng, n % 3 != 0);
        const std::uint64_t len = std::min<std::uint64_t>(n, seg.size());
        const std::size_t begin =
            open_aligned(seg, rng.below(seg.size() - len + 1));
        s.add_window(seg, begin, std::min<std::size_t>(seg.size(), begin + len));
        std::vector<PidStream> one;
        one.push_back(std::move(s));
        iocov::core::IOCov ref;
        ReferenceSink ref_sink(ref);
        std::ostringstream os;
        {
            iocov::trace::BinarySink sink(os);
            events += interleave(one, rng, {&sink, &ref_sink});
        }
        char name[48];
        std::snprintf(name, sizeof name, "shard-%05llu-%08llx",
                      static_cast<unsigned long long>(i),
                      static_cast<unsigned long long>(rng.next() >> 32));
        shards.emplace_back(name, os.str());
        bytes += shards.back().second.size();
        acc.merge(ref);
        if (i < kResumeShards) prefix.push(name, shards.back().second);
    }
    iocov::core::Checkpoint cp;
    cp.mode = iocov::core::CheckpointMode::Serve;
    cp.consumed = prefix.consumed();
    for (std::uint64_t i = 0; i < kResumeShards; ++i)
        cp.bytes += shards[i].second.size();
    cp.blocks.push_back({kResumeShards, prefix.read()->state});
    if (!write_file(out + "/resume.iock", iocov::core::encode_checkpoint(cp)) ||
        !write_pack(out + "/shards.pack", shards))
        return 1;
    std::ofstream planf(out + "/plan.txt");
    for (const auto idx : plan) planf << idx << "\n";
    planf.close();
    if (!planf) return 1;
    manifest << "input shards.pack\n"
             << "shards " << distinct << "\n"
             << "pushes " << pushes << "\n"
             << "events " << events << "\n"
             << "bytes " << bytes << "\n"
             << "report_digest " << fnv_hex(report_text(acc.report())) << "\n";
    return 0;
}

}  // namespace

int make_pool(const std::string& out, unsigned threads) {
    fs::create_directories(out);
    const auto specs = pool_specs();
    std::mutex mu;
    std::size_t next = 0;
    bool ok = true;
    auto worker = [&] {
        for (;;) {
            std::size_t i;
            {
                std::lock_guard<std::mutex> lock(mu);
                if (next >= specs.size()) return;
                i = next++;
            }
            const std::string bytes = simulate(specs[i]);
            const bool wrote = write_file(out + "/" + pool_file(specs[i]), bytes);
            std::lock_guard<std::mutex> lock(mu);
            ok = ok && wrote;
        }
    };
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < std::max(1u, threads); ++t) ts.emplace_back(worker);
    for (auto& t : ts) t.join();
    return ok ? 0 : 1;
}

int generate(const std::string& workload, std::uint64_t seed, double seconds,
             const std::string& pool_dir, const std::string& out) {
    Pool pool;
    if (!load_pool(pool_dir, pool)) {
        std::fprintf(stderr, "perfbench: pool %s is missing or damaged\n",
                     pool_dir.c_str());
        return 1;
    }
    fs::create_directories(out);
    Rng rng{seed * 0x9e3779b97f4a7c15ULL ^
            std::stoull(fnv_hex(workload), nullptr, 16)};
    std::ostringstream manifest;
    manifest << "workload " << workload << "\n" << "seed " << seed << "\n";
    int rc = 1;
    if (workload == "trace-large")
        rc = gen_trace(pool, rng, false, 16, 42000, out, manifest);
    else if (workload == "trace-text")
        rc = gen_trace(pool, rng, true, 16, 21000, out, manifest);
    else if (workload == "fleet-dir") rc = gen_fleet(pool, rng, out, manifest);
    else if (workload == "serve-live")
        rc = gen_serve(pool, rng, seconds, out, manifest);
    if (rc != 0) return rc;
    return write_file(out + "/manifest.txt", manifest.str()) ? 0 : 1;
}

}  // namespace perfbench
