#include "trace/filter.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "abi/fcntl.hpp"
#include "trace/binary_format.hpp"
#include "trace/text_format.hpp"

namespace iocov::trace {
namespace {

TraceEvent ev_open(const std::string& path, std::int64_t ret,
                   std::uint32_t pid = 1) {
    TraceEvent ev;
    ev.pid = pid;
    ev.tid = pid;
    ev.syscall = "open";
    ev.args = {{"pathname", ArgValue{path}},
               {"flags", ArgValue{std::uint64_t{0}}},
               {"mode", ArgValue{std::uint64_t{0}}}};
    ev.ret = ret;
    return ev;
}

TraceEvent ev_fd(const std::string& syscall, std::int64_t fd,
                 std::int64_t ret, std::uint32_t pid = 1) {
    TraceEvent ev;
    ev.pid = pid;
    ev.tid = pid;
    ev.syscall = syscall;
    ev.args = {{"fd", ArgValue{fd}}};
    ev.ret = ret;
    return ev;
}

TraceEvent ev_path(const std::string& syscall, const std::string& path,
                   std::int64_t ret, std::uint32_t pid = 1) {
    TraceEvent ev;
    ev.pid = pid;
    ev.tid = pid;
    ev.syscall = syscall;
    ev.args = {{"pathname", ArgValue{path}}};
    ev.ret = ret;
    return ev;
}

TEST(TraceFilter, AdmitsPathsUnderMountPoint) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    EXPECT_TRUE(f.admit(ev_open("/mnt/test/file", 3)));
    EXPECT_TRUE(f.admit(ev_open("/mnt/test", 4)));
    EXPECT_FALSE(f.admit(ev_open("/home/user/file", 5)));
    EXPECT_FALSE(f.admit(ev_open("/mnt/testsuffix/file", 6)));
    EXPECT_FALSE(f.admit(ev_open("/mnt", 7)));
}

TEST(TraceFilter, ExcludePatternsVetoIncludes) {
    FilterConfig cfg = FilterConfig::mount_point("/mnt/test");
    cfg.exclude.push_back("^/mnt/test/private(/.*)?$");
    TraceFilter f(cfg);
    EXPECT_TRUE(f.admit(ev_open("/mnt/test/public", 3)));
    EXPECT_FALSE(f.admit(ev_open("/mnt/test/private/secret", 4)));
}

TEST(TraceFilter, TracksFdsFromAdmittedOpens) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    ASSERT_TRUE(f.admit(ev_open("/mnt/test/file", 3)));
    EXPECT_EQ(f.watched_fd_count(), 1u);
    // fd-based syscalls on the watched fd are in scope.
    EXPECT_TRUE(f.admit(ev_fd("write", 3, 100)));
    EXPECT_TRUE(f.admit(ev_fd("lseek", 3, 0)));
    // A different fd belongs to some other file.
    EXPECT_FALSE(f.admit(ev_fd("write", 5, 100)));
}

TEST(TraceFilter, CloseUnwatchesTheFd) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    ASSERT_TRUE(f.admit(ev_open("/mnt/test/file", 3)));
    EXPECT_TRUE(f.admit(ev_fd("close", 3, 0)));
    EXPECT_EQ(f.watched_fd_count(), 0u);
    EXPECT_FALSE(f.admit(ev_fd("write", 3, 100)));  // recycled fd, unknown
}

TEST(TraceFilter, FailedOpenDoesNotWatchAnFd) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    EXPECT_TRUE(f.admit(ev_open("/mnt/test/missing", -2)));
    EXPECT_EQ(f.watched_fd_count(), 0u);
}

TEST(TraceFilter, OutOfScopeOpenFdStaysUnwatched) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    EXPECT_FALSE(f.admit(ev_open("/var/log/syslog", 3)));
    EXPECT_FALSE(f.admit(ev_fd("read", 3, 10)));
}

TEST(TraceFilter, FdTrackingIsPerPid) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    ASSERT_TRUE(f.admit(ev_open("/mnt/test/file", 3, /*pid=*/1)));
    EXPECT_FALSE(f.admit(ev_fd("write", 3, 10, /*pid=*/2)));
    EXPECT_TRUE(f.admit(ev_fd("write", 3, 10, /*pid=*/1)));
}

TEST(TraceFilter, ChdirEstablishesRelativePathScope) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    // Before any chdir, relative paths are out of scope.
    EXPECT_FALSE(f.admit(ev_path("chdir", "subdir", 0)));
    ASSERT_TRUE(f.admit(ev_path("chdir", "/mnt/test/scratch", 0)));
    // Now relative lookups resolve inside the mount point.
    EXPECT_TRUE(f.admit(ev_path("chdir", "subdir", 0)));
    EXPECT_TRUE(f.admit(ev_open("relative_file", 4)));
    // Leaving the mount point turns relative scope off again.
    ASSERT_FALSE(f.admit(ev_path("chdir", "/home", 0)));
    EXPECT_FALSE(f.admit(ev_open("relative_file", 5)));
}

TEST(TraceFilter, FailedChdirDoesNotChangeScope) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    ASSERT_TRUE(f.admit(ev_path("chdir", "/mnt/test", 0)));
    EXPECT_FALSE(f.admit(ev_path("chdir", "/elsewhere", -2)));
    EXPECT_TRUE(f.admit(ev_open("still_relative", 4)));
}

TEST(TraceFilter, OpenatThroughWatchedDfd) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    // Open the mount-point directory itself, then openat through it.
    TraceEvent dir_open = ev_open("/mnt/test", 7);
    ASSERT_TRUE(f.admit(dir_open));
    TraceEvent at;
    at.pid = 1;
    at.tid = 1;
    at.syscall = "openat";
    at.args = {{"dfd", ArgValue{std::int64_t{7}}},
               {"pathname", ArgValue{std::string("child")}},
               {"flags", ArgValue{std::uint64_t{0}}},
               {"mode", ArgValue{std::uint64_t{0}}}};
    at.ret = 8;
    EXPECT_TRUE(f.admit(at));
    EXPECT_TRUE(f.admit(ev_fd("write", 8, 4)));
}

TEST(TraceFilter, FilterResetsBetweenRuns) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    std::vector<TraceEvent> run1{ev_open("/mnt/test/a", 3)};
    EXPECT_EQ(f.filter(run1).size(), 1u);
    // A second filter() call must not remember run1's fd 3.
    std::vector<TraceEvent> run2{ev_fd("write", 3, 10)};
    EXPECT_EQ(f.filter(run2).size(), 0u);
}

TEST(TraceFilter, MountPointEscapingHandlesRegexMetacharacters) {
    TraceFilter f(FilterConfig::mount_point("/mnt/test+dir(1)"));
    EXPECT_TRUE(f.admit(ev_open("/mnt/test+dir(1)/file", 3)));
    EXPECT_FALSE(f.admit(ev_open("/mnt/testXdir(1)/file", 4)));
}

/// The oracle for the literal mount-point matcher: an include regex
/// "^<mount>(/.*)?$" with the mount's metacharacters escaped.
FilterConfig regex_oracle(const std::string& mount) {
    std::string escaped;
    for (char ch : mount) {
        if (std::string("\\^$.|?*+()[]{}").find(ch) != std::string::npos)
            escaped += '\\';
        escaped += ch;
    }
    FilterConfig cfg;
    cfg.include.push_back("^" + escaped + "(/.*)?$");
    return cfg;
}

/// admit_row() verdicts for `events`, encoded to IOCT and batch-decoded.
std::vector<bool> row_verdicts(const FilterConfig& config,
                               const std::vector<TraceEvent>& events) {
    const std::string data = encode_trace(events);
    const auto scan = scan_ioct(data);
    TraceFilter f(config);
    const auto binding = f.bind(scan.strings);
    EventBatch batch;
    decode_batch(data, scan.strings, scan.events.data(), scan.events.size(),
                 batch);
    std::vector<bool> out;
    for (std::size_t r = 0; r < batch.rows.size(); ++r)
        out.push_back(f.admit_row(batch, r, binding));
    return out;
}

TEST(TraceFilter, PrefixFastPathMatchesRegexSemantics) {
    using namespace std::string_literals;
    const std::vector<std::string> mounts = {"/mnt/test", "/mnt/test/",
                                             "/mnt/test+dir(1)"};
    for (const auto& mount : mounts) {
        const std::vector<std::string> probes = {
            mount,           mount + "/",        mount + "/a/b",
            mount + "x",     mount + "//",       mount + "/..",
            mount + "/a\nb", mount + "\n",       mount + "/a\rb",
            mount + "\r",    mount + "/a\0b"s,   mount + "/\0"s,
            mount + "\0"s,   "/mnt/testx",       "/mnt/test",
            "/mnt/test/",    "/mnt/tes",         "/mnt",
            "//",            "/",                "..",
            "",              "relative/file",    "/home/x",
            "/mnt/test2/file", "/mnt/testXdir(1)/file",
        };
        std::vector<TraceEvent> events;
        for (const auto& path : probes)
            events.push_back(ev_open(path, 3 + std::int64_t(events.size())));
        TraceFilter oracle(regex_oracle(mount));
        TraceFilter prefix(FilterConfig::mount_point(mount));
        const auto rows = row_verdicts(FilterConfig::mount_point(mount), events);
        ASSERT_EQ(rows.size(), events.size());
        for (std::size_t i = 0; i < events.size(); ++i) {
            const bool want = oracle.admit(events[i]);
            EXPECT_EQ(prefix.admit(events[i]), want)
                << "mount " << mount << " path " << escape_string(probes[i]);
            EXPECT_EQ(rows[i], want)
                << "mount " << mount << " path " << escape_string(probes[i]);
        }
    }
    // libstdc++'s extended-regex '.' rejects NUL; so must the prefix.
    TraceFilter f(FilterConfig::mount_point("/mnt/test"));
    EXPECT_FALSE(f.admit(ev_open("/mnt/test/a\0b"s, 3)));
    EXPECT_TRUE(f.admit(ev_open("/mnt/test/a\nb", 4)));
}

TEST(TraceFilter, PrefixAndRegexCompose) {
    FilterConfig cfg = FilterConfig::mount_point("/mnt/test");
    cfg.include.push_back("^/media/other(/.*)?$");
    cfg.exclude.push_back("^/mnt/test/private(/.*)?$");
    TraceFilter f(cfg);
    EXPECT_TRUE(f.admit(ev_open("/mnt/test/f", 3)));
    EXPECT_TRUE(f.admit(ev_open("/media/other/f", 4)));
    EXPECT_FALSE(f.admit(ev_open("/mnt/test/private/f", 5)));
    EXPECT_FALSE(f.admit(ev_open("/elsewhere", 6)));
}

// ---- row/event admission equivalence --------------------------------------

void put_varint(std::string& out, std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) out.push_back(static_cast<char>(v | 0x80));
    out.push_back(static_cast<char>(v));
}

void put_u32le(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

/// IOCT encoder that interns each string under several ids: a string is
/// re-emitted as a fresh STR record one time in four, and each use picks
/// one of its ids at random.  BinaryWriter never duplicates entries, so
/// this is what exercises an id-keyed binding against name compares.
class DuplicatingEncoder {
  public:
    explicit DuplicatingEncoder(std::mt19937_64& rng)
        : rng_(rng), buf_(ioct_header()) {}

    void write(const TraceEvent& ev) {
        std::string payload(1, static_cast<char>(IoctTag::Event));
        put_varint(payload, ev.seq);
        put_varint(payload, ev.pid);
        put_varint(payload, ev.tid);
        put_varint(payload, id_for(ev.syscall));
        put_varint(payload, zigzag(ev.ret));
        put_varint(payload, ev.args.size());
        for (const auto& a : ev.args) {
            put_varint(payload, id_for(a.name));
            if (const auto* i = std::get_if<std::int64_t>(&a.value)) {
                payload.push_back(static_cast<char>(ArgType::Int));
                put_varint(payload, zigzag(*i));
            } else if (const auto* u = std::get_if<std::uint64_t>(&a.value)) {
                payload.push_back(static_cast<char>(ArgType::Uint));
                put_varint(payload, *u);
            } else {
                payload.push_back(static_cast<char>(ArgType::Str));
                put_varint(payload, id_for(std::get<std::string>(a.value)));
            }
        }
        put_u32le(buf_, static_cast<std::uint32_t>(payload.size()));
        buf_ += payload;
    }

    const std::string& data() const { return buf_; }

  private:
    static std::uint64_t zigzag(std::int64_t v) {
        return (static_cast<std::uint64_t>(v) << 1) ^
               static_cast<std::uint64_t>(v >> 63);
    }

    std::uint32_t id_for(const std::string& s) {
        auto& ids = ids_[s];
        if (ids.empty() || rng_() % 4 == 0) {
            put_u32le(buf_, static_cast<std::uint32_t>(1 + s.size()));
            buf_.push_back(static_cast<char>(IoctTag::Str));
            buf_ += s;
            ids.push_back(next_id_++);
        }
        return ids[rng_() % ids.size()];
    }

    std::mt19937_64& rng_;
    std::string buf_;
    std::map<std::string, std::vector<std::uint32_t>> ids_;
    std::uint32_t next_id_ = 0;
};

/// One random event from the shapes the filter distinguishes: open
/// family (incl. failed, openat2, creat), chdir/fchdir into and out of
/// scope, closes of watched and unwatched fds, fd-based calls, AT_FDCWD
/// and watched dfds, Str-typed fd/dfd, non-Str pathname, repeated names.
TraceEvent random_filter_event(std::mt19937_64& rng, std::uint64_t seq) {
    using namespace std::string_literals;
    static const std::vector<std::string> paths = {
        "/mnt/test",    "/mnt/test/a",   "/mnt/test/d/f", "/mnt/testx/f",
        "/mnt/test.bak", "/tmp/f",       "/",             "",
        "rel",          "d/f",           "..",            "/mnt/test/a\0b"s,
        "/mnt/test/\n", "//mnt/test",
    };
    static const char* const kOpen[] = {"open", "openat", "creat", "openat2"};
    static const char* const kFdCalls[] = {"read", "write", "lseek", "fsync"};
    auto pick_path = [&] { return paths[rng() % paths.size()]; };
    auto pick_fd = [&]() -> std::int64_t {
        return rng() % 8 == 0 ? 700 : 3 + static_cast<std::int64_t>(rng() % 6);
    };
    auto fd_value = [&](std::int64_t fd) -> ArgValue {
        switch (rng() % 5) {
            case 0: return std::uint64_t(fd);
            case 1: return std::to_string(fd);  // Str-typed: not an fd
            default: return fd;
        }
    };

    TraceEvent ev;
    ev.seq = seq;
    ev.pid = 1 + static_cast<std::uint32_t>(rng() % 3);
    ev.tid = ev.pid;
    const bool fails = rng() % 5 == 0;
    switch (rng() % 7) {
        case 0:
        case 1: {
            ev.syscall = kOpen[rng() % 4];
            if (ev.syscall == "openat" || ev.syscall == "openat2")
                ev.args.push_back(
                    {"dfd", rng() % 2 ? ArgValue{std::int64_t{-100}}
                                      : fd_value(pick_fd())});
            ev.args.push_back({"pathname", pick_path()});
            ev.args.push_back({"flags", std::uint64_t(rng() % 4)});
            ev.ret = fails ? -2 : pick_fd();
            break;
        }
        case 2:
            ev.syscall = "chdir";
            ev.args.push_back({"pathname", pick_path()});
            ev.ret = fails ? -2 : 0;
            break;
        case 3:
            ev.syscall = "fchdir";
            ev.args.push_back({"fd", fd_value(pick_fd())});
            ev.ret = fails ? -9 : 0;
            break;
        case 4:
            ev.syscall = "close";
            ev.args.push_back({"fd", fd_value(pick_fd())});
            ev.ret = fails ? -9 : 0;
            break;
        case 5:
            ev.syscall = kFdCalls[rng() % 4];
            ev.args.push_back({"fd", fd_value(pick_fd())});
            ev.args.push_back({"count", std::uint64_t(rng() % 4096)});
            ev.ret = fails ? -5 : 0;
            break;
        default:
            // A non-Str pathname, or a name repeated with other types:
            // the first occurrence of each name must decide.
            ev.syscall = rng() % 2 ? "mkdir" : "stat";
            if (rng() % 2) ev.args.push_back({"pathname", std::int64_t{7}});
            ev.args.push_back({"pathname", pick_path()});
            if (rng() % 2) ev.args.push_back({"fd", fd_value(pick_fd())});
            if (rng() % 2) ev.args.push_back({"fd", fd_value(pick_fd())});
            if (rng() % 2) ev.args.push_back({"dfd", fd_value(pick_fd())});
            ev.ret = fails ? -17 : 0;
            break;
    }
    return ev;
}

TEST(TraceFilter, AdmitRowMatchesAdmitOnMaterializedRows) {
    constexpr std::size_t kChunk = 97;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        std::mt19937_64 rng(seed);
        DuplicatingEncoder enc(rng);
        for (std::uint64_t i = 0; i < 3000; ++i)
            enc.write(random_filter_event(rng, i));
        const auto scan = scan_ioct(enc.data());
        ASSERT_EQ(scan.dropped, 0u);
        ASSERT_EQ(scan.events.size(), 3000u);

        const auto config = FilterConfig::mount_point("/mnt/test");
        TraceFilter by_row(config);
        TraceFilter by_event(config);
        const auto binding = by_row.bind(scan.strings);
        EventBatch batch;
        EventScratch scratch;
        std::size_t admitted = 0;
        for (std::size_t i = 0; i < scan.events.size(); i += kChunk) {
            batch.clear();
            decode_batch(enc.data(), scan.strings, scan.events.data() + i,
                         std::min(kChunk, scan.events.size() - i), batch);
            for (std::size_t r = 0; r < batch.rows.size(); ++r) {
                const bool row = by_row.admit_row(batch, r, binding);
                const TraceEvent& ev =
                    scratch.materialize(batch, r, scan.strings);
                const bool event = by_event.admit(ev);
                ASSERT_EQ(row, event)
                    << "seed " << seed << " row " << i + r << ": "
                    << format_event(ev);
                ASSERT_EQ(by_row.watched_fd_count(),
                          by_event.watched_fd_count())
                    << "seed " << seed << " row " << i + r << ": "
                    << format_event(ev);
                admitted += row;
            }
        }
        // The stream must exercise both verdicts, not trivially agree.
        EXPECT_GT(admitted, 300u) << "seed " << seed;
        EXPECT_LT(admitted, 2700u) << "seed " << seed;
    }
}

}  // namespace
}  // namespace iocov::trace
