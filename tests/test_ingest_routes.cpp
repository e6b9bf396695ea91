// Entry-point equivalence matrix: one seeded multi-pid trace, split
// into three files whose fds, cwds and pids cross the file boundaries,
// analyzed through every ingest route the library offers.  Every file
// is one shard from empty filter state (core/iocov.hpp), so every
// route must produce the same snapshot bytes: text and IOCT, serial
// and parallel, file by file and as a directory, pushed to a live
// accumulator, merged from per-file snapshots, and re-encoded.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/iocov.hpp"
#include "core/live.hpp"
#include "core/snapshot.hpp"
#include "trace/binary_format.hpp"
#include "trace/text_format.hpp"

namespace iocov::core {
namespace {

namespace fs = std::filesystem;

using trace::ArgValue;
using trace::TraceEvent;

/// A seeded interleaving of several pids doing opens inside and outside
/// /mnt/test (absolute, relative and dfd-relative), fd calls on
/// whatever they hold, chdir/fchdir and closes.  Nothing is closed at
/// a file boundary, so splitting the stream leaves live fds and cwds
/// behind for the next file.
std::vector<TraceEvent> seeded_trace(std::uint64_t seed, int n) {
    std::mt19937_64 rng(seed);
    std::vector<TraceEvent> events;
    for (int i = 0; i < n; ++i) {
        TraceEvent ev;
        ev.seq = static_cast<std::uint64_t>(i);
        ev.pid = 100 + static_cast<std::uint32_t>(rng() % 5);
        ev.tid = ev.pid;
        const std::int64_t fd = 3 + static_cast<std::int64_t>(rng() % 5);
        const bool inside = rng() % 3 != 0;
        switch (rng() % 8) {
            case 0:
                ev.syscall = "open";
                ev.args = {{"pathname",
                            ArgValue{std::string(inside ? "/mnt/test/f"
                                                        : "/tmp/f") +
                                     std::to_string(rng() % 9)}},
                           {"flags", ArgValue{std::uint64_t{rng() % 4}}},
                           {"mode", ArgValue{std::uint64_t{0644}}}};
                ev.ret = rng() % 8 ? fd : -2;
                break;
            case 1:
                ev.syscall = "openat";
                ev.args = {{"dfd", ArgValue{rng() % 2 ? std::int64_t{-100}
                                                      : fd}},
                           {"pathname",
                            ArgValue{"rel" + std::to_string(rng() % 5)}},
                           {"flags", ArgValue{std::uint64_t{0101}}},
                           {"mode", ArgValue{std::uint64_t{0600}}}};
                ev.ret = 3 + static_cast<std::int64_t>(rng() % 5);
                break;
            case 2:
            case 3:
                ev.syscall = rng() % 2 ? "write" : "read";
                ev.args = {{"fd", ArgValue{fd}},
                           {"count",
                            ArgValue{std::uint64_t{1} << (rng() % 16)}}};
                ev.ret = static_cast<std::int64_t>(rng() % 5000);
                break;
            case 4:
                ev.syscall = "lseek";
                ev.args = {{"fd", ArgValue{fd}},
                           {"offset", ArgValue{std::int64_t{0}}},
                           {"whence", ArgValue{std::uint64_t{rng() % 3}}}};
                ev.ret = 0;
                break;
            case 5:
                ev.syscall = "chdir";
                ev.args = {{"pathname",
                            ArgValue{std::string(inside ? "/mnt/test/d"
                                                        : "/tmp")}}};
                ev.ret = 0;
                break;
            case 6:
                ev.syscall = rng() % 4 ? "close" : "fchdir";
                ev.args = {{"fd", ArgValue{fd}}};
                ev.ret = 0;
                break;
            default:
                ev.syscall = "mkdir";
                ev.args = {{"pathname",
                            ArgValue{"sub" + std::to_string(rng() % 4)}},
                           {"mode", ArgValue{std::uint64_t{0755}}}};
                ev.ret = rng() % 3 ? 0 : -17;
                break;
        }
        events.push_back(std::move(ev));
    }
    return events;
}

std::string to_text(const std::vector<TraceEvent>& events) {
    std::string text;
    for (const auto& ev : events) text += trace::format_event(ev) + "\n";
    return text;
}

/// The snapshot bytes a route is judged by.  Wall time, and the
/// IngestStats fields that describe the route rather than the trace —
/// input encoding size, files opened, lanes used, warm-up allocations —
/// are zeroed; report, filtered and dropped counts and the decoded
/// event count stay.
std::string judged(IOCovSnapshot snap) {
    snap.ingest.seconds = 0;
    snap.ingest.bytes = 0;
    snap.ingest.files = 0;
    snap.ingest.threads = 1;
    snap.ingest.hot_loop_allocs = 0;
    return encode_snapshot(snap);
}

class IngestRoutes : public ::testing::Test {
  protected:
    void SetUp() override {
        const auto events = seeded_trace(20261018, 3000);
        const std::size_t third = events.size() / 3;
        for (std::size_t f = 0; f < 3; ++f) {
            const auto begin = events.begin() + static_cast<long>(f * third);
            const auto end = f == 2 ? events.end()
                                    : begin + static_cast<long>(third);
            parts_.emplace_back(begin, end);
            texts_.push_back(to_text(parts_.back()));
            iocts_.push_back(trace::encode_trace(parts_.back()));
        }
        dir_ = fs::temp_directory_path() /
               ("iocov_ingest_routes_" + std::to_string(::getpid()));
        fs::create_directories(dir_);
        for (std::size_t f = 0; f < 3; ++f) {
            paths_.push_back((dir_ / ("part" + std::to_string(f) + ".ioct"))
                                 .string());
            std::ofstream out(paths_.back(), std::ios::binary);
            out << iocts_[f];
        }
    }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    std::vector<std::vector<TraceEvent>> parts_;
    std::vector<std::string> texts_;
    std::vector<std::string> iocts_;
    std::vector<std::string> paths_;
    fs::path dir_;
};

TEST_F(IngestRoutes, EveryRouteProducesTheSameSnapshot) {
    using Route = std::function<IOCovSnapshot()>;
    const auto per_part = [&](const std::function<void(IOCov&, std::size_t)>&
                                  step) {
        return [&, step] {
            IOCov iocov;
            for (std::size_t f = 0; f < 3; ++f) step(iocov, f);
            return iocov.snapshot();
        };
    };
    const std::vector<std::pair<std::string, Route>> routes = {
        // Reference: each file analyzed alone, snapshots merged.
        {"per-file snapshot merge",
         [&] {
             IOCovSnapshot merged;
             for (const auto& ioct : iocts_) {
                 IOCov one;
                 one.consume_binary(ioct);
                 merged.merge(one.snapshot());
             }
             return merged;
         }},
        {"text serial", per_part([&](IOCov& c, std::size_t f) {
             std::istringstream in(texts_[f]);
             c.consume_text(in);
         })},
        {"text parallel", per_part([&](IOCov& c, std::size_t f) {
             std::istringstream in(texts_[f]);
             c.consume_text_parallel(in, 4);
         })},
        {"IOCT serial", per_part([&](IOCov& c, std::size_t f) {
             c.consume_binary(iocts_[f]);
         })},
        {"IOCT parallel", per_part([&](IOCov& c, std::size_t f) {
             c.consume_binary_parallel(iocts_[f], 4);
         })},
        {"consume_binary_file calls, 1 thread",
         per_part([&](IOCov& c, std::size_t f) {
             ASSERT_TRUE(c.consume_binary_file(paths_[f], 1).has_value());
         })},
        {"consume_binary_file calls, 4 threads",
         per_part([&](IOCov& c, std::size_t f) {
             ASSERT_TRUE(c.consume_binary_file(paths_[f], 4).has_value());
         })},
        {"consume_binary_dir, 1 thread",
         [&] {
             IOCov iocov;
             EXPECT_TRUE(
                 iocov.consume_binary_dir(dir_.string(), 1).has_value());
             return iocov.snapshot();
         }},
        {"consume_binary_dir, 4 threads",
         [&] {
             IOCov iocov;
             EXPECT_TRUE(
                 iocov.consume_binary_dir(dir_.string(), 4).has_value());
             return iocov.snapshot();
         }},
        {"LiveCoverage push per file",
         [&] {
             LiveCoverage live;
             for (std::size_t f = 0; f < 3; ++f)
                 live.push("part" + std::to_string(f), iocts_[f]);
             return live.read()->state;
         }},
        {"decode_trace -> encode_trace re-encoded IOCT",
         per_part([&](IOCov& c, std::size_t f) {
             c.consume_binary(
                 trace::encode_trace(trace::decode_trace(iocts_[f])));
         })},
    };

    const std::string want = judged(routes.front().second());
    const IOCovSnapshot reference = routes.front().second();
    ASSERT_GT(reference.report.events_tracked, 0u);
    ASSERT_GT(reference.filtered_out, 0u);
    for (std::size_t r = 1; r < routes.size(); ++r) {
        const IOCovSnapshot got = routes[r].second();
        if (judged(got) != want) {
            ADD_FAILURE() << "first diverging route: " << routes[r].first
                          << " (events tracked " << got.report.events_tracked
                          << " vs " << reference.report.events_tracked
                          << ", filtered " << got.filtered_out << " vs "
                          << reference.filtered_out << ")";
            break;
        }
    }
}

TEST_F(IngestRoutes, FixtureCarriesFilterStateAcrossFileBoundaries) {
    // Streaming all three parts through one persistent filter must see
    // a different trace than three shards: otherwise the matrix above
    // could not tell the shard rule from carried state.
    IOCov streamed;
    for (const auto& part : parts_) streamed.consume_all(part);
    IOCov sharded;
    ASSERT_TRUE(sharded.consume_binary_dir(dir_.string(), 1).has_value());
    EXPECT_NE(streamed.report(), sharded.report());
}

}  // namespace
}  // namespace iocov::core
