// Parallel sharded analysis: merge algebra, shard/serial equivalence,
// the work-stealing executor, and the end-to-end parallel text pipeline.
//
// The hard guarantee under test: for a fresh IOCov, consume_text and
// consume_text_parallel produce bit-identical CoverageReports.  That
// holds because (a) the trace filter's state is strictly per-pid, so
// pid-sharding preserves every filter decision, and (b) histogram row
// order is canonical (declared block + sorted dynamic tail), so the
// shard-merge order cannot leak into the report.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "abi/fcntl.hpp"
#include "abi/seek.hpp"
#include "core/coverage.hpp"
#include "core/iocov.hpp"
#include "exec/thread_pool.hpp"
#include "syscall/kernel.hpp"
#include "syscall/process.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "trace/binary_format.hpp"
#include "trace/sink.hpp"
#include "trace/text_format.hpp"
#include "vfs/filesystem.hpp"

namespace iocov::core {
namespace {

// Runs the xfstests simulator and returns the raw (unfiltered) trace.
std::vector<trace::TraceEvent> generator_trace(double scale) {
    vfs::FileSystem fs(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(fs, "/mnt/test");
    trace::TraceBuffer buffer;
    syscall::Kernel kernel(fs, &buffer);
    testers::run_xfstests(kernel, fx, scale, 42);
    return buffer.take_events();
}

CoverageReport analyze(const std::vector<trace::TraceEvent>& events) {
    Analyzer a;
    for (const auto& ev : events) a.consume(ev);
    return a.take_report();
}

// Thirds of the generator trace give three reports with overlapping
// but distinct partition sets — the interesting case for merge.
std::vector<CoverageReport> three_slices() {
    const auto events = generator_trace(0.02);
    const auto third = events.size() / 3;
    std::vector<CoverageReport> out;
    for (int i = 0; i < 3; ++i) {
        const auto begin = events.begin() + static_cast<long>(i * third);
        const auto end =
            i == 2 ? events.end()
                   : events.begin() + static_cast<long>((i + 1) * third);
        out.push_back(analyze({begin, end}));
    }
    return out;
}

// ---- merge algebra ---------------------------------------------------------

TEST(Merge, Commutative) {
    const auto s = three_slices();
    auto ab = s[0];
    ab.merge(s[1]);
    auto ba = s[1];
    ba.merge(s[0]);
    EXPECT_EQ(ab, ba);
}

TEST(Merge, Associative) {
    const auto s = three_slices();
    auto left = s[0];  // (a + b) + c
    left.merge(s[1]);
    left.merge(s[2]);
    auto bc = s[1];  // a + (b + c)
    bc.merge(s[2]);
    auto right = s[0];
    right.merge(bc);
    EXPECT_EQ(left, right);
}

TEST(Merge, EmptyReportIsIdentity) {
    const auto s = three_slices();
    auto merged = s[0];
    merged.merge(Analyzer().report());
    EXPECT_EQ(merged, s[0]);
    auto onto_empty = Analyzer().take_report();
    onto_empty.merge(s[0]);
    EXPECT_EQ(onto_empty, s[0]);
}

// ---- sharded analysis == serial analysis -----------------------------------

TEST(Sharding, NWayRoundRobinEqualsSerial) {
    const auto events = generator_trace(0.02);
    ASSERT_GT(events.size(), 1000u);
    const auto serial = analyze(events);

    constexpr std::size_t kShards = 4;
    std::vector<Analyzer> shards(kShards);
    for (std::size_t i = 0; i < events.size(); ++i)
        shards[i % kShards].consume(events[i]);

    // Merge in a deliberately scrambled order: row order is canonical,
    // so the result must not depend on it.
    auto merged = Analyzer().take_report();
    for (const std::size_t s : {2u, 0u, 3u, 1u})
        merged.merge(shards[s].report());
    EXPECT_EQ(merged, serial);
    EXPECT_EQ(merged.events_seen, serial.events_seen);
    EXPECT_EQ(merged.events_tracked, serial.events_tracked);
}

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
    exec::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    exec::parallel_for_stealing(
        pool, std::vector<std::uint64_t>(hits.size(), 1),
        [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
    exec::ThreadPool pool(2);
    std::vector<std::atomic<int>> hits(64);
    EXPECT_THROW(exec::parallel_for_stealing(
                     pool, std::vector<std::uint64_t>(hits.size(), 1),
                     [&](std::size_t i) {
                         hits[i].fetch_add(1);
                         if (i == 17) throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // Pool must still be usable after a failed batch.
    std::atomic<int> n{0};
    exec::parallel_for_stealing(pool, std::vector<std::uint64_t>(8, 1),
                                [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPool, OneLaneIsAPlainLoopWithTheSameContract) {
    // n_threads 1 runs on the calling thread, in index order, and still
    // attempts every index before rethrowing the first failure.
    std::vector<std::size_t> order;
    EXPECT_THROW(exec::parallel_for_stealing(
                     1u, std::vector<std::uint64_t>{9, 1, 5, 1},
                     [&](std::size_t i) {
                         order.push_back(i);
                         if (i == 1) throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
    // More lanes than items: every item still runs exactly once.
    std::vector<std::atomic<int>> hits(3);
    exec::parallel_for_stealing(8u, std::vector<std::uint64_t>(3, 1),
                                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---- streaming executor (exec::parallel_stream) ----------------------------

/// A producer of `n` jobs: job i bumps hits[i] and then runs `extra(i)`.
std::function<std::function<void()>()> counting_producer(
    std::vector<std::atomic<int>>& hits, std::size_t& produced,
    std::function<void(std::size_t)> extra = [](std::size_t) {}) {
    return [&hits, &produced, extra]() -> std::function<void()> {
        if (produced == hits.size()) return {};
        const std::size_t i = produced++;
        return [&hits, extra, i] {
            hits[i].fetch_add(1);
            extra(i);
        };
    };
}

TEST(ParallelStream, RunsEveryProducedJobExactlyOnce) {
    for (const std::size_t bound : {std::size_t{1}, std::size_t{3},
                                    std::size_t{64}}) {
        std::vector<std::atomic<int>> hits(1000);
        std::size_t produced = 0;
        exec::parallel_stream(4u, bound, counting_producer(hits, produced));
        EXPECT_EQ(produced, hits.size());
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "job " << i << ", bound " << bound;
    }
    // An empty stream returns at once; a bound of 0 means 1.
    std::vector<std::atomic<int>> none;
    std::size_t produced = 0;
    exec::parallel_stream(4u, 0, counting_producer(none, produced));
    EXPECT_EQ(produced, 0u);
}

TEST(ParallelStream, NeverHasMoreThanTheBoundInFlight) {
    // Jobs outlast production, so the producer runs into the bound; a
    // job leaves the count just before it returns, so the count seen
    // here never lags the executor's own.
    constexpr std::size_t kBound = 3;
    std::mutex mu;
    std::size_t in_flight = 0, peak = 0, produced = 0;
    exec::parallel_stream(4u, kBound, [&]() -> std::function<void()> {
        if (produced == 200) return {};
        ++produced;
        {
            std::lock_guard<std::mutex> lock(mu);
            peak = std::max(peak, ++in_flight);
        }
        return [&] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            std::lock_guard<std::mutex> lock(mu);
            --in_flight;
        };
    });
    EXPECT_EQ(in_flight, 0u);
    EXPECT_EQ(peak, kBound);
}

TEST(ParallelStream, RethrowsTheFirstErrorAfterEveryJobFinished) {
    std::vector<std::atomic<int>> hits(64);
    std::size_t produced = 0;
    EXPECT_THROW(exec::parallel_stream(
                     3u, 4,
                     counting_producer(hits, produced,
                                       [](std::size_t i) {
                                           if (i == 17)
                                               throw std::runtime_error("boom");
                                       })),
                 std::runtime_error);
    // A failed job neither stops production nor skips another job.
    EXPECT_EQ(produced, hits.size());
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "job " << i;

    // A producer that throws ends the stream; what it produced still
    // runs, and its error is the one rethrown.
    std::atomic<int> ran{0};
    int calls = 0;
    EXPECT_THROW(exec::parallel_stream(3u, 2,
                                       [&]() -> std::function<void()> {
                                           if (++calls == 6)
                                               throw std::logic_error("eof");
                                           return [&] { ran.fetch_add(1); };
                                       }),
                 std::logic_error);
    EXPECT_EQ(ran.load(), 5);
}

TEST(ParallelStream, OneThreadRunsEachJobInlineRightAfterProducingIt) {
    const auto caller = std::this_thread::get_id();
    std::vector<std::string> log;
    int next = 0;
    EXPECT_THROW(
        exec::parallel_stream(1u, 8, [&]() -> std::function<void()> {
            if (next == 4) return {};
            const int i = next++;
            log.push_back("produce " + std::to_string(i));
            return [&log, caller, i] {
                EXPECT_EQ(std::this_thread::get_id(), caller);
                log.push_back("run " + std::to_string(i));
                if (i == 1) throw std::runtime_error("boom");
            };
        }),
        std::runtime_error);
    EXPECT_EQ(log, (std::vector<std::string>{"produce 0", "run 0",
                                             "produce 1", "run 1",
                                             "produce 2", "run 2",
                                             "produce 3", "run 3"}));
}

// ---- pid placement (exec::lpt_place) ---------------------------------------

TEST(WorkStealing, PlacementLeavesNoLaneEmptyForAllEvenPids) {
    // 16 even pids with skewed row counts: `pid % 4` would put them all
    // on lanes 0 and 2.  Placement by count must use every lane.
    std::vector<std::uint32_t> pids;
    std::vector<std::uint64_t> counts;
    for (std::uint32_t k = 0; k < 16; ++k) {
        pids.push_back(2 * k + 100);
        counts.push_back(1000 + (k * 7919) % 5000);
    }
    std::vector<bool> mod_used(4, false);
    for (const auto pid : pids) mod_used[pid % 4] = true;
    EXPECT_FALSE(mod_used[1] || mod_used[3]);

    const auto lanes = exec::lpt_place(counts, 4);
    std::vector<std::uint64_t> load(4, 0);
    for (std::size_t i = 0; i < lanes.size(); ++i) load[lanes[i]] += counts[i];
    for (unsigned l = 0; l < 4; ++l) EXPECT_GT(load[l], 0u) << "lane " << l;
}

TEST(WorkStealing, PlacementIsDeterministic) {
    std::vector<std::uint64_t> weights;
    for (std::uint64_t i = 0; i < 40; ++i) weights.push_back((i * 37) % 11);
    const auto first = exec::lpt_place(weights, 4);
    for (int rep = 0; rep < 5; ++rep)
        EXPECT_EQ(exec::lpt_place(weights, 4), first);
    // Equal weights deal round-robin in index order.
    EXPECT_EQ(exec::lpt_place(std::vector<std::uint64_t>(6, 5), 4),
              (std::vector<unsigned>{0, 1, 2, 3, 0, 1}));
}

TEST(WorkStealing, PlacementGivesEveryPidExactlyOneLaneAndBalances) {
    std::mt19937_64 rng(7);
    for (unsigned lanes = 1; lanes <= 8; ++lanes) {
        for (std::size_t n = 0; n <= 24; ++n) {
            std::vector<std::uint64_t> weights(n);
            for (auto& w : weights) w = rng() % 1000;
            const auto placed = exec::lpt_place(weights, lanes);
            ASSERT_EQ(placed.size(), n);
            std::vector<std::uint64_t> load(lanes, 0);
            std::uint64_t heaviest = 0;
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_LT(placed[i], lanes);
                const std::uint64_t w = std::max<std::uint64_t>(weights[i], 1);
                load[placed[i]] += w;
                heaviest = std::max(heaviest, w);
            }
            // Greedy placement bound: the fullest lane exceeds the
            // emptiest by at most one item.
            const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
            EXPECT_LE(*hi, *lo + heaviest) << lanes << " lanes, " << n;
            if (n >= lanes) {
                EXPECT_GT(*lo, 0u) << lanes << " lanes, " << n;
            }
        }
    }
}

// ---- work stealing ---------------------------------------------------------

TEST(WorkStealing, VisitsEveryItemExactlyOnce) {
    exec::ThreadPool pool(4);
    // Heavily skewed weights: one giant item plus a long tail, so the
    // initial LPT deal is unbalanced and stealing actually happens.
    std::vector<std::uint64_t> weights;
    for (std::size_t i = 0; i < 200; ++i)
        weights.push_back(i == 0 ? 1'000'000 : i % 7);
    std::vector<std::atomic<int>> hits(weights.size());
    exec::parallel_for_stealing(pool, weights, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "item " << i;
}

TEST(WorkStealing, HandlesFewerItemsThanLanesAndEmptyInput) {
    exec::ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    exec::parallel_for_stealing(pool, {5, 0, 9}, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // Empty input is a no-op, not a crash.
    exec::parallel_for_stealing(pool, {}, [](std::size_t) { FAIL(); });
}

TEST(WorkStealing, ExceptionPropagatesAfterEveryItemWasAttempted) {
    exec::ThreadPool pool(4);
    std::vector<std::uint64_t> weights(64, 1);
    std::vector<std::atomic<int>> hits(weights.size());
    EXPECT_THROW(
        exec::parallel_for_stealing(pool, weights,
                                    [&](std::size_t i) {
                                        hits[i].fetch_add(1);
                                        if (i == 17)
                                            throw std::runtime_error("boom");
                                    }),
        std::runtime_error);
    // A failed item never silently skips the rest of the batch.
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "item " << i;
    // Pool must still be usable afterwards.
    std::atomic<int> n{0};
    exec::parallel_for_stealing(pool, {1, 2, 3},
                                [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 3);
}

// ---- end-to-end: parallel consume_text == serial consume_text --------------

// Interleaves several simulated processes round-robin into one text
// trace.  The built-in tester simulators only use two pids, so a
// hand-rolled workload is needed to exercise pid-sharding for real.
// Includes out-of-scope opens and failing calls so the stateful filter
// has actual decisions to make.
std::string multi_pid_text_trace(std::size_t min_events) {
    vfs::FileSystem fs(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(fs, "/mnt/test");
    std::ostringstream os;
    trace::TextSink sink(os);
    syscall::Kernel kernel(fs, &sink);

    std::vector<syscall::Process> procs;
    for (const std::uint32_t pid : {11u, 12u, 13u, 14u, 15u, 16u, 17u})
        procs.push_back(
            kernel.make_process(pid, vfs::Credentials::user(1000, 1000)));

    std::size_t emitted = 0;
    for (std::size_t round = 0; emitted < min_events; ++round) {
        for (std::size_t p = 0; p < procs.size(); ++p) {
            auto& proc = procs[p];
            const auto salt = round * 31 + p * 7;
            const std::string path = fx.scratch + "/f" +
                                     std::to_string(p) + "_" +
                                     std::to_string(round % 13);
            const std::uint32_t flags =
                salt % 3 == 0   ? abi::O_RDWR | abi::O_CREAT
                : salt % 3 == 1 ? abi::O_WRONLY | abi::O_CREAT | abi::O_APPEND
                                : abi::O_RDONLY | abi::O_CREAT;
            const auto fd =
                static_cast<int>(proc.sys_open(path.c_str(), flags, 0644));
            proc.sys_write(fd, syscall::WriteSrc::pattern(
                                   std::uint64_t{1} << (salt % 14),
                                   std::byte{0x5a}));
            proc.sys_lseek(fd, 0, salt % 4 == 0 ? abi::SEEK_END_
                                                : abi::SEEK_SET_);
            proc.sys_read(fd, syscall::ReadDst::discard(1u << (salt % 10)));
            proc.sys_close(fd);
            emitted += 5;
            if (salt % 5 == 0) {
                // Out of scope: the filter must drop it on every path.
                proc.sys_open("/outside/the/mount", abi::O_RDONLY);
                ++emitted;
            }
            if (salt % 11 == 0) {
                proc.sys_mkdir((path + ".d").c_str(), 0755);
                proc.sys_chmod(path.c_str(), salt % 2 ? 0600 : 0444);
                emitted += 2;
            }
        }
    }
    return os.str();
}

TEST(ParallelPipeline, ParallelConsumeTextMatchesSerialOn100kEvents) {
    const auto text = multi_pid_text_trace(100000);
    ASSERT_GE(static_cast<std::size_t>(
                  std::count(text.begin(), text.end(), '\n')),
              100000u);

    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    IOCov serial(config);
    std::istringstream serial_in(text);
    const auto serial_dropped = serial.consume_text(serial_in);

    IOCov parallel(config);
    std::istringstream parallel_in(text);
    const auto parallel_dropped =
        parallel.consume_text_parallel(parallel_in, 4);

    EXPECT_EQ(serial_dropped, parallel_dropped);
    EXPECT_EQ(parallel.events_filtered_out(), serial.events_filtered_out());
    EXPECT_GT(serial.events_filtered_out(), 0u);  // filter actually ran
    // The headline guarantee: bit-identical reports.
    EXPECT_EQ(parallel.report(), serial.report());
}

TEST(ParallelPipeline, ThreadCountDoesNotChangeTheReport) {
    const auto text = multi_pid_text_trace(5000);
    const auto config = trace::FilterConfig::mount_point("/mnt/test");

    IOCov serial(config);
    std::istringstream in1(text);
    serial.consume_text(in1);

    for (const unsigned n : {2u, 3u, 8u}) {
        IOCov parallel(config);
        std::istringstream in(text);
        parallel.consume_text_parallel(in, n);
        EXPECT_EQ(parallel.report(), serial.report()) << n << " threads";
    }
}

TEST(ParallelPipeline, OneThreadFallsBackToSerialPath) {
    const auto text = multi_pid_text_trace(2000);
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    IOCov serial(config), one(config);
    std::istringstream in1(text), in2(text);
    EXPECT_EQ(serial.consume_text(in1), one.consume_text_parallel(in2, 1));
    EXPECT_EQ(one.report(), serial.report());
}

TEST(ParallelPipeline, MalformedLinesCountedAcrossChunks) {
    std::string text = multi_pid_text_trace(2000);
    // Sprinkle malformed lines at both ends and the middle so they land
    // in different parse chunks.
    text.insert(0, "this is not a trace line\n");
    text.insert(text.size() / 2, "\nneither is this\n");
    text += "garbage at the end\n";
    // (The middle insertion may split an event line in two; both sides
    // see the same bytes, so the drop counts still have to agree.)
    IOCov serial(trace::FilterConfig::mount_point("/mnt/test"));
    IOCov parallel(trace::FilterConfig::mount_point("/mnt/test"));
    std::istringstream in1(text), in2(text);
    const auto d1 = serial.consume_text(in1);
    const auto d2 = parallel.consume_text_parallel(in2, 4);
    EXPECT_EQ(d1, d2);
    EXPECT_GE(d1, 3u);
    EXPECT_EQ(parallel.report(), serial.report());
}

// ---- streamed text blocks == serial parse ----------------------------------
//
// consume_text* read the stream in LineBlockReader blocks of a fixed
// size and parse each on its own, so these inputs span many blocks.

constexpr std::size_t kBlock = trace::LineBlockReader::kBlockBytes;

/// A stream that cannot seek and hands out at most 7 bytes per read,
/// however many are asked for, like a slow pipe.
class ShortReadBuf : public std::streambuf {
  public:
    explicit ShortReadBuf(const std::string& bytes) : bytes_(bytes) {}

  protected:
    std::streamsize xsgetn(char* out, std::streamsize n) override {
        const auto got = static_cast<std::streamsize>(std::min<std::size_t>(
            {7, static_cast<std::size_t>(n), bytes_.size() - pos_}));
        std::memcpy(out, bytes_.data() + pos_, static_cast<std::size_t>(got));
        pos_ += static_cast<std::size_t>(got);
        return got;
    }
    int_type underflow() override {
        if (pos_ == bytes_.size()) return traits_type::eof();
        one_ = bytes_[pos_++];
        setg(&one_, &one_, &one_ + 1);
        return traits_type::to_int_type(one_);
    }

  private:
    const std::string& bytes_;
    std::size_t pos_ = 0;
    char one_ = 0;
};

/// (offset, size) of each block the reader cuts `text` into.
std::vector<std::pair<std::size_t, std::size_t>> block_spans(
    const std::string& text) {
    std::istringstream in(text);
    trace::LineBlockReader reader(in);
    trace::LineBlock block;
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    while (reader.next(block))
        spans.emplace_back(static_cast<std::size_t>(block.offset), block.size);
    return spans;
}

TEST(TextBlocks, ReaderCutsWholeLinesAndReproducesTheStream) {
    std::string short_lines;
    for (int i = 0; short_lines.size() < 3 * kBlock; ++i)
        short_lines += "line " + std::to_string(i) + "\n";
    const std::string long_line(3 * kBlock, 'L');
    for (const std::string& bytes :
         {std::string(), std::string("no final newline"),
          std::string("a\nb\n"), std::string("nul\0byte\n\n", 11),
          std::string(kBlock + 1, '\n'), short_lines + "tail",
          short_lines + long_line + "\n" + short_lines,
          "x\n" + long_line}) {
        for (const bool short_reads : {false, true}) {
            std::istringstream seekable(bytes);
            ShortReadBuf pipe_buf(bytes);
            std::istream pipe(&pipe_buf);
            trace::LineBlockReader reader(short_reads ? pipe : seekable);
            trace::LineBlock block;  // one buffer, reused for every block
            std::vector<std::string> blocks;
            std::string joined;
            while (reader.next(block)) {
                ASSERT_GT(block.size, 0u);
                ASSERT_EQ(block.offset, joined.size());
                blocks.emplace_back(block.text());
                joined += block.text();
            }
            ASSERT_EQ(joined, bytes);
            for (std::size_t b = 0; b + 1 < blocks.size(); ++b) {
                // Whole lines, and cut only where the next line would
                // not have fit.
                ASSERT_EQ(blocks[b].back(), '\n') << "block " << b;
                const std::size_t next_line =
                    std::min(blocks[b + 1].find('\n'), blocks[b + 1].size());
                EXPECT_GE(blocks[b].size() + next_line + 1, kBlock)
                    << "block " << b;
            }
            EXPECT_FALSE(reader.next(block));  // the end stays the end
        }
    }
}

/// Makes the first and the last line of every block malformed with
/// same-length edits, so no block boundary moves.
std::string break_block_edges(std::string text) {
    for (const auto& [offset, size] : block_spans(text)) {
        if (text[offset] != '\n') text[offset] = '!';
        std::size_t last = offset + size - 1;
        if (text[last] == '\n' && last > offset) --last;
        if (text[last] != '\n') text[last] = '~';
    }
    return text;
}

/// An openat by pid 40 of a path needing every escape, then writes to
/// the fd it returns.
std::string escaped_path_lines(std::uint64_t seq) {
    trace::TraceEvent open;
    open.seq = seq;
    open.pid = open.tid = 40;
    open.syscall = "openat";
    open.args = {{"dfd", trace::ArgValue{std::int64_t{-100}}},
                 {"pathname",
                  trace::ArgValue{std::string("/mnt/test/we\"ird\\na\tme\n")}},
                 {"flags", trace::ArgValue{std::uint64_t{0102}}},
                 {"mode", trace::ArgValue{std::uint64_t{0600}}}};
    open.ret = 900;
    trace::TraceEvent write;
    write.seq = seq + 1;
    write.pid = write.tid = 40;
    write.syscall = "write";
    write.args = {{"fd", trace::ArgValue{std::int64_t{900}}},
                  {"buf", trace::ArgValue{std::uint64_t{0x1000}}},
                  {"count", trace::ArgValue{std::uint64_t{seq % 5000}}}};
    write.ret = static_cast<std::int64_t>(seq % 5000);
    return trace::format_event(open) + "\n" + trace::format_event(write) +
           "\n";
}

/// multi_pid_text_trace cut to at least `min_bytes`, with the escaped
/// pid-40 lines first (block 0) and again after every ~1500 lines.
std::string multi_block_trace(std::size_t min_bytes) {
    const std::string base = multi_pid_text_trace(min_bytes / 60);
    std::string text = escaped_path_lines(1);
    std::size_t lines = 0;
    for (std::size_t at = 0; at < base.size() && text.size() < min_bytes;) {
        const std::size_t eol = base.find('\n', at);
        text.append(base, at, eol + 1 - at);
        at = eol + 1;
        if (++lines % 1500 == 0) text += escaped_path_lines(lines);
    }
    return text;
}

/// consume_text_parallel at 1, 2 and 4 threads against the serial
/// reference: parse_stream, then the TraceEvent route (consume_all) —
/// the report, drops, filtered count and every diagnostic — and
/// consume_binary on the IOCT twin of the parsed events.
void expect_blocks_match_serial(const std::string& text,
                                bool short_reads = false) {
    const auto config = trace::FilterConfig::mount_point("/mnt/test");
    std::istringstream ref_in(text);
    std::size_t ref_dropped = 0;
    trace::ParseDiagnostics ref_diags;
    const auto events = trace::parse_stream(ref_in, &ref_dropped, &ref_diags);
    IOCov reference(config);
    reference.consume_all(events);
    IOCov twin(config);
    EXPECT_EQ(twin.consume_binary(trace::encode_trace(events)), 0u);
    ASSERT_EQ(twin.report(), reference.report());
    ASSERT_GT(reference.report().events_tracked, 0u);

    for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " thread(s)");
        IOCov iocov(config);
        std::istringstream seekable(text);
        ShortReadBuf pipe_buf(text);
        std::istream pipe(&pipe_buf);
        EXPECT_EQ(iocov.consume_text_parallel(short_reads ? pipe : seekable,
                                              threads),
                  ref_dropped);
        EXPECT_EQ(iocov.report(), reference.report());
        EXPECT_EQ(iocov.events_filtered_out(), reference.events_filtered_out());
        EXPECT_EQ(iocov.ingest_stats().bytes, text.size());
        const auto& got = iocov.diagnostics();
        EXPECT_EQ(got.total(), ref_diags.total());
        ASSERT_EQ(got.entries().size(), ref_diags.entries().size());
        for (std::size_t d = 0; d < got.entries().size(); ++d) {
            const auto& x = got.entries()[d];
            const auto& y = ref_diags.entries()[d];
            EXPECT_TRUE(x.line == y.line && x.offset == y.offset &&
                        x.reason == y.reason && x.excerpt == y.excerpt)
                << "diagnostic " << d << ": line " << x.line << " vs "
                << y.line << ", offset " << x.offset << " vs " << y.offset
                << ", " << x.reason << " vs " << y.reason;
        }
    }
}

TEST(TextBlocks, MalformedFirstAndLastLinesOfEveryBlock) {
    const std::string text = break_block_edges(multi_block_trace(6 * kBlock));
    const auto spans = block_spans(text);
    ASSERT_GE(spans.size(), 6u);
    // The edits hit what they aim at: every block starts and ends with
    // a broken line.
    for (const auto& [offset, size] : spans) {
        EXPECT_EQ(text[offset], '!');
        EXPECT_EQ(text[offset + size - 2], '~');
    }
    expect_blocks_match_serial(text);
}

TEST(TextBlocks, LongLinesBlankBlocksAndNoFinalNewline) {
    std::string text = multi_block_trace(2 * kBlock);
    // A well-formed line longer than two blocks, then a malformed one.
    trace::TraceEvent mkdir;
    mkdir.seq = 7;
    mkdir.pid = mkdir.tid = 41;
    mkdir.syscall = "mkdir";
    mkdir.args = {{"pathname", trace::ArgValue{"/mnt/test/" +
                                                std::string(2 * kBlock, 'd')}},
                  {"mode", trace::ArgValue{std::uint64_t{0755}}}};
    mkdir.ret = -36;
    text += trace::format_event(mkdir) + "\n";
    text += std::string(kBlock + 100, 'x') + "\n";
    // More than a block of nothing but blank and comment lines.
    while (text.size() < 5 * kBlock)
        text += "\n# a comment line that the parser skips\n\n";
    text += multi_block_trace(2 * kBlock);
    // The last line has no '\n'.
    ASSERT_EQ(text.back(), '\n');
    text.pop_back();
    ASSERT_GE(block_spans(text).size(), 5u);
    expect_blocks_match_serial(text);
}

TEST(TextBlocks, StringsOutliveTheBuffersTheyWereReadInto) {
    // With more blocks than buffers, every buffer is read into again
    // while rows parsed from it — the escaped path of block 0 among
    // them — still wait for the lanes.
    const std::string text = multi_block_trace(10 * kBlock);
    ASSERT_GE(block_spans(text).size(), 10u);
    ASSERT_NE(text.find("we\\\"ird"), std::string::npos);
    expect_blocks_match_serial(text);
}

TEST(TextBlocks, ShortReadsFromAStreamThatCannotSeek) {
    const std::string text = break_block_edges(multi_block_trace(4 * kBlock));
    expect_blocks_match_serial(text, /*short_reads=*/true);
}

}  // namespace
}  // namespace iocov::core
