// Batched IOCT decode: round-trips through EventBatch + EventScratch
// materialization, events/drops/diagnostics parity with decode_trace
// and the per-record decode_event on clean, truncated and corrupted
// input, and the zero-allocation steady state of decode and of the
// whole decode -> filter -> analyze ingest loop.
#include "trace/binary_format.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/iocov.hpp"
#include "exec/alloc_hook.hpp"
#include "trace/filter.hpp"

namespace iocov::trace {
namespace {

const char* const kSyscallNames[] = {"open",  "openat", "read",  "write",
                                     "lseek", "close",  "chdir", "mkdir"};

/// Deterministic random event spanning the varint value space: 1-byte
/// varints, mid-size values, and 9/10-byte extremes.
TraceEvent random_event(std::mt19937_64& rng) {
    TraceEvent ev;
    ev.seq = rng() % 3 ? rng() % 100 : rng();
    ev.pid = static_cast<std::uint32_t>(rng() % 200);
    ev.tid = ev.pid;
    ev.syscall = kSyscallNames[rng() % std::size(kSyscallNames)];
    ev.ret = rng() % 3 ? static_cast<std::int64_t>(rng() % 128) - 64
                       : static_cast<std::int64_t>(rng());
    const std::size_t argc = rng() % 5;
    for (std::size_t i = 0; i < argc; ++i) {
        Arg arg;
        arg.name = "a" + std::to_string(rng() % 6);
        switch (rng() % 6) {
            case 0: arg.value = std::int64_t{-1}; break;
            case 1:
                arg.value = std::numeric_limits<std::int64_t>::min();
                break;
            case 2:
                arg.value = std::numeric_limits<std::uint64_t>::max();
                break;
            case 3: arg.value = std::uint64_t{rng() % 5000}; break;
            case 4: arg.value = std::string(); break;
            default:
                arg.value = std::string("/mnt/test/p") +
                            std::to_string(rng() % 100);
                break;
        }
        ev.args.push_back(std::move(arg));
    }
    return ev;
}

std::vector<TraceEvent> random_events(std::uint64_t seed, int n) {
    std::mt19937_64 rng(seed);
    std::vector<TraceEvent> events;
    for (int i = 0; i < n; ++i) events.push_back(random_event(rng));
    return events;
}

/// Scan + chunked batched decode + materialization.  The odd chunk
/// size forces several batch boundaries in every test.
std::vector<TraceEvent> batch_decode_all(std::string_view data,
                                         std::size_t* dropped = nullptr,
                                         ParseDiagnostics* diags = nullptr) {
    constexpr std::size_t kChunk = 97;
    const auto scan = scan_ioct(data);
    std::vector<TraceEvent> out;
    EventBatch batch;
    EventScratch scratch;
    for (std::size_t i = 0; i < scan.events.size(); i += kChunk) {
        const std::size_t n = std::min(kChunk, scan.events.size() - i);
        batch.clear();
        const auto rows = decode_batch(data, scan.strings,
                                       scan.events.data() + i, n, batch,
                                       dropped, diags);
        for (std::size_t r = 0; r < rows; ++r)
            out.push_back(scratch.materialize(batch, r, scan.strings));
    }
    return out;
}

void expect_diags_equal(const ParseDiagnostics& a, const ParseDiagnostics& b,
                        const char* what) {
    EXPECT_EQ(a.total(), b.total()) << what;
    ASSERT_EQ(a.entries().size(), b.entries().size()) << what;
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        EXPECT_EQ(a.entries()[i].line, b.entries()[i].line) << what;
        EXPECT_EQ(a.entries()[i].offset, b.entries()[i].offset) << what;
        EXPECT_EQ(a.entries()[i].reason, b.entries()[i].reason) << what;
        EXPECT_EQ(a.entries()[i].excerpt, b.entries()[i].excerpt) << what;
    }
}

TEST(BatchDecode, ScalarIsAlwaysAvailable) {
    EXPECT_EQ(active_decode_isa(), DecodeIsa::Scalar);
    EXPECT_STREQ(decode_isa_name(active_decode_isa()), "scalar");
}

TEST(BatchDecode, RoundTripsRandomizedEvents) {
    const auto events = random_events(20260808, 2000);
    const auto data = encode_trace(events);
    // decode_batch accumulates into *dropped (callers chunk), so start
    // from zero — unlike decode_trace, which assigns.
    std::size_t dropped = 0;
    const auto decoded = batch_decode_all(data, &dropped);
    EXPECT_EQ(dropped, 0u);
    ASSERT_EQ(decoded.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        ASSERT_EQ(decoded[i], events[i]) << "event " << i;
}

TEST(BatchDecode, MatchesDecodeTraceOnCleanInput) {
    const auto data = encode_trace(random_events(42, 500));
    std::size_t ref_dropped = 1, batch_dropped = 0;
    const auto reference = decode_trace(data, &ref_dropped);
    const auto batched = batch_decode_all(data, &batch_dropped);
    EXPECT_EQ(batch_dropped, ref_dropped);
    EXPECT_EQ(batched, reference);
}

/// Scan + batched decode must agree with decode_trace on `data`: the
/// same events, and — once the scan stage's share is added back — the
/// same drop count and the same retained diagnostics.
void expect_matches_decode_trace(std::string_view data,
                                 const std::string& what) {
    std::size_t ref_dropped = 0;
    ParseDiagnostics ref_diags;
    const auto reference = decode_trace(data, &ref_dropped, &ref_diags);

    const auto scan = scan_ioct(data);
    std::size_t dropped = 0;
    ParseDiagnostics diags;
    const auto batched = batch_decode_all(data, &dropped, &diags);
    ParseDiagnostics all = scan.diags;
    all.merge(diags);
    ASSERT_EQ(batched, reference) << what;
    EXPECT_EQ(scan.dropped + dropped, ref_dropped) << what;
    expect_diags_equal(all, ref_diags, what.c_str());
}

TEST(BatchDecode, MatchesDecodeTraceOnTruncatedTails) {
    const auto data = encode_trace(random_events(7, 200));
    // Chop at every offset across the last few records plus a spread of
    // earlier cuts: every truncation must decode identically.
    std::vector<std::size_t> cuts;
    for (std::size_t cut = data.size() - 120; cut < data.size(); ++cut)
        cuts.push_back(cut);
    for (std::size_t cut = 16; cut < data.size(); cut += 997)
        cuts.push_back(cut);
    for (const std::size_t cut : cuts)
        expect_matches_decode_trace(std::string_view(data).substr(0, cut),
                                    "cut " + std::to_string(cut));
}

TEST(BatchDecode, MatchesDecodeTraceUnderRandomCorruption) {
    const auto clean = encode_trace(random_events(11, 300));
    std::mt19937_64 rng(99);
    for (int trial = 0; trial < 200; ++trial) {
        std::string data = clean;
        // 1-4 random byte flips past the header: torn varints, bad type
        // bytes, out-of-range ids, argc explosions...
        const int flips = 1 + static_cast<int>(rng() % 4);
        for (int f = 0; f < flips; ++f)
            data[kIoctHeaderSize + rng() % (data.size() - kIoctHeaderSize)] =
                static_cast<char>(rng() & 0xff);
        expect_matches_decode_trace(data,
                                    "trial " + std::to_string(trial));
    }
}

TEST(BatchDecode, ParityWithPerRecordDecodeEventUnderCorruption) {
    const auto clean = encode_trace(random_events(13, 300));
    std::mt19937_64 rng(5);
    for (int trial = 0; trial < 100; ++trial) {
        std::string data = clean;
        for (int f = 0; f < 3; ++f)
            data[kIoctHeaderSize + rng() % (data.size() - kIoctHeaderSize)] =
                static_cast<char>(rng() & 0xff);
        const auto scan = scan_ioct(data);
        // Reference: the one-record-at-a-time scalar decoder.
        std::vector<TraceEvent> reference;
        TraceEvent scratch;
        for (const auto& ref : scan.events)
            if (decode_event(std::string_view(data).substr(ref.offset,
                                                           ref.length),
                             scan.strings, scratch))
                reference.push_back(scratch);
        std::size_t dropped = 0;
        const auto batched = batch_decode_all(data, &dropped);
        ASSERT_EQ(batched, reference) << "trial " << trial;
        EXPECT_EQ(batched.size() + dropped, scan.events.size())
            << "trial " << trial;
    }
}

TEST(BatchDecode, SteadyStateDecodeAndMaterializeIsAllocationFree) {
    if (!exec::has_allocation_counting())
        GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
    const auto data = encode_trace(random_events(21, 1000));
    const auto scan = scan_ioct(data);
    constexpr std::size_t kChunk = 512;
    EventBatch batch;
    EventScratch scratch;
    std::uint64_t sum = 0;
    const auto pass = [&] {
        for (std::size_t i = 0; i < scan.events.size(); i += kChunk) {
            const std::size_t n = std::min(kChunk, scan.events.size() - i);
            batch.clear();
            const auto rows = decode_batch(data, scan.strings,
                                           scan.events.data() + i, n, batch);
            for (std::size_t r = 0; r < rows; ++r)
                sum += scratch.materialize(batch, r, scan.strings).seq;
        }
    };
    pass();  // warm: batch high-water mark, scratch string capacities
    pass();
    const auto before = exec::thread_allocation_count();
    pass();
    EXPECT_EQ(exec::thread_allocation_count() - before, 0u);
    EXPECT_NE(sum, 0u);
}

/// Per-pid opens inside and outside /mnt/test, fd calls and closes on
/// the returned fds: a stream the mount filter partly admits, so the
/// ingest loop both skips rows and materializes admitted ones.
std::vector<TraceEvent> mount_mix_events(std::uint64_t seed, int n) {
    std::mt19937_64 rng(seed);
    std::vector<TraceEvent> events;
    for (int i = 0; i < n; ++i) {
        TraceEvent ev;
        ev.seq = static_cast<std::uint64_t>(i);
        ev.pid = 1 + static_cast<std::uint32_t>(rng() % 4);
        ev.tid = ev.pid;
        const std::int64_t fd = 3 + static_cast<std::int64_t>(rng() % 6);
        switch (rng() % 4) {
            case 0:
                ev.syscall = "open";
                ev.args = {{"pathname", rng() % 2 ? "/mnt/test/f" +
                                                        std::to_string(rng() % 40)
                                                  : std::string("/tmp/noise")},
                           {"flags", std::uint64_t{rng() % 4}},
                           {"mode", std::uint64_t{0644}}};
                ev.ret = rng() % 6 ? fd : -2;
                break;
            case 1:
                ev.syscall = "write";
                ev.args = {{"fd", fd}, {"count", std::uint64_t{rng() % 9000}}};
                ev.ret = static_cast<std::int64_t>(rng() % 9000);
                break;
            case 2:
                ev.syscall = "lseek";
                ev.args = {{"fd", fd},
                           {"offset", std::int64_t{0}},
                           {"whence", std::uint64_t{rng() % 3}}};
                ev.ret = 0;
                break;
            default:
                ev.syscall = "close";
                ev.args = {{"fd", fd}};
                ev.ret = 0;
                break;
        }
        events.push_back(std::move(ev));
    }
    return events;
}

TEST(BatchDecode, SteadyStateIngestLoopIsAllocationFree) {
    if (!exec::has_allocation_counting())
        GTEST_SKIP() << "allocation hook compiled out (sanitizer build)";
    const auto data = encode_trace(mount_mix_events(22, 4000));
    // The per-table bindings (syscall and filter) are built outside the
    // counted loop; the loop itself decodes, admits rows by string id,
    // and materializes and analyzes only the admitted ones.
    core::IOCov iocov(FilterConfig::mount_point("/mnt/test"));
    iocov.consume_binary(data);  // warm: fd sets, scratch, histogram rows
    iocov.consume_binary(data);
    const auto before = iocov.ingest_stats().hot_loop_allocs;
    iocov.consume_binary(data);
    EXPECT_EQ(iocov.ingest_stats().hot_loop_allocs - before, 0u);
    EXPECT_GT(iocov.report().events_tracked, 0u);
    EXPECT_GT(iocov.events_filtered_out(), 0u);
}

}  // namespace
}  // namespace iocov::trace
