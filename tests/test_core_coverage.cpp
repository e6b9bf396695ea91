// Analyzer + coverage report + TCD + untested reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <random>
#include <sstream>

#include "abi/fcntl.hpp"
#include "abi/seek.hpp"
#include "abi/xattr.hpp"
#include "core/coverage.hpp"
#include "core/iocov.hpp"
#include "core/tcd.hpp"
#include "core/untested.hpp"
#include "stats/log_bucket.hpp"
#include "trace/binary_format.hpp"
#include "trace/syz_format.hpp"
#include "trace/text_format.hpp"

namespace iocov::core {
namespace {

using trace::ArgValue;
using trace::TraceEvent;

TraceEvent open_event(std::uint32_t flags, std::int64_t ret,
                      const char* variant = "open") {
    TraceEvent ev;
    ev.syscall = variant;
    ev.args = {{"pathname", ArgValue{std::string("/mnt/test/f")}},
               {"flags", ArgValue{std::uint64_t{flags}}},
               {"mode", ArgValue{std::uint64_t{0644}}}};
    ev.ret = ret;
    return ev;
}

TraceEvent write_event(std::uint64_t count, std::int64_t ret,
                       const char* variant = "write") {
    TraceEvent ev;
    ev.syscall = variant;
    ev.args = {{"fd", ArgValue{std::int64_t{3}}},
               {"count", ArgValue{count}}};
    ev.ret = ret;
    return ev;
}

TEST(Analyzer, ReportDeclaresAllInputsAndOutputsUpFront) {
    Analyzer a;
    const auto& r = a.report();
    EXPECT_EQ(r.inputs.size(), 14u);
    EXPECT_EQ(r.outputs.size(), 11u);
    // Everything starts untested.
    for (const auto& in : r.inputs)
        EXPECT_EQ(in.hist.tested().size(), 0u) << in.base << "/" << in.key;
}

TEST(Analyzer, CountsOpenFlagsPerFlag) {
    Analyzer a;
    a.consume(open_event(abi::O_RDONLY, 3));
    a.consume(open_event(abi::O_WRONLY | abi::O_CREAT | abi::O_TRUNC, 4));
    a.consume(open_event(abi::O_RDONLY, -2));  // failures count as inputs
    const auto* flags = a.report().find_input("open", "flags");
    ASSERT_NE(flags, nullptr);
    EXPECT_EQ(flags->hist.count("O_RDONLY"), 2u);
    EXPECT_EQ(flags->hist.count("O_WRONLY"), 1u);
    EXPECT_EQ(flags->hist.count("O_CREAT"), 1u);
    EXPECT_EQ(flags->hist.count("O_EXCL"), 0u);
}

TEST(Analyzer, TracksComboCardinalityForTable1) {
    Analyzer a;
    a.consume(open_event(abi::O_RDONLY, 3));                      // 1 flag
    a.consume(open_event(abi::O_RDONLY | abi::O_CLOEXEC, 3));     // 2
    a.consume(open_event(abi::O_WRONLY | abi::O_CREAT |
                         abi::O_TRUNC, 3));                        // 3
    const auto* flags = a.report().find_input("open", "flags");
    EXPECT_EQ(flags->combo_cardinality.count("1"), 1u);
    EXPECT_EQ(flags->combo_cardinality.count("2"), 1u);
    EXPECT_EQ(flags->combo_cardinality.count("3"), 1u);
    // O_RDONLY-conditional rows.
    EXPECT_EQ(flags->combo_cardinality_rdonly.count("1"), 1u);
    EXPECT_EQ(flags->combo_cardinality_rdonly.count("2"), 1u);
    EXPECT_EQ(flags->combo_cardinality_rdonly.count("3"), 0u);
    // Pair extension.
    EXPECT_EQ(flags->pairs.count("O_CLOEXEC+O_RDONLY"), 1u);
    EXPECT_EQ(flags->pairs.count("O_CREAT+O_TRUNC"), 1u);
}

TEST(Analyzer, MergesVariantsIntoBaseSpaces) {
    Analyzer a;
    a.consume(write_event(100, 100, "write"));
    a.consume(write_event(100, 100, "pwrite64"));
    a.consume(write_event(100, 100, "writev"));
    const auto* count = a.report().find_input("write", "count");
    EXPECT_EQ(count->hist.count("2^6"), 3u);
    const auto* out = a.report().find_output("write");
    EXPECT_EQ(out->hist.count("OK:2^6"), 3u);
}

TEST(Analyzer, CreatContributesToOpenFlagCoverage) {
    Analyzer a;
    TraceEvent ev;
    ev.syscall = "creat";
    ev.args = {{"pathname", ArgValue{std::string("/mnt/test/f")}},
               {"mode", ArgValue{std::uint64_t{0644}}}};
    ev.ret = 3;
    a.consume(ev);
    const auto* flags = a.report().find_input("open", "flags");
    EXPECT_EQ(flags->hist.count("O_WRONLY"), 1u);
    EXPECT_EQ(flags->hist.count("O_CREAT"), 1u);
    EXPECT_EQ(flags->hist.count("O_TRUNC"), 1u);
    EXPECT_EQ(flags->combo_cardinality.count("3"), 1u);
}

TEST(Analyzer, OutputPartitionsSuccessAndErrno) {
    Analyzer a;
    a.consume(open_event(abi::O_RDONLY, 5));
    a.consume(open_event(abi::O_RDONLY, -2));
    a.consume(open_event(abi::O_RDONLY, -13));
    const auto* out = a.report().find_output("open");
    EXPECT_EQ(out->hist.count("OK"), 1u);
    EXPECT_EQ(out->hist.count("ENOENT"), 1u);
    EXPECT_EQ(out->hist.count("EACCES"), 1u);
    EXPECT_EQ(out->hist.count("ENOSPC"), 0u);
}

TEST(Analyzer, UntrackedSyscallsCountedButNotPartitioned) {
    Analyzer a;
    TraceEvent ev;
    ev.syscall = "rename";
    ev.ret = 0;
    a.consume(ev);
    EXPECT_EQ(a.report().events_seen, 1u);
    EXPECT_EQ(a.report().events_tracked, 0u);
}

TEST(Analyzer, LseekCategoricalAndNumeric) {
    Analyzer a;
    TraceEvent ev;
    ev.syscall = "lseek";
    ev.args = {{"fd", ArgValue{std::int64_t{3}}},
               {"offset", ArgValue{std::int64_t{-5}}},
               {"whence", ArgValue{std::int64_t{abi::SEEK_END_}}}};
    ev.ret = abi::fail(abi::Err::EINVAL_);
    a.consume(ev);
    EXPECT_EQ(a.report().find_input("lseek", "offset")->hist.count("<0"),
              1u);
    EXPECT_EQ(
        a.report().find_input("lseek", "whence")->hist.count("SEEK_END"),
        1u);
    EXPECT_EQ(a.report().find_output("lseek")->hist.count("EINVAL"), 1u);
}

TEST(CoverageReport, MergeAddsCounts) {
    Analyzer a, b;
    a.consume(open_event(abi::O_RDONLY, 3));
    b.consume(open_event(abi::O_RDONLY, 3));
    b.consume(open_event(abi::O_WRONLY, 3));
    auto ra = a.take_report();
    ra.merge(b.report());
    EXPECT_EQ(ra.find_input("open", "flags")->hist.count("O_RDONLY"), 2u);
    EXPECT_EQ(ra.find_input("open", "flags")->hist.count("O_WRONLY"), 1u);
    EXPECT_EQ(ra.events_tracked, 3u);
}

// ---- TCD -------------------------------------------------------------------

TEST(Tcd, ZeroWhenFrequenciesEqualTarget) {
    stats::PartitionHistogram h;
    h.add("a", 100);
    h.add("b", 100);
    EXPECT_NEAR(tcd_uniform(h, 100.0), 0.0, 1e-12);
}

TEST(Tcd, MatchesHandComputedValue) {
    stats::PartitionHistogram h;
    h.add("a", 1000);  // log10 = 3
    h.add("b", 10);    // log10 = 1
    // target 100 (log10 = 2): sqrt((1 + 1)/2) = 1.
    EXPECT_NEAR(tcd_uniform(h, 100.0), 1.0, 1e-12);
}

TEST(Tcd, UntestedPartitionContributesFullLogDistance) {
    auto h = stats::PartitionHistogram::with_partitions({"a", "b"});
    h.add("a", 1000);
    // b counts 0 -> log floored to 0; target 1000 -> distance 3.
    EXPECT_NEAR(tcd_uniform(h, 1000.0), 3.0 / std::sqrt(2.0), 1e-9);
}

TEST(Tcd, LogDomainDownplaysOverTesting) {
    stats::PartitionHistogram over;  // one partition 100x over target
    over.add("a", 10000);
    over.add("b", 100);
    stats::PartitionHistogram under;  // one partition 100x under target
    under.add("a", 1);
    under.add("b", 100);
    // Log-domain treats both deviations symmetrically per partition...
    EXPECT_NEAR(tcd_uniform(over, 100.0), tcd_uniform(under, 100.0), 1e-9);
    // ...but the linear metric explodes for the over-tester.
    EXPECT_GT(tcd_linear_uniform(over, 100.0),
              90 * tcd_linear_uniform(under, 100.0));
}

TEST(Tcd, PerPartitionTargetsViaBuilder) {
    stats::PartitionHistogram h;
    h.add("O_SYNC", 1000);
    h.add("O_RDONLY", 1000);
    const auto targets = TargetBuilder(h, 10.0).boost("O_SYNC", 100.0)
                             .build();
    ASSERT_EQ(targets.size(), 2u);
    // Dynamic labels sit in canonical (sorted) row order, so O_RDONLY
    // precedes O_SYNC regardless of add() order.
    EXPECT_DOUBLE_EQ(targets[0], 10.0);
    EXPECT_DOUBLE_EQ(targets[1], 1000.0);
    // With the boosted target, O_SYNC is exactly on target.
    EXPECT_LT(tcd(h, targets), tcd_uniform(h, 10.0));
}

TEST(Tcd, TargetBuilderSetOverridesBase) {
    stats::PartitionHistogram h;
    h.add("x", 5);
    const auto t = TargetBuilder(h, 7.0).set("x", 5.0).build();
    EXPECT_NEAR(tcd(h, t), 0.0, 1e-12);
}

// ---- untested reporting ------------------------------------------------------

TEST(Untested, FindsInputAndOutputGaps) {
    Analyzer a;
    a.consume(open_event(abi::O_RDONLY, 3));
    const auto gaps = find_untested(a.report());
    // O_LARGEFILE input gap exists.
    bool largefile = false, enospc_out = false;
    for (const auto& gap : gaps) {
        if (gap.base == "open" && gap.partition == "O_LARGEFILE" &&
            gap.kind == UntestedPartition::Kind::Input)
            largefile = true;
        if (gap.base == "open" && gap.partition == "ENOSPC" &&
            gap.kind == UntestedPartition::Kind::Output)
            enospc_out = true;
        EXPECT_FALSE(gap.suggestion.empty());
    }
    EXPECT_TRUE(largefile);
    EXPECT_TRUE(enospc_out);
}

TEST(Untested, UnderTestedThreshold) {
    Analyzer a;
    a.consume(open_event(abi::O_RDONLY, 3));
    for (int i = 0; i < 100; ++i)
        a.consume(open_event(abi::O_WRONLY, 3));
    const auto under = find_under_tested(a.report(), 10);
    bool rdonly_under = false, wronly_under = false;
    for (const auto& gap : under) {
        if (gap.partition == "O_RDONLY") rdonly_under = true;
        if (gap.partition == "O_WRONLY") wronly_under = true;
    }
    EXPECT_TRUE(rdonly_under);
    EXPECT_FALSE(wronly_under);
}

TEST(Untested, SummaryRowsCoverAllSpaces) {
    Analyzer a;
    const auto rows = summarize(a.report());
    EXPECT_EQ(rows.size(), 14u + 11u);
    for (const auto& row : rows) {
        EXPECT_GT(row.declared, 0u);
        EXPECT_EQ(row.tested, 0u);
        EXPECT_EQ(row.fraction, 0.0);
    }
}

// ---- the row core against the TraceEvent entry points ------------------------

/// The label-at-a-time analyzer the index path replaced, kept as the
/// specification both entry points are held to: every partition is
/// rendered as its label and counted by string.
class LabelOracle {
  public:
    explicit LabelOracle(const std::vector<SyscallSpec>& registry)
        : registry_(registry), report_(Analyzer(registry).report()) {}

    const CoverageReport& report() const { return report_; }

    void consume(const TraceEvent& ev) {
        ++report_.events_seen;
        const SyscallSpec* spec = nullptr;
        for (const auto& s : registry_)
            for (const auto& v : s.variants)
                if (!spec && v == ev.syscall) spec = &s;
        if (!spec) return;
        ++report_.events_tracked;
        const trace::Arg* implied = implied_variant_arg(ev.syscall);
        for (const auto& arg : spec->args) {
            const ArgValue* v = nullptr;
            if (const trace::Arg* a = ev.find_arg(arg.key)) v = &a->value;
            else if (implied && implied->name == arg.key) v = &implied->value;
            if (!v) continue;
            ArgCoverage* cov = report_.find_input(spec->base, arg.key);
            const auto labels = labels_of(spec->base, arg, *v);
            for (const auto& l : labels) cov->hist.add(l);
            if (spec->base != "open" || arg.key != "flags") continue;
            const std::string card = labels.size() >= 7
                                         ? "7+"
                                         : std::to_string(labels.size());
            cov->combo_cardinality.add(card);
            if (std::find(labels.begin(), labels.end(), "O_RDONLY") !=
                labels.end())
                cov->combo_cardinality_rdonly.add(card);
            for (std::size_t i = 0; i < labels.size(); ++i)
                for (std::size_t j = i + 1; j < labels.size(); ++j)
                    cov->pairs.add(std::min(labels[i], labels[j]) + "+" +
                                   std::max(labels[i], labels[j]));
        }
        if (ev.ret == trace::kSyzNoReturn) return;
        std::string out;
        if (ev.ret < 0) {
            out = abi::err_name(abi::err_of(ev.ret));
        } else if (spec->success == SuccessKind::ByteCount ||
                   spec->success == SuccessKind::Offset) {
            out = "OK:" +
                  stats::bucket_label(stats::log_bucket_of(ev.ret));
        } else {
            out = "OK";
        }
        report_.find_output(spec->base)->hist.add(out);
    }

  private:
    static std::int64_t as_int(const ArgValue& v) {
        if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
        if (const auto* u = std::get_if<std::uint64_t>(&v))
            return static_cast<std::int64_t>(*u);
        return 0;
    }

    static std::vector<std::string> labels_of(const std::string& base,
                                              const ArgSpec& arg,
                                              const ArgValue& v) {
        const std::int64_t n = as_int(v);
        switch (arg.cls) {
            case ArgClass::Bitmap: {
                if (base == "open" && arg.key == "flags")
                    return abi::decompose_open_flags(
                        static_cast<std::uint32_t>(n));
                static const std::pair<std::uint32_t, const char*> kBits[] = {
                    {04000, "S_ISUID"}, {02000, "S_ISGID"},
                    {01000, "S_ISVTX"}, {0400, "S_IRUSR"},
                    {0200, "S_IWUSR"},  {0100, "S_IXUSR"},
                    {040, "S_IRGRP"},   {020, "S_IWGRP"},
                    {010, "S_IXGRP"},   {04, "S_IROTH"},
                    {02, "S_IWOTH"},    {01, "S_IXOTH"}};
                std::vector<std::string> out;
                for (const auto& [bits, name] : kBits)
                    if (static_cast<std::uint32_t>(n) & bits)
                        out.emplace_back(name);
                if (out.empty()) out.emplace_back("none");
                return out;
            }
            case ArgClass::Numeric:
                return {stats::bucket_label(stats::log_bucket_of(n))};
            case ArgClass::Categorical:
                if (base == "setxattr")
                    return {n == 0                      ? "0"
                            : n == abi::XATTR_CREATE_  ? "XATTR_CREATE"
                            : n == abi::XATTR_REPLACE_ ? "XATTR_REPLACE"
                                                       : "INVALID"};
                return {abi::seek_whence_name(static_cast<int>(n))
                            .value_or("INVALID")};
            case ArgClass::Identifier:
                break;
        }
        if (arg.key == "fd")
            return {n >= 0 && n <= 2 ? "stdio(0-2)"
                    : n >= 1024      ? "large(>=1024)"
                    : n >= 3         ? "valid(>=3)"
                    : n == -1        ? "minus-one"
                    : n == -100      ? "AT_FDCWD"
                                     : "other-negative"};
        const auto* s = std::get_if<std::string>(&v);
        if (!s || *s == "<fault>") return {"faulting"};
        if (*s == "<via-fd>") return {"via-fd"};
        if (s->empty()) return {"empty"};
        const std::string& p = *s;
        std::vector<std::string> out;
        if (p == "." || p.starts_with("./")) out.emplace_back("dot");
        if (p == ".." || p.starts_with("../")) out.emplace_back("dotdot");
        out.emplace_back(p.front() == '/' ? "absolute" : "relative");
        if (p.size() > 1 && p.back() == '/') out.emplace_back("trailing-slash");
        std::size_t comp = 0, longest = 0;
        for (char ch : p) {
            comp = ch == '/' ? 0 : comp + 1;
            longest = std::max(longest, comp);
        }
        if (longest > 255) out.emplace_back("name-max");
        if (p.size() >= 4096) out.emplace_back("path-max");
        return out;
    }

    const std::vector<SyscallSpec>& registry_;
    CoverageReport report_;
};

/// Where two reports first differ, for a failure message.
std::string first_difference(const CoverageReport& a,
                             const CoverageReport& b) {
    auto rows = [](const stats::PartitionHistogram& h) {
        std::string out;
        for (const auto& r : h.rows())
            if (r.count) out += " " + r.label + "=" + std::to_string(r.count);
        return out;
    };
    if (a.events_seen != b.events_seen || a.events_tracked != b.events_tracked)
        return "event counts";
    for (std::size_t i = 0; i < a.inputs.size() && i < b.inputs.size(); ++i) {
        const auto& x = a.inputs[i];
        const auto& y = b.inputs[i];
        const std::string name = x.base + "/" + x.key;
        if (x.hist != y.hist)
            return name + ":" + rows(x.hist) + "\n  vs" + rows(y.hist);
        if (x.combo_cardinality != y.combo_cardinality ||
            x.combo_cardinality_rdonly != y.combo_cardinality_rdonly)
            return name + " combo cardinality";
        if (x.pairs != y.pairs)
            return name + " pairs:" + rows(x.pairs) + "\n  vs" + rows(y.pairs);
    }
    for (std::size_t i = 0; i < a.outputs.size() && i < b.outputs.size(); ++i)
        if (a.outputs[i].hist != b.outputs[i].hist)
            return a.outputs[i].base + " output:" + rows(a.outputs[i].hist) +
                   "\n  vs" + rows(b.outputs[i].hist);
    return "report shape";
}

/// The three ways to analyze `batch`'s rows over `strings`: the row core
/// (consume_row), the materialized event (consume(ev, binding)) and the
/// label oracle.  Fails with the first row after which they differ.
void expect_row_core_matches(const trace::EventBatch& batch,
                             const std::vector<std::string_view>& strings,
                             const std::vector<SyscallSpec>& registry,
                             const std::string& what) {
    auto run = [&](std::size_t n, CoverageReport& by_row,
                   CoverageReport& by_event, CoverageReport& by_label) {
        Analyzer row(registry), event(registry);
        LabelOracle oracle(registry);
        const auto row_table = row.table().bind_all(strings);
        const auto event_table = event.table().bind_all(strings);
        trace::EventScratch scratch;
        for (std::size_t r = 0; r < n; ++r) {
            row.consume_row(batch, r, row_table);
            const TraceEvent& ev = scratch.materialize(batch, r, strings);
            event.consume(ev, event_table[batch.rows[r].name_id]);
            oracle.consume(ev);
        }
        by_row = row.report();
        by_event = event.report();
        by_label = oracle.report();
    };
    CoverageReport by_row, by_event, by_label;
    run(batch.rows.size(), by_row, by_event, by_label);
    if (by_row == by_event && by_event == by_label) return;
    // Replay prefixes to name the first row that makes them diverge.
    for (std::size_t n = 1; n <= batch.rows.size(); ++n) {
        run(n, by_row, by_event, by_label);
        if (by_row == by_event && by_event == by_label) continue;
        trace::EventScratch scratch;
        const bool rows_differ = by_row != by_event;
        ADD_FAILURE() << what << ": row " << n - 1 << " diverges ("
                      << (rows_differ ? "consume_row vs consume(ev)"
                                      : "consume(ev) vs label oracle")
                      << ")\n  "
                      << trace::format_event(
                             scratch.materialize(batch, n - 1, strings))
                      << "\n  "
                      << (rows_differ ? first_difference(by_row, by_event)
                                      : first_difference(by_event, by_label));
        return;
    }
}

const std::vector<std::string>& adversarial_paths() {
    static const std::vector<std::string> kPaths = [] {
        std::vector<std::string> p = {
            "/mnt/test/f", "/mnt/test/d/", "rel/p", "<fault>", "<via-fd>",
            "", ".", "./x", "..", "../x", "/", "a/", "x/./y"};
        p.push_back("/mnt/test/" + std::string(256, 'n'));  // > NAME_MAX
        p.push_back("/mnt/test/" + std::string(255, 'n'));  // == NAME_MAX
        std::string deep;
        while (deep.size() < 4096) deep += "/dir";
        p.push_back(deep);                            // >= PATH_MAX
        p.push_back(deep.substr(0, 4095));            // one short
        return p;
    }();
    return kPaths;
}

std::int64_t adversarial_int(std::mt19937_64& rng) {
    static const std::int64_t kInts[] = {
        0, 1, 2, 3, 4, 5, 7, -1, -2, -7, -100, 1023, 1024, 4096, 0x241,
        0644, 04777, std::int64_t{1} << 31, (std::int64_t{1} << 32) - 1,
        std::int64_t{1} << 32, (std::int64_t{1} << 33) + 5,
        std::int64_t{1} << 40, std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()};
    if (rng() % 4 == 0) {
        // A random open-flags word (composites O_SYNC/O_TMPFILE included).
        std::uint32_t flags = static_cast<std::uint32_t>(rng() % 4);
        for (const auto& info : abi::open_flag_table())
            if (!info.access_mode && rng() % 4 == 0) flags |= info.bits;
        return flags;
    }
    return kInts[rng() % std::size(kInts)];
}

std::int64_t adversarial_ret(std::mt19937_64& rng) {
    static const std::int64_t kRets[] = {
        0, 1, 3, 4096, std::int64_t{1} << 20, (std::int64_t{1} << 33) + 1,
        std::numeric_limits<std::int64_t>::max(), -1, -2, -9, -13, -22,
        -28, -61, -122, -9999, -(std::int64_t{1} << 32),
        -((std::int64_t{1} << 32) + 2), -(std::int64_t{1} << 40),
        trace::kSyzNoReturn};
    return kRets[rng() % std::size(kRets)];
}

/// One event meant to break the row core: tracked and untracked names,
/// args of the wrong type, repeated, missing (implied) and out of
/// prototype order, extreme values and returns, special paths.
TraceEvent adversarial_event(std::mt19937_64& rng, std::uint64_t seq,
                             const std::vector<SyscallSpec>& registry) {
    static const char* kUntracked[] = {"stat", "mystery", "unlink",
                                       "fsync", "rename"};
    static const char* kExtraKeys[] = {"fd", "dfd", "pathname", "pos",
                                       "buf", "flags"};
    TraceEvent ev;
    ev.seq = seq;
    ev.pid = 1 + static_cast<std::uint32_t>(rng() % 3);
    ev.tid = ev.pid;
    std::vector<std::string> keys;
    if (rng() % 8 == 0) {
        ev.syscall = kUntracked[rng() % std::size(kUntracked)];
    } else {
        const auto& spec = registry[rng() % registry.size()];
        ev.syscall = spec.variants[rng() % spec.variants.size()];
        for (const auto& a : spec.args)
            if (rng() % 6 != 0) keys.push_back(a.key);  // sometimes absent
    }
    while (rng() % 3 == 0) keys.push_back(kExtraKeys[rng() % 6]);
    if (!keys.empty() && rng() % 4 == 0)
        keys.push_back(keys[rng() % keys.size()]);  // a repeated name
    if (rng() % 3 == 0) std::shuffle(keys.begin(), keys.end(), rng);
    for (const auto& key : keys) {
        const bool path_key = key == "pathname" || key == "oldpath" ||
                              key == "linkpath";
        // Mostly the type a tracer writes; otherwise any type.
        unsigned type = path_key ? 2u
                        : key == "fd" || key == "dfd" || key == "offset" ||
                                key == "whence"
                            ? 0u
                            : 1u;
        if (rng() % 3 == 0) type = static_cast<unsigned>(rng() % 3);
        const auto& paths = adversarial_paths();
        switch (type) {
            case 0: ev.args.push_back({key, ArgValue{adversarial_int(rng)}});
                    break;
            case 1:
                ev.args.push_back({key, ArgValue{static_cast<std::uint64_t>(
                                            adversarial_int(rng))}});
                break;
            default:
                ev.args.push_back(
                    {key, ArgValue{paths[rng() % paths.size()]}});
                break;
        }
    }
    ev.ret = adversarial_ret(rng);
    return ev;
}

/// Hand-picked rows every seed carries, so the cases the random stream
/// reaches only by chance are always there.
std::vector<TraceEvent> pinned_events() {
    auto ev = [](const char* name, std::vector<trace::Arg> args,
                 std::int64_t ret) {
        TraceEvent e;
        e.pid = 7;
        e.tid = 7;
        e.syscall = name;
        e.args = std::move(args);
        e.ret = ret;
        return e;
    };
    const ArgValue str_count{std::string("12")};
    return {
        ev("creat", {{"pathname", ArgValue{std::string("/mnt/test/c")}},
                     {"mode", ArgValue{std::uint64_t{0600}}}}, 3),
        ev("creat", {{"flags", ArgValue{std::uint64_t{0}}},
                     {"mode", ArgValue{std::uint64_t{0}}}}, -13),
        ev("fchdir", {{"fd", ArgValue{std::int64_t{4}}}}, 0),
        ev("fchdir", {{"pathname", ArgValue{std::int64_t{4}}}}, -9),
        ev("lseek", {{"whence", ArgValue{std::int64_t{99}}},
                     {"offset", ArgValue{std::int64_t{-5}}},
                     {"whence", ArgValue{std::int64_t{1}}}},
           std::int64_t{1} << 40),
        ev("lseek", {{"offset", ArgValue{std::string("7")}},
                     {"whence", ArgValue{std::uint64_t{1} << 32}}}, 0),
        ev("write", {{"count", str_count},
                     {"count", ArgValue{std::uint64_t{5}}}}, 5),
        ev("write", {{"fd", ArgValue{std::string("3")}},
                     {"count", ArgValue{std::uint64_t{1} << 40}}},
           (std::int64_t{1} << 33) + 1),
        ev("chdir", {{"pathname", ArgValue{std::uint64_t{9}}}}, -2),
        ev("close", {{"fd", ArgValue{std::string("<fault>")}}}, -9999),
        ev("setxattr", {{"flags", ArgValue{std::int64_t{2}}},
                        {"size", ArgValue{std::int64_t{-3}}}},
           -(std::int64_t{1} << 32)),
        ev("open", {{"flags", ArgValue{std::uint64_t{
                                  abi::O_RDONLY | abi::O_SYNC | abi::O_TMPFILE |
                                  abi::O_CREAT | abi::O_EXCL | abi::O_NOCTTY |
                                  abi::O_TRUNC | abi::O_APPEND}}}},
           trace::kSyzNoReturn),
        ev("mkdir", {}, -122),
    };
}

std::vector<TraceEvent> adversarial_trace(std::uint64_t seed, int n,
                                          const std::vector<SyscallSpec>& reg) {
    std::mt19937_64 rng(seed);
    std::vector<TraceEvent> events = pinned_events();
    for (int i = 0; i < n; ++i)
        events.push_back(
            adversarial_event(rng, static_cast<std::uint64_t>(i), reg));
    std::shuffle(events.begin(), events.end(), rng);
    return events;
}

/// Gives every string-table entry a twin id and points a random half of
/// the batch's name, arg-name and string-value ids at the twins.
void duplicate_entries(trace::EventBatch& batch,
                       std::vector<std::string_view>& strings,
                       std::mt19937_64& rng) {
    const auto n = static_cast<std::uint32_t>(strings.size());
    for (std::uint32_t i = 0; i < n; ++i) strings.push_back(strings[i]);
    auto twin = [&](std::uint32_t id) { return rng() % 2 ? id + n : id; };
    for (auto& row : batch.rows) row.name_id = twin(row.name_id);
    for (auto& a : batch.args) {
        a.name_id = twin(a.name_id);
        if (a.type == trace::ArgType::Str)
            a.raw = twin(static_cast<std::uint32_t>(a.raw));
    }
}

std::string text_of(const std::vector<TraceEvent>& events) {
    std::string text;
    for (const auto& ev : events) text += trace::format_event(ev) + "\n";
    return text;
}

TEST(AnalyzerRows, RowCoreMatchesEventPathOnIoctTables) {
    for (const auto* reg : {&syscall_registry(), &extended_syscall_registry()})
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            const auto events = adversarial_trace(seed, 1500, *reg);
            const std::string data = trace::encode_trace(events);
            const auto scan = trace::scan_ioct(data);
            ASSERT_EQ(scan.events.size(), events.size());
            trace::EventBatch batch;
            trace::decode_batch(data, scan.strings, scan.events.data(),
                                scan.events.size(), batch);
            ASSERT_EQ(batch.rows.size(), events.size());
            const std::string what = "IOCT seed " + std::to_string(seed) +
                                     (reg == &syscall_registry()
                                          ? " (base registry)"
                                          : " (extended registry)");
            expect_row_core_matches(batch, scan.strings, *reg, what);
            std::mt19937_64 rng(seed);
            auto strings = scan.strings;
            duplicate_entries(batch, strings, rng);
            expect_row_core_matches(batch, strings, *reg,
                                    what + ", duplicated table");
        }
}

TEST(AnalyzerRows, RowCoreMatchesEventPathOnTextTables) {
    for (const auto* reg : {&syscall_registry(), &extended_syscall_registry()})
        for (std::uint64_t seed = 11; seed <= 16; ++seed) {
            const auto events = adversarial_trace(seed, 1500, *reg);
            const std::string text = text_of(events);
            trace::EventBatch batch;
            trace::TextStrings strings;
            std::size_t dropped = 0;
            trace::parse_chunk_rows(text, batch, strings, &dropped);
            ASSERT_EQ(dropped, 0u);
            ASSERT_EQ(batch.rows.size(), events.size());
            expect_row_core_matches(
                batch, strings.strings(), *reg,
                "text seed " + std::to_string(seed) +
                    (reg == &syscall_registry() ? " (base registry)"
                                                : " (extended registry)"));
        }
}

TEST(AnalyzerRows, AdversarialTraceReachesDynamicPartitions) {
    // The equivalence above is only as strong as what the rows reach:
    // they must land beyond the declared blocks, in pairs and in both
    // path boundary classes, not just in the common rows.
    const auto events = adversarial_trace(1, 1500, syscall_registry());
    Analyzer a;
    a.consume_all(events);
    const auto& r = a.report();
    EXPECT_TRUE(r.find_input("write", "count")->hist.has_partition("2^40"));
    EXPECT_GT(r.find_output("write")->hist.count("OK:2^33"), 0u);
    EXPECT_GT(r.find_output("open")->hist.count("E?9999"), 0u);
    EXPECT_GT(r.find_input("open", "flags")->pairs.partition_count(), 20u);
    const auto& path = r.find_input("chdir", "pathname")->hist;
    for (const char* label : {"name-max", "path-max", "dot", "dotdot",
                              "trailing-slash", "faulting", "via-fd", "empty"})
        EXPECT_GT(path.count(label), 0u) << label;
    EXPECT_GT(r.find_input("open", "flags")->combo_cardinality.count("7+"),
              0u);
}

// ---- metamorphic relations over the row core ---------------------------------

/// A seeded multi-pid trace over base syscall names only: opens inside
/// and outside /mnt/test, writes, chmods and closes on what they hold.
std::vector<TraceEvent> base_name_trace(std::uint64_t seed, int n) {
    static const std::uint64_t kFlags[] = {
        abi::O_CREAT | abi::O_WRONLY | abi::O_TRUNC, abi::O_RDONLY,
        abi::O_RDWR | abi::O_CREAT, abi::O_WRONLY | abi::O_APPEND,
        abi::O_RDWR | abi::O_SYNC | abi::O_CREAT | abi::O_EXCL};
    static const std::int64_t kOpenErrs[] = {-2, -13, -17, -28, -9999};
    std::mt19937_64 rng(seed);
    std::vector<TraceEvent> events;
    for (int i = 0; i < n; ++i) {
        TraceEvent ev;
        ev.seq = static_cast<std::uint64_t>(i);
        ev.pid = 10 + static_cast<std::uint32_t>(rng() % 5);
        ev.tid = ev.pid;
        const std::int64_t fd = 3 + static_cast<std::int64_t>(rng() % 4);
        const std::string path =
            std::string(rng() % 4 ? "/mnt/test/d" : "/tmp/d") +
            std::to_string(rng() % 6);
        switch (rng() % 5) {
            case 0:
            case 1:
                ev.syscall = "open";
                ev.args = {{"pathname", ArgValue{path}},
                           {"flags", ArgValue{kFlags[rng() % 5]}},
                           {"mode", ArgValue{std::uint64_t{0640}}}};
                ev.ret = rng() % 6 ? fd : kOpenErrs[rng() % 5];
                break;
            case 2: {
                ev.syscall = "write";
                const std::uint64_t count = std::uint64_t{1} << (rng() % 36);
                ev.args = {{"fd", ArgValue{fd}}, {"count", ArgValue{count}}};
                ev.ret = rng() % 5 ? static_cast<std::int64_t>(count) : -28;
                break;
            }
            case 3:
                ev.syscall = "chmod";
                ev.args = {{"pathname", ArgValue{path}},
                           {"mode", ArgValue{std::uint64_t{rng() % 07777}}}};
                ev.ret = rng() % 4 ? 0 : -1;
                break;
            default:
                ev.syscall = "close";
                ev.args = {{"fd", ArgValue{fd}}};
                ev.ret = 0;
                break;
        }
        events.push_back(std::move(ev));
    }
    return events;
}

/// `ev` as one of its base's variants, carrying the same base
/// arguments: pwrite64/writev for write, openat/creat for open,
/// fchmodat for chmod.  The dfd of an *at variant is AT_FDCWD, which
/// resolves the same paths the base call does.
TraceEvent as_variant(const TraceEvent& ev, std::mt19937_64& rng) {
    TraceEvent v = ev;
    const ArgValue at_fdcwd{std::int64_t{abi::AT_FDCWD}};
    if (ev.syscall == "write") {
        v.syscall = rng() % 2 ? "pwrite64" : "writev";
        if (v.syscall == "pwrite64")
            v.args.push_back({"pos", ArgValue{std::int64_t{512}}});
    } else if (ev.syscall == "open") {
        const bool creat_flags = ev.uint_arg("flags") ==
                                 std::uint64_t{abi::O_CREAT | abi::O_WRONLY |
                                               abi::O_TRUNC};
        if (creat_flags && rng() % 2) {
            v.syscall = "creat";  // its flags are implied, not carried
            std::erase_if(v.args,
                          [](const trace::Arg& a) { return a.name == "flags"; });
        } else {
            v.syscall = "openat";
            v.args.insert(v.args.begin(), {"dfd", at_fdcwd});
        }
    } else if (ev.syscall == "chmod") {
        v.syscall = "fchmodat";
        v.args.insert(v.args.begin(), {"dfd", at_fdcwd});
    }
    return v;
}

/// What an ingest route measures: the report plus the filtered count.
struct RouteResult {
    CoverageReport report;
    std::uint64_t filtered = 0;
    friend bool operator==(const RouteResult&, const RouteResult&) = default;
};

RouteResult via_binary(const std::vector<TraceEvent>& events) {
    IOCov iocov(trace::FilterConfig::mount_point("/mnt/test"));
    iocov.consume_binary(trace::encode_trace(events));
    return {iocov.report(), iocov.events_filtered_out()};
}

RouteResult via_text(const std::vector<TraceEvent>& events) {
    IOCov iocov(trace::FilterConfig::mount_point("/mnt/test"));
    std::istringstream in(text_of(events));
    iocov.consume_text(in);
    return {iocov.report(), iocov.events_filtered_out()};
}

/// Shrinks a failing list greedily: drops ever smaller chunks while
/// `fails` still holds, so the survivors are a small counterexample.
template <class T>
std::vector<T> shrink(std::vector<T> items,
                      const std::function<bool(const std::vector<T>&)>& fails) {
    for (std::size_t chunk = items.size() / 2; chunk >= 1; chunk /= 2) {
        for (std::size_t at = 0; at < items.size();) {
            std::vector<T> smaller(items.begin(),
                                   items.begin() + static_cast<long>(at));
            smaller.insert(smaller.end(),
                           items.begin() + static_cast<long>(
                                               std::min(at + chunk,
                                                        items.size())),
                           items.end());
            if (fails(smaller)) items = std::move(smaller);
            else at += chunk;
        }
    }
    return items;
}

using Route = RouteResult (*)(const std::vector<TraceEvent>&);

TEST(AnalyzerMetamorphic, VariantCollapseLeavesBasePartitionsUnchanged) {
    for (const auto& [name, route] :
         {std::pair<const char*, Route>{"consume_binary", via_binary},
          std::pair<const char*, Route>{"consume_text", via_text}})
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            std::mt19937_64 rng(seed * 977);
            const auto base = base_name_trace(seed, 3000);
            std::vector<std::pair<TraceEvent, TraceEvent>> pairs;
            for (const auto& ev : base) pairs.emplace_back(ev, as_variant(ev, rng));
            const std::function<bool(
                const std::vector<std::pair<TraceEvent, TraceEvent>>&)>
                fails = [&](const auto& ps) {
                    std::vector<TraceEvent> a, b;
                    for (const auto& [x, y] : ps) {
                        a.push_back(x);
                        b.push_back(y);
                    }
                    return route(a) != route(b);
                };
            if (!fails(pairs)) continue;
            std::string lines;
            for (const auto& [x, y] : shrink(pairs, fails))
                lines += "\n  " + trace::format_event(x) + "\n    as " +
                         trace::format_event(y);
            ADD_FAILURE() << name << " seed " << seed
                          << ": renaming to variants changed the report; "
                             "shrunk counterexample:"
                          << lines;
        }
    // The relation must have something to hold over: every variant
    // occurs, and the traces reach admitted and filtered rows alike.
    std::mt19937_64 rng(977);
    std::vector<TraceEvent> variants;
    for (const auto& ev : base_name_trace(1, 3000))
        variants.push_back(as_variant(ev, rng));
    for (const char* v : {"pwrite64", "writev", "openat", "creat", "fchmodat"})
        EXPECT_TRUE(std::any_of(variants.begin(), variants.end(),
                                [&](const auto& e) { return e.syscall == v; }))
            << v;
    const auto r = via_binary(variants);
    EXPECT_GT(r.filtered, 100u);
    EXPECT_GT(r.report.events_tracked, 1000u);
}

TEST(AnalyzerMetamorphic, PidPermutationLeavesReportUnchanged) {
    for (const auto& [name, route] :
         {std::pair<const char*, Route>{"consume_binary", via_binary},
          std::pair<const char*, Route>{"consume_text", via_text}})
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            // A bijection over the trace's pids, onto spread-out values.
            std::mt19937_64 rng(seed * 131);
            std::vector<std::uint32_t> to = {3, 70000, 0xfffffff0u, 11, 1};
            std::shuffle(to.begin(), to.end(), rng);
            auto permute = [&](std::vector<TraceEvent> evs) {
                for (auto& ev : evs) {
                    ev.pid = to[ev.pid - 10];
                    ev.tid = ev.pid;
                }
                return evs;
            };
            const std::function<bool(const std::vector<TraceEvent>&)> fails =
                [&](const std::vector<TraceEvent>& evs) {
                    return route(evs) != route(permute(evs));
                };
            const auto events = base_name_trace(seed + 100, 3000);
            if (!fails(events)) continue;
            std::string lines;
            for (const auto& ev : shrink(events, fails))
                lines += "\n  " + trace::format_event(ev);
            ADD_FAILURE() << name << " seed " << seed
                          << ": renumbering pids changed the report; shrunk "
                             "counterexample (pid map 10.. -> "
                          << to[0] << "," << to[1] << "," << to[2] << ","
                          << to[3] << "," << to[4] << "):" << lines;
        }
}

}  // namespace
}  // namespace iocov::core
