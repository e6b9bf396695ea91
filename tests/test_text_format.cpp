#include "trace/text_format.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <ostream>
#include <random>
#include <sstream>

#include "trace/binary_format.hpp"

namespace iocov::trace {
namespace {

TraceEvent sample_event() {
    TraceEvent ev;
    ev.seq = 17;
    ev.pid = 1201;
    ev.tid = 1201;
    ev.syscall = "openat";
    ev.args = {{"dfd", ArgValue{std::int64_t{-100}}},
               {"pathname", ArgValue{std::string("/mnt/test/f0")}},
               {"flags", ArgValue{std::uint64_t{0241}}},
               {"mode", ArgValue{std::uint64_t{0644}}}};
    ev.ret = 3;
    return ev;
}

TEST(TextFormat, FormatsLttngStyleLine) {
    const auto line = format_event(sample_event());
    EXPECT_EQ(line,
              "[000000017] pid=1201 tid=1201 openat: dfd=-100, "
              "pathname=\"/mnt/test/f0\", flags=0xa1, mode=0x1a4 = 3");
}

TEST(TextFormat, RoundTripsSampleEvent) {
    const auto ev = sample_event();
    const auto parsed = parse_event(format_event(ev));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, ev);
}

TEST(TextFormat, RoundTripsEventWithoutArgs) {
    TraceEvent ev;
    ev.seq = 1;
    ev.pid = 7;
    ev.tid = 7;
    ev.syscall = "sync";
    ev.ret = 0;
    const auto parsed = parse_event(format_event(ev));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, ev);
}

TEST(TextFormat, RoundTripsNegativeReturn) {
    auto ev = sample_event();
    ev.ret = -2;  // -ENOENT
    const auto parsed = parse_event(format_event(ev));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->ret, -2);
}

TEST(TextFormat, EscapesSpecialCharactersInStrings) {
    TraceEvent ev;
    ev.syscall = "open";
    ev.args = {{"pathname",
                ArgValue{std::string("/mnt/test/we\"ird\\name\n\t")}}};
    ev.ret = -2;
    const auto parsed = parse_event(format_event(ev));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, ev);
}

TEST(TextFormat, StringWithCommaAndEqualsSurvives) {
    TraceEvent ev;
    ev.syscall = "open";
    ev.args = {{"pathname", ArgValue{std::string("/mnt/a=b, c")}}};
    ev.ret = 4;
    const auto parsed = parse_event(format_event(ev));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, ev);
}

TEST(TextFormat, ParserRejectsMalformedLines) {
    EXPECT_FALSE(parse_event(""));
    EXPECT_FALSE(parse_event("garbage"));
    EXPECT_FALSE(parse_event("[x] pid=1 tid=1 open: = 0"));
    EXPECT_FALSE(parse_event("[1] pid=1 tid=1 open: fd=notanumber = 0"));
    EXPECT_FALSE(parse_event("[1] pid=1 tid=1 open: fd=1"));  // no ret
    EXPECT_FALSE(parse_event("[1] pid=1 open: = 0"));         // no tid
    EXPECT_FALSE(
        parse_event("[1] pid=1 tid=1 open: = 0 trailing"));   // junk tail
}

TEST(TextFormat, ParserRejectsOverflowingNumericFields) {
    // Over-long numbers in a torn trace must drop the line, never wrap
    // into a plausible value.  2^64 and 2^64-flavored hex overflows:
    EXPECT_FALSE(
        parse_event("[18446744073709551616] pid=1 tid=1 open: = 0"));
    EXPECT_FALSE(parse_event("[1] pid=4294967296 tid=1 open: = 0"));
    EXPECT_FALSE(parse_event("[1] pid=1 tid=4294967296 open: = 0"));
    EXPECT_FALSE(parse_event(
        "[1] pid=1 tid=1 open: flags=0xffffffffffffffff1 = 0"));
    EXPECT_FALSE(parse_event(
        "[1] pid=1 tid=1 open: size=99999999999999999999999999 = 0"));
    EXPECT_FALSE(
        parse_event("[1] pid=1 tid=1 open: = 99999999999999999999"));
    // The extremes themselves still parse (no off-by-one rejection).
    const auto max_ok = parse_event(
        "[18446744073709551615] pid=4294967295 tid=4294967295 open: "
        "flags=0xffffffffffffffff = 0");
    ASSERT_TRUE(max_ok.has_value());
    EXPECT_EQ(max_ok->seq, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(*max_ok->uint_arg("flags"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(TextFormat, EveryTruncationOfAValidLineIsRejected) {
    const auto line = format_event(sample_event());
    for (std::size_t cut = 0; cut < line.size(); ++cut)
        EXPECT_FALSE(parse_event(line.substr(0, cut)))
            << "prefix of length " << cut << " parsed";
}

TEST(TextFormat, ParserRejectsUnterminatedString) {
    EXPECT_FALSE(
        parse_event("[1] pid=1 tid=1 open: pathname=\"/mnt = 0"));
}

TEST(TextFormat, StreamParsingSkipsCommentsAndCountsDrops) {
    std::stringstream ss;
    ss << "# a comment\n";
    ss << format_event(sample_event()) << "\n";
    ss << "torn line\n";
    ss << "\n";
    ss << format_event(sample_event()) << "\n";
    std::size_t dropped = 0;
    const auto events = parse_stream(ss, &dropped);
    EXPECT_EQ(events.size(), 2u);
    EXPECT_EQ(dropped, 1u);
}

TEST(TextFormat, DiagnosticsCarryLinePositionAndReason) {
    std::stringstream ss;
    ss << format_event(sample_event()) << "\n";    // line 1, ok
    ss << "# comment\n";                           // line 2, not a drop
    ss << "[x] broken\n";                          // line 3, drop
    ss << format_event(sample_event()) << "\n";    // line 4, ok
    ss << "another bad line\n";                    // line 5, drop
    const std::string text = ss.str();
    std::size_t dropped = 0;
    ParseDiagnostics diags;
    parse_stream(ss, &dropped, &diags);
    EXPECT_EQ(dropped, 2u);
    ASSERT_EQ(diags.entries().size(), 2u);
    EXPECT_EQ(diags.entries()[0].line, 3u);
    EXPECT_EQ(diags.entries()[0].excerpt, "[x] broken");
    EXPECT_EQ(diags.entries()[0].reason, "bad sequence number");
    EXPECT_EQ(diags.entries()[1].line, 5u);
    EXPECT_EQ(text.substr(static_cast<std::size_t>(
                              diags.entries()[1].offset),
                          16),
              "another bad line");
}

TEST(TextFormat, DiagnosticsRetainFirstKVerbatimAndCountTheRest) {
    std::stringstream ss;
    const std::size_t kBad = ParseDiagnostics::kDefaultMaxRetained + 4;
    for (std::size_t i = 0; i < kBad; ++i)
        ss << "bad line number " << i << "\n";
    std::size_t dropped = 0;
    ParseDiagnostics diags;
    parse_stream(ss, &dropped, &diags);
    EXPECT_EQ(dropped, kBad);
    EXPECT_EQ(diags.total(), kBad);
    ASSERT_EQ(diags.entries().size(), ParseDiagnostics::kDefaultMaxRetained);
    for (std::size_t i = 0; i < diags.entries().size(); ++i) {
        EXPECT_EQ(diags.entries()[i].line, i + 1);
        EXPECT_EQ(diags.entries()[i].excerpt,
                  "bad line number " + std::to_string(i));
    }
    EXPECT_NE(diags.to_string().find("and 4 more"), std::string::npos);
}

TEST(TextFormat, DiagnosticsClipLongExcerpts) {
    ParseDiagnostics diags;
    diags.record(1, 0, "why", std::string(1000, 'x'));
    ASSERT_EQ(diags.entries().size(), 1u);
    EXPECT_EQ(diags.entries()[0].excerpt.size(),
              ParseDiagnostics::kExcerptBytes);
}

TEST(TextFormat, DiagnosticsMergeRestoresInputOrder) {
    ParseDiagnostics a, b;
    a.record(10, 100, "r10");
    a.record(30, 300, "r30");
    b.record(20, 200, "r20");
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    ASSERT_EQ(a.entries().size(), 3u);
    EXPECT_EQ(a.entries()[0].reason, "r10");
    EXPECT_EQ(a.entries()[1].reason, "r20");
    EXPECT_EQ(a.entries()[2].reason, "r30");
}

TEST(TextFormat, ParseChunkPositionsDiagnosticsAbsolutely) {
    const std::string chunk = "bad one\nbad two\n";
    std::size_t dropped = 0;
    ParseDiagnostics diags;
    parse_chunk(chunk, &dropped, &diags, /*first_line=*/41,
                /*base_offset=*/5000);
    EXPECT_EQ(dropped, 2u);
    ASSERT_EQ(diags.entries().size(), 2u);
    EXPECT_EQ(diags.entries()[0].line, 41u);
    EXPECT_EQ(diags.entries()[0].offset, 5000u);
    EXPECT_EQ(diags.entries()[1].line, 42u);
    EXPECT_EQ(diags.entries()[1].offset, 5008u);
}

// ---- one grammar: parse_row == parse_event --------------------------------

/// A line as C++ source, so a failing case can be pasted into a test.
std::string as_literal(std::string_view line) {
    std::string out = "\"";
    for (const char ch : line) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (ch == '\n') {
            out += "\\n";
        } else if (ch == '\t') {
            out += "\\t";
        } else if (ch == '\0') {
            out += "\\0";
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

/// Random events whose strings draw on the grammar's delimiters, so
/// format_event's lines exercise every escape and separator.
TraceEvent adversarial_event(std::mt19937_64& rng) {
    static const char* const kNames[] = {"open", "openat", "pwrite64",
                                         "x", "a b", "x=y", "s,t"};
    static const char* const kArgs[] = {"fd", "pathname", "flags", "buf",
                                        "a b", "p,q", "count"};
    static const char kAlphabet[] = {'a', '/', ',', '=', ' ', '"', '\\',
                                     '\n', '\t', '\0', ':', '#', '0', 'x'};
    TraceEvent ev;
    const std::uint64_t pick = rng() % 4;
    ev.seq = pick == 0 ? std::numeric_limits<std::uint64_t>::max()
                       : rng() % 1000;
    ev.pid = pick == 1 ? std::numeric_limits<std::uint32_t>::max()
                       : static_cast<std::uint32_t>(rng() % 64);
    ev.tid = pick == 2 ? 0 : ev.pid;
    ev.syscall = kNames[rng() % std::size(kNames)];
    const std::size_t argc = rng() % 5;  // zero-arg events included
    for (std::size_t i = 0; i < argc; ++i) {
        Arg arg;
        arg.name = kArgs[rng() % std::size(kArgs)];  // repeats happen
        switch (rng() % 5) {
            case 0:
                arg.value = std::numeric_limits<std::int64_t>::min() +
                            static_cast<std::int64_t>(rng() % 3);
                break;
            case 1:
                arg.value = static_cast<std::int64_t>(rng() % 200) - 100;
                break;
            case 2: arg.value = std::uint64_t{rng()}; break;
            default: {
                std::string str;
                const std::size_t len = rng() % 8;
                for (std::size_t k = 0; k < len; ++k)
                    str += kAlphabet[rng() % sizeof kAlphabet];
                if (rng() % 4 == 0) str += rng() % 2 ? ", =" : "= ";
                arg.value = std::move(str);
            }
        }
        ev.args.push_back(std::move(arg));
    }
    ev.ret = pick == 3 ? std::numeric_limits<std::int64_t>::min()
                       : static_cast<std::int64_t>(rng() % 64) - 32;
    return ev;
}

std::vector<std::string> adversarial_lines(std::uint64_t seed) {
    std::vector<std::string> lines = {
        "",
        "# comment",
        "[1] pid=1 tid=1 close: = 0",
        "[1] pid=1 tid=1 close:= 0",
        "[1] pid=1 tid=1 close: fd=3, = 0",
        "[18446744073709551615] pid=4294967295 tid=4294967295 x: = "
        "9223372036854775807",
        "[18446744073709551616] pid=1 tid=1 x: = 0",
        "[1] pid=4294967296 tid=1 x: = 0",
        "[1] pid=1 tid=4294967296 x: = 0",
        "[1] pid=1 tid=1 x: = 9223372036854775808",
        "[1] pid=1 tid=1 x: = -9223372036854775809",
        "[1] pid=1 tid=1 x: = -9223372036854775808",
        "[1] pid=1 tid=1 x: a=-9223372036854775809 = 0",
        "[1] pid=1 tid=1 x: a=0x10000000000000000 = 0",
        "[1] pid=1 tid=1 x: a=0xffffffffffffffff = 0",
        "[1] pid=1 tid=1 x: a=0x = 0",
        "[1] pid=1 tid=1 x: a=0x-1 = 0",
        "[1] pid=1 tid=1 x: a=+1 = 0",
        "[1] pid=1 tid=1 x: a=\"q\\\"\\\\\\n\\t\" = 0",
        "[1] pid=1 tid=1 x: a=\"bad \\q escape\" = 0",
        "[1] pid=1 tid=1 x: a=\"lone \\",
        "[1] pid=1 tid=1 x: a=\"unterminated = 0",
        "[1] pid=1 tid=1 x: a=\", =\", b=\"= \", c=\"x\" = 0",
        "[1] pid=1 tid=1 x: a=1, a=\"two\", a=0x3 = 0",
        "[1] pid=1 tid=1 x: a=1 b=2 = 0",
        "[1] pid=1 tid=1 x: =1 = 0",
        "[1] pid=1 tid=1 x: a= = 0",
        "[1] pid=1 tid=1 x: a=1 = 0 trailing",
        "[1] pid=1 tid=1 x: a=1 = 0   ",
        "[1]pid=1 tid=1 x: = 0",
        "[1] pid=1  tid=1  x: = 0",
        "[1] pid= tid=1 x: = 0",
        "[] pid=1 tid=1 x: = 0",
        "[1 pid=1 tid=1 x: = 0",
        "[1] pid=1 tid=1 : = 0",
        "[1] pid=1 tid=1 x = 0",
    };
    // Literals with an embedded NUL, kept whole.
    const auto whole = [](const auto& lit) {
        return std::string(lit, sizeof lit - 1);
    };
    lines.push_back(whole("[1] pid=1 tid=1 x: a=\"nul\0in\" = 0"));
    lines.push_back(whole("[1] pid=1 tid=1 x\0y: = 0"));
    lines.push_back(whole("[1] pid=1 tid=1 x: a=1\0 = 0"));

    std::mt19937_64 rng(seed);
    for (int i = 0; i < 150; ++i) {
        const std::string line = format_event(adversarial_event(rng));
        // Every byte cut of a valid line.
        for (std::size_t cut = 0; cut <= line.size(); ++cut)
            lines.push_back(line.substr(0, cut));
        // Point mutations with the grammar's own delimiters.
        static const char kSwap[] = {' ', '=', ',', '"', '\\', ']', ':',
                                     '\0', 'x', '-', '9'};
        for (int m = 0; m < 8; ++m) {
            std::string mutated = line;
            mutated[rng() % mutated.size()] = kSwap[rng() % sizeof kSwap];
            lines.push_back(std::move(mutated));
        }
    }
    return lines;
}

TEST(TextFormat, RowParseMatchesParseEvent) {
    // All lines share one batch and one string table, so interning
    // across lines, arena stability and rejected-line rollback are
    // exercised the way parse_chunk_rows uses them.
    const auto lines = adversarial_lines(20261019);
    EventBatch batch;
    TextStrings strings;
    EventScratch scratch;
    std::vector<TraceEvent> accepted;
    std::size_t rejected = 0;
    for (const auto& line : lines) {
        if (line.empty() || line[0] == '#') continue;  // chunk-level only
        const char* want_reason = "unset";
        const char* got_reason = "unset";
        const auto want = parse_event(line, &want_reason);
        const std::size_t rows0 = batch.rows.size();
        const std::size_t args0 = batch.args.size();
        const bool ok = parse_row(line, batch, strings, &got_reason);
        const bool same =
            ok == want.has_value() &&
            (ok ? batch.rows.size() == rows0 + 1 &&
                      scratch.materialize(batch, rows0, strings.strings()) ==
                          *want
                : batch.rows.size() == rows0 && batch.args.size() == args0 &&
                      std::strcmp(want_reason, got_reason) == 0);
        if (!same) {
            FAIL() << "first diverging line: " << as_literal(line)
                   << " (parse_event: " << (want ? "accepted" : want_reason)
                   << ", parse_row: " << (ok ? "accepted" : got_reason)
                   << ")";
        }
        if (ok) accepted.push_back(*want);
        else ++rejected;
    }
    ASSERT_GT(accepted.size(), 150u);
    ASSERT_GT(rejected, 1000u);
    // Rows parsed early still read their strings after the table grew.
    ASSERT_EQ(batch.rows.size(), accepted.size());
    for (std::size_t r = 0; r < accepted.size(); ++r)
        ASSERT_EQ(scratch.materialize(batch, r, strings.strings()),
                  accepted[r])
            << "row " << r;

    // Arg types and values are the ones IOCT encodes for the same event.
    const std::string ioct = encode_trace(accepted);
    const auto scan = scan_ioct(ioct);
    EventBatch decoded;
    decode_batch(ioct, scan.strings, scan.events.data(), scan.events.size(),
                 decoded);
    ASSERT_EQ(decoded.rows.size(), batch.rows.size());
    ASSERT_EQ(decoded.args.size(), batch.args.size());
    for (std::size_t a = 0; a < batch.args.size(); ++a) {
        const BatchArg& text = batch.args[a];
        const BatchArg& bin = decoded.args[a];
        ASSERT_EQ(text.type, bin.type) << "arg " << a;
        if (text.type == ArgType::Str)
            ASSERT_EQ(strings.strings()[text.raw], scan.strings[bin.raw])
                << "arg " << a;
        else
            ASSERT_EQ(text.raw, bin.raw) << "arg " << a;
    }

    // Chunk level: comments, empty lines, drop counts and diagnostics
    // (line, offset, reason, excerpt) agree with parse_stream.
    std::string text;
    for (const auto& line : lines) text += line + "\n";
    std::size_t row_dropped = 0, stream_dropped = 0;
    ParseDiagnostics row_diags(100000), stream_diags(100000);
    EventBatch chunk_rows;
    TextStrings chunk_strings;
    parse_chunk_rows(text, chunk_rows, chunk_strings, &row_dropped,
                     &row_diags);
    std::istringstream in(text);
    const auto events = parse_stream(in, &stream_dropped, &stream_diags);
    EXPECT_EQ(row_dropped, stream_dropped);
    EXPECT_EQ(row_dropped, rejected);
    ASSERT_EQ(chunk_rows.rows.size(), events.size());
    for (std::size_t r = 0; r < events.size(); ++r)
        ASSERT_EQ(scratch.materialize(chunk_rows, r, chunk_strings.strings()),
                  events[r]);
    ASSERT_EQ(row_diags.entries().size(), stream_diags.entries().size());
    for (std::size_t d = 0; d < row_diags.entries().size(); ++d) {
        const auto& x = row_diags.entries()[d];
        const auto& y = stream_diags.entries()[d];
        ASSERT_TRUE(x.line == y.line && x.offset == y.offset &&
                    x.reason == y.reason && x.excerpt == y.excerpt)
            << "diagnostic " << d;
    }
}

TEST(TextFormat, StringTableOwnsItsStrings) {
    // A parsed table must not point into the text: the text route reads
    // the next block into the same buffer while earlier rows wait.
    std::string text;
    for (const auto& line : adversarial_lines(7)) text += line + "\n";
    std::istringstream in(text);
    const auto events = parse_stream(in);
    EventBatch batch;
    TextStrings strings;
    parse_chunk_rows(text, batch, strings);
    std::fill(text.begin(), text.end(), 'X');
    ASSERT_EQ(batch.rows.size(), events.size());
    EventScratch scratch;
    for (std::size_t r = 0; r < events.size(); ++r)
        ASSERT_EQ(scratch.materialize(batch, r, strings.strings()), events[r])
            << "row " << r;
}

/// A stream that cannot seek and hands out at most 7 bytes per read,
/// like a pipe.
class TrickleBuf : public std::streambuf {
  public:
    explicit TrickleBuf(std::string bytes) : bytes_(std::move(bytes)) {}

  protected:
    int_type underflow() override {
        if (pos_ == bytes_.size()) return traits_type::eof();
        const std::size_t n = std::min<std::size_t>(7, bytes_.size() - pos_);
        std::memcpy(buf_, bytes_.data() + pos_, n);
        pos_ += n;
        setg(buf_, buf_, buf_ + n);
        return traits_type::to_int_type(buf_[0]);
    }

  private:
    std::string bytes_;
    std::size_t pos_ = 0;
    char buf_[7];
};

TEST(TextFormat, ReadTextIsByteExact) {
    for (const std::string& bytes :
         {std::string(), std::string("no final newline"),
          std::string("a\nb\n"), std::string("nul\0byte\n\n", 11),
          std::string(200000, 'x') + "\ntail"}) {
        std::istringstream seekable(bytes);
        EXPECT_EQ(read_text(seekable), bytes);
        // Part-way through: only the rest is read.
        std::istringstream part(bytes);
        part.ignore(static_cast<std::streamsize>(bytes.size() / 2));
        EXPECT_EQ(read_text(part), bytes.substr(bytes.size() / 2));
        TrickleBuf pipe_buf(bytes);
        std::istream pipe(&pipe_buf);
        EXPECT_EQ(read_text(pipe), bytes);
    }
}

TEST(EscapeString, InverseOfUnescape) {
    const std::string raw = "a\"b\\c\nd\te";
    const auto unescaped = unescape_string(escape_string(raw));
    ASSERT_TRUE(unescaped.has_value());
    EXPECT_EQ(*unescaped, raw);
}

TEST(UnescapeString, RejectsBadEscapes) {
    EXPECT_FALSE(unescape_string("trailing\\"));
    EXPECT_FALSE(unescape_string("bad\\q"));
}

// Property: round-trip holds across arg-type combinations.
struct RoundTripCase {
    const char* name;
    ArgValue value;
};

// Print a case by its name so the test names gtest and ctest derive from
// the parameter are stable; the default byte dump would embed the address
// of `name`, which changes from run to run under ASLR.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.name; }

class TextRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(TextRoundTrip, SingleArgRoundTrips) {
    TraceEvent ev;
    ev.seq = 99;
    ev.pid = 1;
    ev.tid = 2;
    ev.syscall = "probe";
    ev.args = {{GetParam().name, GetParam().value}};
    ev.ret = -22;
    const auto parsed = parse_event(format_event(ev));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, ev);
}

INSTANTIATE_TEST_SUITE_P(
    Values, TextRoundTrip,
    ::testing::Values(
        RoundTripCase{"i0", ArgValue{std::int64_t{0}}},
        RoundTripCase{"imin",
                      ArgValue{std::numeric_limits<std::int64_t>::min()}},
        RoundTripCase{"imax",
                      ArgValue{std::numeric_limits<std::int64_t>::max()}},
        RoundTripCase{"u0", ArgValue{std::uint64_t{0}}},
        RoundTripCase{"umax",
                      ArgValue{std::numeric_limits<std::uint64_t>::max()}},
        RoundTripCase{"empty", ArgValue{std::string()}},
        RoundTripCase{"plain", ArgValue{std::string("abc")}},
        RoundTripCase{"quoted", ArgValue{std::string("\"\"")}},
        RoundTripCase{"slashes", ArgValue{std::string("\\\\n")}}));

}  // namespace
}  // namespace iocov::trace
