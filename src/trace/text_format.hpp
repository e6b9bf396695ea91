// Text serialization of trace events (LTTng-style line format).
//
// One event per line:
//
//   [000000017] pid=1201 tid=1201 openat: dfd=-100,
//       pathname="/mnt/test/f0", flags=0x241, mode=0x1a4 = 3
//
// Unsigned args print as hex with 0x, signed as decimal, strings quoted
// with backslash escapes.  The parser accepts exactly what format_event
// produces, enabling the trace-file -> analyzer pipeline of the real
// IOCov tool and round-trip tests.
//
// There is one grammar, parse_row(): it parses a line into an IOCT-style
// SoA row (trace::EventBatch) whose strings are ids into a TextStrings
// table that owns a copy of each distinct string, so a parsed chunk
// allocates per distinct string, not per event, its rows outlive the
// text they came from, and it feeds the same admit_row -> consume_row
// loop as an IOCT trace.  parse_event, parse_chunk and parse_stream
// are adapters that materialize its rows into TraceEvents.
//
// Streams are read in line-aligned blocks (LineBlockReader) into
// reusable buffers, so a caller can parse one block while the next is
// read and never hold the whole text.
#pragma once

#include <istream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "trace/binary_format.hpp"
#include "trace/diagnostics.hpp"
#include "trace/event.hpp"

namespace iocov::trace {

/// Renders one event as a single line (no trailing newline).
std::string format_event(const TraceEvent& event);

/// The string table of parsed text rows: each distinct syscall name, arg
/// name and string value gets one id, in order of first use, like an
/// IOCT string table (and bound the same way, SyscallTable::bind_all
/// and TraceFilter::bind).  Each new string is copied into an arena
/// owned by the table, so entries stay valid, at stable addresses, for
/// the table's lifetime — whatever happens to the text they were parsed
/// from.
class TextStrings {
  public:
    /// Id of `s`, its bytes copied into the arena when new.
    std::uint32_t intern(std::string_view s);
    /// Id of unescape_string(`escaped`), the unescaped bytes copied into
    /// the arena when new; nullopt on an invalid escape sequence.
    std::optional<std::uint32_t> intern_unescaped(std::string_view escaped);

    const std::vector<std::string_view>& strings() const { return strings_; }

  private:
    /// A copy of `s` in the arena.
    std::string_view store(std::string_view s);

    std::vector<std::string_view> strings_;
    std::unordered_map<std::string_view, std::uint32_t> ids_;
    std::vector<std::unique_ptr<char[]>> arena_;  ///< chunks, never moved
    char* arena_next_ = nullptr;  ///< free bytes of the last chunk
    std::size_t arena_left_ = 0;
    std::string unescaped_;  ///< intern_unescaped's scratch
};

/// The text grammar.  Parses a line produced by format_event into one
/// row appended to `out`, every string interned into `strings` (which
/// copies what it keeps, so `line` may go away afterwards).  Names and
/// string values become Str args, 0x-hex numbers Uint and decimal
/// numbers Int — exactly the types IOCT encodes for the event
/// parse_event returns.  On malformed
/// input returns false and appends no row or arg (strings interned
/// before the fault may stay), with `*reason` (when non-null) naming
/// the first malformed field as a static string.
bool parse_row(std::string_view line, EventBatch& out, TextStrings& strings,
               const char** reason = nullptr);

/// parse_row of one line, materialized.  Returns nullopt on malformed
/// input (never throws; trace files may be truncated mid-line), with
/// parse_row's `*reason`.
std::optional<TraceEvent> parse_event(std::string_view line,
                                      const char** reason = nullptr);

/// Parses an entire stream, skipping blank lines and '#' comments.
/// Malformed lines are counted into *dropped (if non-null) and skipped,
/// mirroring how the real analyzer tolerates torn LTTng buffers; each
/// is also recorded into `diags` (when non-null) with its line number,
/// byte offset, and parse_event's reason.
std::vector<TraceEvent> parse_stream(std::istream& in,
                                     std::size_t* dropped = nullptr,
                                     ParseDiagnostics* diags = nullptr);

/// Splits `text` into at most `n_chunks` byte ranges cut at line
/// boundaries (a line never straddles two chunks), sized as evenly as
/// the line structure allows.  The views alias `text`; concatenating
/// them in order reproduces it.
std::vector<std::string_view> split_line_chunks(std::string_view text,
                                                std::size_t n_chunks);

/// parse_row over every line of `chunk`, skipping blank lines and '#'
/// comments: appends one row per well-formed line to `out`, interning
/// into `strings` (both may already hold earlier rows).  Malformed
/// lines are counted into *dropped (when non-null, which is reset
/// first) and recorded into `diags` with their line number and byte
/// offset, `first_line`/`base_offset` positioning the chunk within the
/// whole input.  Returns the number of lines in `chunk`, a last line
/// without '\n' included.
std::uint64_t parse_chunk_rows(std::string_view chunk, EventBatch& out,
                               TextStrings& strings,
                               std::size_t* dropped = nullptr,
                               ParseDiagnostics* diags = nullptr,
                               std::uint64_t first_line = 1,
                               std::uint64_t base_offset = 0);

/// parse_stream over one in-memory chunk: same blank/'#'/malformed-line
/// handling, no istream: parse_chunk_rows with every row materialized.
/// `first_line`/`base_offset` position the chunk within the whole
/// input so diagnostics carry file-absolute line numbers and offsets.
std::vector<TraceEvent> parse_chunk(std::string_view chunk,
                                    std::size_t* dropped = nullptr,
                                    ParseDiagnostics* diags = nullptr,
                                    std::uint64_t first_line = 1,
                                    std::uint64_t base_offset = 0);

/// A reusable buffer of LineBlockReader: allocated on first use, grown
/// for a line longer than a block, never zero-filled.
struct LineBlock {
    std::unique_ptr<char[]> data;
    std::size_t capacity = 0;
    std::size_t size = 0;      ///< bytes of the block
    std::uint64_t offset = 0;  ///< of its first byte in the stream

    std::string_view text() const { return {data.get(), size}; }
};

/// Reads the rest of a stream as consecutive blocks of whole lines.
/// Each block is filled to kBlockBytes and cut after its last '\n'; the
/// partial line after the cut starts the next block.  A line longer
/// than a block grows the block until it fits.  The last block holds
/// the rest of the stream, uncut, so only it may end without '\n'.  The end
/// of the stream is a read that returns nothing, not a short read, so
/// pipes that trickle bytes read exactly.  Concatenating the blocks
/// reproduces the stream byte for byte.
class LineBlockReader {
  public:
    static constexpr std::size_t kBlockBytes = std::size_t{256} << 10;

    explicit LineBlockReader(std::istream& in) : buf_(in.rdbuf()) {}

    /// Fills `block` (any buffer, reused as is when large enough) with
    /// the next block.  Returns false at the end of the stream.
    bool next(LineBlock& block);

  private:
    std::streambuf* buf_;
    std::string carry_;  ///< the partial line after the last cut
    std::uint64_t offset_ = 0;
    bool eof_ = false;
};

/// Reads the rest of `in` into one string, byte for byte (the
/// concatenated blocks of a LineBlockReader).
std::string read_text(std::istream& in);

/// Escapes a string for quoting inside a trace line.
std::string escape_string(std::string_view s);

/// Reverses escape_string; nullopt on invalid escape sequences.
std::optional<std::string> unescape_string(std::string_view s);

}  // namespace iocov::trace
