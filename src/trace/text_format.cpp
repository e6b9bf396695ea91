#include "trace/text_format.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace iocov::trace {
namespace {

// --- tiny recursive-descent helpers over a string_view cursor ---------

struct Cursor {
    std::string_view rest;

    bool consume(std::string_view token) {
        if (rest.substr(0, token.size()) != token) return false;
        rest.remove_prefix(token.size());
        return true;
    }

    void skip_spaces() {
        while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    }

    /// Consumes characters until one of `Stops` or end; returns them.
    /// The stop set is a template argument so the scan compiles to
    /// plain compares, with no per-character search call.
    template <char... Stops>
    std::string_view take_until() {
        std::size_t i = 0;
        while (i < rest.size() && ((rest[i] != Stops) && ...)) ++i;
        auto out = rest.substr(0, i);
        rest.remove_prefix(i);
        return out;
    }
};

template <typename T>
std::optional<T> parse_number(std::string_view s, int base = 10) {
    T value{};
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value, base);
    // Both failure modes drop the line: result_out_of_range for fields
    // that overflow T (an over-long number in a torn trace must never
    // wrap into a plausible value), invalid_argument / trailing bytes
    // for non-numeric garbage.
    if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
    return value;
}

/// Unescapes `s` into `out` (replacing it); false on an invalid
/// escape sequence.
bool unescape_into(std::string_view s, std::string& out) {
    out.clear();
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        if (++i == s.size()) return false;
        switch (s[i]) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            default: return false;
        }
    }
    return true;
}

/// Parses the argument value at the cursor into `arg` (type and raw
/// value; the caller sets the name).  Returns nullptr, or the reason
/// the value is malformed.
const char* parse_value(Cursor& c, TextStrings& strings, BatchArg& arg) {
    if (c.rest.empty()) return "missing argument value";
    if (c.rest.front() == '"') {
        c.rest.remove_prefix(1);
        std::size_t end = 0;
        bool escaped = false;
        while (end < c.rest.size() && c.rest[end] != '"') {
            if (c.rest[end] != '\\') {
                ++end;
                continue;
            }
            if (c.rest.size() - end < 2) return "truncated escape sequence";
            escaped = true;
            end += 2;
        }
        if (end == c.rest.size()) return "unterminated string value";
        const std::string_view raw = c.rest.substr(0, end);
        c.rest.remove_prefix(end + 1);
        arg.type = ArgType::Str;
        if (!escaped) {
            arg.raw = strings.intern(raw);
            return nullptr;
        }
        const auto id = strings.intern_unescaped(raw);
        if (!id) return "invalid escape sequence";
        arg.raw = *id;
        return nullptr;
    }
    const auto token = c.take_until<',', ' ', '='>();
    if (token.starts_with("0x")) {
        const auto u = parse_number<std::uint64_t>(token.substr(2), 16);
        if (!u) return "bad hex argument value";
        arg.type = ArgType::Uint;
        arg.raw = *u;
        return nullptr;
    }
    const auto i = parse_number<std::int64_t>(token);
    if (!i) return "bad numeric argument value";
    arg.type = ArgType::Int;
    arg.raw = static_cast<std::uint64_t>(*i);
    return nullptr;
}

}  // namespace

std::string escape_string(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        switch (ch) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default: out += ch;
        }
    }
    return out;
}

std::optional<std::string> unescape_string(std::string_view s) {
    std::string out;
    if (!unescape_into(s, out)) return std::nullopt;
    return out;
}

// ---- TextStrings -----------------------------------------------------------

std::uint32_t TextStrings::intern(std::string_view s) {
    const auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    s = store(s);
    const auto id = static_cast<std::uint32_t>(strings_.size());
    strings_.push_back(s);
    ids_.emplace(s, id);
    return id;
}

std::optional<std::uint32_t> TextStrings::intern_unescaped(
    std::string_view escaped) {
    if (!unescape_into(escaped, unescaped_)) return std::nullopt;
    return intern(unescaped_);
}

std::string_view TextStrings::store(std::string_view s) {
    // A text block holds on the order of a thousand distinct strings,
    // so a few 16 KiB chunks take them all.
    constexpr std::size_t kChunkBytes = 16 << 10;
    if (s.size() > arena_left_) {
        arena_left_ = std::max(kChunkBytes, s.size());
        arena_next_ = arena_
                          .emplace_back(
                              std::make_unique_for_overwrite<char[]>(
                                  arena_left_))
                          .get();
    }
    if (!s.empty()) std::memcpy(arena_next_, s.data(), s.size());
    const std::string_view copy(arena_next_, s.size());
    arena_next_ += s.size();
    arena_left_ -= s.size();
    return copy;
}

std::string format_event(const TraceEvent& event) {
    char head[96];
    std::snprintf(head, sizeof head, "[%09llu] pid=%u tid=%u %s:",
                  static_cast<unsigned long long>(event.seq), event.pid,
                  event.tid, event.syscall.c_str());
    std::string out = head;
    bool first = true;
    for (const auto& arg : event.args) {
        out += first ? " " : ", ";
        first = false;
        out += arg.name;
        out += '=';
        if (const auto* i = std::get_if<std::int64_t>(&arg.value)) {
            out += std::to_string(*i);
        } else if (const auto* u = std::get_if<std::uint64_t>(&arg.value)) {
            char buf[24];
            std::snprintf(buf, sizeof buf, "0x%llx",
                          static_cast<unsigned long long>(*u));
            out += buf;
        } else {
            out += '"';
            out += escape_string(std::get<std::string>(arg.value));
            out += '"';
        }
    }
    out += " = ";
    out += std::to_string(event.ret);
    return out;
}

bool parse_row(std::string_view line, EventBatch& out, TextStrings& strings,
               const char** reason) {
    Cursor c{line};
    const std::size_t arg_begin = out.args.size();
    auto fail = [&](const char* r) {
        out.args.resize(arg_begin);
        if (reason) *reason = r;
        return false;
    };
    BatchRow row;

    if (!c.consume("[")) return fail("missing '[seq]' header");
    const auto seq = parse_number<std::uint64_t>(c.take_until<']'>());
    if (!seq || !c.consume("]")) return fail("bad sequence number");
    row.seq = *seq;

    c.skip_spaces();
    if (!c.consume("pid=")) return fail("missing pid field");
    const auto pid = parse_number<std::uint32_t>(c.take_until<' '>());
    if (!pid) return fail("bad pid");
    row.pid = *pid;

    c.skip_spaces();
    if (!c.consume("tid=")) return fail("missing tid field");
    const auto tid = parse_number<std::uint32_t>(c.take_until<' '>());
    if (!tid) return fail("bad tid");
    row.tid = *tid;

    c.skip_spaces();
    const auto name = c.take_until<':'>();
    if (name.empty() || !c.consume(":")) return fail("missing syscall name");

    // Arguments until the " = ret" tail.
    for (;;) {
        c.skip_spaces();
        if (c.rest.starts_with("= ")) break;  // no more args
        const auto arg_name = c.take_until<'='>();
        if (arg_name.empty() || !c.consume("="))
            return fail("missing argument name");
        BatchArg arg;
        if (const char* r = parse_value(c, strings, arg)) return fail(r);
        arg.name_id = strings.intern(arg_name);
        out.args.push_back(arg);
        c.skip_spaces();
        if (c.consume(",")) continue;
        if (c.rest.starts_with("= ")) break;
        return fail("malformed argument separator");
    }
    if (!c.consume("= ")) return fail("missing '= ret' tail");
    const auto ret = parse_number<std::int64_t>(c.take_until<' '>());
    if (!ret) return fail("bad return value");
    row.ret = *ret;
    c.skip_spaces();
    if (!c.rest.empty()) return fail("trailing bytes after return value");

    row.name_id = strings.intern(name);
    row.arg_begin = arg_begin;
    row.arg_count = static_cast<std::uint32_t>(out.args.size() - arg_begin);
    out.rows.push_back(row);
    return true;
}

std::optional<TraceEvent> parse_event(std::string_view line,
                                      const char** reason) {
    EventBatch batch;
    TextStrings strings;
    if (!parse_row(line, batch, strings, reason)) return std::nullopt;
    EventScratch scratch;
    return scratch.materialize(batch, 0, strings.strings());
}

std::vector<std::string_view> split_line_chunks(std::string_view text,
                                                std::size_t n_chunks) {
    std::vector<std::string_view> chunks;
    if (text.empty() || n_chunks == 0) return chunks;
    chunks.reserve(n_chunks);
    const std::size_t target = text.size() / n_chunks + 1;
    std::size_t begin = 0;
    while (begin < text.size() && chunks.size() + 1 < n_chunks) {
        std::size_t end = begin + target;
        if (end >= text.size()) break;
        // Extend to the end of the current line.
        end = text.find('\n', end);
        if (end == std::string_view::npos) break;
        chunks.push_back(text.substr(begin, end + 1 - begin));
        begin = end + 1;
    }
    if (begin < text.size()) chunks.push_back(text.substr(begin));
    return chunks;
}

std::uint64_t parse_chunk_rows(std::string_view chunk, EventBatch& out,
                               TextStrings& strings, std::size_t* dropped,
                               ParseDiagnostics* diags,
                               std::uint64_t first_line,
                               std::uint64_t base_offset) {
    if (dropped) *dropped = 0;
    const std::size_t rows0 = out.rows.size();
    // Lines run ~50-100 bytes with ~3-4 args; reserve generously (the
    // untouched tail of a large reservation costs address space, not
    // memory) so the parse loop never re-grows the arrays.
    out.rows.reserve(rows0 + chunk.size() / 48 + 1);
    out.args.reserve(out.args.size() + chunk.size() / 16 + 1);
    std::uint64_t line_no = first_line;
    std::uint64_t offset = base_offset;
    while (!chunk.empty()) {
        const std::size_t eol = chunk.find('\n');
        const std::string_view line = chunk.substr(0, eol);
        const std::size_t consumed =
            eol == std::string_view::npos ? chunk.size() : eol + 1;
        chunk.remove_prefix(consumed);
        const std::uint64_t line_offset = offset;
        offset += consumed;
        const std::uint64_t this_line = line_no++;
        if (line.empty() || line[0] == '#') continue;
        const char* reason = "malformed line";
        if (!parse_row(line, out, strings, &reason)) {
            if (dropped) ++*dropped;
            if (diags) diags->record(this_line, line_offset, reason, line);
        }
    }
    return line_no - first_line;
}

std::vector<TraceEvent> parse_chunk(std::string_view chunk,
                                    std::size_t* dropped,
                                    ParseDiagnostics* diags,
                                    std::uint64_t first_line,
                                    std::uint64_t base_offset) {
    EventBatch batch;
    TextStrings strings;
    parse_chunk_rows(chunk, batch, strings, dropped, diags, first_line,
                     base_offset);
    std::vector<TraceEvent> out;
    out.reserve(batch.rows.size());
    EventScratch scratch;
    for (std::size_t r = 0; r < batch.rows.size(); ++r)
        out.push_back(scratch.materialize(batch, r, strings.strings()));
    return out;
}

std::vector<TraceEvent> parse_stream(std::istream& in, std::size_t* dropped,
                                     ParseDiagnostics* diags) {
    return parse_chunk(read_text(in), dropped, diags);
}

bool LineBlockReader::next(LineBlock& block) {
    if (eof_ && carry_.empty()) return false;
    // Room for the carried partial line and at least as much again.
    const std::size_t want = std::max(kBlockBytes, 2 * carry_.size());
    if (block.capacity < want) {
        block.data = std::make_unique_for_overwrite<char[]>(want);
        block.capacity = want;
    }
    block.offset = offset_;
    block.size = carry_.size();
    std::memcpy(block.data.get(), carry_.data(), carry_.size());
    carry_.clear();
    for (;;) {
        while (!eof_ && block.size < block.capacity) {
            const auto got =
                buf_ ? buf_->sgetn(block.data.get() + block.size,
                                   static_cast<std::streamsize>(
                                       block.capacity - block.size))
                     : 0;
            if (got <= 0) eof_ = true;
            else block.size += static_cast<std::size_t>(got);
        }
        if (eof_) break;  // the rest of the stream, cut or not
        const std::size_t cut = block.text().rfind('\n');
        if (cut != std::string_view::npos) {
            carry_.assign(block.text().substr(cut + 1));
            block.size = cut + 1;
            break;
        }
        // One line fills the whole block: grow it and read on.
        auto grown = std::make_unique_for_overwrite<char[]>(2 * block.capacity);
        std::memcpy(grown.get(), block.data.get(), block.size);
        block.data = std::move(grown);
        block.capacity *= 2;
    }
    offset_ += block.size;
    return block.size > 0;
}

std::string read_text(std::istream& in) {
    std::string text;
    LineBlockReader reader(in);
    LineBlock block;
    while (reader.next(block)) text.append(block.text());
    return text;
}

}  // namespace iocov::trace
