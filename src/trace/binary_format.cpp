#include "trace/binary_format.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "host/fault.hpp"
#include "trace/detail/wire.hpp"

namespace iocov::trace {
namespace {

// Arg-value type bytes inside an EVT record (wire values of ArgType).
constexpr std::uint8_t kTypeInt = static_cast<std::uint8_t>(ArgType::Int);
constexpr std::uint8_t kTypeUint = static_cast<std::uint8_t>(ArgType::Uint);
constexpr std::uint8_t kTypeStr = static_cast<std::uint8_t>(ArgType::Str);

using detail::ByteCursor;
using detail::put_u32le;
using detail::put_varint;
using detail::read_u32le;

// A writer-produced event never exceeds a handful of args; anything
// past this in a file is corruption, not a trace.
constexpr std::uint64_t kMaxArgs = 64;

constexpr std::size_t kSinkFlushBytes = 64 * 1024;

// Signed varints are zigzag-encoded.
std::uint64_t zigzag(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Decodes the EVT record `ref` locates into `out` (SoA append).
/// Returns nullptr on success; on failure appends nothing (partially
/// appended args are rolled back) and returns the exact static reason
/// string decode_event() produces for the same payload.
const char* decode_ref(const unsigned char* base, const EventRef& ref,
                       std::size_t string_count, EventBatch& out) {
    if (ref.length == 0 || static_cast<IoctTag>(base[ref.offset]) !=
                               IoctTag::Event)
        return "not an event record";
    ByteCursor c(std::string_view(
        reinterpret_cast<const char*>(base) + ref.offset + 1,
        ref.length - 1));

    std::uint64_t seq = 0, pid = 0, tid = 0, name_id = 0, ret = 0, argc = 0;
    if (!c.read_varint(seq) || !c.read_varint(pid) || pid > UINT32_MAX ||
        !c.read_varint(tid) || tid > UINT32_MAX)
        return "truncated event header";
    if (!c.read_varint(name_id) || name_id >= string_count)
        return "syscall name id out of range";
    if (!c.read_varint(ret)) return "truncated return value";
    if (!c.read_varint(argc) || argc > kMaxArgs)
        return "argument count out of range";

    const std::size_t arg_begin = out.args.size();
    auto fail = [&](const char* r) {
        out.args.resize(arg_begin);
        return r;
    };
    for (std::uint64_t i = 0; i < argc; ++i) {
        std::uint64_t arg_name = 0, v = 0;
        std::uint8_t type = 0;
        if (!c.read_varint(arg_name) || arg_name >= string_count ||
            !c.read_u8(type) || !c.read_varint(v))
            return fail("truncated or out-of-range argument");
        std::uint64_t raw = v;
        switch (type) {
            case kTypeInt:
                raw = static_cast<std::uint64_t>(unzigzag(v));
                break;
            case kTypeUint:
                break;
            case kTypeStr:
                if (v >= string_count)
                    return fail("argument string id out of range");
                break;
            default:
                return fail("unknown argument type byte");
        }
        out.args.push_back({raw, static_cast<std::uint32_t>(arg_name),
                            static_cast<ArgType>(type)});
    }
    if (!c.done()) return fail("trailing bytes after last argument");

    out.rows.push_back({seq, unzigzag(ret), arg_begin,
                        static_cast<std::uint32_t>(pid),
                        static_cast<std::uint32_t>(tid),
                        static_cast<std::uint32_t>(name_id),
                        static_cast<std::uint32_t>(argc)});
    return nullptr;
}

}  // namespace

bool is_ioct(std::string_view data) {
    return data.size() > 4 &&
           std::memcmp(data.data(), kIoctMagic, sizeof kIoctMagic) == 0 &&
           static_cast<std::uint8_t>(data[4]) == kIoctVersion;
}

std::string ioct_header() {
    std::string h(kIoctHeaderSize, '\0');
    std::memcpy(h.data(), kIoctMagic, sizeof kIoctMagic);
    h[4] = static_cast<char>(kIoctVersion);
    return h;
}

// ---- BinaryWriter ----------------------------------------------------------

BinaryWriter::BinaryWriter() : buffer_(ioct_header()) {}

std::uint32_t BinaryWriter::intern(std::string_view s) {
    auto it = string_ids_.find(s);
    if (it != string_ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(string_ids_.size());
    string_ids_.emplace(std::string(s), id);
    put_u32le(buffer_, static_cast<std::uint32_t>(1 + s.size()));
    buffer_.push_back(static_cast<char>(IoctTag::Str));
    buffer_.append(s);
    return id;
}

void BinaryWriter::write_event(const TraceEvent& event) {
    // Intern first: STR records must precede the EVT referencing them.
    const std::uint32_t name_id = intern(event.syscall);

    std::string payload;
    payload.push_back(static_cast<char>(IoctTag::Event));
    put_varint(payload, event.seq);
    put_varint(payload, event.pid);
    put_varint(payload, event.tid);
    put_varint(payload, name_id);
    put_varint(payload, zigzag(event.ret));
    put_varint(payload, event.args.size());
    for (const auto& arg : event.args) {
        put_varint(payload, intern(arg.name));
        if (const auto* i = std::get_if<std::int64_t>(&arg.value)) {
            payload.push_back(static_cast<char>(kTypeInt));
            put_varint(payload, zigzag(*i));
        } else if (const auto* u = std::get_if<std::uint64_t>(&arg.value)) {
            payload.push_back(static_cast<char>(kTypeUint));
            put_varint(payload, *u);
        } else {
            payload.push_back(static_cast<char>(kTypeStr));
            put_varint(payload,
                       intern(std::get<std::string>(arg.value)));
        }
    }
    put_u32le(buffer_, static_cast<std::uint32_t>(payload.size()));
    buffer_.append(payload);

    ++total_events_;
    ++pid_counts_[event.pid];
}

void BinaryWriter::finish() {
    if (finished_) return;
    finished_ = true;
    // Deterministic footer: identical traces encode identically.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> counts(
        pid_counts_.begin(), pid_counts_.end());
    std::sort(counts.begin(), counts.end());
    std::string payload;
    payload.push_back(static_cast<char>(IoctTag::Footer));
    put_varint(payload, counts.size());
    for (const auto& [pid, count] : counts) {
        put_varint(payload, pid);
        put_varint(payload, count);
    }
    put_varint(payload, total_events_);
    put_u32le(buffer_, static_cast<std::uint32_t>(payload.size()));
    buffer_.append(payload);
}

std::string encode_trace(const std::vector<TraceEvent>& events) {
    BinaryWriter w;
    for (const auto& ev : events) w.write_event(ev);
    w.finish();
    return w.take_buffer();
}

// ---- BinarySink ------------------------------------------------------------

BinarySink::BinarySink(std::ostream& os) : os_(os) {}

BinarySink::~BinarySink() { finish(); }

void BinarySink::emit(const TraceEvent& event) {
    writer_.write_event(event);
    if (writer_.buffer().size() >= kSinkFlushBytes) flush_buffer();
}

void BinarySink::finish() {
    if (finished_) return;
    finished_ = true;
    writer_.finish();
    flush_buffer();
    os_.flush();
}

void BinarySink::flush_buffer() {
    const auto& buf = writer_.buffer();
    os_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    writer_.drain_buffer();
}

// ---- decoding --------------------------------------------------------------

IoctScan scan_ioct(std::string_view data) {
    IoctScan scan;
    if (!is_ioct(data) || data.size() < kIoctHeaderSize) {
        if (!data.empty())
            scan.diags.record(0, 0, "not an IOCT file (bad magic/version)");
        return scan;
    }
    scan.header_ok = true;
    // ~20 bytes/record in practice; one up-front reserve beats a dozen
    // doubling copies on a multi-megabyte trace (over-estimate is freed
    // with the scan).
    scan.events.reserve(data.size() / 20 + 1);

    auto drop = [&scan](std::size_t offset, const char* reason) {
        ++scan.dropped;
        scan.diags.record(0, offset, reason);
    };

    std::size_t pos = kIoctHeaderSize;
    while (pos < data.size()) {
        const std::size_t record_start = pos;
        if (data.size() - pos < 4) {
            drop(record_start, "torn record length prefix");
            break;
        }
        const std::uint32_t len = read_u32le(data.data() + pos);
        pos += 4;
        if (len == 0 || len > data.size() - pos) {
            drop(record_start,
                 len == 0 ? "zero-length record"
                          : "record length exceeds remaining bytes");
            break;
        }
        const std::string_view payload = data.substr(pos, len);
        pos += len;
        switch (static_cast<IoctTag>(payload[0])) {
            case IoctTag::Str:
                scan.strings.push_back(payload.substr(1));
                break;
            case IoctTag::Event: {
                // Only seq and pid are read here; decode_batch does the
                // rest of the record.
                ByteCursor c(payload.substr(1));
                std::uint64_t seq = 0, pid = 0;
                if (!c.read_varint(seq) || !c.read_varint(pid) ||
                    pid > UINT32_MAX) {
                    drop(record_start, "truncated event header");
                    break;
                }
                scan.events.push_back(
                    {static_cast<std::uint64_t>(payload.data() -
                                                data.data()),
                     len, static_cast<std::uint32_t>(pid)});
                break;
            }
            case IoctTag::Footer: {
                ByteCursor c(payload.substr(1));
                IoctFooter footer;
                std::uint64_t n = 0;
                bool ok = c.read_varint(n) && n <= UINT32_MAX;
                for (std::uint64_t i = 0; ok && i < n; ++i) {
                    std::uint64_t pid = 0, count = 0;
                    ok = c.read_varint(pid) && pid <= UINT32_MAX &&
                         c.read_varint(count);
                    if (ok)
                        footer.pid_events.emplace_back(
                            static_cast<std::uint32_t>(pid), count);
                }
                ok = ok && c.read_varint(footer.total_events) && c.done();
                if (ok)
                    scan.footer = std::move(footer);
                else
                    drop(record_start, "malformed footer");
                break;
            }
            default:
                // Unknown tag; the length prefix lets us resync.
                drop(record_start, "unknown record tag");
                break;
        }
    }
    return scan;
}

bool decode_event(std::string_view payload,
                  const std::vector<std::string_view>& strings,
                  TraceEvent& out, std::uint32_t* name_id_out,
                  const char** reason) {
    auto fail = [&](const char* r) {
        if (reason) *reason = r;
        return false;
    };
    if (payload.empty() ||
        static_cast<IoctTag>(payload[0]) != IoctTag::Event)
        return fail("not an event record");
    ByteCursor c(payload.substr(1));

    std::uint64_t seq = 0, pid = 0, tid = 0, name_id = 0, ret = 0, argc = 0;
    if (!c.read_varint(seq) || !c.read_varint(pid) || pid > UINT32_MAX ||
        !c.read_varint(tid) || tid > UINT32_MAX)
        return fail("truncated event header");
    if (!c.read_varint(name_id) || name_id >= strings.size())
        return fail("syscall name id out of range");
    if (!c.read_varint(ret))
        return fail("truncated return value");
    if (!c.read_varint(argc) || argc > kMaxArgs)
        return fail("argument count out of range");

    out.seq = seq;
    out.pid = static_cast<std::uint32_t>(pid);
    out.tid = static_cast<std::uint32_t>(tid);
    out.syscall.assign(strings[name_id]);
    out.ret = unzigzag(ret);
    if (name_id_out) *name_id_out = static_cast<std::uint32_t>(name_id);

    out.args.resize(argc);
    for (auto& arg : out.args) {
        std::uint64_t arg_name = 0, v = 0;
        std::uint8_t type = 0;
        if (!c.read_varint(arg_name) || arg_name >= strings.size() ||
            !c.read_u8(type) || !c.read_varint(v))
            return fail("truncated or out-of-range argument");
        arg.name.assign(strings[arg_name]);
        switch (type) {
            case kTypeInt:
                arg.value = unzigzag(v);
                break;
            case kTypeUint:
                arg.value = v;
                break;
            case kTypeStr: {
                if (v >= strings.size())
                    return fail("argument string id out of range");
                // Reuse the scratch string's capacity when possible
                // (the variant may currently hold a number).
                if (auto* s = std::get_if<std::string>(&arg.value))
                    s->assign(strings[v]);
                else
                    arg.value.emplace<std::string>(strings[v]);
                break;
            }
            default:
                return fail("unknown argument type byte");
        }
    }
    if (!c.done()) return fail("trailing bytes after last argument");
    return true;
}

std::vector<TraceEvent> decode_trace(std::string_view data,
                                     std::size_t* dropped,
                                     ParseDiagnostics* diags) {
    const auto scan = scan_ioct(data);
    std::vector<TraceEvent> out;
    out.reserve(scan.events.size());
    std::size_t bad = scan.dropped;
    ParseDiagnostics decode_diags;
    for (const auto& ref : scan.events) {
        TraceEvent ev;
        const char* reason = "corrupt event record";
        if (decode_event(data.substr(ref.offset, ref.length), scan.strings,
                         ev, nullptr, &reason)) {
            out.push_back(std::move(ev));
        } else {
            ++bad;
            decode_diags.record(0, ref.offset, reason);
        }
    }
    if (diags) {
        // Merge (rather than record in place) so scan- and decode-stage
        // diagnostics interleave in offset order.
        diags->merge(scan.diags);
        diags->merge(decode_diags);
    }
    if (dropped) *dropped = bad;
    return out;
}

// ---- batched decoding ------------------------------------------------------

const char* decode_isa_name(DecodeIsa) { return "scalar"; }

DecodeIsa active_decode_isa() { return DecodeIsa::Scalar; }

std::size_t decode_batch(std::string_view data,
                         const std::vector<std::string_view>& strings,
                         const EventRef* refs, std::size_t n, EventBatch& out,
                         std::size_t* dropped, ParseDiagnostics* diags) {
    const auto* base = reinterpret_cast<const unsigned char*>(data.data());
    out.rows.reserve(out.rows.size() + n);
    std::size_t decoded = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const EventRef& ref = refs[i];
        // scan_ioct never emits an out-of-bounds ref; guard anyway so a
        // hand-built ref cannot walk off the buffer.
        const char* reason =
            ref.offset > data.size() || ref.length > data.size() - ref.offset
                ? "not an event record"
                : decode_ref(base, ref, strings.size(), out);
        if (reason == nullptr) {
            ++decoded;
        } else {
            if (dropped) ++*dropped;
            if (diags) diags->record(0, ref.offset, reason);
        }
    }
    return decoded;
}

// ---- EventScratch ----------------------------------------------------------

void EventScratch::park(std::string& s) {
    // Only heap capacity is worth recycling; SSO strings cost nothing
    // to recreate.  The pool is bounded — past that, freeing is fine
    // because a workload cycling that many distinct string slots is
    // re-growing anyway.
    static const std::size_t kSsoCapacity = std::string().capacity();
    if (s.capacity() > kSsoCapacity && spare_.size() < 64)
        spare_.push_back(std::move(s));
}

const TraceEvent& EventScratch::materialize(
    const EventBatch& batch, std::size_t row,
    const std::vector<std::string_view>& strings) {
    const BatchRow& r = batch.rows[row];
    event_.seq = r.seq;
    event_.pid = r.pid;
    event_.tid = r.tid;
    event_.ret = r.ret;
    event_.syscall.assign(strings[r.name_id]);

    if (event_.args.size() > r.arg_count) {
        // Shrinking destroys slots; salvage their heap capacity first.
        for (std::size_t i = r.arg_count; i < event_.args.size(); ++i) {
            park(event_.args[i].name);
            if (auto* s = std::get_if<std::string>(&event_.args[i].value))
                park(*s);
        }
        event_.args.resize(r.arg_count);
    } else if (event_.args.size() < r.arg_count) {
        event_.args.resize(r.arg_count);
    }

    for (std::size_t i = 0; i < r.arg_count; ++i) {
        const BatchArg& ba = batch.args[r.arg_begin + i];
        Arg& arg = event_.args[i];
        arg.name.assign(strings[ba.name_id]);
        switch (ba.type) {
            case ArgType::Int:
                if (auto* s = std::get_if<std::string>(&arg.value))
                    park(*s);
                arg.value.emplace<std::int64_t>(
                    static_cast<std::int64_t>(ba.raw));
                break;
            case ArgType::Uint:
                if (auto* s = std::get_if<std::string>(&arg.value))
                    park(*s);
                arg.value.emplace<std::uint64_t>(ba.raw);
                break;
            case ArgType::Str: {
                const std::string_view sv =
                    strings[static_cast<std::size_t>(ba.raw)];
                if (auto* s = std::get_if<std::string>(&arg.value)) {
                    s->assign(sv);
                } else if (!spare_.empty()) {
                    std::string recycled = std::move(spare_.back());
                    spare_.pop_back();
                    recycled.assign(sv);
                    arg.value.emplace<std::string>(std::move(recycled));
                } else {
                    arg.value.emplace<std::string>(sv);
                }
                break;
            }
        }
    }
    return event_;
}

// ---- MappedFile ------------------------------------------------------------

std::optional<MappedFile> MappedFile::open(const std::string& path,
                                           Mode mode,
                                           host::IoError* err) {
    const auto policy = host::RetryPolicy::standard();
    const auto fail = [&](host::IoPhase phase, int fd,
                          unsigned retries) -> std::optional<MappedFile> {
        if (err) *err = {phase, errno, path, retries};
        if (fd >= 0) ::close(fd);
        return std::nullopt;
    };

    // open() with bounded EINTR retry (+ self-fault consultation).
    int fd = -1;
    unsigned retries = 0;
    for (;;) {
        int injected = 0;
        if (host::FaultHook::active())
            injected =
                host::FaultHook::consult(host::IoPhase::Open).inject_errno;
        fd = injected ? (errno = injected, -1)
                      : ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd >= 0) break;
        if (!host::transient_errno(errno) || retries >= policy.max_retries)
            return fail(host::IoPhase::Open, -1, retries);
        ++retries;
    }
    {
        // fstat() with the same bounded transient retry: an EINTR here
        // would otherwise hard-fail the whole load one syscall in.
        struct stat st{};
        retries = 0;
        for (;;) {
            int injected = 0;
            if (host::FaultHook::active())
                injected = host::FaultHook::consult(host::IoPhase::Stat)
                               .inject_errno;
            const bool bad = injected ? (errno = injected, true)
                                      : ::fstat(fd, &st) != 0;
            if (!bad && st.st_size < 0) {
                errno = EINVAL;  // nonsense size: not retryable
                return fail(host::IoPhase::Stat, fd, retries);
            }
            if (!bad) break;
            if (!host::transient_errno(errno) ||
                retries >= policy.max_retries)
                return fail(host::IoPhase::Stat, fd, retries);
            ++retries;
        }

        const auto size = static_cast<std::size_t>(st.st_size);
        MappedFile mf;
        if (mode == Mode::Auto && size > 0) {
            void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
            if (p != MAP_FAILED) {
                mf.mapped_ = p;
                mf.size_ = size;
                ::close(fd);
                return mf;
            }
        }
        // read() fallback (and the ReadCopy benchmark mode).  EINTR /
        // EAGAIN are transient: retry them (bounded, with the standard
        // policy) instead of abandoning a multi-GB load at the last
        // page.  A true EOF before the fstat'd size means the file
        // shrank under us — keep what still existed and say so via
        // shrank(), distinct from a read *error* which fails the open.
        mf.copy_.resize(size);
        std::size_t got = 0;
        retries = 0;
        while (got < size) {
            std::size_t want = size - got;
            int injected_read = 0;
            bool forced_eof = false;
            if (host::FaultHook::active()) {
                const auto a =
                    host::FaultHook::consult(host::IoPhase::Read);
                injected_read = a.inject_errno;
                forced_eof = a.eof;
                want = std::min(want, a.clamp_bytes);
            }
            const ssize_t n =
                forced_eof ? 0
                : injected_read
                    ? (errno = injected_read, ssize_t{-1})
                    : ::read(fd, mf.copy_.data() + got, want);
            if (n < 0) {
                if (host::transient_errno(errno) &&
                    retries < policy.max_retries) {
                    ++retries;
                    continue;
                }
                return fail(host::IoPhase::Read, fd, retries);
            }
            if (n == 0) {
                mf.shrank_ = true;
                break;  // shrank mid-read; keep what we have
            }
            got += static_cast<std::size_t>(n);
        }
        mf.copy_.resize(got);
        ::close(fd);
        return mf;
    }
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : mapped_(other.mapped_),
      size_(other.size_),
      copy_(std::move(other.copy_)),
      shrank_(other.shrank_) {
    other.mapped_ = nullptr;
    other.size_ = 0;
    other.shrank_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
    if (this != &other) {
        if (mapped_) ::munmap(mapped_, size_);
        mapped_ = other.mapped_;
        size_ = other.size_;
        copy_ = std::move(other.copy_);
        shrank_ = other.shrank_;
        other.mapped_ = nullptr;
        other.size_ = 0;
        other.shrank_ = false;
    }
    return *this;
}

MappedFile::~MappedFile() {
    if (mapped_) ::munmap(mapped_, size_);
}

}  // namespace iocov::trace
