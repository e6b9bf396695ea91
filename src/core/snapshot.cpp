#include "core/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_map>

#include "core/untested.hpp"
#include "exec/thread_pool.hpp"
#include "host/io.hpp"
#include "trace/binary_format.hpp"
#include "trace/detail/wire.hpp"

namespace iocov::core {
namespace {

// ---- wire helpers ----------------------------------------------------------
//
// Same varint grammar and reader as IOCT (trace/detail/wire.hpp), so
// the snapshot loader inherits its truncation and 10th-byte rules
// verbatim.

using trace::detail::fnv1a64;
using trace::detail::put_u32le;
using trace::detail::put_u64le;
using trace::detail::put_varint;
using trace::detail::read_u32le;
using trace::detail::ByteCursor;

std::string iocs_header() {
    std::string h(kIocsHeaderSize, '\0');
    std::memcpy(h.data(), kIocsMagic, sizeof kIocsMagic);
    h[4] = static_cast<char>(kIocsVersion);
    return h;
}

// ---- encoding --------------------------------------------------------------

/// Interns strings on first use, emitting STR records inline (ids are
/// implicit appearance order, exactly like IOCT's table).
class StringInterner {
  public:
    explicit StringInterner(std::string& out) : out_(out) {}

    std::uint64_t id(std::string_view s) {
        auto it = ids_.find(s);
        if (it != ids_.end()) return it->second;
        const std::uint64_t id = ids_.size();
        ids_.emplace(std::string(s), id);
        put_u32le(out_, static_cast<std::uint32_t>(1 + s.size()));
        out_.push_back(static_cast<char>(IocsTag::Str));
        out_.append(s);
        return id;
    }

  private:
    struct Hash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const {
            return std::hash<std::string_view>{}(s);
        }
    };
    std::string& out_;
    std::unordered_map<std::string, std::uint64_t, Hash, std::equal_to<>>
        ids_;
};

void put_histogram(std::string& payload, StringInterner& strings,
                   const stats::PartitionHistogram& hist) {
    put_varint(payload, hist.rows().size());
    put_varint(payload, hist.declared_count());
    for (const auto& row : hist.rows()) {
        put_varint(payload, strings.id(row.label));
        put_varint(payload, row.count);
    }
}

void put_record(std::string& out, std::string_view payload) {
    put_u32le(out, static_cast<std::uint32_t>(payload.size()));
    out.append(payload);
}

// ---- decoding --------------------------------------------------------------

bool fail(SnapshotError* err, SnapshotError::Kind kind, std::uint64_t offset,
          std::string reason, std::uint8_t found_version = 0) {
    if (err) {
        err->kind = kind;
        err->offset = offset;
        err->reason = std::move(reason);
        err->found_version = found_version;
    }
    return false;
}

bool read_histogram(ByteCursor& c,
                    const std::vector<std::string_view>& strings,
                    stats::PartitionHistogram& out) {
    std::uint64_t rows = 0, declared = 0;
    if (!c.read_varint(rows) || !c.read_varint(declared) || declared > rows ||
        rows > (1u << 24))  // spaces are tens of labels; cap forged sizes
        return false;
    std::vector<stats::PartitionCount> pc;
    pc.reserve(rows);
    for (std::uint64_t i = 0; i < rows; ++i) {
        std::uint64_t label_id = 0, count = 0;
        if (!c.read_varint(label_id) || label_id >= strings.size() ||
            !c.read_varint(count))
            return false;
        pc.push_back({std::string(strings[label_id]), count});
    }
    try {
        out = stats::PartitionHistogram::from_rows(std::move(pc),
                                                   static_cast<std::size_t>(
                                                       declared));
    } catch (const std::invalid_argument&) {
        return false;  // forged tail order / duplicate labels
    }
    return true;
}

}  // namespace

bool is_iocs(std::string_view data) {
    return data.size() >= kIocsHeaderSize &&
           std::memcmp(data.data(), kIocsMagic, sizeof kIocsMagic) == 0;
}

std::optional<std::uint8_t> iocs_version(std::string_view data) {
    if (data.size() < 5 ||
        std::memcmp(data.data(), kIocsMagic, sizeof kIocsMagic) != 0)
        return std::nullopt;
    return static_cast<std::uint8_t>(data[4]);
}

// ---- IOCovSnapshot ---------------------------------------------------------

void IOCovSnapshot::merge(const IOCovSnapshot& other) {
    report.merge(other.report);
    filtered_out += other.filtered_out;
    dropped += other.dropped;
    ingest += other.ingest;
    if (label != other.label) label.clear();
    timestamp = std::max(timestamp, other.timestamp);
}

std::string encode_snapshot(const IOCovSnapshot& snapshot) {
    std::string out = iocs_header();
    StringInterner strings(out);

    {
        std::string payload;
        payload.push_back(static_cast<char>(IocsTag::Meta));
        put_varint(payload, snapshot.report.events_seen);
        put_varint(payload, snapshot.report.events_tracked);
        put_varint(payload, snapshot.filtered_out);
        put_varint(payload, snapshot.dropped);
        put_varint(payload, snapshot.ingest.events);
        put_varint(payload, snapshot.ingest.bytes);
        put_varint(payload, snapshot.ingest.files);
        put_varint(payload, snapshot.ingest.threads);
        put_varint(payload, snapshot.ingest.hot_loop_allocs);
        // Seconds keep their exact bit pattern so a round trip is
        // value-identical, not just approximately equal.
        put_u64le(payload, std::bit_cast<std::uint64_t>(
                               snapshot.ingest.seconds));
        put_varint(payload, strings.id(snapshot.label));
        put_varint(payload, snapshot.timestamp);
        put_record(out, payload);
    }

    for (const auto& in : snapshot.report.inputs) {
        std::string payload;
        payload.push_back(static_cast<char>(IocsTag::Input));
        put_varint(payload, strings.id(in.base));
        put_varint(payload, strings.id(in.key));
        payload.push_back(static_cast<char>(in.cls));
        put_histogram(payload, strings, in.hist);
        put_histogram(payload, strings, in.combo_cardinality);
        put_histogram(payload, strings, in.combo_cardinality_rdonly);
        put_histogram(payload, strings, in.pairs);
        put_record(out, payload);
    }
    for (const auto& o : snapshot.report.outputs) {
        std::string payload;
        payload.push_back(static_cast<char>(IocsTag::Output));
        put_varint(payload, strings.id(o.base));
        payload.push_back(static_cast<char>(o.success));
        put_histogram(payload, strings, o.hist);
        put_record(out, payload);
    }

    {
        // Checksum covers header + every record before the footer; the
        // footer's own length prefix and payload are excluded so the
        // checksum is computable in one pass while writing.
        std::string payload;
        payload.push_back(static_cast<char>(IocsTag::Footer));
        put_varint(payload, snapshot.report.inputs.size());
        put_varint(payload, snapshot.report.outputs.size());
        put_u64le(payload, fnv1a64(out));
        put_record(out, payload);
    }
    return out;
}

std::string SnapshotError::to_string() const {
    switch (kind) {
        case Kind::NotIocs:
            return "not an IOCS snapshot (bad magic)";
        case Kind::VersionSkew:
            return "snapshot version skew: file is v" +
                   std::to_string(found_version) + ", this build reads v" +
                   std::to_string(kIocsVersion) +
                   " — re-export it or upgrade the tool";
        case Kind::Torn:
        case Kind::Corrupt:
            return reason + " (byte " + std::to_string(offset) + ")";
        case Kind::Io:
            // reason holds a complete host::IoError::to_string() —
            // phase, path, strerror and errno are already in it.
            return reason;
    }
    return reason;
}

std::optional<IOCovSnapshot> decode_snapshot(std::string_view data,
                                             SnapshotError* err) {
    using Kind = SnapshotError::Kind;
    if (data.size() < kIocsHeaderSize ||
        std::memcmp(data.data(), kIocsMagic, sizeof kIocsMagic) != 0) {
        fail(err, Kind::NotIocs, 0, "not an IOCS snapshot (bad magic)");
        return std::nullopt;
    }
    const auto version = static_cast<std::uint8_t>(data[4]);
    if (version != kIocsVersion) {
        fail(err, Kind::VersionSkew, 4, "snapshot version skew", version);
        return std::nullopt;
    }

    IOCovSnapshot snap;
    std::vector<std::string_view> strings;
    bool saw_meta = false, saw_footer = false;
    std::uint64_t footer_inputs = 0, footer_outputs = 0;

    std::size_t pos = kIocsHeaderSize;
    while (pos < data.size()) {
        const std::size_t record_start = pos;
        if (saw_footer) {
            fail(err, Kind::Corrupt, record_start,
                 "trailing bytes after footer");
            return std::nullopt;
        }
        if (data.size() - pos < 4) {
            fail(err, Kind::Torn, record_start,
                 "torn snapshot: truncated record length prefix");
            return std::nullopt;
        }
        const std::uint32_t len = read_u32le(data.data() + pos);
        pos += 4;
        if (len == 0 || len > data.size() - pos) {
            fail(err, len == 0 ? Kind::Corrupt : Kind::Torn, record_start,
                 len == 0 ? "zero-length record"
                          : "torn snapshot: record length exceeds "
                            "remaining bytes");
            return std::nullopt;
        }
        const std::string_view payload = data.substr(pos, len);
        pos += len;
        ByteCursor c(payload.substr(1));
        switch (static_cast<IocsTag>(payload[0])) {
            case IocsTag::Str:
                strings.push_back(payload.substr(1));
                break;
            case IocsTag::Meta: {
                std::uint64_t threads = 0, seconds_bits = 0, label_id = 0;
                bool ok = !saw_meta &&
                          c.read_varint(snap.report.events_seen) &&
                          c.read_varint(snap.report.events_tracked) &&
                          c.read_varint(snap.filtered_out) &&
                          c.read_varint(snap.dropped) &&
                          c.read_varint(snap.ingest.events) &&
                          c.read_varint(snap.ingest.bytes) &&
                          c.read_varint(snap.ingest.files) &&
                          c.read_varint(threads) && threads <= UINT32_MAX &&
                          c.read_varint(snap.ingest.hot_loop_allocs);
                ok = ok && c.read_u64le(seconds_bits);
                ok = ok && c.read_varint(label_id) &&
                     label_id < strings.size() &&
                     c.read_varint(snap.timestamp) && c.done();
                if (!ok) {
                    fail(err, Kind::Corrupt, record_start,
                         "malformed meta record");
                    return std::nullopt;
                }
                snap.ingest.threads = static_cast<unsigned>(threads);
                snap.ingest.seconds = std::bit_cast<double>(seconds_bits);
                snap.label.assign(strings[label_id]);
                saw_meta = true;
                break;
            }
            case IocsTag::Input: {
                ArgCoverage in;
                std::uint64_t base_id = 0, key_id = 0;
                std::uint8_t cls = 0;
                const bool ok =
                    c.read_varint(base_id) && base_id < strings.size() &&
                    c.read_varint(key_id) && key_id < strings.size() &&
                    c.read_u8(cls) &&
                    cls <= static_cast<std::uint8_t>(
                               ArgClass::Categorical) &&
                    read_histogram(c, strings, in.hist) &&
                    read_histogram(c, strings, in.combo_cardinality) &&
                    read_histogram(c, strings,
                                   in.combo_cardinality_rdonly) &&
                    read_histogram(c, strings, in.pairs) && c.done();
                if (!ok) {
                    fail(err, Kind::Corrupt, record_start,
                         "malformed input-space record");
                    return std::nullopt;
                }
                in.base.assign(strings[base_id]);
                in.key.assign(strings[key_id]);
                in.cls = static_cast<ArgClass>(cls);
                snap.report.inputs.push_back(std::move(in));
                break;
            }
            case IocsTag::Output: {
                OutputCoverage o;
                std::uint64_t base_id = 0;
                std::uint8_t success = 0;
                const bool ok =
                    c.read_varint(base_id) && base_id < strings.size() &&
                    c.read_u8(success) &&
                    success <= static_cast<std::uint8_t>(SuccessKind::NewFd) &&
                    read_histogram(c, strings, o.hist) && c.done();
                if (!ok) {
                    fail(err, Kind::Corrupt, record_start,
                         "malformed output-space record");
                    return std::nullopt;
                }
                o.base.assign(strings[base_id]);
                o.success = static_cast<SuccessKind>(success);
                snap.report.outputs.push_back(std::move(o));
                break;
            }
            case IocsTag::Footer: {
                std::uint64_t checksum = 0;
                bool ok = c.read_varint(footer_inputs) &&
                          c.read_varint(footer_outputs);
                ok = ok && c.read_u64le(checksum);
                if (!ok || !c.done()) {
                    fail(err, Kind::Corrupt, record_start,
                         "malformed footer record");
                    return std::nullopt;
                }
                if (checksum != fnv1a64(data.substr(0, record_start))) {
                    fail(err, Kind::Corrupt, record_start,
                         "snapshot checksum mismatch (file damaged)");
                    return std::nullopt;
                }
                saw_footer = true;
                break;
            }
            default:
                fail(err, Kind::Corrupt, record_start, "unknown record tag");
                return std::nullopt;
        }
    }
    if (!saw_footer) {
        fail(err, Kind::Torn, data.size(),
             "torn snapshot: footer checksum missing");
        return std::nullopt;
    }
    if (!saw_meta || footer_inputs != snap.report.inputs.size() ||
        footer_outputs != snap.report.outputs.size()) {
        fail(err, Kind::Corrupt, data.size(),
             saw_meta ? "footer space counts disagree with records"
                      : "snapshot has no meta record");
        return std::nullopt;
    }
    return snap;
}

bool save_snapshot_file(const std::string& path,
                        const IOCovSnapshot& snapshot,
                        SnapshotError* err) {
    // A snapshot is all-or-nothing state (see decode); the write must
    // match: never truncate the previous artifact before the new bytes
    // are durable.  write_file_atomic publishes via rename, so a crash
    // or failure at any point leaves the prior complete file in place.
    const std::string bytes = encode_snapshot(snapshot);
    if (auto ioerr = host::write_file_atomic(path, bytes)) {
        if (err) {
            err->kind = SnapshotError::Kind::Io;
            err->offset = 0;
            err->reason = ioerr->to_string();
            err->io_errno = ioerr->err;
        }
        return false;
    }
    return true;
}

std::optional<IOCovSnapshot> load_snapshot_file(const std::string& path,
                                                SnapshotError* err) {
    host::IoError ioerr;
    auto mapped = trace::MappedFile::open(path, trace::MappedFile::Mode::Auto,
                                          &ioerr);
    if (!mapped) {
        if (err) {
            err->kind = SnapshotError::Kind::Io;
            err->offset = 0;
            err->reason = "cannot open file: " + ioerr.to_string();
            err->io_errno = ioerr.err;
        }
        return std::nullopt;
    }
    return decode_snapshot(mapped->data(), err);
}

// ---- directory loading + hierarchical merge --------------------------------

std::optional<SnapshotDirLoad> load_snapshot_dir(const std::string& dir,
                                                 unsigned n_threads) {
    // Name order is the deterministic key for everything downstream:
    // which diagnostics survive retention and the merge-tree leaf order.
    const auto listing = host::list_dir(dir);
    if (!listing) return std::nullopt;
    const auto& files = *listing;

    struct Slot {
        std::optional<IOCovSnapshot> snapshot;
        SnapshotError error;
        std::uint64_t bytes = 0;
    };
    std::vector<Slot> slots(files.size());
    auto load_one = [&](std::size_t i) {
        Slot& slot = slots[i];
        try {
            host::IoError ioerr;
            auto mapped = trace::MappedFile::open(
                files[i].path, trace::MappedFile::Mode::Auto, &ioerr);
            if (!mapped) {
                slot.error = {SnapshotError::Kind::Io, 0,
                              "cannot open file: " + ioerr.to_string(), 0,
                              ioerr.err};
                return;
            }
            slot.bytes = mapped->data().size();
            slot.snapshot = decode_snapshot(mapped->data(), &slot.error);
        } catch (const std::exception& e) {
            slot.snapshot.reset();
            slot.error = {SnapshotError::Kind::Corrupt, 0,
                          std::string("load failed: ") + e.what(), 0};
        }
    };

    std::vector<std::uint64_t> weights(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) weights[i] = files[i].bytes;
    exec::parallel_for_stealing(n_threads, weights, load_one);

    SnapshotDirLoad result;
    for (std::size_t i = 0; i < files.size(); ++i) {
        Slot& slot = slots[i];
        if (slot.snapshot) {
            result.bytes += slot.bytes;
            result.snapshots.push_back(
                {files[i].name, std::move(*slot.snapshot)});
        } else {
            ++result.rejected;
            result.diags.record(0, slot.error.offset,
                                files[i].name + ": " +
                                    slot.error.to_string());
        }
    }
    return result;
}

IOCovSnapshot merge_snapshots(std::vector<NamedSnapshot> snapshots,
                              unsigned n_threads) {
    if (snapshots.empty()) return {};
    std::vector<IOCovSnapshot> level;
    level.reserve(snapshots.size());
    for (auto& ns : snapshots) level.push_back(std::move(ns.snapshot));

    if (n_threads == 0) n_threads = exec::ThreadPool::default_thread_count();
    // The reduction order is a pure function of the index structure —
    // level k merges (0,1), (2,3), ... of level k-1 — so any lane
    // assignment computes the identical tree.  Parallelism only decides
    // *who* performs each fold, never *which* folds happen.
    std::optional<exec::ThreadPool> pool;
    if (n_threads > 1 && level.size() > 2) pool.emplace(n_threads);

    auto row_weight = [](const IOCovSnapshot& s) {
        std::uint64_t rows = 1;
        for (const auto& in : s.report.inputs)
            rows += in.hist.rows().size() + in.pairs.rows().size();
        for (const auto& o : s.report.outputs) rows += o.hist.rows().size();
        return rows;
    };

    while (level.size() > 1) {
        const std::size_t pairs = level.size() / 2;
        auto merge_pair = [&](std::size_t i) {
            level[2 * i].merge(level[2 * i + 1]);
        };
        if (pool && pairs > 1) {
            std::vector<std::uint64_t> weights(pairs);
            for (std::size_t i = 0; i < pairs; ++i)
                weights[i] =
                    row_weight(level[2 * i]) + row_weight(level[2 * i + 1]);
            exec::parallel_for_stealing(*pool, weights, merge_pair);
        } else {
            for (std::size_t i = 0; i < pairs; ++i) merge_pair(i);
        }
        // Compact survivors: merged pairs at even indices, plus the odd
        // straggler which waits for the next level.
        std::vector<IOCovSnapshot> next;
        next.reserve(pairs + level.size() % 2);
        for (std::size_t i = 0; i < pairs; ++i)
            next.push_back(std::move(level[2 * i]));
        if (level.size() % 2) next.push_back(std::move(level.back()));
        level = std::move(next);
    }
    return std::move(level.front());
}

std::string merge_summary_json(const SnapshotDirLoad& load,
                               const IOCovSnapshot& merged) {
    std::string json = "{\n";
    auto num = [&](const char* key, std::uint64_t v, bool comma = true) {
        json += "  \"";
        json += key;
        json += "\": " + std::to_string(v) + (comma ? ",\n" : "\n");
    };
    num("snapshots", load.snapshots.size());
    num("rejected", load.rejected);
    num("events_seen", merged.report.events_seen);
    num("events_tracked", merged.report.events_tracked);
    num("filtered_out", merged.filtered_out);
    num("dropped", merged.dropped);
    num("ingest_events", merged.ingest.events);
    num("ingest_bytes", merged.ingest.bytes);
    num("ingest_files", merged.ingest.files);
    json += "  \"spaces\": [\n";
    const auto rows = summarize(merged.report);
    char buf[64];
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        std::snprintf(buf, sizeof buf, "%.4f", r.fraction);
        json += "    {\"space\": \"" + r.base +
                (r.arg.empty() ? "" : "." + r.arg) +
                "\", \"declared\": " + std::to_string(r.declared) +
                ", \"tested\": " + std::to_string(r.tested) +
                ", \"coverage\": " + buf + "}" +
                (i + 1 < rows.size() ? ",\n" : "\n");
    }
    json += "  ]\n}\n";
    return json;
}

}  // namespace iocov::core
