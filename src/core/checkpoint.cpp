#include "core/checkpoint.hpp"

#include <cstring>

#include "host/io.hpp"
#include "trace/binary_format.hpp"
#include "trace/detail/wire.hpp"

namespace iocov::core {
namespace {

// Same wire helpers as IOCS (snapshot.cpp); the manifest is a sibling
// format and deliberately shares the varint grammar and reader.

using trace::detail::fnv1a64;
using trace::detail::put_u32le;
using trace::detail::put_u64le;
using trace::detail::put_varint;
using trace::detail::read_u32le;
using trace::detail::ByteCursor;

bool fail(SnapshotError* err, SnapshotError::Kind kind, std::uint64_t offset,
          std::string reason) {
    if (err) {
        err->kind = kind;
        err->offset = offset;
        err->reason = std::move(reason);
        err->found_version = 0;
        err->io_errno = 0;
    }
    return false;
}

void put_record(std::string& out, std::string_view payload) {
    put_u32le(out, static_cast<std::uint32_t>(payload.size()));
    out.append(payload);
}

}  // namespace

bool is_iock(std::string_view data) {
    return data.size() >= sizeof kIockMagic &&
           std::memcmp(data.data(), kIockMagic, sizeof kIockMagic) == 0;
}

std::string encode_checkpoint(const Checkpoint& cp) {
    std::string out(kIockHeaderSize, '\0');
    std::memcpy(out.data(), kIockMagic, sizeof kIockMagic);
    out[4] = static_cast<char>(kIockVersion);

    std::string payload;
    payload.push_back(static_cast<char>(IockTag::Meta));
    payload.push_back(static_cast<char>(cp.mode));
    put_varint(payload, cp.rejected);
    put_varint(payload, cp.bytes);
    put_varint(payload, cp.diags.total());
    put_record(out, payload);

    for (const auto& name : cp.consumed) {
        payload.clear();
        payload.push_back(static_cast<char>(IockTag::Name));
        payload.append(name);
        put_record(out, payload);
    }

    for (const auto& d : cp.diags.entries()) {
        payload.clear();
        payload.push_back(static_cast<char>(IockTag::Diag));
        put_varint(payload, d.line);
        put_varint(payload, d.offset);
        put_varint(payload, d.reason.size());
        payload.append(d.reason);
        put_varint(payload, d.excerpt.size());
        payload.append(d.excerpt);
        put_record(out, payload);
    }

    for (const auto& b : cp.blocks) {
        payload.clear();
        payload.push_back(static_cast<char>(IockTag::Block));
        put_varint(payload, b.leaves);
        payload.append(encode_snapshot(b.snapshot));
        put_record(out, payload);
    }

    payload.clear();
    payload.push_back(static_cast<char>(IockTag::Footer));
    put_varint(payload, cp.consumed.size());
    put_varint(payload, cp.diags.entries().size());
    put_varint(payload, cp.blocks.size());
    put_u64le(payload, fnv1a64(out));
    put_record(out, payload);
    return out;
}

std::optional<Checkpoint> decode_checkpoint(std::string_view data,
                                            SnapshotError* err) {
    using Kind = SnapshotError::Kind;
    if (!is_iock(data)) {
        fail(err, Kind::Corrupt, 0, "not an IOCK checkpoint (bad magic)");
        return std::nullopt;
    }
    if (data.size() < kIockHeaderSize) {
        fail(err, Kind::Torn, data.size(), "torn checkpoint header");
        return std::nullopt;
    }
    const auto version = static_cast<std::uint8_t>(data[4]);
    if (version != kIockVersion) {
        fail(err, Kind::Corrupt, 4,
             "checkpoint version skew: file is v" + std::to_string(version) +
                 ", this build reads v" + std::to_string(kIockVersion));
        return std::nullopt;
    }

    Checkpoint cp;
    std::uint64_t diag_total = 0;
    std::uint64_t footer_names = 0, footer_diags = 0, footer_blocks = 0;
    std::size_t n_diags = 0;
    bool saw_meta = false, saw_footer = false;
    std::size_t pos = kIockHeaderSize;
    while (pos < data.size()) {
        if (saw_footer) {
            fail(err, Kind::Corrupt, pos, "data after checkpoint footer");
            return std::nullopt;
        }
        if (data.size() - pos < 4) {
            fail(err, Kind::Torn, pos, "torn checkpoint record prefix");
            return std::nullopt;
        }
        const std::uint32_t len = read_u32le(data.data() + pos);
        const std::size_t record_start = pos;
        pos += 4;
        if (len == 0 || len > data.size() - pos) {
            fail(err, Kind::Torn, record_start, "torn checkpoint record");
            return std::nullopt;
        }
        const std::string_view body = data.substr(pos, len);
        pos += len;
        ByteCursor c(body.substr(1));
        switch (static_cast<IockTag>(static_cast<std::uint8_t>(body[0]))) {
            case IockTag::Meta: {
                std::uint8_t mode = 0;
                const bool ok =
                    !saw_meta && c.read_u8(mode) &&
                    (mode == static_cast<std::uint8_t>(
                                 CheckpointMode::Merge) ||
                     mode == static_cast<std::uint8_t>(
                                 CheckpointMode::Analyze) ||
                     mode == static_cast<std::uint8_t>(
                                 CheckpointMode::Serve)) &&
                    c.read_varint(cp.rejected) && c.read_varint(cp.bytes) &&
                    c.read_varint(diag_total) && c.done();
                if (!ok) {
                    fail(err, Kind::Corrupt, record_start,
                         "malformed checkpoint meta record");
                    return std::nullopt;
                }
                cp.mode = static_cast<CheckpointMode>(mode);
                saw_meta = true;
                break;
            }
            case IockTag::Name:
                cp.consumed.emplace_back(body.substr(1));
                break;
            case IockTag::Diag: {
                trace::ParseDiagnostic d;
                std::string reason, excerpt;
                const bool ok = c.read_varint(d.line) &&
                                c.read_varint(d.offset) &&
                                c.read_string(reason) &&
                                c.read_string(excerpt) && c.done();
                if (!ok) {
                    fail(err, Kind::Corrupt, record_start,
                         "malformed checkpoint diagnostic record");
                    return std::nullopt;
                }
                ++n_diags;
                cp.diags.record(d.line, d.offset, reason, excerpt);
                break;
            }
            case IockTag::Block: {
                MergeBlock b;
                if (!c.read_varint(b.leaves) || b.leaves == 0) {
                    fail(err, Kind::Corrupt, record_start,
                         "malformed checkpoint block record");
                    return std::nullopt;
                }
                const auto iocs = std::string_view(
                    reinterpret_cast<const char*>(c.p),
                    static_cast<std::size_t>(c.end - c.p));
                auto snap = decode_snapshot(iocs, err);
                if (!snap) {
                    // err already carries the embedded-IOCS failure;
                    // re-anchor the offset to this file.
                    if (err) {
                        err->offset += static_cast<std::uint64_t>(
                            reinterpret_cast<const char*>(c.p) - data.data());
                        err->reason =
                            "embedded block snapshot: " + err->reason;
                    }
                    return std::nullopt;
                }
                b.snapshot = std::move(*snap);
                cp.blocks.push_back(std::move(b));
                break;
            }
            case IockTag::Footer: {
                std::uint64_t checksum = 0;
                bool ok = c.read_varint(footer_names) &&
                          c.read_varint(footer_diags) &&
                          c.read_varint(footer_blocks);
                ok = ok && c.read_u64le(checksum);
                if (!ok || !c.done()) {
                    fail(err, Kind::Corrupt, record_start,
                         "malformed checkpoint footer record");
                    return std::nullopt;
                }
                if (checksum != fnv1a64(data.substr(0, record_start))) {
                    fail(err, Kind::Corrupt, record_start,
                         "checkpoint checksum mismatch (file damaged)");
                    return std::nullopt;
                }
                saw_footer = true;
                break;
            }
            default:
                fail(err, Kind::Corrupt, record_start,
                     "unknown checkpoint record tag");
                return std::nullopt;
        }
    }
    if (!saw_footer) {
        fail(err, Kind::Torn, data.size(),
             "torn checkpoint: footer checksum missing");
        return std::nullopt;
    }
    if (!saw_meta || footer_names != cp.consumed.size() ||
        footer_diags != n_diags || footer_blocks != cp.blocks.size() ||
        diag_total < n_diags) {
        fail(err, Kind::Corrupt, data.size(),
             saw_meta ? "footer counts disagree with checkpoint records"
                      : "checkpoint has no meta record");
        return std::nullopt;
    }
    cp.diags.count_only(diag_total - n_diags);
    return cp;
}

bool save_checkpoint_file(const std::string& path, const Checkpoint& cp,
                          SnapshotError* err) {
    const std::string bytes = encode_checkpoint(cp);
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

std::optional<Checkpoint> load_checkpoint_file(const std::string& path,
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
    return decode_checkpoint(mapped->data(), err);
}

// ---- incremental merge -----------------------------------------------------

void IncrementalMerge::push(IOCovSnapshot leaf) {
    blocks_.push_back({1, std::move(leaf)});
    ++leaves_;
    // Carry: whenever the two rightmost blocks cover equal leaf
    // counts, they are adjacent complete subtrees of the same level of
    // the pairwise tree, and the level walk merges them (left absorbs
    // right) before anything larger happens.  Repeating until the
    // sizes differ keeps block sizes strictly decreasing — the binary
    // digits of leaves().
    while (blocks_.size() >= 2 &&
           blocks_[blocks_.size() - 2].leaves == blocks_.back().leaves) {
        auto right = std::move(blocks_.back());
        blocks_.pop_back();
        blocks_.back().snapshot.merge(right.snapshot);
        blocks_.back().leaves += right.leaves;
    }
}

void IncrementalMerge::restore(std::vector<MergeBlock> blocks) {
    blocks_ = std::move(blocks);
    leaves_ = 0;
    for (const auto& b : blocks_) leaves_ += b.leaves;
}

IOCovSnapshot IncrementalMerge::finish() {
    if (blocks_.empty()) return {};
    // Stragglers combine innermost-first in the level walk: the two
    // rightmost (smallest) blocks meet at the lowest level where both
    // exist, and the result climbs leftward.  A right-fold reproduces
    // that order exactly.
    while (blocks_.size() >= 2) {
        auto right = std::move(blocks_.back());
        blocks_.pop_back();
        blocks_.back().snapshot.merge(right.snapshot);
        blocks_.back().leaves += right.leaves;
    }
    auto out = std::move(blocks_.front().snapshot);
    blocks_.clear();
    leaves_ = 0;
    return out;
}

}  // namespace iocov::core
