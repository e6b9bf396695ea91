#include "serve/protocol.hpp"

#include <cstring>

#include "trace/detail/wire.hpp"

namespace iocov::serve {
namespace {

using trace::detail::put_u32le;
using trace::detail::put_varint;
using trace::detail::read_u32le;

bool read_varint(std::string_view& body, std::uint64_t& out) {
    const auto* p = reinterpret_cast<const unsigned char*>(body.data());
    const auto* end = p + body.size();
    if (!trace::detail::ScalarVarintReader::read(p, end, out))
        return false;
    body.remove_prefix(
        static_cast<std::size_t>(reinterpret_cast<const char*>(p) -
                                 body.data()));
    return true;
}

}  // namespace

bool known_tag(std::uint8_t tag) {
    switch (static_cast<MsgTag>(tag)) {
        case MsgTag::Push:
        case MsgTag::Query:
        case MsgTag::Stop:
        case MsgTag::Ok:
        case MsgTag::Err:
            return true;
    }
    return false;
}

std::string encode_frame(MsgTag tag, std::string_view body) {
    std::string out;
    out.reserve(5 + body.size());
    put_u32le(out, static_cast<std::uint32_t>(1 + body.size()));
    out.push_back(static_cast<char>(tag));
    out.append(body);
    return out;
}

std::string encode_push(std::string_view name, std::string_view shard) {
    std::string body;
    body.reserve(10 + name.size() + shard.size());
    put_varint(body, name.size());
    body.append(name);
    body.append(shard);
    return encode_frame(MsgTag::Push, body);
}

std::string encode_query(std::string_view text) {
    return encode_frame(MsgTag::Query, text);
}

std::string encode_stop() { return encode_frame(MsgTag::Stop, {}); }

std::string encode_ok(std::uint64_t epoch, std::string_view text) {
    std::string body;
    body.reserve(10 + text.size());
    put_varint(body, epoch);
    body.append(text);
    return encode_frame(MsgTag::Ok, body);
}

std::string encode_err(std::string_view reason) {
    return encode_frame(MsgTag::Err, reason);
}

bool decode_push(std::string_view body, std::string& name,
                 std::string_view& shard) {
    std::uint64_t len = 0;
    if (!read_varint(body, len)) return false;
    if (len > body.size()) return false;
    name.assign(body.substr(0, static_cast<std::size_t>(len)));
    shard = body.substr(static_cast<std::size_t>(len));
    return true;
}

bool decode_ok(std::string_view body, std::uint64_t& epoch,
               std::string_view& text) {
    if (!read_varint(body, epoch)) return false;
    text = body;
    return true;
}

void FrameDecoder::feed(std::string_view bytes) {
    if (corrupt_) return;
    // Compact once the consumed prefix dominates, so a long-lived
    // connection doesn't grow its buffer without bound.
    if (off_ > 0 && off_ >= buf_.size() / 2) {
        buf_.erase(0, off_);
        off_ = 0;
    }
    buf_.append(bytes);
}

FrameDecoder::Status FrameDecoder::next(Frame& out, std::string* reason) {
    if (corrupt_) {
        if (reason) *reason = corrupt_reason_;
        return Status::Corrupt;
    }
    const std::size_t avail = buf_.size() - off_;
    if (avail < 4) return Status::NeedMore;
    const std::uint32_t len = read_u32le(buf_.data() + off_);
    if (len == 0 || len > kMaxFramePayload) {
        corrupt_ = true;
        corrupt_reason_ = len == 0 ? "zero-length frame"
                                   : "oversized frame (" +
                                         std::to_string(len) + " bytes)";
        if (reason) *reason = corrupt_reason_;
        return Status::Corrupt;
    }
    if (avail - 4 < len) return Status::NeedMore;
    const auto tag = static_cast<std::uint8_t>(buf_[off_ + 4]);
    if (!known_tag(tag)) {
        corrupt_ = true;
        corrupt_reason_ =
            "unknown frame tag " + std::to_string(tag);
        if (reason) *reason = corrupt_reason_;
        return Status::Corrupt;
    }
    out.tag = static_cast<MsgTag>(tag);
    out.body.assign(buf_, off_ + 5, len - 1);
    off_ += 4 + len;
    return Status::Frame;
}

}  // namespace iocov::serve
