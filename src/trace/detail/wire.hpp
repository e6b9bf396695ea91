// Wire helpers shared by every iocov binary format: IOCT traces, IOCS
// snapshots, IOCK checkpoints and serve frames.  All of them are
// little-endian fixed-width integers plus LEB128 varints, decoded by
// one byte-at-a-time reader — one definition of the truncation and
// 10th-byte rules for every untrusted input.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace iocov::trace::detail {

/// Byte-at-a-time LEB128.  Advances `p` past one varint and sets `out`,
/// or returns false with `p` unspecified (the caller aborts the
/// record).  `end` bounds the record: a varint may not run past it.
struct ScalarVarintReader {
    static bool read(const unsigned char*& p, const unsigned char* end,
                     std::uint64_t& out) {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (p == end) return false;
            const unsigned char byte = *p++;
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80)) {
                // The 10th byte may only carry the top bit of a u64.
                if (shift == 63 && (byte & 0x7e)) return false;
                out = v;
                return true;
            }
        }
        return false;  // unterminated varint
    }
};

inline void put_varint(std::string& out, std::uint64_t v) {
    while (v >= 0x80) {
        out.push_back(static_cast<char>(v | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

inline void put_u32le(std::string& out, std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<char>((v >> shift) & 0xff));
}

inline void put_u64le(std::string& out, std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<char>((v >> shift) & 0xff));
}

inline std::uint32_t read_u32le(const char* p) {
    const auto* u = reinterpret_cast<const unsigned char*>(p);
    return static_cast<std::uint32_t>(u[0]) |
           static_cast<std::uint32_t>(u[1]) << 8 |
           static_cast<std::uint32_t>(u[2]) << 16 |
           static_cast<std::uint32_t>(u[3]) << 24;
}

inline std::uint64_t read_u64le(const char* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | static_cast<unsigned char>(p[i]);
    return v;
}

/// FNV-1a 64 — the IOCS/IOCK footers' torn-tail and corruption
/// detector.  Not cryptographic; it only needs to make truncation and
/// bit flips loudly detectable.
inline std::uint64_t fnv1a64(std::string_view data) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

/// Bounds-checked forward reader over one record payload.
struct ByteCursor {
    const unsigned char* p;
    const unsigned char* end;

    explicit ByteCursor(std::string_view s)
        : p(reinterpret_cast<const unsigned char*>(s.data())),
          end(p + s.size()) {}

    bool done() const { return p == end; }

    bool read_u8(std::uint8_t& out) {
        if (p == end) return false;
        out = *p++;
        return true;
    }

    bool read_varint(std::uint64_t& out) {
        return ScalarVarintReader::read(p, end, out);
    }

    bool read_u64le(std::uint64_t& out) {
        if (end - p < 8) return false;
        out = detail::read_u64le(reinterpret_cast<const char*>(p));
        p += 8;
        return true;
    }

    /// A varint length followed by that many bytes.
    bool read_string(std::string& out) {
        std::uint64_t len = 0;
        if (!read_varint(len) || len > static_cast<std::uint64_t>(end - p))
            return false;
        out.assign(reinterpret_cast<const char*>(p),
                   static_cast<std::size_t>(len));
        p += len;
        return true;
    }
};

}  // namespace iocov::trace::detail
