#include "core/partition.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "abi/fcntl.hpp"
#include "abi/limits.hpp"
#include "abi/seek.hpp"
#include "abi/stat_mode.hpp"
#include "abi/xattr.hpp"
#include "stats/log_bucket.hpp"

namespace iocov::core {
namespace {

// ---- bitmap: mode/permission bits ------------------------------------------

constexpr std::array<std::pair<abi::mode_t_, const char*>, 12> kModeBits = {{
    {abi::S_ISUID, "S_ISUID"},
    {abi::S_ISGID, "S_ISGID"},
    {abi::S_ISVTX, "S_ISVTX"},
    {abi::S_IRUSR, "S_IRUSR"},
    {abi::S_IWUSR, "S_IWUSR"},
    {abi::S_IXUSR, "S_IXUSR"},
    {abi::S_IRGRP, "S_IRGRP"},
    {abi::S_IWGRP, "S_IWGRP"},
    {abi::S_IXGRP, "S_IXGRP"},
    {abi::S_IROTH, "S_IROTH"},
    {abi::S_IWOTH, "S_IWOTH"},
    {abi::S_IXOTH, "S_IXOTH"},
}};
constexpr std::size_t kModeNone = kModeBits.size();

// ---- numeric -----------------------------------------------------------------

/// "<0" is 0, "=0" is 1, 2^k is 2 + k.
constexpr std::size_t kNumericPow2 = 2;

std::size_t numeric_index(std::int64_t v) {
    if (v < 0) return 0;
    if (v == 0) return 1;
    return kNumericPow2 + static_cast<std::size_t>(
                              std::bit_width(static_cast<std::uint64_t>(v)) -
                              1);
}

// ---- categorical / identifiers ------------------------------------------------

constexpr std::array<const char*, 4> kXattrFlags = {
    "0", "XATTR_CREATE", "XATTR_REPLACE", "INVALID"};

constexpr std::array<const char*, 6> kFdClasses = {
    "stdio(0-2)", "valid(>=3)", "large(>=1024)",
    "minus-one",  "AT_FDCWD",   "other-negative"};

std::size_t fd_index(std::int64_t fd) {
    if (fd >= 0 && fd <= 2) return 0;
    if (fd >= 1024) return 2;
    if (fd >= 3) return 1;
    if (fd == -1) return 3;
    if (fd == abi::AT_FDCWD) return 4;
    return 5;
}

enum PathClass : std::uint8_t {
    kAbsolute,
    kRelative,
    kDot,
    kDotdot,
    kTrailingSlash,
    kSymlinkish,
    kNameMax,
    kPathMax,
    kViaFd,
    kFaulting,
    kEmpty,
};
constexpr std::array<const char*, 11> kPathClasses = {
    "absolute", "relative",  "dot",      "dotdot",   "trailing-slash",
    "contains-symlinkish",   "name-max", "path-max", "via-fd",
    "faulting", "empty"};
/// The order a path's classes are listed in.
constexpr std::array<PathClass, 10> kPathOrder = {
    kDot,     kDotdot,  kAbsolute, kRelative, kTrailingSlash,
    kNameMax, kPathMax, kViaFd,    kFaulting, kEmpty};

constexpr PathMask bit(PathClass c) { return static_cast<PathMask>(1u << c); }

}  // namespace

PartitionClass partition_class(std::string_view base, const ArgSpec& arg) {
    switch (arg.cls) {
        case ArgClass::Bitmap:
            return base == "open" && arg.key == "flags"
                       ? PartitionClass::OpenFlags
                       : PartitionClass::ModeBits;
        case ArgClass::Numeric:
            return PartitionClass::Numeric;
        case ArgClass::Categorical:
            return base == "setxattr" ? PartitionClass::XattrFlags
                                      : PartitionClass::Whence;
        case ArgClass::Identifier:
            return arg.key == "fd" ? PartitionClass::Fd : PartitionClass::Path;
    }
    return PartitionClass::Numeric;
}

std::size_t declared_count(PartitionClass c) {
    switch (c) {
        case PartitionClass::OpenFlags: return abi::open_flag_table().size();
        case PartitionClass::ModeBits: return kModeBits.size() + 1;
        case PartitionClass::Numeric:
            return kNumericPow2 + kNumericDeclaredMaxExp + 1;
        case PartitionClass::Whence:
            return abi::seek_whence_values().size() + 1;
        case PartitionClass::XattrFlags: return kXattrFlags.size();
        case PartitionClass::Fd: return kFdClasses.size();
        case PartitionClass::Path: return kPathClasses.size();
    }
    return 0;
}

std::string partition_label(PartitionClass c, std::size_t index) {
    switch (c) {
        case PartitionClass::OpenFlags:
            return abi::open_flag_table()[index].name;
        case PartitionClass::ModeBits:
            return index == kModeNone ? "none" : kModeBits[index].second;
        case PartitionClass::Numeric:
            return index == 0 ? "<0"
                   : index == 1
                       ? "=0"
                       : std::string("2^").append(
                             std::to_string(index - kNumericPow2));
        case PartitionClass::Whence: {
            const auto& values = abi::seek_whence_values();
            return index < values.size() ? *abi::seek_whence_name(values[index])
                                         : "INVALID";
        }
        case PartitionClass::XattrFlags: return kXattrFlags[index];
        case PartitionClass::Fd: return kFdClasses[index];
        case PartitionClass::Path: return kPathClasses[index];
    }
    return "?";
}

std::vector<std::string> declared_partitions(PartitionClass c) {
    std::vector<std::string> out;
    const std::size_t n = declared_count(c);
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(partition_label(c, i));
    return out;
}

PathMask path_partitions(std::string_view p) {
    if (p == "<fault>") return bit(kFaulting);
    if (p == "<via-fd>") return bit(kViaFd);
    if (p.empty()) return bit(kEmpty);
    PathMask m = bit(p.front() == '/' ? kAbsolute : kRelative);
    if (p == "." || p.starts_with("./")) m |= bit(kDot);
    if (p == ".." || p.starts_with("../")) m |= bit(kDotdot);
    if (p.size() > 1 && p.back() == '/') m |= bit(kTrailingSlash);
    // Longest component length and whole-path length boundaries.
    std::size_t comp = 0, longest = 0;
    for (char ch : p) {
        if (ch == '/') {
            longest = std::max(longest, comp);
            comp = 0;
        } else {
            ++comp;
        }
    }
    longest = std::max(longest, comp);
    if (longest > abi::NAME_MAX_) m |= bit(kNameMax);
    if (p.size() >= abi::PATH_MAX_) m |= bit(kPathMax);
    return m;
}

ArgBits int_arg_bits(std::uint64_t bits) { return {bits, bit(kFaulting)}; }

ArgBits arg_bits(const trace::ArgValue& value) {
    if (const auto* s = std::get_if<std::string>(&value))
        return {0, path_partitions(*s)};
    if (const auto* i = std::get_if<std::int64_t>(&value))
        return int_arg_bits(static_cast<std::uint64_t>(*i));
    return int_arg_bits(std::get<std::uint64_t>(value));
}

std::size_t partition_indices(PartitionClass c, const ArgBits& v,
                              std::uint8_t* out) {
    const auto as_int = static_cast<std::int64_t>(v.bits);
    switch (c) {
        case PartitionClass::OpenFlags:
            return abi::decompose_open_flag_indices(
                static_cast<std::uint32_t>(v.bits), out, kMaxValuePartitions);
        case PartitionClass::ModeBits: {
            const auto mode =
                static_cast<abi::mode_t_>(v.bits) & abi::MODE_PERM_MASK;
            std::size_t n = 0;
            for (std::size_t i = 0; i < kModeBits.size(); ++i)
                if (mode & kModeBits[i].first)
                    out[n++] = static_cast<std::uint8_t>(i);
            if (n == 0) out[n++] = kModeNone;
            return n;
        }
        case PartitionClass::Numeric:
            out[0] = static_cast<std::uint8_t>(numeric_index(as_int));
            return 1;
        case PartitionClass::Whence: {
            // The whence ABI is an int: the value truncates to one.
            const int w = static_cast<int>(as_int);
            const auto& values = abi::seek_whence_values();
            const auto it = std::find(values.begin(), values.end(), w);
            out[0] = static_cast<std::uint8_t>(it - values.begin());
            return 1;
        }
        case PartitionClass::XattrFlags:
            out[0] = as_int == 0                     ? 0
                     : as_int == abi::XATTR_CREATE_  ? 1
                     : as_int == abi::XATTR_REPLACE_ ? 2
                                                     : 3;
            return 1;
        case PartitionClass::Fd:
            out[0] = static_cast<std::uint8_t>(fd_index(as_int));
            return 1;
        case PartitionClass::Path: {
            std::size_t n = 0;
            for (PathClass pc : kPathOrder)
                if (v.path & bit(pc)) out[n++] = pc;
            return n;
        }
    }
    return 0;
}

std::vector<std::string> InputPartitioner::labels_for(
    const trace::ArgValue& value) const {
    std::uint8_t rows[kMaxValuePartitions];
    const std::size_t n = partition_indices(cls_, arg_bits(value), rows);
    std::vector<std::string> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(partition_label(cls_, rows[i]));
    return out;
}

std::unique_ptr<InputPartitioner> make_input_partitioner(
    std::string_view base, const ArgSpec& arg) {
    return std::make_unique<InputPartitioner>(partition_class(base, arg));
}

// ---- outputs -------------------------------------------------------------

std::string ok_label() { return "OK"; }

std::string ok_size_label(std::int64_t ret) {
    return "OK:" + stats::bucket_label(stats::log_bucket_of(ret));
}

OutputPartitioner::OutputPartitioner(SuccessKind success,
                                     std::vector<abi::Err> errors)
    : success_(success) {
    errors_.reserve(errors.size());
    for (abi::Err e : errors)
        if (e != abi::Err::Ok &&
            std::find(errors_.begin(), errors_.end(), e) == errors_.end())
            errors_.push_back(e);
}

std::size_t OutputPartitioner::ok_rows() const {
    return success_ == SuccessKind::ByteCount ||
                   success_ == SuccessKind::Offset
               ? 1 + kNumericDeclaredMaxExp + 1
               : 1;
}

std::string OutputPartitioner::row_label(std::size_t row) const {
    const std::size_t oks = ok_rows();
    if (row >= oks) return abi::err_name(errors_[row - oks]);
    if (oks == 1) return ok_label();
    return row == 0 ? std::string("OK:=0")
                    : std::string("OK:2^").append(std::to_string(row - 1));
}

std::vector<std::string> OutputPartitioner::declared() const {
    std::vector<std::string> out;
    const std::size_t n = ok_rows() + errors_.size();
    out.reserve(n);
    for (std::size_t row = 0; row < n; ++row) out.push_back(row_label(row));
    return out;
}

std::size_t OutputPartitioner::index_of(std::int64_t ret) const {
    const std::size_t oks = ok_rows();
    if (ret >= 0) {
        if (oks == 1 || ret == 0) return 0;
        const auto k = static_cast<std::size_t>(
            std::bit_width(static_cast<std::uint64_t>(ret)) - 1);
        return k <= kNumericDeclaredMaxExp ? 1 + k : npos;
    }
    const abi::Err e = abi::err_of(ret);
    // A failure whose errno truncates to 0 is labeled err_name(Ok),
    // "OK": the unit success row.
    if (e == abi::Err::Ok) return oks == 1 ? 0 : npos;
    const auto it = std::find(errors_.begin(), errors_.end(), e);
    return it == errors_.end()
               ? npos
               : oks + static_cast<std::size_t>(it - errors_.begin());
}

std::string OutputPartitioner::label_for(std::int64_t ret) const {
    const std::size_t row = index_of(ret);
    if (row != npos) return row_label(row);
    // Dynamic: a size above 2^32, or an errno outside the list.
    if (ret >= 0) return ok_size_label(ret);
    return abi::err_name(abi::err_of(ret));
}

}  // namespace iocov::core
