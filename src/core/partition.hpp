// Input- and output-space partitioners (Section 3 of the paper).
//
// Each argument class partitions differently:
//   bitmap      -> one partition per flag (plus combination statistics)
//   numeric     -> powers of two, with "=0" and "<0" boundary partitions
//   categorical -> one partition per legal value, plus "INVALID"
//   identifier  -> structural classes (absolute/relative/.../via-fd for
//                  paths; stdio/valid/AT_FDCWD/invalid for fds)
// Outputs partition into success vs. each documented error code; for
// syscalls whose success returns a byte count or offset, the success
// side is further split by powers of two.
//
// Every partition class has one definition: a function from a value to
// partition *indices*, whose labels are the class's declared() list.
// The analyzer bumps histogram rows by those indices (the declared block
// of a histogram never reorders), so no label is rendered or compared
// per event; only values outside the declared block (numeric exponents
// above 2^32, undocumented errnos) are labeled, by the same functions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/syscall_spec.hpp"
#include "trace/event.hpp"

namespace iocov::core {

/// The partition spaces the analyzer tracks; the class of a base
/// syscall's argument is partition_class(base, arg).
enum class PartitionClass : std::uint8_t {
    OpenFlags,   ///< bitmap: one partition per open flag (Fig. 2)
    ModeBits,    ///< bitmap: one partition per permission bit, + "none"
    Numeric,     ///< "<0", "=0", 2^0..2^32 declared; larger 2^k dynamic
    Whence,      ///< lseek whence values + "INVALID"
    XattrFlags,  ///< setxattr flags values + "INVALID"
    Fd,          ///< structural fd classes
    Path,        ///< structural pathname classes
};

PartitionClass partition_class(std::string_view base, const ArgSpec& arg);

/// Number of declared partitions of `c` (the size of its declared block).
std::size_t declared_count(PartitionClass c);

/// Label of partition `index` of `c`: a declared label for index <
/// declared_count(c); beyond it, the dynamic label partition_indices()
/// means by that index (only Numeric has any: "2^k" is index 2 + k).
std::string partition_label(PartitionClass c, std::size_t index);

/// Every declared label of `c`, in row order (partition_label over the
/// declared block).
std::vector<std::string> declared_partitions(PartitionClass c);

/// The pathname classes a string occupies, one bit per declared Path
/// index.  Computed once per string-table entry on the row path.
using PathMask = std::uint16_t;
PathMask path_partitions(std::string_view path);

/// A traced argument value reduced to what partitioning reads: integer
/// bits (a string reads as 0 in every integer class) and pathname
/// classes (a non-string reads as "faulting").
struct ArgBits {
    std::uint64_t bits = 0;
    PathMask path = 0;
};

/// ArgBits of a materialized value (a string's path classes computed).
ArgBits arg_bits(const trace::ArgValue& value);

/// ArgBits of an integer value (the pathname class "faulting").
ArgBits int_arg_bits(std::uint64_t bits);

/// Most partitions one value can occupy (every open flag).
inline constexpr std::size_t kMaxValuePartitions = 24;

/// Writes the partition indices `v` occupies in class `c` to `out`
/// (room for kMaxValuePartitions) and returns how many.  Bitmaps and
/// paths occupy several, every other class exactly one.  Open flags
/// come in abi::decompose_open_flags order, path classes as dot,
/// dotdot, absolute/relative, trailing-slash, name-max, path-max;
/// indices >= declared_count(c) are dynamic partitions, labeled by
/// partition_label.
std::size_t partition_indices(PartitionClass c, const ArgBits& v,
                              std::uint8_t* out);

/// Maps one argument value to the partition label(s) it occupies: a
/// partition class with its labels, for callers that want strings.
class InputPartitioner {
  public:
    explicit InputPartitioner(PartitionClass cls) : cls_(cls) {}

    PartitionClass partition_class() const { return cls_; }

    /// All partitions declared up front, so untested ones are visible.
    std::vector<std::string> declared() const {
        return declared_partitions(cls_);
    }

    /// The labels this concrete value occupies.
    std::vector<std::string> labels_for(const trace::ArgValue& value) const;

  private:
    PartitionClass cls_;
};

/// Builds the partitioner for a base syscall's tracked argument.
std::unique_ptr<InputPartitioner> make_input_partitioner(
    std::string_view base, const ArgSpec& arg);

/// Output partitioner for a base syscall (success kind + error list).
class OutputPartitioner {
  public:
    /// `errors` are the documented codes; a repeated code or Err::Ok
    /// (the success sentinel, never a failure) is dropped.
    OutputPartitioner(SuccessKind success, std::vector<abi::Err> errors);

    std::vector<std::string> declared() const;

    /// Row of `ret` in declared(), or npos when its partition is
    /// dynamic (a size above 2^32, an errno outside the list).
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t index_of(std::int64_t ret) const;

    /// The label of `ret`'s partition, declared or dynamic.
    std::string label_for(std::int64_t ret) const;

  private:
    /// Success rows at the head of declared(): "OK", or "OK:=0" plus
    /// "OK:2^0".."OK:2^32" for sized successes.
    std::size_t ok_rows() const;
    /// Label of declared row `row`.
    std::string row_label(std::size_t row) const;

    SuccessKind success_;
    std::vector<abi::Err> errors_;
};

/// The exponent ceiling for declared numeric partitions: the paper's
/// Fig. 3 x-axis runs 0..32 (4 GiB).  Larger observed values extend the
/// histogram dynamically.
inline constexpr unsigned kNumericDeclaredMaxExp = 32;

/// Label helpers shared with reports.
std::string ok_label();                        // "OK"
std::string ok_size_label(std::int64_t ret);   // "OK:2^k" / "OK:=0"

}  // namespace iocov::core
