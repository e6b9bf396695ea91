// Interned syscall registry lookup for the analyzer hot path.
//
// The registry is a vector of specs whose natural lookups are linear
// scans over strings (base_of_variant, find_spec) — fine for tooling,
// too slow to run once per traced event.  A SyscallTable resolves the
// registry once into dense indices:
//
//   * every base syscall gets a SyscallId (its registry index),
//   * every tracked argument gets a flat "arg slot" (bases contribute
//     their args in registry order, matching CoverageReport::inputs),
//   * every distinct arg key gets a small key id,
//   * every variant name maps, via one hash lookup, to its base's spec,
//     id, and implied argument.
//
// The Analyzer then indexes plain std::vectors per event instead of
// building "base/key" strings and probing std::maps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/partition.hpp"
#include "core/syscall_spec.hpp"
#include "trace/event.hpp"

namespace iocov::core {

/// Dense index of a base syscall within its registry.
using SyscallId = std::size_t;

class SyscallTable {
  public:
    /// `registry` must outlive the table (registries are static in
    /// practice; a custom one must outlive any Analyzer built on it).
    explicit SyscallTable(const std::vector<SyscallSpec>& registry);

    const std::vector<SyscallSpec>& registry() const { return *registry_; }
    std::size_t base_count() const { return registry_->size(); }

    /// First flat arg slot of base `id`; its args occupy
    /// [arg_offset(id), arg_offset(id) + spec.args.size()).
    std::size_t arg_offset(SyscallId id) const { return arg_offset_[id]; }

    /// Total tracked arguments across the registry (== the size of
    /// CoverageReport::inputs built from it).
    std::size_t arg_slot_count() const { return arg_offset_.back(); }

    /// Flat slot of (base, key); npos when the base has no such arg.
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t arg_slot(std::string_view base, std::string_view key) const;

    /// Key id of arg slot `slot`: equal ids mean equal arg names.
    std::uint8_t slot_key(std::size_t slot) const { return slot_key_[slot]; }

    /// Key id of `name`, or kNoKey when no tracked argument is named so.
    static constexpr std::uint8_t kNoKey = 0xff;
    std::uint8_t key_of(std::string_view name) const;

    /// One string-table entry resolved for the analyzer, in each of the
    /// three places an interned string can appear in an event: as a
    /// syscall name (tracked, id, spec, implied), as an arg name
    /// (arg_key), and as a pathname value (path).  The analyzer-side
    /// twin of trace::TraceFilter::Binding.
    struct Binding {
        bool tracked = false;
        std::uint8_t arg_key = kNoKey;
        PathMask path = 0;
        SyscallId id = 0;
        const SyscallSpec* spec = nullptr;
        const trace::Arg* implied = nullptr;
    };

    /// `variant_name` resolved as a syscall name (one hash lookup);
    /// `tracked == false` marks untracked names.
    Binding bind(std::string_view variant_name) const {
        auto it = variants_.find(variant_name);
        if (it == variants_.end()) return {};
        const VariantEntry& ve = it->second;
        Binding b;
        b.tracked = true;
        b.id = ve.id;
        b.spec = &(*registry_)[ve.id];
        b.implied = ve.implied;
        return b;
    }

    /// Dense binding for a whole string table (an IOCT file's or a text
    /// chunk's): out[i] is bind(strings[i]) plus strings[i]'s key id and
    /// path classes.  One pass, built once per table; the row loop then
    /// resolves names, arg keys and pathname partitions by plain vector
    /// index on string ids — no hashing or string compare per event.
    std::vector<Binding> bind_all(
        const std::vector<std::string_view>& strings) const;

  private:
    struct VariantEntry {
        SyscallId id = 0;
        const trace::Arg* implied = nullptr;  // static storage
    };

    /// Transparent hash so bind() takes string_views (string-table
    /// entries aliasing an mmap) without a temporary std::string.
    struct NameHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const {
            return std::hash<std::string_view>{}(s);
        }
    };

    const std::vector<SyscallSpec>* registry_;
    std::unordered_map<std::string, VariantEntry, NameHash, std::equal_to<>>
        variants_;
    std::vector<std::size_t> arg_offset_;  // base_count() + 1 entries
    std::vector<std::string_view> keys_;   // distinct arg keys, by key id
    std::vector<std::uint8_t> slot_key_;   // arg slot -> key id
};

}  // namespace iocov::core
