#include "core/syscall_table.hpp"

#include <stdexcept>

#include "core/variant_handler.hpp"

namespace iocov::core {

SyscallTable::SyscallTable(const std::vector<SyscallSpec>& registry)
    : registry_(&registry) {
    arg_offset_.reserve(registry.size() + 1);
    std::size_t slot = 0;
    std::size_t variant_count = 0;
    for (const auto& spec : registry) variant_count += spec.variants.size();
    variants_.reserve(variant_count);
    for (SyscallId id = 0; id < registry.size(); ++id) {
        const auto& spec = registry[id];
        arg_offset_.push_back(slot);
        slot += spec.args.size();
        for (const auto& arg : spec.args) {
            std::uint8_t key = key_of(arg.key);
            if (key == kNoKey) {
                if (keys_.size() == kNoKey)
                    throw std::length_error(
                        "SyscallTable: more than 254 distinct arg keys");
                key = static_cast<std::uint8_t>(keys_.size());
                keys_.push_back(arg.key);
            }
            slot_key_.push_back(key);
        }
        for (const auto& variant : spec.variants)
            variants_.emplace(variant,
                              VariantEntry{id, implied_variant_arg(variant)});
    }
    arg_offset_.push_back(slot);
}

std::uint8_t SyscallTable::key_of(std::string_view name) const {
    for (std::size_t k = 0; k < keys_.size(); ++k)
        if (keys_[k] == name) return static_cast<std::uint8_t>(k);
    return kNoKey;
}

std::vector<SyscallTable::Binding> SyscallTable::bind_all(
    const std::vector<std::string_view>& strings) const {
    std::vector<Binding> out;
    out.reserve(strings.size());
    for (const auto sv : strings) {
        Binding b = bind(sv);
        b.arg_key = key_of(sv);
        b.path = path_partitions(sv);
        out.push_back(b);
    }
    return out;
}

std::size_t SyscallTable::arg_slot(std::string_view base,
                                   std::string_view key) const {
    for (SyscallId id = 0; id < registry_->size(); ++id) {
        const auto& spec = (*registry_)[id];
        if (spec.base != base) continue;
        for (std::size_t i = 0; i < spec.args.size(); ++i)
            if (spec.args[i].key == key) return arg_offset_[id] + i;
    }
    return npos;
}

}  // namespace iocov::core
