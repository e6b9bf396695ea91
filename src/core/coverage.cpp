#include "core/coverage.hpp"

#include <algorithm>

#include "abi/fcntl.hpp"
#include "trace/binary_format.hpp"
#include "trace/syz_format.hpp"

namespace iocov::core {

ArgCoverage* CoverageReport::find_input(std::string_view base,
                                        std::string_view key) {
    for (auto& in : inputs)
        if (in.base == base && in.key == key) return &in;
    return nullptr;
}

const ArgCoverage* CoverageReport::find_input(std::string_view base,
                                              std::string_view key) const {
    for (const auto& in : inputs)
        if (in.base == base && in.key == key) return &in;
    return nullptr;
}

OutputCoverage* CoverageReport::find_output(std::string_view base) {
    for (auto& out : outputs)
        if (out.base == base) return &out;
    return nullptr;
}

const OutputCoverage* CoverageReport::find_output(
    std::string_view base) const {
    for (const auto& out : outputs)
        if (out.base == base) return &out;
    return nullptr;
}

void CoverageReport::merge(const CoverageReport& other) {
    events_seen += other.events_seen;
    events_tracked += other.events_tracked;
    for (const auto& oin : other.inputs) {
        if (ArgCoverage* in = find_input(oin.base, oin.key)) {
            in->hist.merge(oin.hist);
            in->combo_cardinality.merge(oin.combo_cardinality);
            in->combo_cardinality_rdonly.merge(oin.combo_cardinality_rdonly);
            in->pairs.merge(oin.pairs);
        } else {
            inputs.push_back(oin);
        }
    }
    for (const auto& oout : other.outputs) {
        if (OutputCoverage* out = find_output(oout.base))
            out->hist.merge(oout.hist);
        else
            outputs.push_back(oout);
    }
}

namespace {

std::vector<std::string> combo_declared() {
    // Up to six flags were ever combined in the paper's data; declare
    // 1..6 plus an overflow bucket.
    return {"1", "2", "3", "4", "5", "6", "7+"};
}

/// Row of a call combining `n` >= 1 flags in combo_declared().
std::size_t combo_row(std::size_t n) { return std::min<std::size_t>(n, 7) - 1; }

/// open_flag_table() row of the flag named `name` (npos when none is).
std::size_t flag_row(std::string_view name) {
    const auto& table = abi::open_flag_table();
    for (std::size_t i = 0; i < table.size(); ++i)
        if (name == table[i].name) return i;
    return SyscallTable::npos;
}

std::size_t rdonly_row() {
    static const std::size_t kRow = flag_row("O_RDONLY");
    return kRow;
}

}  // namespace

Analyzer::Analyzer(const std::vector<SyscallSpec>& registry)
    : table_(registry) {
    input_classes_.reserve(table_.arg_slot_count());
    output_parts_.reserve(registry.size());
    for (const auto& spec : registry) {
        for (const auto& arg : spec.args) {
            const PartitionClass cls = partition_class(spec.base, arg);
            ArgCoverage cov;
            cov.base = spec.base;
            cov.key = arg.key;
            cov.cls = arg.cls;
            cov.hist = stats::PartitionHistogram::with_partitions(
                declared_partitions(cls));
            if (cls == PartitionClass::OpenFlags &&
                open_flags_slot_ == SyscallTable::npos) {
                open_flags_slot_ = input_classes_.size();
                cov.combo_cardinality =
                    stats::PartitionHistogram::with_partitions(
                        combo_declared());
                cov.combo_cardinality_rdonly =
                    stats::PartitionHistogram::with_partitions(
                        combo_declared());
            }
            report_.inputs.push_back(std::move(cov));
            input_classes_.push_back(
                {cls, static_cast<std::uint8_t>(declared_count(cls))});
        }
        OutputPartitioner opart(spec.success, spec.errors);
        OutputCoverage ocov;
        ocov.base = spec.base;
        ocov.success = spec.success;
        ocov.hist = stats::PartitionHistogram::with_partitions(
            opart.declared());
        report_.outputs.push_back(std::move(ocov));
        output_parts_.push_back(std::move(opart));
    }
}

void Analyzer::consume(const trace::TraceEvent& event) {
    consume(event, table_.bind(event.syscall));
}

void Analyzer::consume(const trace::TraceEvent& event,
                       const SyscallTable::Binding& binding) {
    ++report_.events_seen;
    if (!binding.tracked) return;
    ++report_.events_tracked;
    const auto& args = binding.spec->args;
    const std::size_t base = table_.arg_offset(binding.id);
    for (std::size_t i = 0; i < args.size(); ++i) {
        // The event's first arg of that name wins; a variant's implied
        // arg fills the gap.
        if (const trace::Arg* a = event.find_arg(args[i].key))
            count_input(base + i, arg_bits(a->value));
        else if (binding.implied && binding.implied->name == args[i].key)
            count_input(base + i, arg_bits(binding.implied->value));
    }
    // Declarative inputs (e.g. parsed syzkaller programs) carry no
    // observed return value; they contribute input coverage only.
    if (!trace::is_input_only(event)) count_output(binding.id, event.ret);
}

void Analyzer::consume_row(const trace::EventBatch& batch, std::size_t row,
                           const std::vector<SyscallTable::Binding>& table) {
    const trace::BatchRow& r = batch.rows[row];
    ++report_.events_seen;
    const SyscallTable::Binding& binding = table[r.name_id];
    if (!binding.tracked) return;
    ++report_.events_tracked;
    const trace::BatchArg* row_args = batch.args.data() + r.arg_begin;
    const auto& args = binding.spec->args;
    const std::size_t base = table_.arg_offset(binding.id);
    for (std::size_t i = 0; i < args.size(); ++i) {
        // consume()'s rule by key id: the first arg whose name binds to
        // the slot's key wins, whatever its type.
        const std::uint8_t key = table_.slot_key(base + i);
        const trace::BatchArg* a = nullptr;
        for (std::uint32_t j = 0; j < r.arg_count && !a; ++j)
            if (table[row_args[j].name_id].arg_key == key) a = &row_args[j];
        if (a)
            count_input(base + i, a->type == trace::ArgType::Str
                                      ? ArgBits{0, table[a->raw].path}
                                      : int_arg_bits(a->raw));
        else if (binding.implied && binding.implied->name == args[i].key)
            count_input(base + i, arg_bits(binding.implied->value));
    }
    if (r.ret != trace::kSyzNoReturn) count_output(binding.id, r.ret);
}

void Analyzer::consume_all(const std::vector<trace::TraceEvent>& events) {
    for (const auto& ev : events) consume(ev);
}

void Analyzer::count_input(std::size_t slot, const ArgBits& value) {
    ArgCoverage& cov = report_.inputs[slot];
    const InputSlot in = input_classes_[slot];
    std::uint8_t rows[kMaxValuePartitions];
    const std::size_t n = partition_indices(in.cls, value, rows);
    for (std::size_t i = 0; i < n; ++i) {
        if (rows[i] < in.declared) cov.hist.add_at(rows[i]);
        else cov.hist.add(partition_label(in.cls, rows[i]));
    }
    // Bitmap combination statistics (open flags only).
    if (slot == open_flags_slot_) {
        cov.combo_cardinality.add_at(combo_row(n));
        if (std::find(rows, rows + n, rdonly_row()) != rows + n)
            cov.combo_cardinality_rdonly.add_at(combo_row(n));
        count_pairs(cov.pairs, rows, n);
    }
}

void Analyzer::count_output(SyscallId id, std::int64_t ret) {
    auto& hist = report_.outputs[id].hist;
    const OutputPartitioner& part = output_parts_[id];
    const std::size_t row = part.index_of(ret);
    if (row != OutputPartitioner::npos) hist.add_at(row);
    else hist.add(part.label_for(ret));
}

void Analyzer::count_pairs(stats::PartitionHistogram& pairs,
                           const std::uint8_t* flags, std::size_t n) {
    const auto& table = abi::open_flag_table();
    const std::size_t width = table.size();
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) {
            if (pair_rows_.empty() ||
                pairs.partition_count() != pair_rows_size_)
                index_pairs(pairs);
            const std::uint32_t row = pair_rows_[flags[i] * width + flags[j]];
            if (row != kNoRow) {
                pairs.add_at(row);
                continue;
            }
            const std::string_view a = table[flags[i]].name;
            const std::string_view b = table[flags[j]].name;
            pair_label_.assign(std::min(a, b));
            pair_label_ += '+';
            pair_label_ += std::max(a, b);
            pairs.add(pair_label_);
        }
}

void Analyzer::index_pairs(const stats::PartitionHistogram& pairs) {
    const auto& table = abi::open_flag_table();
    const std::size_t width = table.size();
    pair_rows_.assign(width * width, kNoRow);
    const auto& rows = pairs.rows();
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const std::string_view label = rows[r].label;
        const std::size_t plus = label.find('+');
        if (plus == std::string_view::npos) continue;
        const std::size_t a = flag_row(label.substr(0, plus));
        const std::size_t b = flag_row(label.substr(plus + 1));
        // Only the label count_pairs renders for (a, b) is its row.
        if (a == SyscallTable::npos || b == SyscallTable::npos ||
            !(label.substr(0, plus) < label.substr(plus + 1)))
            continue;
        pair_rows_[a * width + b] = pair_rows_[b * width + a] =
            static_cast<std::uint32_t>(r);
    }
    pair_rows_size_ = rows.size();
}

}  // namespace iocov::core
