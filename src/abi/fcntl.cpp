#include "abi/fcntl.hpp"

namespace iocov::abi {

const std::vector<OpenFlagInfo>& open_flag_table() {
    static const std::vector<OpenFlagInfo> kTable = {
        {"O_RDONLY", O_RDONLY, true},
        {"O_WRONLY", O_WRONLY, true},
        {"O_RDWR", O_RDWR, true},
        {"O_CREAT", O_CREAT, false},
        {"O_EXCL", O_EXCL, false},
        {"O_NOCTTY", O_NOCTTY, false},
        {"O_TRUNC", O_TRUNC, false},
        {"O_APPEND", O_APPEND, false},
        {"O_NONBLOCK", O_NONBLOCK, false},
        {"O_DSYNC", O_DSYNC, false},
        {"O_ASYNC", O_ASYNC, false},
        {"O_DIRECT", O_DIRECT, false},
        {"O_LARGEFILE", O_LARGEFILE, false},
        {"O_DIRECTORY", O_DIRECTORY, false},
        {"O_NOFOLLOW", O_NOFOLLOW, false},
        {"O_NOATIME", O_NOATIME, false},
        {"O_CLOEXEC", O_CLOEXEC, false},
        {"O_SYNC", O_SYNC, false},
        {"O_PATH", O_PATH, false},
        {"O_TMPFILE", O_TMPFILE, false},
    };
    return kTable;
}

std::size_t decompose_open_flag_indices(std::uint32_t flags,
                                        std::uint8_t* out, std::size_t cap) {
    const auto& table = open_flag_table();
    // Rows of the flags the rules below name, found once (bit patterns
    // are unique in the table).
    struct Rows {
        std::uint8_t rdonly, wronly, rdwr, sync, tmpfile;
    };
    static const Rows kRows = [&] {
        auto row = [&](std::uint32_t bits) {
            std::size_t i = 0;
            while (table[i].bits != bits) ++i;
            return static_cast<std::uint8_t>(i);
        };
        return Rows{row(O_RDONLY), row(O_WRONLY), row(O_RDWR), row(O_SYNC),
                    row(O_TMPFILE)};
    }();
    std::size_t n = 0;
    auto emit = [&](std::uint8_t i) {
        if (n < cap) out[n++] = i;
    };
    // Access mode: exactly one of O_RDONLY / O_WRONLY / O_RDWR.  The
    // kernel treats mode 3 as invalid; we report it as O_RDWR for
    // coverage purposes (the syscall layer rejects it with EINVAL).
    switch (flags & O_ACCMODE) {
        case O_WRONLY: emit(kRows.wronly); break;
        case O_RDONLY: emit(kRows.rdonly); break;
        default: emit(kRows.rdwr); break;
    }
    std::uint32_t rest = flags & ~O_ACCMODE;
    // Composite flags first so O_SYNC absorbs O_DSYNC and O_TMPFILE
    // absorbs O_DIRECTORY, matching how the kernel distinguishes them.
    if ((rest & O_SYNC) == O_SYNC) {
        emit(kRows.sync);
        rest &= ~static_cast<std::uint32_t>(O_SYNC);
    }
    if ((rest & O_TMPFILE) == O_TMPFILE) {
        emit(kRows.tmpfile);
        rest &= ~static_cast<std::uint32_t>(O_TMPFILE);
    }
    for (std::size_t i = 0; i < table.size(); ++i) {
        const auto& info = table[i];
        if (info.access_mode || info.bits == O_SYNC || info.bits == O_TMPFILE)
            continue;
        if ((rest & info.bits) == info.bits) {
            emit(static_cast<std::uint8_t>(i));
            rest &= ~info.bits;
        }
    }
    return n;
}

std::vector<std::string> decompose_open_flags(std::uint32_t flags) {
    std::uint8_t rows[kMaxOpenFlagLabels];
    const std::size_t n =
        decompose_open_flag_indices(flags, rows, kMaxOpenFlagLabels);
    std::vector<std::string> names;
    names.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        names.emplace_back(open_flag_table()[rows[i]].name);
    return names;
}

unsigned open_flag_cardinality(std::uint32_t flags) {
    return static_cast<unsigned>(decompose_open_flags(flags).size());
}

std::string open_flags_to_string(std::uint32_t flags) {
    std::string out;
    for (const auto& name : decompose_open_flags(flags)) {
        if (!out.empty()) out += '|';
        out += name;
    }
    return out;
}

}  // namespace iocov::abi
