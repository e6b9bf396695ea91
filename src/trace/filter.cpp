#include "trace/filter.hpp"

#include <algorithm>
#include <utility>

#include "trace/binary_format.hpp"

namespace iocov::trace {
namespace {

constexpr std::int64_t kAtFdCwd = -100;

TraceFilter::Role role_of(std::string_view name) {
    using Role = TraceFilter::Role;
    if (name == "open" || name == "openat" || name == "creat" ||
        name == "openat2")
        return Role::Open;
    if (name == "chdir") return Role::Chdir;
    if (name == "fchdir") return Role::Fchdir;
    if (name == "close") return Role::Close;
    return Role::Other;
}

TraceFilter::ArgKind kind_of(std::string_view name) {
    using ArgKind = TraceFilter::ArgKind;
    if (name == "pathname") return ArgKind::Pathname;
    if (name == "dfd") return ArgKind::Dfd;
    if (name == "fd") return ArgKind::Fd;
    return ArgKind::Other;
}

/// `path` is `mount` or lies beneath `mount + '/'`: the language of the
/// POSIX extended regex "^<mount>(/.*)?$", whose '.' never matches NUL.
bool under_mount(std::string_view path, std::string_view mount) {
    if (!path.starts_with(mount)) return false;
    const std::string_view rest = path.substr(mount.size());
    return rest.empty() ||
           (rest.front() == '/' && rest.find('\0') == std::string_view::npos);
}

}  // namespace

FilterConfig FilterConfig::mount_point(const std::string& mount) {
    FilterConfig cfg;
    cfg.include_prefixes.push_back(mount);
    return cfg;
}

TraceFilter::TraceFilter(const FilterConfig& config)
    : prefixes_(config.include_prefixes) {
    for (const auto& pat : config.include)
        include_.emplace_back(pat, std::regex::extended);
    for (const auto& pat : config.exclude)
        exclude_.emplace_back(pat, std::regex::extended);
}

TraceFilter::PathScope TraceFilter::classify(std::string_view path) const {
    if (path.empty() || path.front() != '/') return PathScope::Relative;
    auto matches_any = [&](const std::vector<std::regex>& pats) {
        return std::any_of(pats.begin(), pats.end(), [&](const std::regex& re) {
            return std::regex_match(path.begin(), path.end(), re);
        });
    };
    const bool included =
        std::any_of(prefixes_.begin(), prefixes_.end(),
                    [&](const std::string& m) { return under_mount(path, m); }) ||
        matches_any(include_);
    return included && !matches_any(exclude_) ? PathScope::Inside
                                              : PathScope::Outside;
}

TraceFilter::Binding TraceFilter::bind(
    const std::vector<std::string_view>& strings) const {
    Binding binding;
    binding.entries.reserve(strings.size());
    for (const auto sv : strings)
        binding.entries.push_back({role_of(sv), kind_of(sv), classify(sv)});
    return binding;
}

bool TraceFilter::step(const Step& s) {
    auto& watched = watched_[s.pid];

    // Resolve whether a (dfd, pathname) pair is in scope.
    auto resolve = [&](std::optional<std::int64_t> dfd) {
        if (s.path != PathScope::Relative) return s.path == PathScope::Inside;
        // Relative path: scope comes from the directory it resolves
        // against — a watched dfd, or the pid's cwd for AT_FDCWD.
        if (dfd && *dfd != kAtFdCwd) return watched.contains(*dfd);
        auto it = cwd_in_scope_.find(s.pid);
        return it != cwd_in_scope_.end() && it->second;
    };

    bool in_scope = false;
    if (s.path != PathScope::None) {
        in_scope = resolve(s.dfd);
    } else if (s.fd) {
        in_scope = watched.contains(*s.fd);
    }

    // State updates, in trace order.
    if (s.ret < 0) return in_scope;
    switch (s.role) {
        case Role::Chdir:
            if (s.path != PathScope::None)
                cwd_in_scope_[s.pid] = resolve(std::nullopt);
            break;
        case Role::Fchdir:
            if (s.fd) cwd_in_scope_[s.pid] = watched.contains(*s.fd);
            break;
        case Role::Open:
            if (in_scope) watched.insert(s.ret);
            break;
        case Role::Close:
            if (s.fd) watched.erase(*s.fd);
            break;
        case Role::Other:
            break;
    }
    return in_scope;
}

bool TraceFilter::admit(const TraceEvent& event) {
    Step s;
    s.pid = event.pid;
    s.role = role_of(event.syscall);
    s.ret = event.ret;
    // Pointer into the event, not a str_arg() copy: admit() sits on the
    // text ingest hot path and must not allocate per event.
    if (const Arg* a = event.find_arg("pathname"))
        if (const auto* p = std::get_if<std::string>(&a->value))
            s.path = classify(*p);
    s.dfd = event.int_arg("dfd");
    s.fd = event.int_arg("fd");
    return step(s);
}

bool TraceFilter::admit_row(const EventBatch& batch, std::size_t row,
                            const Binding& binding) {
    const auto& entries = binding.entries;
    const BatchRow& r = batch.rows[row];
    Step s;
    s.pid = r.pid;
    s.role = entries[r.name_id].role;
    s.ret = r.ret;
    // The first arg of each kind decides, whatever its type — find_arg's
    // rule — so a table interning "pathname" twice behaves like admit().
    bool seen_path = false, seen_dfd = false, seen_fd = false;
    for (std::size_t i = r.arg_begin; i < r.arg_begin + r.arg_count; ++i) {
        const BatchArg& a = batch.args[i];
        const bool str = a.type == ArgType::Str;
        switch (entries[a.name_id].kind) {
            case ArgKind::Pathname:
                if (!std::exchange(seen_path, true) && str)
                    s.path = entries[a.raw].scope;
                break;
            case ArgKind::Dfd:
                if (!std::exchange(seen_dfd, true) && !str)
                    s.dfd = static_cast<std::int64_t>(a.raw);
                break;
            case ArgKind::Fd:
                if (!std::exchange(seen_fd, true) && !str)
                    s.fd = static_cast<std::int64_t>(a.raw);
                break;
            case ArgKind::Other:
                break;
        }
    }
    return step(s);
}

std::vector<TraceEvent> TraceFilter::filter(
    const std::vector<TraceEvent>& events) {
    reset();
    std::vector<TraceEvent> kept;
    kept.reserve(events.size());
    for (const auto& ev : events)
        if (admit(ev)) kept.push_back(ev);
    return kept;
}

void TraceFilter::reset() {
    watched_.clear();
    cwd_in_scope_.clear();
}

std::size_t TraceFilter::watched_fd_count() const {
    std::size_t n = 0;
    for (const auto& [pid, fds] : watched_) n += fds.size();
    return n;
}

}  // namespace iocov::trace
