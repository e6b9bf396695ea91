// Trace filter: keeps only syscalls aimed at the file system under test.
//
// A tracer records *every* syscall a tester makes, including ones against
// the build tree, /proc, temporary files, etc.  Like the real IOCov, we
// filter by mount point before analysis: a path is in scope when it is
// the mount point itself or lies beneath it.  Path-less syscalls
// (read/write/close/... on a file descriptor) cannot be matched
// textually, so the filter is stateful: it watches fds returned by
// admitted open-family calls and admits subsequent fd-based calls on
// those fds.  This mirrors how one reconstructs fd provenance from an
// LTTng trace.
//
// Two adapters feed one state machine.  admit() takes a materialized
// TraceEvent (per-event consume).  admit_row() takes a batch row —
// decoded IOCT or parsed text — which is never materialized: both
// intern every string, so bind() classifies each string-table entry
// once — syscall role, arg kind, path scope — and a row is admitted by
// array lookups alone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <regex>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event.hpp"

namespace iocov::trace {

struct EventBatch;

/// Filter configuration.  `include_prefixes` are literal mount points;
/// `include` regexes select further in-scope paths (POSIX extended
/// syntax, e.g. "^/media/other(/.*)?$"); `exclude` regexes veto paths
/// even when an include matched (useful to drop a tester's scratch
/// subdirectory).  Regexes cost a match per path and are only
/// evaluated when a caller sets them.
struct FilterConfig {
    std::vector<std::string> include;
    std::vector<std::string> exclude;
    std::vector<std::string> include_prefixes;

    /// The paper's xfstests setup: `mount` itself and everything under
    /// `mount + '/'`, matched literally (no regex is compiled).  Accepts
    /// exactly what the regex "^<mount>(/.*)?$" would, including its
    /// rejection of paths with an embedded NUL below the mount.
    static FilterConfig mount_point(const std::string& mount);
};

class TraceFilter {
  public:
    explicit TraceFilter(const FilterConfig& config);

    /// How a string-table entry matters to the filter, in each of the
    /// three places an interned string can appear in an event.
    enum class Role : std::uint8_t { Other, Open, Chdir, Fchdir, Close };
    enum class ArgKind : std::uint8_t { Other, Pathname, Dfd, Fd };
    /// None: the event has no string `pathname` argument.  Relative
    /// (empty or not starting with '/') resolves at admit time against
    /// a watched dfd or the pid's cwd; absolute paths are Inside or
    /// Outside the configured scope.
    enum class PathScope : std::uint8_t { None, Relative, Outside, Inside };

    /// One IOCT string table classified for this filter's config:
    /// entries[id] describes string id `id` as a syscall name, an arg
    /// name, and a pathname value.  The filter-side twin of
    /// core::SyscallTable::bind_all.
    struct Binding {
        struct Entry {
            Role role = Role::Other;
            ArgKind kind = ArgKind::Other;
            PathScope scope = PathScope::Relative;
        };
        std::vector<Entry> entries;
    };

    /// Classifies every entry of `strings` (matching each absolute path
    /// against the configured scope once).  Build it once per table,
    /// outside any allocation-free loop.
    Binding bind(const std::vector<std::string_view>& strings) const;

    /// Decides whether `event` targets the file system under test,
    /// updating fd-watch state as a side effect.  Events must be fed in
    /// trace order (fd admission depends on the preceding opens).
    bool admit(const TraceEvent& event);

    /// admit() for `batch.rows[row]`, decided from string ids through
    /// `binding` (built by bind() over the table the batch was decoded
    /// against): no string compare, regex or allocation.  Returns
    /// exactly what admit() returns for the materialized row.
    bool admit_row(const EventBatch& batch, std::size_t row,
                   const Binding& binding);

    /// Convenience: runs admit() over a whole trace, returning the kept
    /// events. Resets state first so a filter can be reused.
    std::vector<TraceEvent> filter(const std::vector<TraceEvent>& events);

    /// Forgets all watched fds and cwd scopes (e.g. between shards).
    /// Clears in place, keeping every per-pid set's capacity, so a
    /// filter reset between shards over the same pids allocates
    /// nothing.
    void reset();

    /// Number of fds currently being watched across all pids.
    std::size_t watched_fd_count() const;

  private:
    /// Sorted-vector fd set.  A process keeps a handful of fds open, so
    /// binary search beats a node-based std::set and — the point for
    /// the ingest hot path — insert/erase reuse the vector's capacity
    /// instead of allocating a node per open (steady-state admission
    /// performs zero heap allocations; tests/test_batch_decode.cpp
    /// asserts it through the exec allocation hook).
    class FdSet {
      public:
        bool contains(std::int64_t fd) const {
            return std::binary_search(fds_.begin(), fds_.end(), fd);
        }
        void insert(std::int64_t fd) {
            auto it = std::lower_bound(fds_.begin(), fds_.end(), fd);
            if (it == fds_.end() || *it != fd) fds_.insert(it, fd);
        }
        void erase(std::int64_t fd) {
            auto it = std::lower_bound(fds_.begin(), fds_.end(), fd);
            if (it != fds_.end() && *it == fd) fds_.erase(it);
        }
        std::size_t size() const { return fds_.size(); }
        void clear() { fds_.clear(); }

      private:
        std::vector<std::int64_t> fds_;
    };

    /// What one event contributes to the filter: its first `pathname`,
    /// `dfd` and `fd` args as admit() reads them (a non-string pathname
    /// or a string dfd/fd counts as absent).
    struct Step {
        std::uint32_t pid = 0;
        Role role = Role::Other;
        PathScope path = PathScope::None;
        std::optional<std::int64_t> dfd;
        std::optional<std::int64_t> fd;
        std::int64_t ret = 0;
    };

    /// The one filter state machine both adapters drive.
    bool step(const Step& s);

    /// Scope of a pathname value against the configured matchers.
    PathScope classify(std::string_view path) const;

    std::vector<std::regex> include_;
    std::vector<std::regex> exclude_;
    std::vector<std::string> prefixes_;
    /// pid -> set of fds opened within the mount point.
    std::map<std::uint32_t, FdSet> watched_;
    /// pid -> whether its cwd is inside the mount point (tracked via
    /// chdir/fchdir so relative paths resolve correctly).
    std::map<std::uint32_t, bool> cwd_in_scope_;
};

}  // namespace iocov::trace
