// Syscall variant handler.
//
// open/openat/creat/openat2 (and the other variant families) share a
// kernel implementation, so IOCov merges their input and output spaces.
// The handler maps a raw trace event onto its base syscall and fills in
// arguments a variant expresses implicitly: creat(2) implies
// O_CREAT|O_WRONLY|O_TRUNC, and fchdir(2) changes directory "via fd"
// rather than via a pathname.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/syscall_spec.hpp"
#include "trace/event.hpp"

namespace iocov::core {

/// A trace event normalized onto its base syscall.
struct CanonicalEvent {
    std::string base;       ///< e.g. "open"
    std::string variant;    ///< the syscall as invoked, e.g. "creat"
    trace::TraceEvent event;  ///< args rewritten to base-arg names

    /// Tracked-argument lookup against the normalized arg list.
    std::optional<trace::ArgValue> arg(std::string_view key) const;
};

/// Normalizes `event`; nullopt for syscalls outside the tracked 27.
std::optional<CanonicalEvent> canonicalize(const trace::TraceEvent& event);

/// Same, resolving variants against an arbitrary registry (e.g. the
/// extended registry that also tracks unlink/rename/fsync).
std::optional<CanonicalEvent> canonicalize(
    const trace::TraceEvent& event,
    const std::vector<SyscallSpec>& registry);

/// The argument a variant implies rather than carries — creat(2) implies
/// open's flags, fchdir(2) supplies its directory "via fd" instead of a
/// pathname.  Returns a pointer into static storage, or nullptr for
/// variants that carry all their arguments explicitly.  Shared by
/// canonicalize() and the analyzer (through SyscallTable) so variant
/// knowledge lives in one place.
const trace::Arg* implied_variant_arg(std::string_view variant);

}  // namespace iocov::core
