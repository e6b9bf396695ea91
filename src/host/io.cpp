#include "host/io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>

#include "host/fault.hpp"

namespace iocov::host {
namespace {

constexpr std::string_view kPhaseNames[] = {
    "temp-create", "write", "sync", "close", "rename",
    "dir-open",    "dirsync", "open", "stat", "read",
    "accept",      "sock-read", "sock-write",
};

/// Exponential backoff state for one logical operation.  EINTR retries
/// immediately (the op was interrupted, not refused); everything else
/// transient sleeps, doubling up to the cap.
struct Backoff {
    explicit Backoff(const RetryPolicy& p)
        : policy(p), next_us(p.backoff_initial_us) {}

    void wait(int err) {
        if (err == EINTR || next_us == 0) return;
        timespec ts{next_us / 1'000'000,
                    static_cast<long>(next_us % 1'000'000) * 1000};
        ::nanosleep(&ts, nullptr);
        if (next_us < policy.backoff_cap_us)
            next_us = std::min(policy.backoff_cap_us, next_us * 2);
    }

    const RetryPolicy& policy;
    std::uint32_t next_us;
};

/// Splits "dir/name" into the directory that must be fsync'd after a
/// rename in it ("." for a bare name).
std::string parent_dir(const std::string& path) {
    const auto slash = path.find_last_of('/');
    if (slash == std::string::npos) return ".";
    if (slash == 0) return "/";
    return path.substr(0, slash);
}

/// open() with fault consultation and EINTR retry.
int open_retry(const char* path, int flags, unsigned mode, IoPhase phase,
               const RetryPolicy& policy, unsigned& retries) {
    Backoff backoff(policy);
    for (;;) {
        int injected = 0;
        if (FaultHook::active())
            injected = FaultHook::consult(phase).inject_errno;
        const int fd = injected
                           ? (errno = injected, -1)
                           : ::open(path, flags,
                                    static_cast<mode_t>(mode));
        if (fd >= 0) return fd;
        if (!transient_errno(errno) || retries >= policy.max_retries)
            return -1;
        ++retries;
        backoff.wait(errno);
    }
}

/// fsync() with fault consultation and transient retry.
bool fsync_retry(int fd, IoPhase phase, const RetryPolicy& policy,
                 unsigned& retries) {
    Backoff backoff(policy);
    for (;;) {
        int injected = 0;
        if (FaultHook::active()) {
            const auto a = FaultHook::consult(phase);
            injected = a.inject_errno;
        }
        const int rc = injected ? (errno = injected, -1) : ::fsync(fd);
        if (rc == 0) return true;
        if (!transient_errno(errno) || retries >= policy.max_retries)
            return false;
        ++retries;
        backoff.wait(errno);
    }
}

}  // namespace

std::string_view phase_name(IoPhase phase) {
    return kPhaseNames[static_cast<std::size_t>(phase)];
}

std::optional<IoPhase> phase_from_name(std::string_view name) {
    for (std::size_t i = 0; i < std::size(kPhaseNames); ++i)
        if (kPhaseNames[i] == name) return static_cast<IoPhase>(i);
    return std::nullopt;
}

std::string IoError::to_string() const {
    std::string s(phase_name(phase));
    s += ' ';
    s += path;
    s += ": ";
    s += err ? std::strerror(err) : "short write";
    s += " (errno ";
    s += std::to_string(err);
    if (retries) {
        s += " after ";
        s += std::to_string(retries);
        s += " retries";
    }
    s += ')';
    return s;
}

bool transient_errno(int err) {
    return err == EINTR || err == EAGAIN
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
           || err == EWOULDBLOCK
#endif
        ;  // NOLINT(whitespace/semicolon)
}

RetryPolicy RetryPolicy::standard() {
    static const RetryPolicy policy = [] {
        RetryPolicy p;
        if (const char* env = std::getenv("IOCOV_IO_RETRIES")) {
            char* end = nullptr;
            const unsigned long v = std::strtoul(env, &end, 10);
            if (end && *end == '\0') p.max_retries = static_cast<unsigned>(v);
        }
        return p;
    }();
    return policy;
}

// ---- AtomicWriter ----------------------------------------------------------

AtomicWriter::~AtomicWriter() { abort(); }

IoStatus AtomicWriter::fail(IoPhase phase, int err, unsigned retries) {
    abort();
    return IoError{phase, err, path_, retries};
}

IoStatus AtomicWriter::open(std::string path, WriteOptions opts) {
    path_ = std::move(path);
    opts_ = opts;
    committed_ = false;
    // The temp file must live in the destination directory: rename() is
    // only atomic within one file system, and fsync'ing the destination
    // directory is only meaningful if the temp entry was created there.
    const auto slash = path_.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string()
                                : path_.substr(0, slash + 1);
    const std::string base =
        slash == std::string::npos ? path_ : path_.substr(slash + 1);
    unsigned retries = 0;
    // O_EXCL + a counter suffix: two processes replacing the same
    // artifact never share a temp file; whoever renames last wins whole.
    for (unsigned attempt = 0; attempt < 64; ++attempt) {
        const std::string pid =
            std::to_string(static_cast<unsigned long>(::getpid()));
        const std::string suffix = attempt ? std::to_string(attempt) : "";
        temp_path_.clear();
        temp_path_.reserve(dir.size() + base.size() + pid.size() +
                           suffix.size() + 7);
        temp_path_.append(dir).append(".").append(base).append(".tmp.");
        temp_path_.append(pid);
        if (attempt) temp_path_.append(".").append(suffix);
        fd_ = open_retry(temp_path_.c_str(),
                         O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                         opts_.mode, IoPhase::TempCreate, opts_.retry,
                         retries);
        if (fd_ >= 0) return std::nullopt;
        if (errno != EEXIST) break;
    }
    const int err = errno;
    temp_path_.clear();
    return fail(IoPhase::TempCreate, err, retries);
}

IoStatus AtomicWriter::write(std::string_view bytes) {
    if (fd_ < 0) return fail(IoPhase::Write, EBADF);
    std::size_t done = 0;
    unsigned retries = 0;
    Backoff backoff(opts_.retry);
    while (done < bytes.size()) {
        std::size_t want = bytes.size() - done;
        int injected = 0;
        if (FaultHook::active()) {
            const auto a = FaultHook::consult(IoPhase::Write);
            if (a.kill) {
                // Torn host write: persist the prefix, then die exactly
                // here — the chaos oracle must still find a complete
                // artifact at the destination.
                const std::size_t pre = std::min(a.kill_after_bytes, want);
                if (pre > 0) {
                    [[maybe_unused]] const ssize_t n =
                        ::write(fd_, bytes.data() + done, pre);
                }
                ::raise(SIGKILL);
            }
            injected = a.inject_errno;
            if (a.shorten && want > 1) want = std::max<std::size_t>(1,
                                                                    want / 2);
            want = std::min(want, a.clamp_bytes);
        }
        const ssize_t n = injected
                              ? (errno = injected, ssize_t{-1})
                              : ::write(fd_, bytes.data() + done, want);
        if (n > 0) {
            if (FaultHook::active())
                FaultHook::note_write_bytes(static_cast<std::uint64_t>(n));
            done += static_cast<std::size_t>(n);
            continue;
        }
        const int err = n == 0 ? 0 : errno;
        if (transient_errno(err) && retries < opts_.retry.max_retries) {
            ++retries;
            backoff.wait(err);
            continue;
        }
        if (n == 0) {
            // write() returning 0 for a nonzero count: either a fault
            // hook EOF or a pathological fs.  Bounded like any other
            // non-progress condition.
            if (retries < opts_.retry.max_retries) {
                ++retries;
                continue;
            }
            return fail(IoPhase::Write, ENOSPC, retries);
        }
        return fail(IoPhase::Write, err, retries);
    }
    return std::nullopt;
}

IoStatus AtomicWriter::commit() {
    if (fd_ < 0) return fail(IoPhase::Sync, EBADF);
    unsigned retries = 0;
    if (opts_.durable &&
        !fsync_retry(fd_, IoPhase::Sync, opts_.retry, retries))
        return fail(IoPhase::Sync, errno, retries);
    {
        int injected = 0;
        if (FaultHook::active())
            injected = FaultHook::consult(IoPhase::Close).inject_errno;
        // close() EINTR is treated as success: POSIX leaves the fd state
        // unspecified and Linux always releases it — retrying risks
        // closing someone else's fd.
        const int rc = injected && injected != EINTR
                           ? (errno = injected, -1)
                           : ::close(fd_);
        fd_ = -1;
        if (rc != 0 && errno != EINTR)
            return fail(IoPhase::Close, errno);
    }
    {
        Backoff backoff(opts_.retry);
        retries = 0;
        for (;;) {
            int injected = 0;
            if (FaultHook::active())
                injected = FaultHook::consult(IoPhase::Rename).inject_errno;
            const int rc = injected
                               ? (errno = injected, -1)
                               : ::rename(temp_path_.c_str(), path_.c_str());
            if (rc == 0) break;
            if (!transient_errno(errno) ||
                retries >= opts_.retry.max_retries)
                return fail(IoPhase::Rename, errno, retries);
            ++retries;
            backoff.wait(errno);
        }
    }
    // The rename has happened: from here on the destination holds the
    // new complete artifact, so failures are reported (durability of
    // the rename is not yet guaranteed) without rolling anything back.
    committed_ = true;
    temp_path_.clear();
    if (opts_.durable) {
        retries = 0;
        const int dfd = open_retry(parent_dir(path_).c_str(),
                                   O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0,
                                   IoPhase::DirOpen, opts_.retry, retries);
        if (dfd < 0) {
            IoError e{IoPhase::DirOpen, errno, path_, retries};
            return e;
        }
        retries = 0;
        const bool synced =
            fsync_retry(dfd, IoPhase::DirSync, opts_.retry, retries);
        const int err = errno;
        ::close(dfd);
        if (!synced) return IoError{IoPhase::DirSync, err, path_, retries};
    }
    return std::nullopt;
}

void AtomicWriter::abort() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (!committed_ && !temp_path_.empty()) ::unlink(temp_path_.c_str());
    temp_path_.clear();
}

IoStatus write_file_atomic(const std::string& path, std::string_view bytes,
                           const WriteOptions& opts) {
    AtomicWriter w;
    if (auto e = w.open(path, opts)) return e;
    if (auto e = w.write(bytes)) return e;
    return w.commit();
}

// ---- fds, pipes, sockets ---------------------------------------------------

void ignore_sigpipe() {
    struct sigaction sa{};
    sa.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &sa, nullptr);
}

IoStatus write_fd(int fd, std::string_view bytes, IoPhase phase,
                  const RetryPolicy& policy, std::string label) {
    std::size_t done = 0;
    unsigned retries = 0;
    Backoff backoff(policy);
    while (done < bytes.size()) {
        std::size_t want = bytes.size() - done;
        int injected = 0;
        if (FaultHook::active()) {
            const auto a = FaultHook::consult(phase);
            injected = a.inject_errno;
            if (a.shorten && want > 1)
                want = std::max<std::size_t>(1, want / 2);
            want = std::min(want, a.clamp_bytes);
        }
        const ssize_t n = injected
                              ? (errno = injected, ssize_t{-1})
                              : ::write(fd, bytes.data() + done, want);
        if (n > 0) {
            done += static_cast<std::size_t>(n);
            continue;
        }
        const int err = n == 0 ? 0 : errno;
        if (transient_errno(err) && retries < policy.max_retries) {
            ++retries;
            backoff.wait(err);
            continue;
        }
        return IoError{phase, err, std::move(label), retries};
    }
    return std::nullopt;
}

IoStatus read_fd(int fd, std::size_t want, std::string& out, IoPhase phase,
                 const RetryPolicy& policy, std::string label) {
    std::size_t done = 0;
    unsigned retries = 0;
    Backoff backoff(policy);
    char buf[1 << 16];
    while (done < want) {
        const std::size_t chunk = std::min(want - done, sizeof buf);
        int injected = 0;
        bool eof = false;
        if (FaultHook::active()) {
            const auto a = FaultHook::consult(phase);
            injected = a.inject_errno;
            eof = a.eof;
        }
        const ssize_t n = eof ? 0
                              : injected ? (errno = injected, ssize_t{-1})
                                         : ::read(fd, buf, chunk);
        if (n > 0) {
            out.append(buf, static_cast<std::size_t>(n));
            done += static_cast<std::size_t>(n);
            continue;
        }
        if (n == 0)  // peer closed mid-message: torn frame, err == 0
            return IoError{phase, 0, std::move(label), retries};
        if (transient_errno(errno) && retries < policy.max_retries) {
            ++retries;
            backoff.wait(errno);
            continue;
        }
        return IoError{phase, errno, std::move(label), retries};
    }
    return std::nullopt;
}

std::optional<std::vector<DirFile>> list_dir(const std::string& dir) {
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec) || ec) return std::nullopt;
    std::vector<DirFile> files;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        std::error_code fec;
        if (!it->is_regular_file(fec) || fec) continue;
        const auto size = it->file_size(fec);
        files.push_back({it->path().string(), it->path().filename().string(),
                         fec ? 0 : static_cast<std::uint64_t>(size)});
    }
    if (ec) return std::nullopt;
    std::sort(files.begin(), files.end(),
              [](const DirFile& a, const DirFile& b) {
                  return a.name < b.name;
              });
    return files;
}

}  // namespace iocov::host
