// iocov — command-line front end for the library.  Each cmd_* function
// declares its flags as one table (see Flags); `iocov --help` is rendered
// from those tables, and Cli::parse is the only argv parser.
#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bugstudy/study.hpp"
#include "core/checkpoint.hpp"
#include "core/combos.hpp"
#include "trace/binary_format.hpp"
#include "trace/text_format.hpp"
#include "core/diff.hpp"
#include "core/iocov.hpp"
#include "core/live.hpp"
#include "core/report_io.hpp"
#include "core/snapshot.hpp"
#include "core/tcd.hpp"
#include "core/untested.hpp"
#include "exec/alloc_hook.hpp"
#include "host/fault.hpp"
#include "host/io.hpp"
#include "host/parse.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "report/table.hpp"
#include "report/trend.hpp"
#include "syscall/kernel.hpp"
#include "testers/campaign.hpp"
#include "testers/crash/tester.hpp"
#include "testers/fixtures.hpp"
#include "testers/generator.hpp"
#include "testers/guided/loop.hpp"
#include "vfs/filesystem.hpp"

namespace {

using namespace iocov;  // NOLINT

// Exit-code taxonomy (documented in --help and README):
//   0  success
//   1  findings — regressions, bugs, or an exceeded error budget
//   2  usage error (bad flags/arguments)
//   3  I/O or artifact error — an input could not be read, an output
//      could not be written durably, or an artifact failed to decode
constexpr int kExitOk = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

// ---- flag tables ------------------------------------------------------
//
// Every subcommand declares its flags as one table and hands it to
// Cli::parse, which walks argv once and renders the same table as the
// command's --help synopsis, so a flag cannot be accepted without being
// documented.  Flags and positional arguments may be interleaved.  An
// unknown `-` argument, a missing or invalid operand, or the wrong
// number of positional arguments is a one-line diagnostic and exit 2,
// before any input is opened.  Numeric operands go through host::parse_*
// (whole-string, overflow-checked), so junk is never a silent 0 and
// overflow never saturates.

/// Stores a flag's operand (nullptr for a switch); returns "" or the
/// reason the operand is invalid.
using Setter = std::function<std::string(const char* operand)>;

struct Flag {
    const char* name;
    const char* operand;  ///< help placeholder; nullptr for a switch
    Setter set;
    bool required = false;
};

/// A flag table in synopsis order: single flags and the shared groups
/// below, concatenated.
struct Flags {
    std::vector<Flag> all;

    Flags() = default;
    Flags(const char* name, const char* operand, Setter set,
          bool required = false)
        : all{{name, operand, std::move(set), required}} {}
    Flags(std::initializer_list<Flags> parts) {
        for (const Flags& p : parts)
            all.insert(all.end(), p.all.begin(), p.all.end());
    }
};

template <class T, class V>
Setter set_to(T& dest, V value) {
    return [&dest, value](const char*) {
        dest = value;
        return std::string();
    };
}

template <class T>  // std::string or const char*
Setter text(T& dest) {
    return [&dest](const char* operand) {
        dest = operand;
        return std::string();
    };
}

/// A decimal integer in [lo, hi]; `why` replaces the generic reason
/// for a well-formed value out of that range.
template <class T>
Setter uint_in(T& dest, std::uint64_t lo, std::uint64_t hi,
            const char* why = nullptr) {
    return [&dest, lo, hi, why](const char* operand) {
        std::uint64_t v = 0;
        const bool parsed = host::parse_u64(operand, v);
        if (parsed && v >= lo && v <= hi) {
            dest = static_cast<T>(v);
            return std::string();
        }
        if (parsed && why) return std::string(why);
        return std::string("want a decimal integer in [")
            .append(std::to_string(lo))
            .append(", ")
            .append(std::to_string(hi))
            .append("]");
    };
}

Setter u32(unsigned& dest) { return uint_in(dest, 0, UINT32_MAX); }

template <class T>  // std::uint64_t or std::optional<std::uint64_t>
Setter u64(T& dest) {
    return uint_in(dest, 0, UINT64_MAX);
}

Setter f64(double& dest) {
    return [&dest](const char* operand) {
        return host::parse_f64(operand, dest)
                   ? std::string()
                   : std::string("want a finite decimal number");
    };
}

/// One of the '|'-separated `alternatives`, which double as the help
/// placeholder.
Setter choice(std::string& dest, std::string_view alternatives) {
    return [&dest, alternatives](const char* operand) {
        for (std::string_view rest = alternatives;;) {
            const auto bar = rest.find('|');
            if (rest.substr(0, bar) == operand) {
                dest = operand;
                return std::string();
            }
            if (bar == std::string_view::npos) break;
            rest.remove_prefix(bar + 1);
        }
        return std::string("want one of ").append(alternatives);
    };
}

// ---- shared flag groups -----------------------------------------------

constexpr const char* kSuites = "crashmonkey|xfstests|ltp";

Flags suite_flag(std::string& suite) {
    return {"--suite", kSuites, choice(suite, kSuites)};
}

/// 0 = auto (hardware concurrency); 1 = serial.
Flags threads_flag(unsigned& threads) {
    return {"--threads", "N", u32(threads)};
}

/// The trace filter's literal mount point and the syscall registry.
Flags mount_flags(std::string& mount, bool& extended) {
    return {{"--mount", "PATH", text(mount)},
            {"--extended", nullptr, set_to(extended, true)}};
}

/// Error budget: how many dropped inputs (malformed lines, corrupt
/// records, lost shards) a run tolerates before failing.  Unset is
/// unbounded, matching the historical skip-and-continue behavior.
Flags budget_flags(std::optional<std::uint64_t>& max_errors) {
    return {{"--strict", nullptr, set_to(max_errors, std::uint64_t{0})},
            {"--max-errors", "N", u64(max_errors)}};
}

/// A resumable IOCK manifest every `every` consumed inputs; 0 would
/// never checkpoint, so it is rejected rather than rounded up.
Flags checkpoint_flags(std::string& path, std::uint64_t& every,
                       bool& resume) {
    return {{"--checkpoint", "FILE", text(path)},
            {"--checkpoint-every", "N", uint_in(every, 1, UINT64_MAX)},
            {"--resume", nullptr, set_to(resume, true)}};
}

/// The daemon endpoint of push and query.
Flags endpoint_flags(serve::Endpoint& ep, std::uint64_t& timeout_ms) {
    return {{"--socket", "PATH", text(ep.unix_path)},
            {"--tcp", "PORT", uint_in(ep.tcp_port, 1, 65535)},
            {"--timeout-ms", "N", u64(timeout_ms)}};
}

// ---- the parser -------------------------------------------------------

constexpr std::size_t kMany = SIZE_MAX;

/// A subcommand's command line: its positional arguments (`args` in
/// the synopsis, between `min_args` and `max_args` of them), its flag
/// table, and the prose --help prints under the synopsis.
struct Spec {
    const char* name = "";
    const char* args = "";
    std::size_t min_args = 0;
    std::size_t max_args = 0;
    Flags flags;
    const char* prose = "";
};

/// Parses one subcommand's arguments against its Spec.  A Cli made by
/// describe() parses nothing: parse() prints the command's help block
/// and returns 0, so `iocov --help` reads every table from the commands
/// themselves.
class Cli {
  public:
    explicit Cli(std::span<char*> argv) : argv_(argv) {}

    static Cli describe(std::FILE* out, bool prose) {
        Cli cli({});
        cli.describe_ = out;
        cli.prose_ = prose;
        return cli;
    }

    /// nullopt to run the command; otherwise the exit code to return
    /// (0 after --help, 2 after a printed usage error).
    std::optional<int> parse(Spec spec) {
        spec_ = std::move(spec);
        if (describe_) {
            print_help(describe_, prose_);
            return kExitOk;
        }
        std::vector<const Flag*> seen;
        for (std::size_t i = 0; i < argv_.size(); ++i) {
            const char* arg = argv_[i];
            if (arg[0] != '-' || arg[1] == '\0') {
                args.push_back(arg);
                continue;
            }
            if (std::string_view(arg) == "--help") {
                std::printf("usage:\n");
                print_help(stdout, true);
                return kExitOk;
            }
            const auto& all = spec_.flags.all;
            const auto flag =
                std::find_if(all.begin(), all.end(), [&](const Flag& f) {
                    return std::string_view(f.name) == arg;
                });
            if (flag == all.end())
                return fail(
                    std::string("unknown flag '").append(arg).append("'"));
            const char* operand = nullptr;
            if (flag->operand) {
                if (i + 1 == argv_.size())
                    return fail(std::string(arg).append(": missing operand"));
                operand = argv_[++i];
            }
            if (const std::string why = flag->set(operand); !why.empty())
                return fail(std::string(arg)
                                .append(": invalid value '")
                                .append(operand)
                                .append("' (")
                                .append(why)
                                .append(")"));
            seen.push_back(&*flag);
        }
        for (const Flag& f : spec_.flags.all)
            if (f.required &&
                std::find(seen.begin(), seen.end(), &f) == seen.end())
                return fail(std::string(f.name)
                                .append(" ")
                                .append(f.operand)
                                .append(" is required"));
        if (args.size() < spec_.min_args)
            return fail(std::string("missing ").append(spec_.args));
        if (args.size() > spec_.max_args)
            return fail(std::string("unexpected argument '")
                            .append(args[spec_.max_args])
                            .append("'"));
        return std::nullopt;
    }

    /// Prints "iocov: REASON" and the command's synopsis to stderr;
    /// returns the usage exit code.
    int fail(const std::string& reason) const {
        std::fprintf(stderr, "iocov: %s\nusage:\n", reason.c_str());
        print_help(stderr, false);
        return kExitUsage;
    }

    std::vector<const char*> args;  ///< positional arguments, in order

  private:
    /// The synopsis, wrapped at 72 columns under the command name, then
    /// (with `prose`) the command's description.
    void print_help(std::FILE* out, bool prose) const {
        std::string line = std::string("  iocov ").append(spec_.name);
        const std::size_t indent = line.size();
        auto put = [&](const std::string& item) {
            if (line.size() + 1 + item.size() > 72) {
                std::fprintf(out, "%s\n", line.c_str());
                line.assign(indent, ' ');
            }
            line.append(" ").append(item);
        };
        for (const Flag& f : spec_.flags.all) {
            std::string item = f.name;
            if (f.operand) item.append(" ").append(f.operand);
            put(f.required ? item
                           : std::string("[").append(item).append("]"));
        }
        if (*spec_.args) put(spec_.args);
        std::fprintf(out, "%s\n%s", line.c_str(), prose ? spec_.prose : "");
    }

    std::span<char*> argv_;
    std::FILE* describe_ = nullptr;
    bool prose_ = false;
    Spec spec_;
};

constexpr const char* kResumeNeedsCheckpoint =
    "--resume needs --checkpoint FILE";
constexpr const char* kNoEndpoint = "needs --socket PATH or --tcp PORT";

// ---- shared command tails ---------------------------------------------

/// The first 8 bytes of `path` (fewer for a short file, none for an
/// unreadable one): enough for the IOCT and IOCS magic checks.
std::string file_head(const char* path) {
    std::ifstream in(path, std::ios::binary);
    char head[8] = {};
    in.read(head, sizeof head);
    return std::string(head, static_cast<std::size_t>(in.gcount()));
}

std::optional<core::CoverageReport> load(const char* path) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "iocov: cannot open %s\n", path);
        return std::nullopt;
    }
    auto report = core::load_report(in);
    if (!report)
        std::fprintf(stderr, "iocov: %s is not a coverage report\n", path);
    return report;
}

/// Writes `data` to `path` durably and atomically; on failure prints
/// the structured I/O error (path, phase, strerror, errno) to stderr
/// and returns false — the previous artifact at `path`, if any, is
/// untouched.
bool write_artifact(const char* path, std::string_view data) {
    if (auto err = host::write_file_atomic(path, data)) {
        std::fprintf(stderr, "iocov: %s\n", err->to_string().c_str());
        return false;
    }
    return true;
}

/// Saves `report` in the persistent format `report`/`diff`/`tcd` read,
/// as an atomic artifact, and announces it as "WHAT saved to PATH".
bool save_report_artifact(const char* path,
                          const core::CoverageReport& report,
                          const char* what) {
    std::ostringstream out;
    core::save_report(out, report);
    if (!write_artifact(path, out.str())) return false;
    std::printf("\n%s saved to %s\n", what, path);
    return true;
}

/// Applies the --max-errors budget to `dropped` inputs: over it, prints
/// the verdict and every diagnosed drop and returns false; within it,
/// prints the drops (if any) and returns true.
bool within_budget(std::uint64_t dropped, const char* verb,
                   std::optional<std::uint64_t> max_errors,
                   const trace::ParseDiagnostics& diags) {
    if (max_errors && dropped > *max_errors) {
        std::fprintf(stderr,
                     "iocov: error budget exceeded (%llu %s > "
                     "--max-errors %llu)\n%s",
                     static_cast<unsigned long long>(dropped), verb,
                     static_cast<unsigned long long>(*max_errors),
                     diags.to_string().c_str());
        return false;
    }
    if (dropped > 0) std::fprintf(stderr, "%s", diags.to_string().c_str());
    return true;
}

/// Connects push/query to the daemon; nullopt after a printed error.
std::optional<serve::Client> connect_client(const serve::Endpoint& ep,
                                            std::uint64_t timeout_ms) {
    host::IoError err;
    auto client = serve::Client::connect(
        ep, static_cast<int>(std::min<std::uint64_t>(timeout_ms, 1 << 30)),
        &err);
    if (!client)
        std::fprintf(stderr, "iocov: connect: %s\n", err.to_string().c_str());
    return client;
}

/// Expands merge/analyze INPUTs into the deterministic serial walk the
/// checkpoint manifest records: file arguments stay in argument order
/// (path doubles as the diagnostic name), each directory argument
/// contributes its regular files sorted by name.  nullopt (with a
/// printed error) when a directory cannot be enumerated.
std::optional<std::vector<host::DirFile>> expand_inputs(
    const std::vector<const char*>& inputs) {
    std::vector<host::DirFile> walk;
    for (const char* input : inputs) {
        std::error_code ec;
        if (!std::filesystem::is_directory(input, ec) || ec) {
            walk.push_back({input, input, 0});
            continue;
        }
        auto entries = host::list_dir(input);
        if (!entries) {
            std::fprintf(stderr, "iocov: cannot open directory %s\n", input);
            return std::nullopt;
        }
        for (auto& e : *entries) walk.push_back(std::move(e));
    }
    return walk;
}

/// Loads a manifest for --resume when one exists (no manifest = fresh
/// start, so kill-loops can pass --resume unconditionally).  Validates
/// mode and that the consumed list is a prefix of the current walk —
/// anything else means the inputs changed under the manifest, and
/// resuming would double- or mis-count.  Returns false on a printed,
/// fatal mismatch.
bool load_resume_checkpoint(const char* checkpoint_path,
                            core::CheckpointMode mode,
                            const std::vector<host::DirFile>& walk,
                            core::Checkpoint& cp) {
    std::error_code ec;
    if (!std::filesystem::exists(checkpoint_path, ec) || ec) return true;
    core::SnapshotError err;
    auto loaded = core::load_checkpoint_file(checkpoint_path, &err);
    if (!loaded) {
        std::fprintf(stderr, "iocov: %s: %s\n", checkpoint_path,
                     err.to_string().c_str());
        return false;
    }
    if (loaded->mode != mode) {
        std::fprintf(stderr,
                     "iocov: %s: checkpoint was written by `iocov %s`, "
                     "not this command\n",
                     checkpoint_path,
                     loaded->mode == core::CheckpointMode::Merge
                         ? "merge"
                         : loaded->mode == core::CheckpointMode::Serve
                               ? "serve"
                               : "analyze");
        return false;
    }
    const bool prefix =
        loaded->consumed.size() <= walk.size() &&
        std::equal(loaded->consumed.begin(), loaded->consumed.end(),
                   walk.begin(),
                   [](const std::string& a, const host::DirFile& b) {
                       return a == b.path;
                   });
    if (!prefix) {
        std::fprintf(stderr,
                     "iocov: %s: checkpoint does not match the current "
                     "inputs (%zu consumed; inputs changed?)\n",
                     checkpoint_path, loaded->consumed.size());
        return false;
    }
    cp = std::move(*loaded);
    return true;
}

void print_summary(const core::CoverageReport& report) {
    std::printf("events: %llu tracked / %llu seen\n\n",
                static_cast<unsigned long long>(report.events_tracked),
                static_cast<unsigned long long>(report.events_seen));
    std::vector<std::vector<std::string>> rows;
    for (const auto& row : core::summarize(report)) {
        rows.push_back({row.arg.empty() ? row.base + " (output)"
                                        : row.base + "." + row.arg,
                        std::to_string(row.declared),
                        std::to_string(row.tested),
                        report::fixed(100 * row.fraction, 1) + "%"});
    }
    std::printf("%s", report::render_table(
                          {"space", "partitions", "tested", "coverage"},
                          rows)
                          .c_str());
    const auto* flags = report.find_input("open", "flags");
    if (flags) {
        const auto pc = core::open_flag_pair_coverage(*flags);
        std::printf("\nopen-flag pair coverage: %zu/%zu (%.1f%%)\n",
                    pc.tested, pc.feasible, 100 * pc.fraction);
    }
}

// ---- subcommands ------------------------------------------------------

/// Checkpointed single-directory analyze walk: the directory's files
/// go through consume_binary_files --checkpoint-every at a time, in
/// name order — the same per-file shards, diagnostics and fold order
/// as consume_binary_dir — and after each group the analyzer state and
/// its diagnostics are written to an atomically-replaced IOCK
/// manifest.  No filter state crosses a file, so resuming from any
/// manifest reproduces the uninterrupted run.  Returns kExitOk to
/// continue into the shared reporting tail.
int analyze_checkpointed(core::IOCov& iocov, const char* dir,
                         unsigned threads, const char* checkpoint_path,
                         std::uint64_t checkpoint_every, bool resume) {
    auto walk = expand_inputs({dir});
    if (!walk) return kExitIo;
    core::Checkpoint cp;
    cp.mode = core::CheckpointMode::Analyze;
    if (resume &&
        !load_resume_checkpoint(checkpoint_path,
                                core::CheckpointMode::Analyze, *walk, cp))
        return kExitIo;
    std::uint64_t analyzed = cp.consumed.size() - cp.rejected;
    iocov.merge(cp.blocks.empty() ? core::IOCovSnapshot{}
                                  : cp.blocks.front().snapshot,
                cp.diags);

    for (std::size_t i = cp.consumed.size(); i < walk->size();) {
        const auto files = std::span<const host::DirFile>(*walk).subspan(
            i, static_cast<std::size_t>(std::min<std::uint64_t>(
                   checkpoint_every, walk->size() - i)));
        const auto group = iocov.consume_binary_files(files, threads);
        analyzed += group.files;
        cp.rejected += group.rejected;
        for (const auto& f : files) cp.consumed.push_back(f.path);
        i += files.size();
        if (i == walk->size()) break;
        cp.blocks.clear();
        if (analyzed > 0) cp.blocks.push_back({analyzed, iocov.snapshot()});
        cp.diags = iocov.diagnostics();
        core::SnapshotError err;
        if (!core::save_checkpoint_file(checkpoint_path, cp, &err)) {
            std::fprintf(stderr, "iocov: %s: %s\n", checkpoint_path,
                         err.to_string().c_str());
            return kExitIo;
        }
    }
    std::printf("%s: analyzed %llu IOCT files (%llu non-IOCT rejected, "
                "checkpointed)\n",
                dir, static_cast<unsigned long long>(analyzed),
                static_cast<unsigned long long>(cp.rejected));
    // The walk completed; the manifest has served its purpose.
    std::error_code ec;
    std::filesystem::remove(checkpoint_path, ec);
    return kExitOk;
}

int cmd_analyze(Cli& cli) {
    std::string mount = "/mnt/test";
    bool syz = false;
    bool extended = false;
    bool stats = false;
    unsigned threads = 1;
    const char* save_path = nullptr;
    const char* snapshot_path = nullptr;
    std::optional<std::uint64_t> max_errors;
    std::string checkpoint_path;
    std::uint64_t checkpoint_every = 8;
    bool resume = false;
    if (auto rc = cli.parse(
            {"analyze", "TRACE...", 1, kMany,
             {mount_flags(mount, extended),
              {"--syz", nullptr, set_to(syz, true)},
              threads_flag(threads),
              budget_flags(max_errors),
              {"--stats", nullptr, set_to(stats, true)},
              checkpoint_flags(checkpoint_path, checkpoint_every, resume),
              {"--save", "FILE", text(save_path)},
              {"--snapshot", "FILE", text(snapshot_path)}},
             "      --mount PATH (default /mnt/test) is a literal mount\n"
             "      point: events on PATH itself and everything under PATH/\n"
             "      are kept, the rest filtered out.\n"
             "      TRACE format is autodetected per file: IOCT binary (by\n"
             "      its \"IOCT\" magic), IOCS coverage snapshot (\"IOCS\"\n"
             "      magic — merged directly, no re-ingest; a version this\n"
             "      build cannot read is a structured error), or LTTng-style\n"
             "      text (--syz: syzkaller programs).  A TRACE that is a\n"
             "      directory analyzes every IOCT file in it (sorted by name;\n"
             "      non-IOCT entries are diagnosed and skipped), with files\n"
             "      scheduled onto --threads N work-stealing workers.  Each\n"
             "      TRACE, and each file of a directory, is analyzed with its\n"
             "      own fd/cwd filter state: an fd opened in one file is not\n"
             "      watched in the next.  Malformed input is skipped and\n"
             "      diagnosed; --max-errors N fails the run when more than N\n"
             "      inputs were dropped, --strict is --max-errors 0.  --stats\n"
             "      prints ingest throughput and steady-state allocation\n"
             "      counters.  --snapshot writes the final state as a compact\n"
             "      binary .iocs snapshot for `iocov merge` /\n"
             "      `iocov trend`.\n"}))
        return *rc;
    if (resume && checkpoint_path.empty())
        return cli.fail(kResumeNeedsCheckpoint);
    std::vector<const char*> traces = cli.args;

    core::IOCov iocov(trace::FilterConfig::mount_point(mount),
                      extended ? core::extended_syscall_registry()
                               : core::syscall_registry());
    if (!checkpoint_path.empty()) {
        // Checkpointed mode only defines resume semantics for one
        // directory of IOCT traces (the fleet drop-box shape).
        std::error_code dir_ec;
        if (syz || traces.size() != 1 ||
            !std::filesystem::is_directory(traces[0], dir_ec) || dir_ec)
            return cli.fail("--checkpoint takes one TRACE directory and "
                            "no --syz");
        const int rc = analyze_checkpointed(iocov, traces[0], threads,
                                            checkpoint_path.c_str(),
                                            checkpoint_every, resume);
        if (rc != kExitOk) return rc;
        traces.clear();
    }
    for (const char* path : traces) {
        std::error_code dir_ec;
        if (std::filesystem::is_directory(path, dir_ec)) {
            if (syz) {
                std::fprintf(stderr, "iocov: %s: is a directory (--syz "
                                     "reads one program file)\n",
                             path);
                return kExitIo;
            }
            // Directory of IOCT traces: work-stealing multi-file
            // ingestion, bit-identical to analyzing the files one by
            // one in name order (each file gets its own filter state).
            const auto dir = iocov.consume_binary_dir(path, threads);
            if (!dir) {
                std::fprintf(stderr, "iocov: cannot open directory %s\n",
                             path);
                return kExitIo;
            }
            std::printf("%s: analyzed %zu IOCT files (%zu non-IOCT "
                        "rejected, %zu torn records skipped)\n",
                        path, dir->files, dir->rejected, dir->dropped);
            continue;
        }
        // Any IOCS version counts as a snapshot: version skew is a
        // structured load error, not a reason to read it as text.
        const std::string head = syz ? std::string() : file_head(path);
        if (core::iocs_version(head)) {
            // IOCS coverage snapshot: the analyzer state itself — merge
            // it directly, no event re-ingest.
            core::SnapshotError err;
            const auto snap = core::load_snapshot_file(path, &err);
            if (!snap) {
                std::fprintf(stderr, "iocov: %s: %s\n", path,
                             err.to_string().c_str());
                return kExitIo;
            }
            iocov.merge(*snap);
            std::printf("%s: merged [IOCS snapshot] (%llu events seen)\n",
                        path,
                        static_cast<unsigned long long>(
                            snap->report.events_seen));
            continue;
        }
        if (trace::is_ioct(head)) {
            // IOCT binary trace: mmap'd zero-copy ingestion.
            const auto dropped = iocov.consume_binary_file(path, threads);
            if (!dropped) {
                std::fprintf(stderr, "iocov: cannot open %s\n", path);
                return kExitIo;
            }
            std::printf("%s: analyzed [IOCT] (%zu torn records skipped)\n",
                        path, *dropped);
            continue;
        }
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "iocov: cannot open %s\n", path);
            return kExitIo;
        }
        if (syz) {
            const auto parsed = iocov.consume_syz(in);
            std::printf("%s: %zu syscalls parsed (input coverage only)\n",
                        path, parsed);
        } else {
            // --threads shards by pid, bit-identical to serial.
            const auto dropped = iocov.consume_text_parallel(in, threads);
            std::printf("%s: analyzed (%zu malformed lines skipped)\n",
                        path, dropped);
        }
    }
    const trace::ParseDiagnostics& diags = iocov.diagnostics();
    if (!within_budget(diags.total(), "dropped", max_errors, diags))
        return kExitFindings;
    std::printf("\n");
    print_summary(iocov.report());
    if (stats) {
        const auto& is = iocov.ingest_stats();
        const double secs = is.seconds > 0 ? is.seconds : 1e-9;
        std::printf(
            "\ningest stats:\n"
            "  events:   %llu decoded (%.2fM events/s)\n"
            "  bytes:    %llu ingested (%.1f MB/s)\n"
            "  files:    %llu across %u thread(s), %.3fs wall\n",
            static_cast<unsigned long long>(is.events),
            static_cast<double>(is.events) / secs / 1e6,
            static_cast<unsigned long long>(is.bytes),
            static_cast<double>(is.bytes) / secs / 1e6,
            static_cast<unsigned long long>(is.files), is.threads, secs);
        if (exec::has_allocation_counting()) {
            std::printf("  allocs:   %llu in the steady-state row "
                        "loop\n",
                        static_cast<unsigned long long>(
                            is.hot_loop_allocs));
        } else {
            std::printf("  allocs:   (allocation counting unavailable "
                        "in this build)\n");
        }
    }
    if (save_path &&
        !save_report_artifact(save_path, iocov.report(), "report"))
        return kExitIo;
    if (snapshot_path) {
        core::SnapshotError err;
        if (!core::save_snapshot_file(snapshot_path, iocov.snapshot(),
                                      &err)) {
            std::fprintf(stderr, "iocov: %s: %s\n", snapshot_path,
                         err.to_string().c_str());
            return kExitIo;
        }
        std::printf("\nsnapshot saved to %s\n", snapshot_path);
    }
    return kExitOk;
}

/// Emits the merged snapshot + optional JSON summary; shared by the
/// plain and checkpointed merge paths.
int finish_merge(core::IOCovSnapshot merged, std::size_t count,
                 std::size_t rejected, std::uint64_t bytes,
                 const char* out_path, const char* json_path,
                 const char* label,
                 std::optional<std::uint64_t> timestamp) {
    if (label) merged.label = label;
    if (timestamp) merged.timestamp = *timestamp;
    core::SnapshotError serr;
    if (!core::save_snapshot_file(out_path, merged, &serr)) {
        std::fprintf(stderr, "iocov: %s: %s\n", out_path,
                     serr.to_string().c_str());
        return kExitIo;
    }
    std::printf("%s: merged %zu snapshots (%zu rejected, %llu events "
                "seen)\n",
                out_path, count, rejected,
                static_cast<unsigned long long>(merged.report.events_seen));
    if (json_path) {
        // Reconstruct the load-shaped struct the summary renders from
        // (snapshots were consumed by the merge; only counts matter).
        core::SnapshotDirLoad shape;
        shape.snapshots.resize(count);
        shape.rejected = rejected;
        shape.bytes = bytes;
        if (!write_artifact(json_path,
                            core::merge_summary_json(shape, merged)))
            return kExitIo;
        std::printf("json summary saved to %s\n", json_path);
    }
    return kExitOk;
}

/// Checkpointed merge walk: inputs load serially in the same
/// deterministic order as the parallel path, fold through an
/// IncrementalMerge (which reproduces merge_snapshots' exact pairwise
/// tree, so the final bytes are identical), and every
/// --checkpoint-every inputs the forest is written to an
/// atomically-replaced IOCK manifest.
int merge_checkpointed(const std::vector<const char*>& inputs,
                       const char* out_path, const char* json_path,
                       const char* label,
                       std::optional<std::uint64_t> timestamp,
                       std::optional<std::uint64_t> max_errors,
                       const char* checkpoint_path,
                       std::uint64_t checkpoint_every, bool resume) {
    auto walk = expand_inputs(inputs);
    if (!walk) return kExitIo;
    core::Checkpoint cp;
    cp.mode = core::CheckpointMode::Merge;
    if (resume &&
        !load_resume_checkpoint(checkpoint_path,
                                core::CheckpointMode::Merge, *walk, cp))
        return kExitIo;
    const std::size_t start = cp.consumed.size();
    core::IncrementalMerge fold;
    fold.restore(std::move(cp.blocks));
    cp.blocks.clear();

    std::uint64_t since = 0;
    auto save_cp = [&]() {
        cp.blocks = fold.blocks();
        core::SnapshotError err;
        const bool ok = core::save_checkpoint_file(checkpoint_path, cp,
                                                   &err);
        if (!ok)
            std::fprintf(stderr, "iocov: %s: %s\n", checkpoint_path,
                         err.to_string().c_str());
        cp.blocks.clear();
        return ok;
    };
    for (std::size_t i = start; i < walk->size(); ++i) {
        const auto& e = (*walk)[i];
        core::SnapshotError err;
        auto snap = core::load_snapshot_file(e.path, &err);
        if (snap) {
            std::error_code fec;
            const auto size = std::filesystem::file_size(e.path, fec);
            cp.bytes += fec ? 0 : static_cast<std::uint64_t>(size);
            fold.push(std::move(*snap));
        } else {
            ++cp.rejected;
            cp.diags.record(0, err.offset, e.name + ": " + err.to_string());
        }
        cp.consumed.push_back(e.path);
        if (++since >= checkpoint_every && i + 1 < walk->size()) {
            since = 0;
            if (!save_cp()) return kExitIo;
        }
    }
    if (!within_budget(cp.rejected, "rejected", max_errors, cp.diags))
        return kExitFindings;

    const auto count = static_cast<std::size_t>(fold.leaves());
    const int rc = finish_merge(fold.finish(), count,
                                static_cast<std::size_t>(cp.rejected),
                                cp.bytes, out_path, json_path, label,
                                timestamp);
    if (rc == kExitOk) {
        // The walk completed; the manifest has served its purpose.
        std::error_code ec;
        std::filesystem::remove(checkpoint_path, ec);
    }
    return rc;
}

int cmd_merge(Cli& cli) {
    unsigned threads = 0;  // auto
    std::optional<std::uint64_t> max_errors;
    const char* out_path = nullptr;
    const char* json_path = nullptr;
    const char* label = nullptr;
    std::string checkpoint_path;
    std::uint64_t checkpoint_every = 8;
    bool resume = false;
    std::optional<std::uint64_t> timestamp;
    if (auto rc = cli.parse(
            {"merge", "INPUT...", 1, kMany,
             {threads_flag(threads),
              budget_flags(max_errors),
              {"--label", "L", text(label)},
              // 0 is the "unset" sentinel inside a snapshot: `trend`
              // would silently drop the snapshot from every time window.
              {"--timestamp", "T",
               uint_in(timestamp, 1, UINT64_MAX,
                    "0 means 'no capture time' and would exclude the "
                    "snapshot from every trend window; use a real Unix "
                    "timestamp")},
              {"--json", "FILE", text(json_path)},
              checkpoint_flags(checkpoint_path, checkpoint_every, resume),
              {"-o", "OUT.iocs", text(out_path), true}},
             "      fleet aggregation: load every .iocs snapshot from the\n"
             "      INPUTs (directories are scanned non-recursively, sorted\n"
             "      by name), merge them on a deterministic pairwise tree\n"
             "      (--threads N work-stealing workers; byte-identical output\n"
             "      at any thread count), and write the merged snapshot to\n"
             "      OUT.iocs.  Unreadable/foreign/version-skewed entries are\n"
             "      diagnosed per file and counted against --max-errors.\n"
             "      --json writes a deterministic per-space summary.\n"}))
        return *rc;
    if (resume && checkpoint_path.empty())
        return cli.fail(kResumeNeedsCheckpoint);
    const std::vector<const char*>& inputs = cli.args;
    if (!checkpoint_path.empty())
        return merge_checkpointed(inputs, out_path, json_path, label,
                                  timestamp, max_errors,
                                  checkpoint_path.c_str(), checkpoint_every,
                                  resume);

    // Collect snapshots in argument order; each directory contributes
    // its name-sorted contents, so the full sequence — and with it the
    // pairwise merge tree — is deterministic for a given command line.
    core::SnapshotDirLoad all;
    for (const char* input : inputs) {
        std::error_code dir_ec;
        if (std::filesystem::is_directory(input, dir_ec)) {
            auto dir = core::load_snapshot_dir(input, threads);
            if (!dir) {
                std::fprintf(stderr, "iocov: cannot open directory %s\n",
                             input);
                return kExitIo;
            }
            for (auto& ns : dir->snapshots)
                all.snapshots.push_back(std::move(ns));
            all.rejected += dir->rejected;
            all.bytes += dir->bytes;
            all.diags.merge(dir->diags);
            continue;
        }
        core::SnapshotError err;
        auto snap = core::load_snapshot_file(input, &err);
        if (snap) {
            all.bytes += std::filesystem::file_size(input, dir_ec);
            all.snapshots.push_back(
                {std::filesystem::path(input).filename().string(),
                 std::move(*snap)});
        } else {
            ++all.rejected;
            all.diags.record(0, err.offset,
                             std::string(input) + ": " + err.to_string());
        }
    }
    if (!within_budget(all.rejected, "rejected", max_errors, all.diags))
        return kExitFindings;

    const std::size_t count = all.snapshots.size();
    auto merged = core::merge_snapshots(std::move(all.snapshots), threads);
    return finish_merge(std::move(merged), count, all.rejected, all.bytes,
                        out_path, json_path, label, timestamp);
}

int cmd_trend(Cli& cli) {
    report::TrendOptions opts;
    unsigned threads = 0;  // auto
    const char* json_path = nullptr;
    // A zero-second window would put every snapshot in its own
    // empty-width slice; omitting --window already gives one slice.
    if (auto rc = cli.parse(
            {"trend", "DIR", 1, 1,
             {{"--window", "SECS",
               uint_in(opts.window_seconds, 1, UINT64_MAX,
                    "a 0-second window is degenerate; omit --window for "
                    "a single all-time slice")},
              {"--by-label", nullptr, set_to(opts.by_label, true)},
              {"--target", "N", f64(opts.target)},
              threads_flag(threads),
              {"--json", "FILE", text(json_path)}},
             "      coverage movement over a snapshot directory: slice the\n"
             "      snapshots by capture-time window (--window) or by label\n"
             "      (--by-label), merge each slice, and emit per-slice TCD\n"
             "      and gap counts as deterministic JSON (stdout, or\n"
             "      --json FILE).\n"}))
        return *rc;
    const char* dir = cli.args[0];
    auto load = core::load_snapshot_dir(dir, threads);
    if (!load) {
        std::fprintf(stderr, "iocov: cannot open directory %s\n", dir);
        return kExitIo;
    }
    if (load->rejected > 0)
        std::fprintf(stderr, "%s", load->diags.to_string().c_str());
    const auto json =
        report::trend_json(load->snapshots, opts, threads);
    if (json_path) {
        if (!write_artifact(json_path, json)) return kExitIo;
        std::printf("trend (%zu snapshots, %zu rejected) saved to %s\n",
                    load->snapshots.size(), load->rejected, json_path);
    } else {
        std::printf("%s", json.c_str());
    }
    return kExitOk;
}

int cmd_serve(Cli& cli) {
    serve::ServeOptions opts;
    std::string mount = "/mnt/test";
    bool extended = false;
    if (auto rc = cli.parse(
            {"serve", "", 0, 0,
             {{"--socket", "PATH", text(opts.unix_path)},
              {"--tcp", "PORT", uint_in(opts.tcp_port, 0, 65535)},
              mount_flags(mount, extended),
              threads_flag(opts.threads),
              {"--delta-dir", "DIR", text(opts.delta_dir)},
              {"--delta-every", "N", u64(opts.delta_every)},
              {"--label", "L", text(opts.delta_label)},
              checkpoint_flags(opts.checkpoint_path, opts.checkpoint_every,
                               opts.resume)},
             "      live coverage daemon: a single epoll event loop accepts\n"
             "      framed IOCT shards from many concurrent producers on a\n"
             "      Unix-domain socket (--socket) and/or 127.0.0.1 TCP port\n"
             "      (--tcp; 0 binds an ephemeral port, printed at startup)\n"
             "      and answers queries *while ingesting*.  Each shard is\n"
             "      analyzed in isolation and merged, so after any pushes\n"
             "      `iocov query report` is byte-identical to `iocov analyze\n"
             "      DIR/` over the same files; shard names deduplicate, so\n"
             "      re-pushing after a crash + --resume converges to the\n"
             "      uninterrupted result.  --delta-dir emits durable IOCS\n"
             "      delta snapshots every --delta-every pushes (and at\n"
             "      shutdown; merging all deltas of a run reproduces the\n"
             "      full state); --checkpoint writes a resumable IOCK\n"
             "      manifest (mode serve) every --checkpoint-every pushes.\n"
             "      SIGTERM/SIGINT/`iocov query stop` shut down gracefully\n"
             "      (final delta + checkpoint).\n"}))
        return *rc;
    if (opts.unix_path.empty() && opts.tcp_port < 0)
        return cli.fail(kNoEndpoint);
    if (opts.resume && opts.checkpoint_path.empty())
        return cli.fail(kResumeNeedsCheckpoint);
    opts.install_signal_handlers = true;

    core::LiveCoverage live(trace::FilterConfig::mount_point(mount),
                            extended ? core::extended_syscall_registry()
                                     : core::syscall_registry());
    serve::Server server(live, opts);
    if (auto err = server.start()) {
        std::fprintf(stderr, "iocov: %s\n", err->to_string().c_str());
        return kExitIo;
    }
    if (!opts.unix_path.empty())
        std::printf("serving on unix:%s\n", opts.unix_path.c_str());
    if (server.tcp_port() >= 0)
        std::printf("serving on tcp:127.0.0.1:%d\n", server.tcp_port());
    if (opts.resume && live.epoch() > 0)
        std::printf("resumed %llu shards from %s\n",
                    static_cast<unsigned long long>(live.epoch()),
                    opts.checkpoint_path.c_str());
    // Producers poll for these lines (and scripts parse the ephemeral
    // TCP port from them) before pushing; make sure they are visible
    // before the loop blocks.
    std::fflush(stdout);
    server.run();

    const auto& st = server.stats();
    std::printf("serve: %llu connections, %llu pushes (%llu duplicate, "
                "%llu rejected), %llu queries, %llu deltas, %llu "
                "checkpoints\n",
                static_cast<unsigned long long>(st.connections),
                static_cast<unsigned long long>(st.pushes_accepted),
                static_cast<unsigned long long>(st.pushes_duplicate),
                static_cast<unsigned long long>(st.pushes_rejected),
                static_cast<unsigned long long>(st.queries),
                static_cast<unsigned long long>(st.deltas),
                static_cast<unsigned long long>(st.checkpoints));
    if (st.torn_frames + st.sock_errors > 0)
        std::fprintf(stderr,
                     "iocov: serve: %llu torn frames, %llu socket "
                     "errors\n%s",
                     static_cast<unsigned long long>(st.torn_frames),
                     static_cast<unsigned long long>(st.sock_errors),
                     server.diagnostics().to_string().c_str());
    return kExitOk;
}

int cmd_push(Cli& cli) {
    serve::Endpoint ep;
    std::uint64_t timeout_ms = 5000;
    if (auto rc = cli.parse(
            {"push", "FILE...", 1, kMany, endpoint_flags(ep, timeout_ms),
             "      stream IOCT trace files to a serve daemon over one\n"
             "      connection, one acknowledged push per file (the shard\n"
             "      name is the file's basename — the daemon's dedup key).\n"}))
        return *rc;
    if (ep.unix_path.empty() && ep.tcp_port < 0) return cli.fail(kNoEndpoint);

    auto client = connect_client(ep, timeout_ms);
    if (!client) return kExitIo;
    int rc = kExitOk;
    for (const char* path : cli.args) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "iocov: cannot open %s\n", path);
            return kExitIo;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string shard = buf.str();
        // The shard name is the basename: the same key a batch
        // `analyze DIR/` walk would use, and the daemon's dedup key.
        const std::string name =
            std::filesystem::path(path).filename().string();
        host::IoError err;
        const auto reply = client->push(name, shard, &err);
        if (!reply) {
            std::fprintf(stderr, "iocov: push %s: %s\n", path,
                         err.to_string().c_str());
            return kExitIo;
        }
        if (!reply->ok) {
            std::fprintf(stderr, "iocov: push %s: %s\n", path,
                         reply->text.c_str());
            rc = kExitIo;
            continue;
        }
        std::printf("%s: %s [epoch %llu]\n", path, reply->text.c_str(),
                    static_cast<unsigned long long>(reply->epoch));
    }
    return rc;
}

int cmd_query(Cli& cli) {
    serve::Endpoint ep;
    std::uint64_t timeout_ms = 5000;
    double target = 1000;
    std::string arg = "open.flags";
    const char* save_path = nullptr;
    if (auto rc = cli.parse(
            {"query", "report|gaps|tcd|status|ping|stop", 1, 1,
             {endpoint_flags(ep, timeout_ms),
              {"--target", "N", f64(target)},
              {"--arg", "BASE.KEY", text(arg)},
              {"--save", "FILE", text(save_path)}},
             "      query a serve daemon: `report` returns the saved-report\n"
             "      text (with --save, byte-identical to `analyze --save`\n"
             "      over the pushed shards), `gaps` the untested partitions,\n"
             "      `tcd` the coverage deviation for --arg/--target,\n"
             "      `status` daemon counters, `stop` a graceful shutdown.\n"
             "      Every answer is one epoch-tagged consistent state — an\n"
             "      exact prefix of the accepted pushes, never a torn\n"
             "      histogram, even mid-ingest.\n"}))
        return *rc;
    const std::string what = cli.args[0];
    std::string q;
    if (what == "report" || what == "gaps" || what == "status" ||
        what == "ping" || what == "stop") {
        q = what;
    } else if (what == "tcd") {
        char spec[256];
        std::snprintf(spec, sizeof spec, "tcd %s %g", arg.c_str(), target);
        q = spec;
    } else {
        return cli.fail(std::string("unknown query '").append(what).append(
            "'"));
    }
    if (ep.unix_path.empty() && ep.tcp_port < 0) return cli.fail(kNoEndpoint);

    auto client = connect_client(ep, timeout_ms);
    if (!client) return kExitIo;
    host::IoError err;
    const auto reply = q == "stop" ? client->stop(&err)
                                   : client->query(q, &err);
    if (!reply) {
        std::fprintf(stderr, "iocov: query: %s\n", err.to_string().c_str());
        return kExitIo;
    }
    if (!reply->ok) {
        std::fprintf(stderr, "iocov: query: %s\n", reply->text.c_str());
        return kExitIo;
    }
    if (save_path) {
        // `query report --save F` writes exactly the bytes `analyze
        // --save F` would for the same shards — the byte-identity the
        // gates compare.
        if (!write_artifact(save_path, reply->text)) return kExitIo;
        std::printf("%s saved to %s [epoch %llu]\n", what.c_str(), save_path,
                    static_cast<unsigned long long>(reply->epoch));
    } else {
        std::fputs(reply->text.c_str(), stdout);
        if (!reply->text.empty() && reply->text.back() != '\n')
            std::printf("\n");
    }
    return kExitOk;
}

int cmd_convert(Cli& cli) {
    if (auto rc = cli.parse(
            {"convert", "IN OUT", 2, 2, {},
             "      transcode text -> IOCT binary or IOCT binary -> text\n"
             "      (direction inferred from IN's magic)\n"}))
        return *rc;
    const char* in_path = cli.args[0];
    const char* out_path = cli.args[1];

    if (trace::is_ioct(file_head(in_path))) {
        // IOCT binary -> text.
        host::IoError ioerr;
        auto mapped = trace::MappedFile::open(
            in_path, trace::MappedFile::Mode::Auto, &ioerr);
        if (!mapped) {
            std::fprintf(stderr, "iocov: %s\n", ioerr.to_string().c_str());
            return kExitIo;
        }
        std::size_t dropped = 0;
        const auto events = trace::decode_trace(mapped->data(), &dropped);
        std::string out;
        for (const auto& ev : events) {
            out += trace::format_event(ev);
            out += '\n';
        }
        if (!write_artifact(out_path, out)) return kExitIo;
        std::printf("%s -> %s: %zu events to text (%zu torn records "
                    "dropped)\n",
                    in_path, out_path, events.size(), dropped);
        return kExitOk;
    }

    // Text -> IOCT binary.
    std::ifstream in(in_path);
    if (!in) {
        std::fprintf(stderr, "iocov: cannot open %s\n", in_path);
        return kExitIo;
    }
    std::size_t dropped = 0;
    const auto events = trace::parse_stream(in, &dropped);
    std::ostringstream out;
    {
        trace::BinarySink sink(out);
        for (const auto& ev : events) sink.emit(ev);
        sink.finish();
    }
    if (!write_artifact(out_path, out.str())) return kExitIo;
    std::printf("%s -> %s: %zu events to IOCT (%zu malformed lines "
                "dropped)\n",
                in_path, out_path, events.size(), dropped);
    return kExitOk;
}

int cmd_report(Cli& cli) {
    bool untested = false;
    std::uint64_t under = 0;
    if (auto rc = cli.parse(
            {"report", "FILE", 1, 1,
             {{"--untested", nullptr, set_to(untested, true)},
              {"--under", "N", u64(under)}},
             "      print a saved report's coverage summary; --untested\n"
             "      lists its untested partitions with a suggested input,\n"
             "      --under N the partitions tested fewer than N times.\n"}))
        return *rc;
    auto report = load(cli.args[0]);
    if (!report) return kExitIo;

    if (untested) {
        for (const auto& gap : core::find_untested(*report))
            std::printf("%-8s %-10s %-18s %s\n",
                        gap.kind == core::UntestedPartition::Kind::Input
                            ? "input"
                            : "output",
                        gap.base.c_str(), gap.partition.c_str(),
                        gap.suggestion.c_str());
        return 0;
    }
    if (under > 0) {
        for (const auto& gap : core::find_under_tested(*report, under))
            std::printf("%-10s %-18s under-tested\n", gap.base.c_str(),
                        gap.partition.c_str());
        return 0;
    }
    print_summary(*report);
    return 0;
}

int cmd_diff(Cli& cli) {
    if (auto rc = cli.parse(
            {"diff", "BEFORE AFTER", 2, 2, {},
             "      per-partition deltas between two saved reports; exits 1\n"
             "      when coverage regressed.\n"}))
        return *rc;
    auto before = load(cli.args[0]);
    auto after = load(cli.args[1]);
    if (!before || !after) return kExitIo;
    const auto deltas = core::diff_reports(*before, *after);
    for (const auto& d : deltas)
        std::printf("%-9s %s%s%s [%s] %llu -> %llu\n",
                    core::delta_kind_name(d.kind).c_str(), d.base.c_str(),
                    d.arg.empty() ? "" : ".", d.arg.c_str(),
                    d.partition.c_str(),
                    static_cast<unsigned long long>(d.before),
                    static_cast<unsigned long long>(d.after));
    const bool regressed = core::has_coverage_regression(*before, *after);
    std::printf("%zu deltas; regression: %s\n", deltas.size(),
                regressed ? "YES" : "no");
    // A regression is a *finding*, not an I/O failure — exit 1 so
    // scripts can tell "coverage went backwards" from "could not read
    // the reports" (exit 3).
    return regressed ? kExitFindings : kExitOk;
}

int cmd_tcd(Cli& cli) {
    double target = 1000;
    std::string arg = "open.flags";
    if (auto rc = cli.parse(
            {"tcd", "FILE", 1, 1,
             {{"--target", "N", f64(target)},
              {"--arg", "BASE.KEY", text(arg)}},
             "      test coverage deviation of one input space of a saved\n"
             "      report from a uniform --target per partition.\n"}))
        return *rc;
    const auto dot = arg.find('.');
    if (dot == std::string::npos)
        return cli.fail(std::string("--arg: invalid value '")
                            .append(arg)
                            .append("' (want BASE.KEY)"));
    auto report = load(cli.args[0]);
    if (!report) return kExitIo;
    const auto* in = report->find_input(arg.substr(0, dot),
                                        arg.substr(dot + 1));
    if (!in) {
        std::fprintf(stderr, "iocov: no input space %s\n", arg.c_str());
        return 1;
    }
    std::printf("TCD(%s, target=%g) = %.4f\n", arg.c_str(), target,
                core::tcd_uniform(in->hist, target));
    return 0;
}

int cmd_demo(Cli& cli) {
    std::string suite = "xfstests";
    double scale = 0.01;
    if (auto rc = cli.parse(
            {"demo", "", 0, 0,
             {suite_flag(suite), {"--scale", "S", f64(scale)}},
             "      run one built-in suite simulator end to end and print\n"
             "      its coverage summary (no captured traces needed).\n"}))
        return *rc;
    vfs::FileSystem fs(testers::recommended_fs_config());
    auto fx = testers::prepare_environment(fs, "/mnt/test");
    core::IOCov iocov;
    syscall::Kernel kernel(fs, &iocov.live_sink());
    if (suite == "crashmonkey")
        testers::run_crashmonkey(kernel, fx, scale, 42);
    else if (suite == "ltp")
        testers::run_ltp(kernel, fx, scale, 42);
    else
        testers::run_xfstests(kernel, fx, scale, 42);
    std::printf("suite: %s at scale %g\n\n", suite.c_str(), scale);
    print_summary(iocov.report());
    return 0;
}

int cmd_campaign(Cli& cli) {
    testers::CampaignConfig cfg;
    const char* save_path = nullptr;
    if (auto rc = cli.parse(
            {"campaign", "", 0, 0,
             {suite_flag(cfg.suite),
              {"--scale", "S", f64(cfg.scale)},
              {"--seed", "N", u64(cfg.seed)},
              {"--samples", "N", u32(cfg.occurrences_per_point)},
              {"--runs", "N", u64(cfg.max_runs)},
              {"--chaos", "N", u32(cfg.chaos_runs)},
              {"--permille", "N", u32(cfg.chaos_permille)},
              mount_flags(cfg.mount, cfg.extended_registry),
              {"--save", "FILE", text(save_path)}},
             "      replay the suite once fault-free, then once per (op,\n"
             "      errno, k-th occurrence) fault point (EIO/ENOMEM/EINTR/\n"
             "      ENOSPC), fsck'ing the file system and checking errno\n"
             "      surfacing after every run; --runs bounds the sweep,\n"
             "      --chaos adds seeded probabilistic runs.  Exits 1 on any\n"
             "      fsck or faithfulness violation.\n"}))
        return *rc;
    const auto result = testers::run_campaign(cfg);
    std::printf("suite: %s at scale %g, seed %llu\n\n", cfg.suite.c_str(),
                cfg.scale,
                static_cast<unsigned long long>(cfg.seed));
    std::printf("%s\n", result.summary().c_str());
    print_summary(result.aggregate);
    if (save_path && !save_report_artifact(save_path, result.aggregate,
                                           "aggregate report"))
        return kExitIo;
    return result.clean() ? kExitOk : kExitFindings;
}

int cmd_guide(Cli& cli) {
    testers::guided::GuideConfig cfg;
    const char* baseline_path = nullptr;
    const char* save_path = nullptr;
    if (auto rc = cli.parse(
            {"guide", "", 0, 0,
             {suite_flag(cfg.suite),
              {"--scale", "S", f64(cfg.scale)},
              {"--seed", "N", u64(cfg.seed)},
              {"--rounds", "N", u32(cfg.max_rounds)},
              {"--budget", "N", u64(cfg.call_budget)},
              {"--per-gap", "N", u64(cfg.calls_per_gap)},
              {"--target", "N", f64(cfg.target)},
              mount_flags(cfg.mount, cfg.extended_registry),
              {"--baseline", "FILE", text(baseline_path)},
              {"--save", "FILE", text(save_path)}},
             "      close the coverage loop: measure the baseline's untested\n"
             "      partitions (TCD-ranked), synthesize syscalls + fault\n"
             "      injections aimed at each gap, re-measure, and iterate\n"
             "      until the TCD plateaus or the call budget runs out.\n"
             "      --baseline guides from a saved report instead of\n"
             "      replaying a suite; --save writes the merged final report.\n"
             "      Prints a before/after table per coverage space.\n"}))
        return *rc;
    testers::guided::GuideResult result;
    if (baseline_path) {
        auto baseline = load(baseline_path);
        if (!baseline) return kExitIo;
        result = testers::guided::run_guide_on_baseline(*baseline, cfg);
    } else {
        result = testers::guided::run_guide(cfg);
    }
    std::printf("%s\n", result.summary().c_str());
    std::printf("%s", result.table().c_str());
    if (save_path && !save_report_artifact(save_path, result.final_report,
                                           "merged report"))
        return kExitIo;
    return kExitOk;
}

int cmd_crashtest(Cli& cli) {
    testers::crash::CrashTestConfig cfg;
    const char* json_path = nullptr;
    bool list = false;
    if (auto rc = cli.parse(
            {"crashtest", "", 0, 0,
             {{"--workloads", "a,b",
               [&cfg](const char* names) {
                   std::istringstream in(names);
                   for (std::string name; std::getline(in, name, ',');)
                       if (!name.empty()) cfg.workloads.push_back(name);
                   return std::string();
               }},
              {"--list", nullptr, set_to(list, true)},
              {"--seed", "N", u64(cfg.seed)},
              {"--reorders", "N", u32(cfg.reorder_variants)},
              {"--no-torn", nullptr, set_to(cfg.torn_writes, false)},
              {"--max-points", "N", u64(cfg.max_points_per_workload)},
              {"--target", "N", f64(cfg.tcd_target)},
              {"--inject-skip-barrier", "K", u64(cfg.inject_skip_barrier)},
              {"--json", "FILE", text(json_path)}},
             "      coverage-guided crash-consistency testing: run the\n"
             "      crashmonkey-baseline workloads (--list names them), log\n"
             "      durable effects, enumerate bounded crash states (barrier\n"
             "      points, partial in-order tails, seeded reordered tails,\n"
             "      torn writes) and check each recovered state against the\n"
             "      persisted-prefix oracle plus fsck.  Deterministic for a\n"
             "      fixed --seed.\n"
             "      --inject-skip-barrier K seeds a lost-barrier bug into the\n"
             "      replayer to validate the oracle (exits 0 iff caught);\n"
             "      otherwise exits 1 when any bug is found.\n"}))
        return *rc;
    if (list) {
        for (const auto& wl : testers::crash::crashmonkey_baseline())
            std::printf("%-22s %s\n", wl.name.c_str(),
                        wl.description.c_str());
        return 0;
    }
    for (const auto& name : cfg.workloads) {
        bool known = false;
        for (const auto& wl : testers::crash::crashmonkey_baseline())
            known = known || wl.name == name;
        if (!known)
            return cli.fail(std::string("--workloads: unknown workload '")
                                .append(name)
                                .append("' (try --list)"));
    }
    const auto report = testers::crash::run_crashtest(cfg);
    std::printf("%s", report.to_string().c_str());
    if (json_path) {
        if (!write_artifact(json_path, report.to_json())) return kExitIo;
        std::printf("json report saved to %s\n", json_path);
    }
    if (cfg.inject_skip_barrier) {
        // Validation mode: the seeded lost-barrier bug must be caught.
        const bool caught = report.total_bugs > 0;
        std::printf("seeded skip-barrier bug: %s\n",
                    caught ? "CAUGHT" : "MISSED");
        return caught ? kExitOk : kExitFindings;
    }
    return report.total_bugs == 0 ? kExitOk : kExitFindings;
}

int cmd_bugstudy(Cli& cli) {
    double scale = 0.01;
    bool export_dataset = false;
    if (auto rc = cli.parse(
            {"bugstudy", "", 0, 0,
             {{"--scale", "S", f64(scale)},
              {"--export", nullptr, set_to(export_dataset, true)}},
             "      the Section 2 bug study against the xfstests simulator;\n"
             "      --export prints the per-bug dataset instead.\n"}))
        return *rc;
    if (export_dataset) {
        // The dataset the paper promises to release: per-bug coverage
        // sites, classification, and trigger.
        std::printf("%s", bugstudy::render_bug_dataset().c_str());
        return 0;
    }
    const auto r = bugstudy::run_bug_study({scale, 42});
    std::printf("bug study (%d bugs: %d ext4 + %d btrfs), xfstests-sim at "
                "scale %g\n\n",
                r.total, r.ext4, r.btrfs, scale);
    std::printf("detected: %d\n", r.detected);
    std::printf("covered-but-missed: line %d (%.0f%%), function %d "
                "(%.0f%%), branch %d (%.0f%%)\n",
                r.line_cbm, r.pct(r.line_cbm), r.fn_cbm, r.pct(r.fn_cbm),
                r.branch_cbm, r.pct(r.branch_cbm));
    std::printf("classification: input %d (%.0f%%), output %d (%.0f%%), "
                "either %d (%.0f%%)\n\n",
                r.input_bugs, r.pct(r.input_bugs), r.output_bugs,
                r.pct(r.output_bugs), r.either_bugs, r.pct(r.either_bugs));
    std::printf("%-14s %-4s %-4s %-6s %-8s %s\n", "id", "line", "fn",
                "branch", "detected", "description");
    for (const auto& o : r.outcomes)
        std::printf("%-14s %-4s %-4s %-6s %-8s %.60s\n",
                    o.bug->id.c_str(), o.line_covered ? "y" : "-",
                    o.fn_covered ? "y" : "-", o.branch_covered ? "y" : "-",
                    o.detected ? "FOUND" : "-",
                    o.bug->description.c_str());
    return 0;
}

// ---- dispatch ---------------------------------------------------------

struct Command {
    const char* name;
    int (*run)(Cli&);
};

constexpr Command kCommands[] = {
    {"analyze", cmd_analyze},     {"convert", cmd_convert},
    {"merge", cmd_merge},         {"trend", cmd_trend},
    {"report", cmd_report},       {"diff", cmd_diff},
    {"tcd", cmd_tcd},             {"serve", cmd_serve},
    {"push", cmd_push},           {"query", cmd_query},
    {"demo", cmd_demo},           {"campaign", cmd_campaign},
    {"guide", cmd_guide},         {"crashtest", cmd_crashtest},
    {"bugstudy", cmd_bugstudy},
};

constexpr const char* kGeneralHelp =
    "\n"
    "`iocov COMMAND --help` prints one command's usage.\n"
    "\n"
    "durability: every file the tool writes (reports, snapshots,\n"
    "json, checkpoints) is published atomically — full write +\n"
    "fsync to a temp file in the destination directory, then\n"
    "rename + directory fsync — so a crash or fault at any instant\n"
    "leaves the previous complete artifact or the new complete\n"
    "artifact, never a torn file.\n"
    "\n"
    "checkpoints: `merge --checkpoint FILE` and (single-directory)\n"
    "`analyze --checkpoint FILE` write a resumable IOCK manifest\n"
    "every N consumed inputs (--checkpoint-every N, default 8);\n"
    "--resume continues an interrupted walk from the manifest and\n"
    "produces byte-identical final output.  The manifest is removed\n"
    "on success.\n"
    "\n"
    "strictness: every argument is checked before any input is\n"
    "opened.  An unknown flag, a flag missing its operand, an\n"
    "invalid operand, or too few or too many positional arguments\n"
    "is a usage error (exit 2) with a one-line reason.  Numeric\n"
    "operands are parsed whole — junk, embedded signs or overflow is\n"
    "never a silent 0 or a saturated value.  `trend --window 0`,\n"
    "`merge --timestamp 0` and `--checkpoint-every 0` are rejected\n"
    "as degenerate.\n"
    "\n"
    "exit codes:\n"
    "  0  success\n"
    "  1  findings (coverage regression, bugs found, --max-errors\n"
    "     budget exceeded)\n"
    "  2  usage error\n"
    "  3  I/O or artifact error (unreadable input, undecodable\n"
    "     artifact, an output that could not be written durably, or\n"
    "     a stdout consumer that closed the pipe early — SIGPIPE is\n"
    "     ignored and the truncation reported here instead)\n";

/// Every command's synopsis, with its prose and the general notes when
/// `prose` (the --help page), or bare (after a usage error).
void print_usage(std::FILE* out, bool prose) {
    std::fprintf(out, "usage:\n");
    for (const Command& c : kCommands) {
        Cli cli = Cli::describe(out, prose);
        c.run(cli);
    }
    if (prose) std::fprintf(out, "%s", kGeneralHelp);
}

int usage_error(const std::string& reason) {
    std::fprintf(stderr, "iocov: %s\n", reason.c_str());
    print_usage(stderr, false);
    return kExitUsage;
}

int dispatch(std::span<char*> args) {
    if (args.empty()) return usage_error("missing command");
    const std::string_view cmd = args[0];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        if (args.size() > 1)
            return usage_error(std::string("unexpected argument '")
                                   .append(args[1])
                                   .append("'"));
        print_usage(stdout, true);
        return kExitOk;
    }
    for (const Command& c : kCommands) {
        if (cmd != c.name) continue;
        Cli cli(args.subspan(1));
        return c.run(cli);
    }
    return usage_error(std::string("unknown command '").append(cmd).append(
        "'"));
}

}  // namespace

int main(int argc, char** argv) {
    // A consumer that stops reading early (`iocov analyze ... | head`)
    // must surface as a reported error, not a SIGPIPE kill: ignore the
    // signal process-wide so every write fails with EPIPE instead, and
    // map a truncated stdout to the I/O exit code below.
    host::ignore_sigpipe();
    // Self-fault injection into the host I/O layer: IOCOV_SELF_FAULT
    // in the environment, plus any number of hidden `--self-fault
    // SPEC` pairs (stripped here, accepted anywhere on the command
    // line) — the chaos harness's handle for errno sweeps and
    // kill-point placement.  See src/host/fault.hpp for the grammar.
    host::FaultHook::configure_from_env();
    std::vector<char*> args;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--self-fault") && i + 1 < argc) {
            if (auto err = host::FaultHook::configure(argv[++i])) {
                std::fprintf(stderr, "iocov: --self-fault: %s\n",
                             err->c_str());
                return kExitUsage;
            }
            continue;
        }
        args.push_back(argv[i]);
    }
    int rc = dispatch(args);
    // Flush before exiting so a closed-pipe consumer is detected here,
    // while we can still report it, rather than lost in exit teardown.
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
        std::fprintf(stderr,
                     "iocov: stdout: %s (output truncated)\n",
                     std::strerror(errno ? errno : EPIPE));
        if (rc == kExitOk) rc = kExitIo;
    }
    return rc;
}
