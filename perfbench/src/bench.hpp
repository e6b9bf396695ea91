// Shared declarations of the benchmark binary: input generation (gen.cpp)
// and the workloads (workloads.cpp), driven by main.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> k{"trace-large", "trace-text",
                                            "fleet-dir", "serve-live"};
    return k;
}

/// Fixed serve-live load (open loop): pushes per second, queries per push
/// interval, and the shards the resume checkpoint already holds.
inline constexpr double kPushRate = 150;
inline constexpr int kQueriesPerPush = 2;
inline constexpr std::uint64_t kResumeShards = 192;

/// SplitMix64: small, seedable, identical on every platform.
struct Rng {
    std::uint64_t s;
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }
    double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }
    double normal() {
        const double u1 = std::max(unit(), 1e-12), u2 = unit();
        return std::sqrt(-2 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    }
    std::uint64_t lognormal(double median, double sigma, std::uint64_t lo,
                            std::uint64_t hi) {
        const double v = median * std::exp(sigma * normal());
        return std::clamp(static_cast<std::uint64_t>(v), lo, hi);
    }
};

/// Pushes in the serve-live plan of a `seconds`-long run: the traced
/// run's open-loop phase takes a bit under half the run, and at least
/// 1000 so each p99 rests on 1000 samples.  Untraced runs repeat the
/// plan closed loop.
std::uint64_t serve_pushes(double seconds);

/// Builds the seed-independent simulator pool under `out`.
int make_pool(const std::string& out, unsigned threads);

/// Composes one workload's inputs for `seed` from the pool into `out`
/// and writes `out`/manifest.txt (key value lines, including the
/// reference report digest the run must reproduce).
int generate(const std::string& workload, std::uint64_t seed,
             double seconds, const std::string& pool,
             const std::string& out);

struct RunArgs {
    std::string workload;
    std::string inputs;  ///< generated input directory
    std::string work;    ///< scratch directory for saved artifacts
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned threads = 1;
};

/// Runs one workload and prints its result as the last stdout line.
int run_workload(const RunArgs& args);

// ---- small shared helpers ---------------------------------------------------

/// FNV-1a 64 of `bytes`, as 16 hex digits.
std::string fnv_hex(std::string_view bytes);

bool read_file(const std::string& path, std::string& out);
bool write_file(const std::string& path, std::string_view bytes);

/// key value lines (one pair per line, split at the first space).
std::vector<std::pair<std::string, std::string>> read_manifest(
    const std::string& path);
std::string manifest_get(
    const std::vector<std::pair<std::string, std::string>>& m,
    const std::string& key);

/// Pack file of named blobs: u32le name length, name, u32le size, bytes.
bool write_pack(const std::string& path,
                const std::vector<std::pair<std::string, std::string>>& blobs);
bool read_pack(const std::string& path,
               std::vector<std::pair<std::string, std::string>>& blobs);

}  // namespace perfbench
