// iocov_perfbench: input generation and workload runs for the iocov
// end-to-end benchmark.  perfbench/run.py is the entry point; it builds
// this binary, caches inputs, and calls it as
//
//   iocov_perfbench pool --out DIR [--threads N]
//   iocov_perfbench gen  --workload W --seed N --seconds S --pool DIR --out DIR
//   iocov_perfbench run  --workload W --seed N --seconds S --trace 0|1
//                        --threads T --inputs DIR --work DIR
//   iocov_perfbench info
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "trace/binary_format.hpp"

namespace {

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr const char* kBuildType = "release";
#else
constexpr const char* kBuildType = "debug";
#endif

int usage() {
    std::fprintf(stderr,
                 "usage: iocov_perfbench pool|gen|run|info [--workload W] "
                 "[--seed N] [--seconds S] [--trace 0|1] [--threads T] "
                 "[--pool DIR] [--inputs DIR] [--out DIR] [--work DIR]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string mode = argv[1];
    if (mode == "info") {
        std::printf("build_type %s\ndecode_isa %s\n", kBuildType,
                    iocov::trace::decode_isa_name(
                        iocov::trace::active_decode_isa()));
        return 0;
    }
    if (std::string(kBuildType) != "release") {
        std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                     kBuildType);
        return 2;
    }
    perfbench::RunArgs a;
    std::string pool, out;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        char* end = nullptr;
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::strtoull(v.c_str(), &end, 10);
        else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), &end);
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--threads")
            a.threads = static_cast<unsigned>(std::strtoul(v.c_str(), &end, 10));
        else if (k == "--pool") pool = v;
        else if (k == "--inputs") a.inputs = v;
        else if (k == "--out") out = v;
        else if (k == "--work") a.work = v;
        else return usage();
        if (end && *end) return usage();
    }
    if (mode == "pool") return out.empty() ? usage() : perfbench::make_pool(out, a.threads);
    bool known = false;
    for (const auto& w : perfbench::workload_names()) known |= w == a.workload;
    if (!known || a.seconds <= 0 || a.threads == 0) return usage();
    if (mode == "gen")
        return pool.empty() || out.empty()
                   ? usage()
                   : perfbench::generate(a.workload, a.seed, a.seconds, pool, out);
    if (mode == "run")
        return a.inputs.empty() || a.work.empty() ? usage()
                                                  : perfbench::run_workload(a);
    return usage();
}
