#!/usr/bin/env bash
# Release (NDEBUG) gate: build the whole tree (library, tools, tests,
# benches) with warnings as errors, and run the full test suite with
# asserts compiled out.
#
#   ./scripts/check_release.sh [BUILD_DIR]     # default build-release
#
# Several size contracts (core::tcd, core::tcd_linear, stats::rmsd) used
# to be plain asserts, i.e. out-of-bounds reads in any NDEBUG build.
# They throw now, and this gate keeps it that way: the regression tests
# exercise the throwing paths in a configuration where an assert would
# have been compiled to nothing.  -O3 is also where g++ 12 runs the
# -Wrestrict analysis that flags `"lit" + std::string` chains, so the
# -Werror build keeps the tree warning-clean where it matters most.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-release}"

cmake -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=Release -DIOCOV_WERROR=ON \
    >/dev/null
cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"
