#!/usr/bin/env bash
# ThreadSanitizer gate for the parallel executor and the ingest core.
#
#   ./scripts/check_tsan.sh [BUILD_DIR]     # default build-tsan
#
# Every parallel stage of the library runs on one executor
# (exec::parallel_for_stealing): text chunk parsing, pid shards of text
# and IOCT traces, directory files, snapshot loads and merge levels —
# and LiveCoverage publishes epochs to concurrent readers.  A data race
# in any of them would show up as a rare wrong report, not a crash, so
# this configures a full IOCOV_SANITIZE=thread tree and runs the suites
# that drive those paths: the executor itself (WorkStealing,
# ThreadPool), the parallel text pipeline, directory ingest, the
# entry-point equivalence matrix, parallel snapshot merge, and the
# live daemon (LiveCoverage, Serve).  TSan runs ~10-40x slower than a
# plain build; the 100k-event parallel text test dominates.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-tsan}"

cmake -B "$BUILD" -G Ninja -DIOCOV_SANITIZE=thread \
  -DIOCOV_BUILD_BENCH=OFF -DIOCOV_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$BUILD" -j --target \
  test_parallel_pipeline test_dir_ingest test_ingest_routes \
  test_ingest_faults test_snapshot_merge test_serve
ctest --test-dir "$BUILD" \
  -R 'WorkStealing|ThreadPool|ParallelPipeline|DirIngest|IngestRoutes|IngestFaults|SnapshotMerge|LiveCoverage|Serve' \
  --output-on-failure -j "$(nproc)"
