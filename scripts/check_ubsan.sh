#!/usr/bin/env bash
# UndefinedBehaviorSanitizer gate for the fault-handling surface.
#
#   ./scripts/check_ubsan.sh [BUILD_DIR]    # default build-ubsan
#
# Fault campaigns steer the kernel model down its rarest error paths,
# and the decoders (IOCT trace and IOCS snapshot alike) chew on
# deliberately corrupted bytes — both are where latent UB (signed
# overflow in varint math, bad shifts, invalid enum loads) would
# hide.  This configures a full
# IOCOV_SANITIZE=undefined tree (recovery disabled, so any report is a
# hard failure) and runs the fsck, fault, campaign, and decoder suites
# under it — plus the serve frame decoder (u32 length math on hostile
# socket bytes), the live-coverage merge path, and the strict CLI
# numeric parsers (overflow rejection is exactly where UB would hide).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-ubsan}"

cmake -B "$BUILD" -G Ninja -DIOCOV_SANITIZE=undefined >/dev/null
cmake --build "$BUILD" -j --target \
  test_fsck test_fault test_campaign test_ingest_faults \
  test_binary_format test_text_format test_batch_decode test_filter \
  test_ingest_routes \
  test_crash_replay test_crash_oracle test_state_diff \
  test_snapshot test_snapshot_merge test_host_io \
  test_serve test_cli_parse
ctest --test-dir "$BUILD" \
  -R 'Fsck|Fault|ScopedFault|Campaign|IngestFaults|IngestRoutes|Binary|TextFormat|BatchDecode|TraceFilter|CrashReplay|CrashOracle|StateDiff|Snapshot|SnapshotMerge|HostIo|Serve|Protocol|LiveCoverage|ParseU|ParseF' \
  --output-on-failure -j "$(nproc)"
