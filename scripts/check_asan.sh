#!/usr/bin/env bash
# AddressSanitizer gate for the IOCT binary decoder.
#
#   ./scripts/check_asan.sh [BUILD_DIR]     # default build-asan
#
# The decoder reads varints and string-table views straight out of an
# mmap'd file, so any bounds slip is an out-of-mapping read — exactly
# what ASan catches and plain ctest may not.  The IOCS snapshot decoder
# shares that mmap'd-varint surface (and chews on deliberately torn and
# bit-flipped snapshots in its tests), so its suites run here too, as
# do the IOCK checkpoint-manifest decoder and the host I/O layer
# (exhaustive bit-flip/truncation loops + fault-injected write paths).
# The serve daemon's frame decoder parses length-prefixed frames from
# untrusted socket bytes (torn, oversized, byte-at-a-time), and the
# strict CLI numeric parsers chew on junk — both run here too.  The
# trace filter's row admission indexes its per-table binding with
# decoded string ids, so its suite (incl. the row/event fuzz over
# duplicated string tables) runs here as well.
# This configures a full IOCOV_SANITIZE=address tree and runs the
# decoder-facing suites (binary format, binary pipeline, text format,
# snapshot) under it.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-asan}"

cmake -B "$BUILD" -G Ninja -DIOCOV_SANITIZE=address >/dev/null
cmake --build "$BUILD" -j --target \
  test_binary_format test_binary_pipeline test_text_format \
  test_batch_decode test_dir_ingest test_ingest_routes test_filter \
  test_crash_replay test_crash_oracle test_crashtest \
  test_snapshot test_snapshot_merge test_host_io test_checkpoint \
  test_serve test_cli_parse
ctest --test-dir "$BUILD" \
  -R 'Binary|TextFormat|MappedFile|BatchDecode|DirIngest|IngestRoutes|TraceFilter|CrashReplay|CrashOracle|CrashTest|Snapshot|SnapshotMerge|HostIo|Checkpoint|IncrementalMerge|Serve|Protocol|LiveCoverage|ParseU|ParseF' \
  --output-on-failure -j "$(nproc)"
