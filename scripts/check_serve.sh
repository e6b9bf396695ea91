#!/usr/bin/env bash
# End-to-end gate for the live coverage daemon (`iocov serve`,
# DESIGN.md §13) and the CLI-robustness sweep that shipped with it.
#
#   ./scripts/check_serve.sh
#   IOCOV_SERVE_STAGE=faults ./scripts/check_serve.sh   # errno sweep only
#
# Stages (IOCOV_SERVE_STAGE selects one; default "all"):
#
#   unit    the Serve/Protocol/LiveCoverage suites under the Release
#           (NDEBUG) tree — the dev-tree ctest run alone would let an
#           assert-only invariant vanish in the build users run;
#   e2e     N concurrent `iocov push` producers into one daemon, then
#           `iocov query report --save` must be byte-identical to
#           `iocov analyze SHARDS/ --save` over the same shards (the
#           live==batch contract), plus gaps/tcd/status/duplicate-push
#           smoke and a TCP-listener round trip;
#   resume  SIGKILL the daemon mid-ingest, restart with --resume from
#           its IOCK manifest, re-push everything (duplicates are
#           acknowledged and skipped), and require the same
#           byte-identical report — at-least-once delivery converges;
#   cli     the strict-flag sweep: junk/overflow/missing numeric
#           operands, --timestamp 0, --window 0 all exit 2 with a
#           diagnostic, and a stdout consumer that closes the pipe
#           early yields a structured exit 3, never SIGPIPE death;
#   faults  host::FaultHook socket-errno injection (accept/sock-read/
#           sock-write x ECONNRESET/EPIPE/EIO/...): each clause may
#           degrade individual connections but never the daemon, and
#           after the one-shot faults drain, re-pushing every shard
#           still converges to the byte-identical batch report.  This
#           stage is what scripts/check_chaos.sh invokes.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGE="${IOCOV_SERVE_STAGE:-all}"

RELEASE=build-release
cmake -B "$RELEASE" -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$RELEASE" -j --target \
  iocov_cli trace_offline test_serve test_cli_parse >/dev/null

CLI="$RELEASE"/tools/iocov
OFFLINE="$RELEASE"/examples/trace_offline
TMP="$(mktemp -d)"
SRV=""
cleanup() {
  [ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT
SOCK="$TMP/iocov.sock"

fail() { echo "check_serve: $*" >&2; exit 1; }

# ---- fixtures --------------------------------------------------------------
# One synthesized trace, transcoded to IOCT, copied into 8 shards with
# distinct names (the push shard name is the basename, and duplicate
# names are idempotently skipped).  The oracle is the batch analyzer
# over the same directory.
"$OFFLINE" "$TMP/trace.txt" >/dev/null
"$CLI" convert "$TMP/trace.txt" "$TMP/t.ioct" >/dev/null
mkdir "$TMP/shards"
for i in 0 1 2 3 4 5 6 7; do
  cp "$TMP/t.ioct" "$TMP/shards/t$i.ioct"
done
WANT="$TMP/want_report.txt"
GOT="$TMP/got_report.txt"
"$CLI" analyze "$TMP/shards" --save "$WANT" >/dev/null

wait_ready() {
  for _ in $(seq 1 200); do
    if "$CLI" query ping --socket "$SOCK" >/dev/null 2>&1; then
      return 0
    fi
    kill -0 "$SRV" 2>/dev/null || {
      cat "$TMP/serve.log" >&2
      fail "daemon exited before becoming ready"
    }
    sleep 0.05
  done
  cat "$TMP/serve.log" >&2
  fail "daemon never became ready"
}

start_daemon() {  # extra serve flags forwarded
  rm -f "$SOCK"
  "$CLI" serve --socket "$SOCK" "$@" >"$TMP/serve.log" 2>&1 &
  SRV=$!
  wait_ready
}

stop_daemon() {
  "$CLI" query stop --socket "$SOCK" >/dev/null
  wait "$SRV" || fail "daemon exited nonzero after graceful stop"
  SRV=""
}

expect_rc() {  # expect_rc WANT CMD...
  local want=$1 rc=0
  shift
  "$@" >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq "$want" ] || fail "'$*' exited $rc, want $want"
}

# ---- stage: unit (Release/NDEBUG suites) -----------------------------------
if [ "$STAGE" = all ] || [ "$STAGE" = unit ]; then
  echo "serve: Serve/Protocol/LiveCoverage suites (Release, NDEBUG)"
  ctest --test-dir "$RELEASE" -R 'Serve|Protocol|LiveCoverage|ParseU|ParseF' \
    --output-on-failure -j "$(nproc)" >/dev/null ||
    ctest --test-dir "$RELEASE" \
      -R 'Serve|Protocol|LiveCoverage|ParseU|ParseF' --output-on-failure
fi

# ---- stage: e2e (concurrent producers == batch, bit-identical) -------------
if [ "$STAGE" = all ] || [ "$STAGE" = e2e ]; then
  echo "serve: 8 concurrent producers, live report == batch report"
  start_daemon
  pids=()
  for f in "$TMP"/shards/*.ioct; do
    "$CLI" push "$f" --socket "$SOCK" >/dev/null &
    pids+=($!)
  done
  for p in "${pids[@]}"; do
    wait "$p" || fail "concurrent push failed"
  done
  "$CLI" query report --save "$GOT" --socket "$SOCK" >/dev/null
  cmp "$GOT" "$WANT" || fail "live report differs from batch report"

  # Duplicate pushes are acknowledged and skipped, not re-counted.
  "$CLI" push "$TMP/shards/t0.ioct" --socket "$SOCK" |
    grep -q duplicate || fail "re-push of t0 not flagged duplicate"
  "$CLI" query report --save "$GOT" --socket "$SOCK" >/dev/null
  cmp "$GOT" "$WANT" || fail "duplicate push changed the report"

  # Query smoke: gaps/tcd answer, status counters reconcile.
  "$CLI" query gaps --socket "$SOCK" >/dev/null
  "$CLI" query tcd --arg open.flags --target 1000 --socket "$SOCK" \
    >/dev/null
  STATUS=$("$CLI" query status --socket "$SOCK")
  grep -q '^pushes_accepted 8$' <<<"$STATUS" ||
    fail "status: expected pushes_accepted 8; got: $STATUS"
  grep -q '^pushes_duplicate 1$' <<<"$STATUS" ||
    fail "status: expected pushes_duplicate 1"
  grep -q '^epoch 8$' <<<"$STATUS" || fail "status: expected epoch 8"
  grep -q '^torn_frames 0$' <<<"$STATUS" ||
    fail "status: unexpected torn frames"
  stop_daemon

  echo "serve: TCP listener round trip (ephemeral port)"
  start_daemon --tcp 0
  PORT=$(sed -n 's/^serving on tcp:127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$TMP/serve.log")
  [ -n "$PORT" ] || fail "ephemeral TCP port not reported"
  "$CLI" push "$TMP/shards/t0.ioct" --tcp "$PORT" >/dev/null
  "$CLI" query status --tcp "$PORT" | grep -q '^pushes_accepted 1$' ||
    fail "TCP push not accepted"
  stop_daemon
fi

# ---- stage: resume (SIGKILL + IOCK manifest + re-push) ---------------------
if [ "$STAGE" = all ] || [ "$STAGE" = resume ]; then
  echo "serve: SIGKILL mid-ingest, --resume, re-push-all convergence"
  CK="$TMP/serve.iock"
  rm -f "$CK"
  start_daemon --checkpoint "$CK" --checkpoint-every 1
  for i in 0 1 2 3 4; do
    "$CLI" push "$TMP/shards/t$i.ioct" --socket "$SOCK" >/dev/null
  done
  kill -9 "$SRV"
  wait "$SRV" 2>/dev/null || true
  SRV=""
  [ -e "$CK" ] || fail "no IOCK manifest left behind by SIGKILL"

  start_daemon --checkpoint "$CK" --checkpoint-every 1 --resume
  grep -q '^resumed ' "$TMP/serve.log" ||
    fail "daemon did not report resuming from $CK"
  # At-least-once delivery: re-push everything; already-consumed
  # shards are duplicates, the rest are ingested, and the final report
  # must equal the uninterrupted batch byte-for-byte.
  for f in "$TMP"/shards/*.ioct; do
    "$CLI" push "$f" --socket "$SOCK" >/dev/null
  done
  "$CLI" query report --save "$GOT" --socket "$SOCK" >/dev/null
  cmp "$GOT" "$WANT" || fail "resumed report differs from batch report"
  stop_daemon
fi

# ---- stage: cli (strict numeric flags + EPIPE-as-exit-3) -------------------
if [ "$STAGE" = all ] || [ "$STAGE" = cli ]; then
  echo "serve: CLI strictness sweep (bad numerics exit 2, EPIPE exit 3)"
  expect_rc 2 "$CLI" analyze --threads x "$TMP/t.ioct"
  expect_rc 2 "$CLI" analyze --threads 1x "$TMP/t.ioct"
  expect_rc 2 "$CLI" analyze "$TMP/t.ioct" --max-errors 1.5
  expect_rc 2 "$CLI" analyze "$TMP/t.ioct" \
    --max-errors 18446744073709551616    # 2^64: overflow, not saturate
  expect_rc 2 "$CLI" analyze "$TMP/t.ioct" --threads  # missing operand
  expect_rc 2 "$CLI" merge --timestamp 0 -o "$TMP/x.iocs" "$TMP/shards"
  expect_rc 2 "$CLI" merge --timestamp -5 -o "$TMP/x.iocs" "$TMP/shards"
  expect_rc 2 "$CLI" trend --window 0 "$TMP/shards"
  expect_rc 2 "$CLI" trend --target nan "$TMP/shards"
  expect_rc 2 "$CLI" demo --scale banana
  expect_rc 2 "$CLI" serve --tcp 70000
  expect_rc 2 "$CLI" serve --tcp x
  expect_rc 2 "$CLI" query report                     # no endpoint
  expect_rc 2 "$CLI" push "$TMP/t.ioct"               # no endpoint

  # A consumer that closes the pipe early must yield the structured
  # exit 3 ("output truncated"), never a SIGPIPE death (141).  A
  # `cmd | head`-style reader is racy (a fast cmd can finish before
  # the reader exits), so build the condition deterministically: open
  # a FIFO read-write to keep it unblocked, grab a write-only fd,
  # close the only read end, and hand iocov the now-readerless pipe.
  mkfifo "$TMP/epipe.fifo"
  exec {r}<>"$TMP/epipe.fifo"
  exec {w}>"$TMP/epipe.fifo"
  exec {r}<&-
  rc=0
  "$CLI" analyze "$TMP/t.ioct" >&"$w" 2>/dev/null || rc=$?
  exec {w}>&-
  [ "$rc" -eq 3 ] || fail "analyze into closed pipe exited $rc, want 3"
  rc=0
  { "$CLI" analyze "$TMP/t.ioct" >&- ; } 2>/dev/null || rc=$?
  [ "$rc" -eq 3 ] || fail "analyze with closed stdout exited $rc, want 3"

  # Every bad argument is a usage error, diagnosed before any input is
  # opened: unknown flags, dangling operands, extra positionals, a
  # suite outside the choice list, and a zero checkpoint interval.
  expect_rc 2 "$CLI" analyze "$TMP/t.ioct" --save
  expect_rc 2 "$CLI" analyze --sttrict "$TMP/t.ioct"
  expect_rc 2 "$CLI" trend --json
  expect_rc 2 "$CLI" demo --bogus
  expect_rc 2 "$CLI" demo --suite bogus
  expect_rc 2 "$CLI" bugstudy --bogus
  expect_rc 2 "$CLI" tcd "$TMP/a.cov" "$TMP/b.cov"
  expect_rc 2 "$CLI" report "$TMP/a.cov" "$TMP/b.cov"
  expect_rc 2 "$CLI" analyze --checkpoint-every 0 "$TMP/shards"
  expect_rc 2 "$CLI" merge --checkpoint-every 0 -o "$TMP/x.iocs" "$TMP/shards"
  expect_rc 2 "$CLI" serve --checkpoint-every 0 --socket "$SOCK"
  expect_rc 3 "$CLI" analyze --syz "$TMP/shards"    # a directory
  expect_rc 0 "$CLI" --help
  expect_rc 0 "$CLI" analyze --help
fi

# ---- stage: faults (socket-errno injection sweep) --------------------------
if [ "$STAGE" = all ] || [ "$STAGE" = faults ]; then
  echo "serve: socket-errno self-fault sweep (daemon survives, converges)"
  CLAUSES=(
    "errno:accept:ECONNABORTED:1"
    "errno:sock-read:ECONNRESET:2"
    "errno:sock-read:EIO:3"
    "errno:sock-read:ETIMEDOUT:1"
    "errno:sock-write:EPIPE:2"
    "errno:sock-write:ECONNRESET:4"
  )
  for clause in "${CLAUSES[@]}"; do
    rm -f "$SOCK"
    IOCOV_SELF_FAULT="$clause" \
      "$CLI" serve --socket "$SOCK" >"$TMP/serve.log" 2>&1 &
    SRV=$!
    wait_ready
    # First pass: one connection per shard; the armed clause may fail
    # any of them (client sees a transport error) but must only ever
    # degrade that one connection.
    for f in "$TMP"/shards/*.ioct; do
      "$CLI" push "$f" --socket "$SOCK" >/dev/null 2>&1 || true
    done
    kill -0 "$SRV" 2>/dev/null || {
      cat "$TMP/serve.log" >&2
      fail "daemon died under $clause"
    }
    # Second pass: the one-shot clause has drained, so every push must
    # be acknowledged (accepted or duplicate) and the daemon's report
    # must converge to the batch bytes.
    for f in "$TMP"/shards/*.ioct; do
      "$CLI" push "$f" --socket "$SOCK" >/dev/null ||
        fail "post-fault push of $f failed under $clause"
    done
    "$CLI" query report --save "$GOT" --socket "$SOCK" >/dev/null
    cmp "$GOT" "$WANT" ||
      fail "report under $clause differs from batch report"
    stop_daemon
  done
fi

echo "serve gate: OK (stage: $STAGE)"
