#!/usr/bin/env bash
# The iocov command line's argument contract, driven through the built
# binary:
#   - every bad argument is a usage error: exit 2, a first stderr line
#     naming the flag or argument, then only that command's synopsis;
#   - these errors come from the parser, before any input is opened, so
#     none of the cases below needs a real trace;
#   - every help form exits 0 with the usage on stdout;
#   - every flag a command's --help synopsis lists is one its parser
#     accepts (the synopsis is generated from the same table).
#
#   tests/cli_usage.sh path/to/iocov
set -uo pipefail
CLI=$(realpath "${1:?usage: cli_usage.sh path/to/iocov}")
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
# A binary that misreads an argument may go on to write files or serve
# a socket: keep anything it makes in TMP, and bound every run.
cd "$TMP" || exit 1
failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

COMMANDS="analyze convert merge trend report diff tcd serve push query demo
campaign guide crashtest bugstudy"

run() {  # run ARGS... -> $rc, $TMP/out, $TMP/err
  rc=0
  timeout 20 "$CLI" "$@" >"$TMP/out" 2>"$TMP/err" || rc=$?
}

expect_rc() {  # expect_rc WANT ARGS...
  local want=$1
  shift
  run "$@"
  [ "$rc" -eq "$want" ] ||
    fail "'iocov $*' exited $rc, want $want: $(head -1 "$TMP/err")"
}

# expect_usage TEXT ARGS... — exit 2; the first stderr line contains TEXT
# and the rest is the synopsis of the command in ARGS[0] alone.
expect_usage() {
  local text=$1
  shift
  expect_rc 2 "$@"
  head -1 "$TMP/err" | grep -qF -- "$text" ||
    fail "'iocov $*' reason '$(head -1 "$TMP/err")' does not name '$text'"
  grep -q "^  iocov $1 " "$TMP/err" ||
    fail "'iocov $*' printed no '$1' synopsis"
  [ "$(grep -c '^  iocov ' "$TMP/err")" -eq 1 ] ||
    fail "'iocov $*' printed other commands' synopses"
  ! grep -q '^      [^ ]' "$TMP/err" ||
    fail "'iocov $*' printed help prose on a usage error"
}

# ---- numeric strictness (the cli stage of scripts/check_serve.sh) ---------
T="$TMP/t.ioct"
expect_rc 2 analyze --threads x "$T"
expect_rc 2 analyze --threads 1x "$T"
expect_rc 2 analyze "$T" --max-errors 1.5
expect_rc 2 analyze "$T" --max-errors 18446744073709551616
expect_rc 2 analyze "$T" --threads
expect_rc 2 merge --timestamp 0 -o "$TMP/x.iocs" "$TMP/shards"
expect_rc 2 merge --timestamp -5 -o "$TMP/x.iocs" "$TMP/shards"
expect_rc 2 trend --window 0 "$TMP/shards"
expect_rc 2 trend --target nan "$TMP/shards"
expect_rc 2 demo --scale banana
expect_rc 2 serve --tcp 70000
expect_rc 2 serve --tcp x
expect_rc 2 query report
expect_rc 2 push "$T"

# ---- every bad argument is a usage error naming it ------------------------
expect_usage "--save" analyze "$T" --save
expect_usage "--sttrict" analyze --sttrict "$T"
expect_usage "--json" trend --json
expect_usage "--bogus" demo --bogus
expect_usage "--bogus" bugstudy --bogus
expect_usage "'b'" tcd a b
expect_usage "'y'" report x y
expect_usage "'c'" diff a b c
expect_usage "IN OUT" convert a
expect_usage "TRACE" analyze
expect_usage "bogus" demo --suite bogus
expect_usage "bogus" campaign --suite bogus
expect_usage "bogus" guide --suite bogus
expect_usage "--checkpoint-every" analyze --checkpoint-every 0 "$T"
expect_usage "--checkpoint-every" merge --checkpoint-every 0 -o x.iocs "$T"
expect_usage "--checkpoint-every" serve --checkpoint-every 0 --socket s
expect_usage "--resume" merge --resume -o x.iocs "$T"
expect_usage "-o" merge "$T"
expect_usage "--tcp" push --tcp 0 "$T"
expect_usage "--tcp" query --tcp 65536 ping
expect_usage "--timeout-ms" query --timeout-ms -1 ping
expect_usage "bogus" query bogus --socket s
expect_usage "'extra'" query ping extra --socket s
expect_usage "--socket" serve --label l
expect_usage "--arg" tcd --arg flags x.cov
expect_usage "--workloads" crashtest --workloads no-such-workload
expect_usage "--inject-skip-barrier" crashtest --inject-skip-barrier
expect_usage "-x" campaign -x
expect_usage "'x'" bugstudy x

# Unknown or missing commands list every synopsis, still exit 2.
expect_rc 2
expect_rc 2 bogus
expect_rc 2 help extra

# --syz reads one program file; a directory is an input error, not an
# empty report.
mkdir "$TMP/dir"
expect_rc 3 analyze --syz "$TMP/dir"
grep -q "is a directory" "$TMP/err" ||
  fail "analyze --syz DIR: $(head -1 "$TMP/err")"

# ---- help -----------------------------------------------------------------
for form in --help -h help; do
  expect_rc 0 "$form"
  [ -s "$TMP/err" ] && fail "iocov $form wrote to stderr"
  for cmd in $COMMANDS; do
    grep -q "^  iocov $cmd\( \|$\)" "$TMP/out" ||
      fail "iocov $form lists no '$cmd' synopsis"
  done
  grep -q "^exit codes:" "$TMP/out" || fail "iocov $form has no exit codes"
done
for cmd in $COMMANDS; do
  expect_rc 0 "$cmd" --help
  head -2 "$TMP/out" | grep -q "^  iocov $cmd\( \|$\)" ||
    fail "iocov $cmd --help does not open with its synopsis"
  grep -q '^      [^ ]' "$TMP/out" || fail "iocov $cmd --help has no prose"
done

# ---- every flag in a synopsis is accepted by the parser -------------------
# The synopsis is the help text up to the first prose line.  An item is
# `[--flag]`, `[--flag OPERAND]` or a required `-f OPERAND`.  Each flag
# is passed with a valid operand for its placeholder, followed by a flag
# no command has: the parser must get past the swept flag and stop at
# the unknown one, so nothing runs.
swept=0
for cmd in $COMMANDS; do
  timeout 20 "$CLI" "$cmd" --help |
    awk 'NR > 1 && /^      [^ ]/ { exit } NR > 1' >"$TMP/synopsis"
  read -r -a items <<<"$(tr '\n' ' ' <"$TMP/synopsis")"
  for ((i = 2; i < ${#items[@]}; i++)); do
    item=${items[$i]}
    case $item in
      \[-*\]) flag=${item#[}; flag=${flag%]}; args=("$flag") ;;
      \[-* | -*)
        flag=${item#[}
        op=${items[$((i + 1))]%]}
        i=$((i + 1))
        case $op in
          N | K | T | SECS | PORT) value=1 ;;
          S) value=0.5 ;;
          *'|'*) value=${op%%|*} ;;
          BASE.KEY) value=open.flags ;;
          *) value="$TMP/operand" ;;
        esac
        args=("$flag" "$value")
        ;;
      *) continue ;;
    esac
    swept=$((swept + 1))
    run "$cmd" "${args[@]}" --no-such-flag
    [ "$rc" -eq 2 ] &&
      [ "$(head -1 "$TMP/err")" = "iocov: unknown flag '--no-such-flag'" ] ||
      fail "iocov $cmd ${args[*]}: $(head -1 "$TMP/err") (exit $rc)"
  done
done
# 85 flags across the 15 tables; fewer means the sweep stopped reading.
[ "$swept" -ge 85 ] || fail "swept only $swept synopsis flags"

if [ "$failures" -gt 0 ]; then
  echo "cli_usage: $failures failure(s)" >&2
  exit 1
fi
echo "cli_usage: OK ($swept synopsis flags swept)"
