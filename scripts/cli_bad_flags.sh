#!/usr/bin/env bash
# Bad-input oracle for beepmis_cli: every malformed numeric flag and an
# unwritable --dot-out path must exit 1 with a message naming the flag (or
# the path), never abort (134), wrap a negative value through unsigned, or
# exit 0 having written nothing.  Spec mode ignores the individual graph
# flags, so a bad --graph-file next to --spec must not fail the run.
#
#   scripts/cli_bad_flags.sh <path-to-beepmis_cli> [workdir]
set -u

CLI=${1:?usage: cli_bad_flags.sh <beepmis_cli> [workdir]}
WORKDIR=${2:-$(mktemp -d)}
mkdir -p "$WORKDIR"
failures=0

# expect_reject <text the message must contain> <cli args...>
expect_reject() {
  local needle=$1
  shift
  "$CLI" "$@" > "$WORKDIR/out.txt" 2> "$WORKDIR/err.txt"
  local code=$?
  if [ "$code" -ne 1 ]; then
    echo "cli_bad_flags: FAIL: '$*' exited $code, expected 1" >&2
    failures=$((failures + 1))
  elif ! grep -qF -- "$needle" "$WORKDIR/err.txt"; then
    echo "cli_bad_flags: FAIL: '$*' did not name '$needle': $(cat "$WORKDIR/err.txt")" >&2
    failures=$((failures + 1))
  fi
}

expect_reject "--n:" --n=abc
expect_reject "--n:" --n=-3
expect_reject "--max-rounds:" --max-rounds=-1 --print-spec
expect_reject "--p:" --p=abc
expect_reject "--shards:" --shards=0
expect_reject "--trials:" --trials=-2
expect_reject "--seed:" --seed=7x
expect_reject "--threads:" --threads=-1 --print-spec
expect_reject "/nonexistent/dir/x.dot" --n=20 --dot-out=/nonexistent/dir/x.dot

# The same run with a writable path must exit 0 and leave a DOT file.
"$CLI" --n=20 --dot-out="$WORKDIR/ok.dot" > /dev/null 2>&1 \
  || { echo "cli_bad_flags: FAIL: valid --dot-out run exited nonzero" >&2; failures=$((failures + 1)); }
grep -q '^graph G' "$WORKDIR/ok.dot" 2>/dev/null \
  || { echo "cli_bad_flags: FAIL: valid --dot-out wrote no graph" >&2; failures=$((failures + 1)); }

# Spec mode builds no graph from the flags: the sweep runs on the spec's
# graph and exits 0.
"$CLI" --spec='sweepspec v3 graph=gnp graph.n=50 trials=1' --graph-file=/nonexistent/g.txt \
  > "$WORKDIR/spec.txt" 2>&1 \
  || { echo "cli_bad_flags: FAIL: --spec with an unused bad --graph-file exited nonzero: $(cat "$WORKDIR/spec.txt")" >&2; failures=$((failures + 1)); }

if [ "$failures" -ne 0 ]; then
  echo "cli_bad_flags: $failures case(s) failed" >&2
  exit 1
fi
echo "cli_bad_flags: OK"
