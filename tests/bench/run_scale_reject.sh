#!/bin/sh
# A bench given a malformed or too-small scale knob must refuse it before
# doing any work: exit nonzero and print "bad VAR value (...): VALUE" on
# stderr, naming the variable and the value it was given. The other knobs
# are set tiny, so a bench that ignored the bad value would still finish
# quickly (and fail this test by exiting 0).
#
# Usage: run_scale_reject.sh BENCH_BINARY VAR VALUE
set -u
bench=$1 var=$2 value=$3

stderr=$(env VSJ_N=300 VSJ_TRIALS=1 VSJ_ITERS=1 VSJ_ROUNDS=1 \
             VSJ_PAIRS=2000 "$var=$value" "$bench" 2>&1 >/dev/null)
status=$?
if [ "$status" -eq 0 ]; then
  echo "FAIL: $var=$value: $bench exited 0" >&2
  exit 1
fi
case $stderr in
  *"bad $var value"*": $value"*)
    echo "ok: $var=$value refused (exit $status): $stderr"
    ;;
  *)
    echo "FAIL: $var=$value: exit $status without naming the knob;" \
         "stderr was: $stderr" >&2
    exit 1
    ;;
esac
