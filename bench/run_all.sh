#!/bin/sh
# Regenerates the BENCH_*.json files: runs the three JSON benches from
# build/ at the scale the environment sets (a VSJ_* knob left unset takes
# the bench's default; bench/bench_common.h lists them) and writes
# OUT_DIR/BENCH_<bench>.json. Fails if a bench fails or a file it writes is
# not strict JSON (NaN and Infinity are refused too).
#
# Usage, from the top of a built checkout: bench/run_all.sh OUT_DIR
# (bench/run_all.sh . regenerates the committed files at default scale).
set -eu
[ $# -eq 1 ] || { echo "usage: $0 OUT_DIR" >&2; exit 2; }
mkdir -p "$1"
for bench in dot_kernel lsh_build streaming_churn; do
  out="$1/BENCH_$bench.json"
  "$(dirname "$0")/../build/bench_$bench" --json "$out"
  python3 -c 'import json, sys; json.load(open(sys.argv[1]),
parse_constant=lambda c: sys.exit(f"{sys.argv[1]}: {c} is not JSON"))' "$out"
done
