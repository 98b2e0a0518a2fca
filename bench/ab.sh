#!/bin/sh
# Paired A/B run of the served-estimate benchmark: runs the unchanged
# servebench/run.py --trace 0 of two checkouts on both gated workloads
# (sweep_cold, point_hot), PAIRS times each, alternating which checkout
# runs first, and writes OUT_DIR/ab.json. Per workload and end-to-end
# metric it holds each side's median and quartiles, how many of the pairs
# the change won and lost (ties count for neither side) and a verdict:
# "separates" when the change wins at least nine tenths of the pairs and
# its median is better by more than the parent's interquartile range,
# "regresses" when the parent wins at least nine tenths of the pairs and
# its median is better by more than the change's interquartile range,
# otherwise "does not separate". Below 10 pairs nine tenths is not a
# majority a verdict can rest on, so every row reads "too few pairs".
# Which direction is better comes from the change's BENCHMARK.json. Each
# run's result line is kept under OUT_DIR/runs/.
#
# Usage: bench/ab.sh PARENT_TREE CHANGE_TREE OUT_DIR [PAIRS] [-- run.py args]
#   PAIRS defaults to 10; run.py gets --seconds 40 (BENCHMARK.json's run
#   length) and then the args after --, which override it, e.g.
#   bench/ab.sh ../parent . ab-out 2 -- --scale tiny --seconds 1
# Each tree is a full checkout; run.py builds into the tree's own
# .bench_build/. Exits 1 when a run fails or reports a failed check.
# Each run.py runs in a process group of its own; on SIGINT or SIGTERM
# the script signals that group (run.py, its server, its load generator
# or build), waits until all of it has exited, and exits 130 or 143.
set -eu
usage() {
  echo "usage: $0 PARENT_TREE CHANGE_TREE OUT_DIR [PAIRS] [-- run.py args]" >&2
  exit 2
}
[ $# -ge 3 ] || usage
parent=$(cd "$1" && pwd) || usage
change=$(cd "$2" && pwd) || usage
out=$3
shift 3
pairs=10
if [ $# -gt 0 ] && [ "$1" != "--" ]; then
  pairs=$1
  shift
fi
case $pairs in
  '' | *[!0-9]* | 0) echo "$0: PAIRS must be a positive integer" >&2; exit 2 ;;
esac
if [ $# -gt 0 ]; then
  [ "$1" = "--" ] || usage
  shift
fi
for tree in "$parent" "$change"; do
  [ -f "$tree/servebench/run.py" ] || {
    echo "$0: $tree has no servebench/run.py" >&2
    exit 2
  }
done
mkdir -p "$out/runs"

child=  # the running run.py, which leads its process group
stop() {  # stop STATUS
  trap - INT TERM
  if [ -n "$child" ]; then
    kill -TERM -- "-$child" 2>/dev/null || true
    wait "$child" 2>/dev/null || true
    # The server drains after run.py has gone; give the group 30 s.
    tries=0
    while kill -0 -- "-$child" 2>/dev/null; do
      tries=$((tries + 1))
      [ "$tries" -le 300 ] || kill -KILL -- "-$child" 2>/dev/null || true
      sleep 0.1
    done
  fi
  echo "ab: interrupted" >&2
  exit "$1"
}
trap 'stop 130' INT
trap 'stop 143' TERM

run() {  # run SIDE TREE WORKLOAD PAIR [run.py args]
  side=$1 tree=$2 workload=$3 pair=$4
  shift 4
  log="$out/runs/$workload-$pair-$side.log"
  echo "ab: pair $pair/$pairs $workload $side" >&2
  # A background job of this shell is no group leader, so setsid makes
  # run.py (same pid) the leader of a new group rather than forking.
  setsid python3 "$tree/servebench/run.py" --workload "$workload" \
    --trace 0 --seconds 40 "$@" > "$log.out" 2> "$log" < /dev/null &
  child=$!
  status=0
  wait "$child" || status=$?
  child=
  if [ "$status" -ne 0 ]; then
    echo "ab: $side run failed on $workload (see $log)" >&2
    exit 1
  fi
  tail -n 1 "$log.out" > "$out/runs/$workload-$pair-$side.json"
  rm -f "$log.out"
}

for workload in sweep_cold point_hot; do
  pair=1
  while [ "$pair" -le "$pairs" ]; do
    if [ $((pair % 2)) -eq 1 ]; then
      run parent "$parent" "$workload" "$pair" "$@"
      run change "$change" "$workload" "$pair" "$@"
    else
      run change "$change" "$workload" "$pair" "$@"
      run parent "$parent" "$workload" "$pair" "$@"
    fi
    pair=$((pair + 1))
  done
done

python3 - "$out" "$pairs" "$change/BENCHMARK.json" <<'EOF'
import json
import math
import os
import statistics
import sys

out, pairs, benchmark = sys.argv[1], int(sys.argv[2]), sys.argv[3]
better = {m["name"]: m["better"]
          for m in json.load(open(benchmark))["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


result = {"pairs": pairs, "workloads": {}}
for workload in ("sweep_cold", "point_hot"):
    runs = {side: [json.load(open(os.path.join(
        out, "runs", "%s-%d-%s.json" % (workload, pair, side))))
        for pair in range(1, pairs + 1)] for side in ("parent", "change")}
    metrics = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in runs}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0
                   for p, c in zip(values["parent"], values["change"]))
        losses = sum(sign * (c - p) < 0
                     for p, c in zip(values["parent"], values["change"]))
        summary = {}
        for side, vals in values.items():
            q1, q3 = quartiles(vals)
            summary[side] = {"median": statistics.median(vals), "q1": q1,
                             "q3": q3, "runs": vals}
        gap = sign * (summary["change"]["median"] - summary["parent"]["median"])
        iqr = {side: summary[side]["q3"] - summary[side]["q1"]
               for side in summary}
        majority = math.ceil(0.9 * pairs)
        if pairs < 10:
            verdict = "too few pairs"
        elif wins >= majority and gap > iqr["parent"]:
            verdict = "separates"
        elif losses >= majority and -gap > iqr["change"]:
            verdict = "regresses"
        else:
            verdict = "does not separate"
        metrics[name] = dict(summary, better=direction, wins=wins,
                             losses=losses, median_gap=gap,
                             parent_iqr=iqr["parent"],
                             change_iqr=iqr["change"], verdict=verdict)
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    attempted = {side: sum(r["attempted"] for r in runs[side]) for side in runs}
    result["workloads"][workload] = {"metrics": metrics, "failed": failed,
                                     "attempted": attempted}
    for name, m in metrics.items():
        print("ab: %-10s %-16s parent %-12.6g change %-12.6g "
              "wins %d/%d losses %d/%d  %s"
              % (workload, name, m["parent"]["median"], m["change"]["median"],
                 m["wins"], pairs, m["losses"], pairs, m["verdict"]),
              file=sys.stderr)
with open(os.path.join(out, "ab.json"), "w") as f:
    json.dump(result, f, indent=1, sort_keys=True)
    f.write("\n")
EOF
