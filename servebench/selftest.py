#!/usr/bin/env python3
"""Tiny-scale self-test of the servebench benchmark.

    python3 servebench/selftest.py

Runs every workload untraced and traced at the "tiny" scale (one-second
windows), asserts that every end-to-end and per-layer metric named in
BENCHMARK.json is printed with its unit, then makes each correctness and
workload-identity check fail on purpose and asserts that the run reports
it and exits non-zero. Finally it asserts that the benchmark refuses to run
from a directory without the repository sources. Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
TINY = ["--scale", "tiny", "--seconds", "1", "--warmup", "0.2",
        "--layer-budget", "0.05"]

failures = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def run(workload, trace=0, extra=(), cwd=REPO, runner=RUN):
    proc = subprocess.run(runner + ["--workload", workload, "--seed", "7",
                                    "--trace", str(trace)] + TINY + list(extra),
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = record = None
    try:
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])
    except (IndexError, ValueError):
        pass
    return proc, result, record


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # churn_mixed is supported but not in BENCHMARK.json (see README.md).
    workloads = [w["name"] for w in spec["workloads"]] + ["churn_mixed"]

    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result, _ = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            expect(proc.returncode == 0 and result is not None and result["correct"],
                   label + ": exits 0 with correct=true")
            if result is None:
                continue
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   label + ": attempted >= 1, failed == 0")
            metrics = result["metrics"]
            for metric in spec[key]:
                got = metrics.get(metric["name"])
                expect(got is not None and got["unit"] == metric["unit"] and
                       isinstance(got["value"], (int, float)),
                       "%s: emits %s [%s]" % (label, metric["name"], metric["unit"]))

    # Each check must fire when its condition is broken.
    broken = [
        ("sweep_cold", "cache", "came from the cache"),
        ("point_hot", "miss", "hit rate"),
        ("sweep_cold", "bytes", "differs from in-process"),
        ("churn_mixed", "bytes", "differs from in-process"),
        ("churn_mixed", "errors", "error_rate"),
    ]
    for workload, sabotage, needle in broken:
        proc, result, record = run(workload, 0, ["--sabotage", sabotage])
        checks = record["load"]["checks"] if record else []
        expect(proc.returncode == 1 and result is not None and not result["correct"]
               and any(needle in c for c in checks),
               "%s --sabotage %s: fails with '%s'" % (workload, sabotage, needle))

    # Without the repository sources the benchmark must refuse to run.
    bare = os.path.join(REPO, ".bench_runs", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)))
    proc, result, _ = run(workloads[0], 0, cwd=bare,
                          runner=[sys.executable, os.path.join(bare, "servebench",
                                                               "run.py")])
    expect(proc.returncode != 0 and result is None,
           "bare directory: exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
