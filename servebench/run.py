#!/usr/bin/env python3
"""Served-estimate benchmark of vsjoin_server (see README.md).

    python3 servebench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

Run from the repository root (any directory works; paths resolve from this
file). Builds vsjoin_server and the servebench driver into .bench_build/,
prepares the snapshots and their exact ground truth once into .bench_cache/,
spawns the server as a child process on a loopback port and drives it with
one load-generator process. The last stdout line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced
breakdown and reports the per-layer metrics. The line before it is the
provenance record (host, build, workload, raw load-generator output).
Exits 1 when a correctness or workload-identity check fails, 2 on a usage
or build error.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "servebench")
CACHE = os.path.join(REPO, ".bench_cache", "servebench")
RUNS = os.path.join(REPO, ".bench_runs", "servebench")

WORKLOAD_TENANTS = {
    "sweep_cold": ["nyt"],
    "point_hot": ["nyt", "dblp"],
    "churn_mixed": ["dblp"],
}
# The load generator gets the last CPU to itself and the server the rest,
# so the two never compete for a core (unpinned, point_hot throughput
# ranged 64k-104k/s over ten seeds; pinned, 62k-73k). Within the server,
# the event-loop thread gets the first server CPU to itself and every other
# server thread shares the remaining ones: left to the scheduler, the worker
# was often woken onto the event loop's CPU, and point_hot flipped between
# two throughput levels 40% apart from one second to the next. The engine
# pool takes the workers' CPUs; one tenant is drained by one worker at a
# time, so busy compute threads stay within them.
ALL_CPUS = sorted(os.sched_getaffinity(0))
LOAD_CPUS = set(ALL_CPUS[-1:])
SERVER_CPUS = ALL_CPUS[:-1] or ALL_CPUS
LOOP_CPUS = set(SERVER_CPUS[:1])
WORKER_CPUS = set(SERVER_CPUS[1:]) or LOOP_CPUS
ENGINE_THREADS = len(WORKER_CPUS)
SERVER_FLAGS = ["--workers", "1", "--threads", str(ENGINE_THREADS), "--k", "20",
                "--tables", "1", "--seed", "1", "--max-batch", "64",
                "--max-inflight", "32768"]  # twice point_hot's most in flight
# Set-up time is the median over several spawns (a few ms of process
# start-up noise on a ~20-70 ms figure).
SETUP_SPAWNS = 9


def log(*parts):
    print("servebench:", *parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def pinned(cpus):
    return lambda: os.sched_setaffinity(0, cpus)


def run_checked(cmd, timeout, capture=False, cpus=None):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                          stderr=sys.stderr, timeout=timeout, text=True,
                          preexec_fn=pinned(cpus) if cpus else None)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (os.path.basename(cmd[0]),
                                               proc.returncode))
    return proc.stdout


def build():
    if not (os.path.isdir(os.path.join(REPO, "src", "vsj")) and
            os.path.isfile(os.path.join(REPO, "tools", "vsjoin_server.cc"))):
        raise BenchError("repository sources (src/vsj, tools/vsjoin_server.cc) "
                         "not found next to " + HERE)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout=300)
    run_checked(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                timeout=840)
    return (os.path.join(BUILD, "vsjoin_server"), os.path.join(BUILD, "servebench"))


def file_digest(path):
    digest = hashlib.sha1()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def prepare(driver, scale):
    """Snapshots + exact ground truth, cached per driver build and scale."""
    directory = os.path.join(CACHE, "%s-%s" % (scale, file_digest(driver)))
    if os.path.isfile(os.path.join(directory, "truth.json")):
        return directory
    shutil.rmtree(CACHE, ignore_errors=True)  # drop stale builds' inputs
    tmp = directory + ".tmp"
    os.makedirs(tmp)
    log("preparing %s inputs and exact ground truth (once per build)" % scale)
    run_checked([driver, "prepare", "--scale", scale, "--out", tmp],
                timeout=600, capture=True)
    os.rename(tmp, directory)
    return directory


def fresh_copy(src, dst):
    shutil.rmtree(dst, ignore_errors=True)
    os.makedirs(dst)
    for name in ("nyt.vsjb", "dblp.vsjs"):
        shutil.copyfile(os.path.join(src, name), os.path.join(dst, name))


class Server:
    """vsjoin_server as a child process on an ephemeral loopback port."""

    def __init__(self, binary, root, run_dir, metrics_json=None):
        port_file = os.path.join(run_dir, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        cmd = [binary, "--root", root, "--port", "0", "--port-file", port_file]
        cmd += SERVER_FLAGS
        env = dict(os.environ)
        for name in ("VSJ_METRICS", "VSJ_FAULTS", "VSJ_SIMD", "VSJ_FORCE_SCALAR"):
            env.pop(name, None)
        if metrics_json:
            cmd += ["--metrics-json", metrics_json]
        self.log = open(os.path.join(run_dir, "server.log"), "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=self.log, env=env,
                                     preexec_fn=pinned(WORKER_CPUS))
        deadline = self.started + 60
        self.port = None
        while self.port is None:
            if self.proc.poll() is not None:
                raise BenchError("vsjoin_server exited early (see %s)" % run_dir)
            if time.perf_counter() > deadline:
                raise BenchError("vsjoin_server published no port")
            try:
                with open(port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    self.port = int(text)
                    break
            except OSError:
                pass
            time.sleep(0.001)

    def first_responses(self, tenants):
        """Seconds from spawn until every tenant answered a stats request
        (which makes the registry open it cold)."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=60) as sock:
            for i, tenant in enumerate(tenants):
                payload = json.dumps({"id": i + 1, "op": "stats", "tenant": tenant})
                sock.sendall(struct.pack("<I", len(payload)) + payload.encode())
            buffer = b""
            answered = 0
            while answered < len(tenants):
                chunk = sock.recv(65536)
                if not chunk:
                    raise BenchError("server closed the setup probe")
                buffer += chunk
                while len(buffer) >= 4:
                    (length,) = struct.unpack("<I", buffer[:4])
                    if len(buffer) < 4 + length:
                        break
                    reply = json.loads(buffer[4:4 + length])
                    buffer = buffer[4 + length:]
                    if not reply.get("ok"):
                        raise BenchError("setup probe refused: %s" % reply)
                    answered += 1
        return time.perf_counter() - self.started

    def isolate_event_loop(self):
        """Moves the event-loop thread onto LOOP_CPUS; the other threads stay
        on WORKER_CPUS. Call it with the server idle and its tenants open, so
        the loop thread is the one waiting in epoll and the engine pools
        exist. Returns whether the loop thread was found."""
        task_dir = "/proc/%d/task" % self.proc.pid
        deadline = time.perf_counter() + 5
        while time.perf_counter() < deadline:
            for tid in os.listdir(task_dir):
                try:
                    with open(os.path.join(task_dir, tid, "wchan")) as f:
                        waiting_in = f.read()
                except OSError:
                    continue
                if "ep_poll" in waiting_in or "epoll_wait" in waiting_in:
                    os.sched_setaffinity(int(tid), LOOP_CPUS)
                    return True
            time.sleep(0.01)
        return False

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM not found")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if self.proc.returncode != 0:
            raise BenchError("vsjoin_server exited with %d" % self.proc.returncode)


def load_server(server_bin, root, run_dir, tenants, metrics_json=None):
    """A server with the workload's tenants open and its event loop on a
    CPU of its own (when the loop thread can be told apart)."""
    server = Server(server_bin, root, run_dir, metrics_json)
    try:
        server.first_responses(tenants)
        server.loop_isolated = server.isolate_event_loop()
    except BaseException:
        server.stop()
        raise
    if not server.loop_isolated:
        log("event-loop thread not found; it shares the workers' CPUs")
    return server


def run_load(driver, server, args, inputs, run_dir, seconds, extra=()):
    ref_root = os.path.join(run_dir, "ref")
    fresh_copy(inputs, ref_root)
    out = run_checked(
        [driver, "load", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(seconds), "--warmup", repr(args.warmup),
         "--port", str(server.port), "--scale", args.scale,
         "--threads", str(ENGINE_THREADS),
         "--truth", os.path.join(inputs, "truth.json"), "--ref-root", ref_root,
         "--sabotage", args.sabotage] + list(extra),
        timeout=seconds + 120, capture=True, cpus=LOAD_CPUS)
    return json.loads(out.strip().splitlines()[-1])


def measure(binaries, args, inputs, run_dir):
    """The untraced run: set-up time, then the timed load."""
    server_bin, driver = binaries
    root = os.path.join(run_dir, "root")
    fresh_copy(inputs, root)
    tenants = WORKLOAD_TENANTS[args.workload]
    setups = []
    for _ in range(SETUP_SPAWNS):
        server = Server(server_bin, root, run_dir)
        try:
            setups.append(server.first_responses(tenants))
        finally:
            server.stop()
    server = load_server(server_bin, root, run_dir, tenants)
    try:
        load = run_load(driver, server, args, inputs, run_dir, args.seconds)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    load["setup_s"] = setups
    load["loop_isolated"] = server.loop_isolated
    metrics = {
        "estimates_per_s": (load["estimates_per_s"], "1/s"),
        "latency_p50_ms": (load["latency_p50_ms"], "ms"),
        "latency_p99_ms": (load["latency_p99_ms"], "ms"),
        "rel_error": (load["rel_error"], "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return load, metrics


# The traced halves report no latency metric, so their shorter windows
# skip the ten-samples-beyond-p99 sizing check.
NO_TAIL = ("--min-beyond-p99", "0")


def traced(binaries, args, inputs, run_dir):
    """The traced breakdown: half the time untraced, half with the server's
    metrics recording on, then the in-process layer timer."""
    server_bin, driver = binaries
    root = os.path.join(run_dir, "root")
    half = args.seconds / 2.0
    tenants = WORKLOAD_TENANTS[args.workload]
    fresh_copy(inputs, root)
    server = load_server(server_bin, root, run_dir, tenants)
    try:
        plain = run_load(driver, server, args, inputs, run_dir, half, NO_TAIL)
    finally:
        server.stop()
    fresh_copy(inputs, root)
    metrics_path = os.path.join(run_dir, "server-metrics.json")
    server = load_server(server_bin, root, run_dir, tenants, metrics_json=metrics_path)
    try:
        load = run_load(driver, server, args, inputs, run_dir, half, NO_TAIL)
    finally:
        server.stop()
    with open(metrics_path) as f:
        server_metrics = json.load(f)
    hist = server_metrics.get("histograms", {})
    counters = server_metrics.get("counters", {})
    queue = hist.get("server.queue_wait_ns", {})
    batch_mean = hist.get("server.batch_size", {}).get("mean", 1.0)
    fresh_copy(inputs, root)
    layers = json.loads(run_checked(
        [driver, "layers", "--workload", args.workload, "--seed", str(args.seed),
         "--scale", args.scale, "--root", root, "--threads", str(ENGINE_THREADS),
         "--batch-size", str(max(1, int(round(batch_mean)))),
         "--budget", repr(args.layer_budget)],
        timeout=150, capture=True).strip().splitlines()[-1])

    pairs_h = counters.get("estimate.pairs_h", 0)
    pairs_l = counters.get("estimate.pairs_l", 0)
    trial_ns = layers["core.trial_ms"] * 1e6
    draw_share = (1.0 - layers["core.pairs_per_trial"] * layers["vector.pair_ns"] /
                  trial_ns) if trial_ns > 0 else 0.0
    queue_p50_ms = queue.get("p50", 0) / 1e6
    blocking_ms = (queue_p50_ms + layers["service.batch_ms"] +
                   (layers["net.decode_us"] + layers["net.encode_us"]) / 1e3)
    overhead = (100.0 * (plain["estimates_per_s"] - load["estimates_per_s"]) /
                plain["estimates_per_s"]) if plain["estimates_per_s"] > 0 else 0.0
    metrics = {
        "net.decode_us": (layers["net.decode_us"], "us"),
        "net.encode_us": (layers["net.encode_us"], "us"),
        "net.queue_wait_ms_p50": (queue_p50_ms, "ms"),
        "net.queue_wait_ms_p99": (queue.get("p99", 0) / 1e6, "ms"),
        "net.batch_size_mean": (batch_mean, "count"),
        "service.cache_hit_rate": (load["cache_hit_rate"], "ratio"),
        "service.acquire_us": (layers["service.acquire_us"], "us"),
        "service.batch_ms": (layers["service.batch_ms"], "ms"),
        "service.context_build_ms": (layers["service.context_build_ms"], "ms"),
        "core.trial_ms": (layers["core.trial_ms"], "ms"),
        "core.pairs_per_estimate": (load["pairs_per_estimate"], "count"),
        "core.unguaranteed_frac": (load["unguaranteed_frac"], "ratio"),
        "core.pairs_l_share": (pairs_l / (pairs_h + pairs_l)
                               if pairs_h + pairs_l else 0.0, "ratio"),
        "vector.pair_ns": (layers["vector.pair_ns"], "ns"),
        "vector.draw_share": (draw_share, "ratio"),
        "vector.batch_span_mb": (layers["vector.batch_span_mb"], "MB"),
        "lsh.insert_us": (layers["lsh.insert_us"], "us"),
        "lsh.remove_us": (layers["lsh.remove_us"], "us"),
        "lsh.index_build_s": (layers["lsh.index_build_s"], "s"),
        "io.open_s": (layers["io.open_s"], "s"),
        "mutations_per_s": (plain["mutations_per_s"], "1/s"),
        "error_rate": (plain["error_rate"], "ratio"),
        "trace_overhead_pct": (overhead, "%"),
        "closure_ratio": (blocking_ms / load["latency_p50_ms"]
                          if load["latency_p50_ms"] else 0.0, "ratio"),
    }
    merged = dict(load)
    merged["checks"] = plain["checks"] + load["checks"]
    merged["correct"] = plain["correct"] and load["correct"]
    merged["attempted"] = plain["attempted"] + load["attempted"]
    merged["failed"] = plain["failed"] + load["failed"]
    merged["untraced"] = plain
    merged["layers"] = layers
    return merged, metrics


def provenance(driver):
    host = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    host["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    host.update(json.loads(run_checked([driver, "host"], timeout=30,
                                       capture=True).strip()))
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO))
    try:
        sha = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    host["git_sha"] = sha or "unknown (not a git checkout)"
    return host


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_TENANTS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's scale")
    parser.add_argument("--warmup", type=float, default=0.5,
                        help="untimed traffic before each timed window")
    parser.add_argument("--layer-budget", type=float, default=1.0,
                        help="seconds per in-process layer measurement")
    parser.add_argument("--sabotage", default="",
                        choices=("", "cache", "miss", "errors", "bytes"),
                        help="self-test only: make one check fail on purpose")
    args = parser.parse_args()

    run_dir = os.path.join(RUNS, "%s-%d" % (args.workload, os.getpid()))
    try:
        binaries = build()
        inputs = prepare(binaries[1], args.scale)
        os.makedirs(run_dir)
        if args.trace:
            load, metrics = traced(binaries, args, inputs, run_dir)
        else:
            load, metrics = measure(binaries, args, inputs, run_dir)
        record = {"provenance": provenance(binaries[1]), "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
                  "trace": args.trace, "server_flags": SERVER_FLAGS, "load": load}
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("failed:", e)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    for failure in load["checks"]:
        log("check failed:", failure)
    result = {
        "correct": bool(load["correct"]),
        "attempted": int(load["attempted"]),
        "failed": int(load["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
