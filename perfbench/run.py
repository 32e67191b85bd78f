#!/usr/bin/env python3
"""End-to-end benchmark for acqp and acqpd.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the program from source with dune, runs one workload and prints,
as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). Exit status is 0 only when the
workload ran and printed that line.

    python3 perfbench/run.py --all [--seconds S] [--history]

runs every workload on seeds 1, 2 and 3, prints the median of each
end-to-end metric, and with --history appends one line to
perfbench/HISTORY.jsonl (commit, nproc, medians per workload).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
ACQPD_EXE = os.path.join("_build", "default", "bin", "acqpd.exe")
BUILD_TIMEOUT_S = 850
CHILD_TIMEOUT_S = 160
# Seeds per workload in an --all run, fixed so that every line of
# HISTORY.jsonl is a median over the same seeds.
SEEDS = 3


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group and wait for it; on timeout
    kill the whole group (the bench and any daemon it started)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Build the bench and the daemon from source; False on failure.
    Dune's shared cache is off so that the build reads and writes only
    inside the checkout."""
    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from the root of a "
              "source checkout", file=sys.stderr)
        return False
    if shutil.which("taskset") is None:
        print("perfbench: taskset (util-linux) is needed to pin processes "
              "to CPUs", file=sys.stderr)
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code, _ = run_group(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe",
             "./bin/acqpd.exe"],
            BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return code == 0


def run_one(workload, seed, seconds, trace, echo=True):
    """Run one workload; return the parsed result line or None when it
    failed or its metrics are not exactly the ones BENCHMARK.json lists
    for this kind of run."""
    # The bench and the daemon of daemon-mixed each get a CPU of their
    # own, so neither migrates onto the other. The busy process gets the
    # last allowed CPU: the first takes most device interrupts. In
    # daemon-mixed that is the daemon, which spins while its
    # subscription is live; the bench there mostly waits in select.
    cpus = sorted(os.sched_getaffinity(0))
    bench_cpu, daemon_cpu = cpus[-1], cpus[0]
    if workload == "daemon-mixed":
        bench_cpu, daemon_cpu = daemon_cpu, bench_cpu
    cmd = ["taskset", "-c", str(bench_cpu), BENCH_EXE, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--acqpd", ACQPD_EXE,
           "--daemon-cpu", str(daemon_cpu)]
    try:
        code, out = run_group(cmd, CHILD_TIMEOUT_S, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {workload} did not finish: {e}", file=sys.stderr)
        return None
    lines = out.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    if code != 0 or not lines:
        print(f"perfbench: {workload} exited with {code}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: {workload} printed no result line", file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"perfbench: malformed result line from {workload}",
              file=sys.stderr)
        return None
    spec = load_spec()
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != listed:
        print(f"perfbench: {workload} metrics differ from BENCHMARK.json: "
              f"{sorted(set(got.items()) ^ set(listed.items()))}",
              file=sys.stderr)
        return None
    return result


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "lib",
                                "bin", "perfbench"],
                               capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def run_all(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    medians = {}
    for w in names:
        runs = []
        for seed in range(1, SEEDS + 1):
            print(f"== {w} seed {seed}")
            r = run_one(w, seed, seconds, 0)
            if r is None or not r["correct"]:
                print(f"perfbench: {w} seed {seed} failed", file=sys.stderr)
                return 1
            runs.append(r["metrics"])
        medians[w] = {
            m["name"]: statistics.median(x[m["name"]]["value"] for x in runs)
            for m in spec["end_to_end"]}
        for name, v in medians[w].items():
            print(f"{w:14s} {name:20s} {v:14.4f}")
    if args.history:
        line = {"commit": commit(), "nproc": os.cpu_count(),
                "date": time.strftime("%Y-%m-%d", time.gmtime()),
                "seconds": seconds, "medians": medians}
        with open(os.path.join(HERE, "HISTORY.jsonl"), "a") as f:
            f.write(json.dumps(line, sort_keys=True) + "\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--history", action="store_true")
    args = p.parse_args()
    if not build():
        return 1
    spec = load_spec()
    if args.all:
        return run_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    r = run_one(args.workload, args.seed, args.seconds or spec["run_seconds"],
                args.trace)
    if r is None:
        return 1
    print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
