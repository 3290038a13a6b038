#!/usr/bin/env python3
"""Loopback-cluster benchmark: build perfbench.exe, run it, print one result.

Usage, from the repository root:

    python3 perfbench/run.py --workload commute --seed 1 --seconds 21 --trace 0

Builds the OCaml program with dune and runs it REPS times on the named
workload, each time in a fresh process with its own share of --seconds and
its own seed derived from --seed.  Prints a human-readable report and, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics; each metric is the median over the repetitions.

--trace 0 reports the end_to_end metrics of BENCHMARK.json.  --trace 1
makes the untraced repetitions and then as many with the per-layer taps
installed, and reports the per_layer metrics, among them the tracing
overhead (traced minus untraced medians).

Exits non-zero without a result line when the build fails (for instance
outside a full checkout), and with correct=false when a check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
RUN_DIR = os.path.join(HERE, "_run")
REPS = 7
REP_TIMEOUT_S = 60

# End-to-end metrics whose traced-minus-untraced difference is also
# reported as a per-layer metric (the tracing overhead).
OVERHEAD = ("latency_p50_ms", "cpu_us_per_op")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        fail("build failed")


def stamps():
    def out(cmd):
        try:
            return subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, cwd=ROOT,
                                  timeout=30).stdout.decode().strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""
    return {
        "nproc": os.cpu_count(),
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]) or "unknown",
        "commit": out(["git", "rev-parse", "--short", "HEAD"]) or "unknown",
        "data_fs": out(["stat", "-f", "-c", "%T", RUN_DIR]) or "unknown",
    }


def run_rep(args, rep, traced):
    data_dir = os.path.join(RUN_DIR, "%s-%d-%d" % (args.workload, rep, os.getpid()))
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    cmd = [EXE, "--workload", args.workload,
           "--seed", str(args.seed * 100 + rep),
           "--seconds", repr(args.seconds / REPS),
           "--trace", "1" if traced else "0", "--data-dir", data_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("repetition timed out")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result from perfbench.exe (exit %d)" % proc.returncode)


def medians(reps, key):
    return {name: statistics.median(r[key][name] for r in reps)
            for name in reps[0][key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    os.makedirs(RUN_DIR, exist_ok=True)
    info = stamps()
    try:
        untraced = [run_rep(args, i, False) for i in range(REPS)]
        traced = [run_rep(args, i, True) for i in range(REPS)] if args.trace else []
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    every = untraced + traced

    print("perfbench %s seed %d, %d s in %d repetitions; %s" % (
        args.workload, args.seed, args.seconds, REPS,
        ", ".join("%s=%s" % kv for kv in sorted(info.items()))))
    e2e = medians(untraced, "end_to_end")
    for label, reps in (("untraced", untraced), ("traced", traced)):
        if not reps:
            continue
        print("%s medians: %s" % (label, json.dumps(medians(reps, "end_to_end"),
                                                   sort_keys=True)))
        for r in reps:
            print("%s repetition: %s" % (label, json.dumps(r["info"], sort_keys=True)))
            for e in r["errors"]:
                print("%s: CHECK FAILED: %s" % (label, e))
    attempted = sum(int(r["attempted"]) for r in every)
    failed = sum(int(r["failed"]) for r in every)
    print("error_frac %.6f (%d failed of %d attempted)" % (
        failed / max(1, attempted), failed, attempted))

    if args.trace:
        traced_e2e = medians(traced, "end_to_end")
        overhead = {k: traced_e2e[k] - e2e[k] for k in sorted(e2e)}
        print("tracing overhead (traced - untraced): " + ", ".join(
            "%s %+.4f" % kv for kv in overhead.items()))
        source = medians(traced, "per_layer")
        for name in OVERHEAD:
            source["overhead." + name] = overhead[name]
        wanted = spec["per_layer"]
    else:
        source, wanted = e2e, spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            fail("metric %s not produced" % m["name"])
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
        print("  %-34s %16.6f %s" % (m["name"], source[m["name"]], m["unit"]))

    correct = all(r["correct"] for r in every)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
