#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of a checkout:

  python3 e2ebench/run.py --workload fig06-star --seed 1 --seconds 30 --trace 0
  python3 e2ebench/run.py --report [--seed 1] [--seconds 30]
  python3 e2ebench/run.py --smoke [--seed 1]
  python3 e2ebench/run.py --write-reference [--seeds 20]

The first form runs one workload and prints, as its last line, one JSON object
with "correct", "attempted", "failed" and "metrics" (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). --report runs every workload
both ways and prints every metric by name with its unit. --smoke runs every
output check on reduced workloads plus negative cases that must fail.
--write-reference regenerates reference_digests.json. --seconds defaults to
BENCHMARK.json's run_seconds.

The simulator is compiled from the checkout's sources into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench) before each run;
an up-to-date build costs about a second.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference_digests.json")
WORKLOADS = ["fig06-star", "fig10-leafspine", "openloop-aifo"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "e2ebench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "e2ebench")


def reference_digest(workload, seed):
    try:
        with open(REFERENCE) as f:
            return json.load(f).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Run the benchmark binary; returns its stdout, exits on failure."""
    try:
        res = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(args)))
    if res.returncode != 0:
        sys.stdout.write(res.stdout)
        fail("exit code %d: %s" % (res.returncode, " ".join(args)))
    return res.stdout


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def workload_args(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    digest = reference_digest(workload, seed)
    if digest:
        args += ["--expect-digest", digest]
    return args


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def report(binary, seed, seconds):
    """Every workload, untraced then traced: each metric with its unit."""
    bench = load_benchmark()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = last_json(run_binary(
                binary, workload_args(workload, seed, seconds, trace)))
            ok = ok and result["correct"]
            kind = "per_layer" if trace else "end_to_end"
            print("== %s  %s  correct=%s attempted=%d failed=%d" % (
                workload, kind, result["correct"], result["attempted"],
                result["failed"]))
            for m in bench[kind]:
                v = result["metrics"][m["name"]]
                print("  %-30s %16.6g %-8s (%s is better)" % (
                    m["name"], v["value"], v["unit"], m["better"]))
    return 0 if ok else 1


def write_reference(binary, seeds):
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for seed in range(1, seeds + 1):
            out = run_binary(binary, ["--digest-only", "--workload", workload,
                                      "--seed", str(seed)])
            digest = out.split()[-1]
            digests[workload][str(seed)] = digest
            print(workload, seed, digest, flush=True)
    with open(REFERENCE, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--report", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--seeds", type=int, default=20,
                   help="seeds 1..N for --write-reference")
    a = p.parse_args()
    if a.seconds is None:
        a.seconds = load_benchmark()["run_seconds"]

    binary = build()
    if a.smoke:
        out = run_binary(binary, ["--smoke", "--seed", str(a.seed)])
        sys.stdout.write(out)
        return 0
    if a.report:
        return report(binary, a.seed, a.seconds)
    if a.write_reference:
        return write_reference(binary, a.seeds)
    if not a.workload:
        fail("--workload is required")
    out = run_binary(binary, workload_args(a.workload, a.seed, a.seconds,
                                           a.trace))
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
