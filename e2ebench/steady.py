#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs must agree.

  python3 e2ebench/steady.py [--seeds 10] [--sets 2] [--seconds 30]
                             [--workloads fig06-star,openloop-aifo]

Each set runs every workload once per seed (set i uses seeds
i*N+1 .. i*N+N, so no two sets share a seed) with --trace 0. For every
end-to-end metric of BENCHMARK.json it reports, per workload:

  spread   (Q3 - Q1) / median over the set's runs, quartiles as
           statistics.quantiles(values, n=4) gives them; must stay within
           the metric's bound, and below a third of it to count as steady;
  drift    how much worse the last set's median is than the first's, as a
           share of the first; must stay within the bound;
  failed   the share failed/attempted, which must be identical in every run.

Exit code 0 when every check holds. Runs are sequential: concurrent runs
would measure each other.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, run_seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                         timeout=max(180, 4 * run_seconds))
    if res.returncode != 0:
        sys.exit("steady: run failed (%d): %s" % (res.returncode, " ".join(cmd)))
    return json.loads(res.stdout.strip().splitlines()[-1])


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse_by(first, last, better):
    """Share by which `last` is worse than `first` (negative: better)."""
    if better == "lower":
        return (last - first) / first
    return (first - last) / first


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seconds", type=float)
    p.add_argument("--workloads")
    a = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    workloads = (a.workloads.split(",") if a.workloads
                 else [w["name"] for w in bench["workloads"]])

    ok = True
    for workload in workloads:
        sets = []
        for i in range(a.sets):
            runs = []
            for seed in range(i * a.seeds + 1, (i + 1) * a.seeds + 1):
                r = run_once(workload, seed, seconds, bench["run_seconds"])
                runs.append(r)
                print("%s seed %d: correct=%s failed=%d/%d %s" % (
                    workload, seed, r["correct"], r["failed"], r["attempted"],
                    " ".join("%s=%.5g" % (k, v["value"])
                             for k, v in r["metrics"].items())), flush=True)
            sets.append(runs)

        correct = all(r["correct"] for runs in sets for r in runs)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print("== %s: correct in every run: %s; failed share(s): %s" % (
            workload, correct, sorted(shares)))
        ok = ok and correct and len(shares) == 1
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for i, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                s = spread(values)
                meds.append(statistics.median(values))
                within = s <= bound
                ok = ok and within
                print("  %-12s set %d median %-12.6g spread %.3f  bound %.2f"
                      "  %s" % (name, i + 1, meds[-1], s, bound,
                                "steady" if s <= bound / 3 else
                                "within" if within else "TOO WIDE"))
            drift = worse_by(meds[0], meds[-1], m["better"])
            ok = ok and drift <= bound
            print("  %-12s drift %+.3f %s" % (
                name, drift, "ok" if drift <= bound else "TOO FAR"))
    print("steady: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
