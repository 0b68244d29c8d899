#!/usr/bin/env python3
"""Pipeline benchmark for coxcoh.

    python3 coxbench/run.py --workload cold-fans|degree-queries|ext-oracle \
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`, the shipped fans are read from `fans/`).  Each workload runs in
child processes (child.py), single-threaded and closed-loop: one client,
each operation starts when the previous one ends.  This process never
imports the program; it checks every answer against reference.py, which
works from the fan's rays and cones alone.

--trace 0 prints the end-to-end metrics.  Set-up time is the median over
fresh processes (SETUPS): all but the last only set up, the last then
runs the operations.  --trace 1 runs the operations of half as many
seconds twice in fresh processes with the same seed and rounds, once plain
and once with every traced function wrapped (layertrace.py), and prints
the per-layer self times and counts with the tracing overhead.  The last
line of stdout is the result as one JSON object; a fuller record goes to
coxbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402

WORKLOADS = ("cold-fans", "degree-queries", "ext-oracle")
# set-ups per --trace 0 run, the last one in the process that runs the
# operations; more where a set-up is a fraction of a second and noisy
SETUPS = {"cold-fans": 5, "degree-queries": 3, "ext-oracle": 5}
RUN_LIMIT_S = 170  # all child processes of one run end within this


class BenchError(RuntimeError):
    pass


def run_child(deadline, workload, seed, seconds, mode, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--trace", str(trace)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    # subprocess.run kills and reaps the child if it overruns
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise BenchError("%s child for %s exited with %d" % (mode, workload, proc.returncode))
    doc = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    doc["setup_s"] = doc["first_op_at"] - spawned
    return doc


class Checker:
    """Checks outputs against the reference.  One FanComplex per fan, so the
    cohomology of each induced subcomplex is computed once per run."""

    def __init__(self, workload):
        self.check_output = getattr(self, workload.replace("-", "_"))
        self.complexes = {}

    def complex(self, inp):
        key = (tuple(map(tuple, inp["rays"])), tuple(map(tuple, inp["cones"])))
        if key not in self.complexes:
            self.complexes[key] = reference.FanComplex(len(inp["rays"]), inp["cones"])
        return self.complexes[key]

    def ok(self, op):
        return "error" not in op and self.check_output(op["input"], op["output"])

    def cold_fans(self, inp, out):
        (out,) = out
        if inp["expect"] == "exit1":
            return out["rc"] == 1
        got = {(p, tuple(neg)): mult for p, neg, mult in out["patterns"]}
        return out["rc"] == 0 and got == reference.pattern_table(self.complex(inp))

    def degree_queries(self, inp, out):
        (out,) = out
        return out["dims"] == reference.sheaf_cohomology(self.complex(inp), inp["rays"], inp["a"])

    def ext_oracle(self, inp, tables):
        cx = self.complex(inp)
        n = len(inp["rays"])
        return len(tables) == n + 1 and all(
            t["box_ok"] and len(t["values"]) == 1 << n
            and all(v == reference.local_cohomology(cx, p, mask) for mask, v in t["values"])
            for p, t in enumerate(tables))


def check(workload, ops):
    """(failed, correct): correct unless an operation other than the
    pseudo-fan, whose failure is a known fault of validate_fan, failed."""
    checker = Checker(workload)
    for op in ops:
        op["ok"] = checker.ok(op)
    failed = [op for op in ops if not op["ok"]]
    return len(failed), all(op["input"].get("expect") == "exit1" for op in failed)


def per_layer(plain, traced):
    busy = [sum(op["seconds"] for op in r["ops"]) for r in (plain, traced)]
    overhead = {"value": 100.0 * (busy[1] / busy[0] - 1), "unit": "%"}
    return dict(traced["layers"], **{"trace.overhead_pct": overhead})


def end_to_end(setups, run):
    ops = run["ops"]
    busy = sum(op["seconds"] for op in ops)
    done = sum(op["ok"] for op in ops)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": done / busy, "unit": "ops/s"},
        "op_s.p50": {"value": statistics.median(op["seconds"] for op in ops), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for needed in ("src/coxcoh/__init__.py", "fans/blowup_p11336.fan"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print("error: %s not found; run from a coxcoh checkout" % needed, file=sys.stderr)
            return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    child = (deadline, args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            # half the seconds in each process, so the pair takes about as long as a plain run
            half = (deadline, args.workload, args.seed, args.seconds / 2)
            runs = [run_child(*half, "run"), run_child(*half, "run", trace=1)]
        else:
            setups = [run_child(*child, "setup")["setup_s"] for _ in range(SETUPS[args.workload] - 1)]
            runs = [run_child(*child, "run")]
            setups.append(runs[0]["setup_s"])
        ops = [op for r in runs for op in r["ops"]]
        failed, correct = check(args.workload, ops)
        metrics = per_layer(*runs) if args.trace else end_to_end(setups, runs[0])
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    outdir = os.path.join(HERE, "results")
    os.makedirs(outdir, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  rounds=[r["rounds"] for r in runs],
                  ops=[{k: op[k] for k in ("label", "round", "seconds", "ok")} for op in ops])
    if not args.trace:
        record["setup_runs_s"] = setups
    path = os.path.join(outdir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
