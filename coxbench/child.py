"""One workload process: set up, run timed rounds of operations, report.

Run by run.py as `python3 coxbench/child.py --workload W --seed N
--seconds T --mode setup|run [--trace 1]`.  It prints one JSON
document on stdout: the monotonic time at which the first operation was
about to start and, in run mode, every operation with its input, its
output and its duration, the peak RSS, and with --trace 1 the per-layer
totals.  The program's own stdout and stderr are captured per operation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

import fangen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def shipped_fan(name):
    return fangen.read_fan_file(os.path.join(ROOT, "fans", name + ".fan"))


class Op:
    """One operation: a list of (call, summarise) steps.  Only the calls are
    timed; `summarise` turns a call's return value into what run.py checks
    against the reference, so a step's output can be dropped before the next."""

    def __init__(self, label, record, steps):
        self.label, self.record, self.steps = label, record, steps


# ---------------------------------------------------------------------------
# cold-fans: one `coxcoh cohomology-u FAN --json` per fan, each fan new to the process
# ---------------------------------------------------------------------------

# One round in order.  A name is a shipped fan; (d, steps) is P^d after `steps`
# stellar subdivisions, of a fixed shape per position: P^2+3 has 6 maximal
# cones (the literal matrix route), P^4+3 and P^5+2 have 14 (the nerve route).
# Four operations are cheaper than P^2+3 and four dearer, so the median falls
# in the middle of the 16 P^2+3; they are spread over the round so that the
# median samples the machine at many moments.  With eight P^2+3 the median
# moved by 13% (IQR over median) from run to run.
COLD_SPECIAL = ["p1", "p2", "blowup_p112236", "p112", "blowup_p11336", (4, 3), "pseudo-fan", (5, 2)]
COLD_ROUND = [op for special in COLD_SPECIAL for op in [special] + [(2, 3)] * 2]


class ColdFans:
    round_s = 26.0

    def __init__(self, seed):
        from coxcoh import cli

        self.cli = cli
        self.seed = seed
        self.workdir = os.path.join(ROOT, "coxbench", "work", "cold-%d" % os.getpid())
        os.makedirs(self.workdir, exist_ok=True)
        # warm-up on a fan outside the round, so that the first timed call
        # does not also pay for the program's first-use costs
        warm = self._op("warm-up", *fangen.fixed_shape(2, 1, "cold-warm-up"), "table", "w")
        warm.steps[0][0]()

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _write(self, label, rays, cones):
        path = os.path.join(self.workdir, label + ".fan")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(fangen.fan_text(rays, cones, label))
        return path

    def round_ops(self, r):
        ops = []
        for i, item in enumerate(COLD_ROUND):
            expect = "table"
            if item == "pseudo-fan":
                # seed-independent; later rounds rotate its labels
                label, expect = item, "exit1"
                rays, cones = fangen.PSEUDO_FAN
                n = len(rays)
                rays = rays[r % n:] + rays[:r % n]
                cones = tuple(tuple(sorted((j - 1 - r) % n + 1 for j in c)) for c in cones)
            elif isinstance(item, str):
                label = item
                rays, cones = shipped_fan(item)
                if r:  # a shipped fan seen in an earlier round comes back relabelled
                    rays, cones = fangen.relabel(rays, cones, fangen.seeded_rng(self.seed, "cold", r, i))
            else:
                label = "P%d+%d" % item
                shape = fangen.fixed_shape(*item, "cold", i)
                rays, cones = fangen.relabel(*shape, fangen.seeded_rng(self.seed, "cold", r, i))
            ops.append(self._op(label, rays, cones, expect, "r%d-%d" % (r, i)))
        return ops

    def _op(self, label, rays, cones, expect, tag):
        path = self._write("%s-%s" % (label, tag), rays, cones)
        argv = ["cohomology-u", path, "--json"]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
            return rc, out.getvalue()

        def summarise(value):
            rc, text = value
            patterns = []
            if rc == 0:
                patterns = [[e["p"], e["negative"], e["mult"]] for e in json.loads(text)["patterns"]]
            return {"rc": rc, "patterns": patterns}

        record = {"rays": rays, "cones": cones, "expect": expect}
        return Op(label, record, [(call, summarise)])


# ---------------------------------------------------------------------------
# degree-queries: a library session of per-degree tables on one prepared fan
# ---------------------------------------------------------------------------

SMALL_FANO8 = 18
# Exponent vectors on fano8 whose classes have h^0 in the thousands; fixed, so
# that peak RSS measures the same materialised point sets in every run.
LARGE_FANO8 = [(1, 1, 2, 1, 2, 1, 2, 1), (2, 1, 1, 1, 2, 1, 1, 2)]


class DegreeQueries:
    round_s = 8.5

    def __init__(self, seed):
        from coxcoh import Fan, cohomology_of_U, cohomology_table, fan_grading

        self.cohomology_table = cohomology_table
        self.seed = seed
        rays, cones = shipped_fan("blowup_p112236")
        self.fano8 = Fan(len(rays[0]), rays, cones)
        cohomology_of_U(self.fano8)  # validates the fan and builds the pattern table
        self.grading = fan_grading(self.fano8)

    def close(self):
        pass

    def round_ops(self, r):
        rng = fangen.seeded_rng(self.seed, "degree", r, "fano8")
        small = [tuple(rng.randint(-1, 1) for _ in range(self.fano8.n_rays))
                 for _ in range(SMALL_FANO8)]
        return ([self._op("fano8", self.fano8, a) for a in small]
                + [self._op("fano8-large", self.fano8, a) for a in LARGE_FANO8])

    def _op(self, label, fan, a):
        alpha = self.grading.degree_of(list(a))

        def call():
            return self.cohomology_table(fan, [alpha])

        def summarise(report):
            return {"dims": [e["dim"] for e in report.per_degree]}

        record = {"rays": fan.rays, "cones": fan.max_cones, "a": a}
        return Op(label, record, [(call, summarise)])


# ---------------------------------------------------------------------------
# ext-oracle: the Groebner Ext cross-check, every p of one (fan, m, r)
# ---------------------------------------------------------------------------

# (d, steps, m, box radius); None for d means the shipped fano7 fan
EXT_SPECS = [
    (3, 3, 1, 1), (4, 2, 1, 1), (2, 5, 1, 1), (3, 2, 2, 1), (3, 2, 2, 2),
    (2, 3, 2, 2), (4, 1, 2, 1), (4, 1, 2, 2), (2, 4, 2, 1), (None, None, 1, 1),
]


class ExtOracle:
    round_s = 8.5

    def __init__(self, seed):
        from coxcoh import Fan, ext_limit_oracle

        self.Fan, self.ext_limit_oracle = Fan, ext_limit_oracle
        self.seed = seed
        self.ideals = set()  # no two operations may share an irrelevant ideal
        # warm-up on P^2, whose ideal no operation has, so that the first
        # timed call does not also pay for the program's first-use costs
        p2 = Fan(2, *shipped_fan("p2"))
        for p in range(4):
            ext_limit_oracle(p2, 1, p, box_radius=1)

    def close(self):
        pass

    def _fresh(self, labels, make):
        rng = fangen.seeded_rng(self.seed, "ext", *labels)
        while True:
            rays, cones = make(rng)
            ideal = frozenset(frozenset(c) for c in cones)
            if ideal not in self.ideals:
                self.ideals.add(ideal)
                return rays, cones

    def round_ops(self, r):
        fano7 = shipped_fan("blowup_p11336")
        ops = []
        for d, steps, m, radius in EXT_SPECS:
            if d is None:
                label = "fano7"
                # fano7 as shipped, then relabelled in later rounds
                make = lambda rng: fangen.relabel(*fano7, rng) if r else fano7
            else:
                label = "P%d+%d" % (d, steps)
                shape = fangen.fixed_shape(d, steps, "ext", len(ops))
                make = lambda rng, shape=shape: fangen.relabel(*shape, rng)
            rays, cones = self._fresh((r, len(ops)), make)
            ops.append(self._op("%s m=%d r=%d" % (label, m, radius), rays, cones, m, radius))
        return ops

    def _op(self, label, rays, cones, m, radius):
        fan = self.Fan(len(rays[0]), rays, cones)
        n = len(rays)

        def summarise(hf):
            # the reference value depends on the sign pattern of the degree
            # only, so the table is reduced to {negative-support mask: value}
            by_mask, ok = {}, len(hf) == (2 * radius + 1) ** n
            for degree, value in hf.items():
                ok = ok and len(degree) == n and all(abs(x) <= radius for x in degree)
                mask = sum(1 << i for i, x in enumerate(degree) if x < 0)
                ok = ok and by_mask.setdefault(mask, value) == value
            return {"box_ok": ok, "values": sorted(by_mask.items())}

        record = {"rays": rays, "cones": cones, "m": m, "radius": radius}
        steps = [(lambda p=p: self.ext_limit_oracle(fan, m, p, box_radius=radius), summarise)
                 for p in range(n + 1)]
        return Op(label, record, steps)


WORKLOADS = {"cold-fans": ColdFans, "degree-queries": DegreeQueries, "ext-oracle": ExtOracle}


def rounds_for(workload, seconds):
    """Whole rounds only, as many as fill `seconds` at the round length
    measured when the workload was defined.  The count depends on nothing
    else, so every run with the same arguments does the same operations."""
    return max(1, round(seconds / workload.round_s))


def run_op(op):
    entry = {"label": op.label, "input": op.record, "seconds": 0.0, "output": []}
    for call, summarise in op.steps:
        t0 = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # a failing operation is reported, not fatal
            entry["seconds"] += time.perf_counter() - t0
            entry["error"] = "%s: %s" % (type(exc).__name__, exc)
            break
        entry["seconds"] += time.perf_counter() - t0
        entry["output"].append(summarise(value))
        del value
    return entry


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run"], required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    try:
        first_round = workload.round_ops(0)  # inputs of the first round are set-up work
        doc = {"first_op_at": time.monotonic()}
        if args.mode == "run":
            rounds = rounds_for(workload, args.seconds)
            ops = []
            for r in range(rounds):
                for op in first_round if r == 0 else workload.round_ops(r):
                    ops.append(dict(run_op(op), round=r))
            doc.update(ops=ops, rounds=rounds,
                       peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            if tracer is not None:
                doc["layers"] = tracer.metrics()
    finally:
        workload.close()
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
