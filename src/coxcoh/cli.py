"""Command-line frontend.

Exit codes: 0 success, 1 domain error (unreadable or invalid fan, unbounded
degree region, oversized computation), 2 usage error.  JSON mode emits
exactly one document on stdout; all error text goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fan import FanError, irrelevant_generators, parse_fan, validate_fan
from .grading import GradingError, UnboundedRegionError
from .homalg import HomalgError
from .koszul import generates_unit_ideal, is_regular_sequence, self_duality_check
from .localcoh import PatternComplexError, ext_limit_oracle
from .ring import RingError
from .sheaf import cohomology_of_U, cohomology_table, fan_grading, report_to_json

DOMAIN_ERRORS = (
    FanError,
    GradingError,
    UnboundedRegionError,
    HomalgError,
    RingError,
    PatternComplexError,
    OSError,
    ValueError,
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coxcoh",
        description="Exact cohomology of twisting sheaves on complete simplicial toric varieties",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("fan", help="path to a fan file")
        p.add_argument("--json", action="store_true", help="emit one JSON document on stdout")

    p = sub.add_parser("validate", help="validate a fan file")
    add_common(p)

    p = sub.add_parser("irrelevant", help="minimal monomial basis of the irrelevant ideal")
    add_common(p)

    p = sub.add_parser("grading", help="grading group and per-variable degree table")
    add_common(p)

    p = sub.add_parser("cohomology-u", help="cohomology cones of the punctured affine cone")
    add_common(p)

    p = sub.add_parser("sheaf", help="twisting sheaf cohomology dimensions per degree")
    add_common(p)
    p.add_argument(
        "--degree",
        required=True,
        help="degree classes: comma-separated integers, classes separated by ';' "
        "(write --degree=-3;0 when the value starts with a dash)",
    )
    p.add_argument("--p", type=int, default=None, help="single cohomological index")

    p = sub.add_parser("ext-oracle", help="finite-stage Ext oracle Hilbert table")
    add_common(p)
    p.add_argument("--m", type=int, default=1, help="power stage (bracket power)")
    p.add_argument("--p", type=int, required=True, help="cohomological index")
    p.add_argument("--box-radius", type=int, default=2)

    p = sub.add_parser("koszul-check", help="Koszul homology diagnostics for the generator sequence")
    add_common(p)
    p.add_argument("--p", type=int, default=None, help="check a single homological level")
    p.add_argument("--box-radius", type=int, default=2)
    return parser


def _read_fan(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FanError("cannot read fan file %r: %s" % (path, exc.strerror or exc)) from exc
    return parse_fan(text)


def _parse_degrees(text, grading):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            vals = [int(tok) for tok in chunk.split(",")]
        except ValueError:
            raise GradingError("cannot parse degree class %r" % chunk) from None
        fr, tr = grading.free_rank, len(grading.torsion)
        if len(vals) == fr:
            out.append(grading.class_from_free(vals))
        elif len(vals) == fr + tr:
            out.append(grading.class_from_free(vals[:fr], vals[fr:]))
        else:
            raise GradingError(
                "degree class %r has %d entries, expected %d (free) or %d (free+torsion)"
                % (chunk, len(vals), fr, fr + tr)
            )
    if not out:
        raise GradingError("no degree classes given")
    return out


def _emit(doc, args, text_renderer):
    if args.json:
        sys.stdout.write(json.dumps(doc, sort_keys=False) + "\n")
    else:
        text_renderer(doc)


def _cmd_validate(args):
    fan = _read_fan(args.fan)
    rep = validate_fan(fan)
    doc = {
        "fan": fan.summary(),
        "simplicial": rep.simplicial,
        "complete": rep.complete,
        "wall_condition": rep.wall_condition,
        "messages": list(rep.messages),
    }

    def render(doc):
        print("fan: dim %(dim)d, %(n_rays)d rays, %(n_max_cones)d max cones" % doc["fan"])
        print("simplicial:     %s" % doc["simplicial"])
        print("wall condition: %s" % doc["wall_condition"])
        print("complete:       %s" % doc["complete"])
        for msg in doc["messages"]:
            print("  - %s" % msg)

    _emit(doc, args, render)
    return 0


def _cmd_irrelevant(args):
    fan = _read_fan(args.fan)
    gens = irrelevant_generators(fan)
    doc = {
        "fan": fan.summary(),
        "generators": [list(g.support) for g in gens],
        "monomials": [g.as_string() for g in gens],
    }

    def render(doc):
        for mono in doc["monomials"]:
            print(mono)

    _emit(doc, args, render)
    return 0


def _cmd_grading(args):
    fan = _read_fan(args.fan)
    grading = fan_grading(fan)
    degs = grading.variable_degrees()
    doc = {
        "fan": fan.summary(),
        "free_rank": grading.free_rank,
        "torsion": list(grading.torsion),
        "degrees": [
            {"variable": i + 1, "free": list(d.free), "torsion": list(d.torsion)}
            for i, d in enumerate(degs)
        ],
    }

    def render(doc):
        print("free rank: %d" % doc["free_rank"])
        print("torsion:   %s" % (doc["torsion"] or "none"))
        for row in doc["degrees"]:
            tor = (" torsion %s" % tuple(row["torsion"])) if row["torsion"] else ""
            print("deg x%-2d = %s%s" % (row["variable"], tuple(row["free"]), tor))

    _emit(doc, args, render)
    return 0


def _cmd_cohomology_u(args):
    fan = _read_fan(args.fan)
    report = cohomology_of_U(fan)
    doc = report_to_json(report)

    def render(doc):
        print("H^0 contains the full coordinate ring S")
        for entry in doc["patterns"]:
            print(
                "H^%d: cone with negative support {%s}, multiplicity %d"
                % (entry["p"], ", ".join(map(str, entry["negative"])), entry["mult"])
            )
        for note in doc["notes"]:
            print("note: %s" % note)

    _emit(doc, args, render)
    return 0


def _cmd_sheaf(args):
    fan = _read_fan(args.fan)
    grading = fan_grading(fan)
    degrees = _parse_degrees(args.degree, grading)
    ps = None
    if args.p is not None:
        if not 0 <= args.p <= fan.n_rays:
            raise GradingError("p out of range 0..%d" % fan.n_rays)
        ps = [args.p]
    report = cohomology_table(fan, degrees, ps=ps)
    doc = report_to_json(report)

    def render(doc):
        print("alpha -> p -> dim")
        for entry in doc["per_degree"]:
            print("%s  p=%d  dim=%d" % (tuple(entry["alpha"]), entry["p"], entry["dim"]))

    _emit(doc, args, render)
    return 0


def _cmd_ext_oracle(args):
    fan = _read_fan(args.fan)
    hf = ext_limit_oracle(fan, args.m, args.p, box_radius=args.box_radius)
    nonzero = sorted((list(k), v) for k, v in hf.items() if v)
    doc = {
        "fan": fan.summary(),
        "m": args.m,
        "p": args.p,
        "box_radius": args.box_radius,
        "nonzero_only": True,
        "hilbert": [{"degree": k, "dim": v} for k, v in nonzero],
    }

    def render(doc):
        if not doc["hilbert"]:
            print("identically zero on the box (radius %d)" % doc["box_radius"])
        for entry in doc["hilbert"]:
            print("degree %s  dim %d" % (tuple(entry["degree"]), entry["dim"]))

    _emit(doc, args, render)
    return 0


def _cmd_koszul_check(args):
    fan = _read_fan(args.fan)
    gens = irrelevant_generators(fan)
    n = fan.n_rays
    seq = [g.as_poly(n) for g in gens]
    t = len(seq)
    if args.p is None and t > 6:
        raise HomalgError(
            "sequence has %d elements; pass --p to check a single level" % t
        )
    levels = [args.p] if args.p is not None else list(range(t + 1))
    for p in levels:
        if not 0 <= p <= t:
            raise HomalgError("level %d out of range 0..%d" % (p, t))
    from .homalg import PresentedModule

    module = PresentedModule.free(n)
    checks = [
        {"p": p, "self_dual": bool(self_duality_check(seq, module, p, args.box_radius))}
        for p in levels
    ]
    doc = {
        "fan": fan.summary(),
        "sequence": [g.as_string() for g in gens],
        "unit_ideal": bool(generates_unit_ideal(seq)),
        "checks": checks,
    }
    if t <= 4:
        doc["regular"] = bool(is_regular_sequence(seq, module))

    def render(doc):
        print("sequence: %s" % " ".join(doc["sequence"]))
        for c in doc["checks"]:
            print("H_%d vs H^(d-%d): %s" % (c["p"], c["p"], "equal" if c["self_dual"] else "DIFFER"))
        if "regular" in doc:
            print("regular sequence: %s" % doc["regular"])

    _emit(doc, args, render)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "irrelevant": _cmd_irrelevant,
    "grading": _cmd_grading,
    "cohomology-u": _cmd_cohomology_u,
    "sheaf": _cmd_sheaf,
    "ext-oracle": _cmd_ext_oracle,
    "koszul-check": _cmd_koszul_check,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except DOMAIN_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
