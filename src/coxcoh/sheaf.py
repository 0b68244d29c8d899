"""Sheaf cohomology of twisting sheaves assembled from the limit pattern table.

The Cech cohomology of the punctured affine cone in positive degrees is the
limit cohomology one level up; global sections additionally carry the whole
coordinate ring.  Pushing forward along the quotient projection turns the
graded pieces into the cohomology of the twisting sheaves downstairs, so a
per-degree dimension is a count of lattice points in a sign-pattern cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fan import FanError
from .grading import SignPattern, UnboundedRegionError, grading_group
from .localcoh import pattern_table
from .ring import component_dimension


@dataclass
class CohomologyReport:
    fan_summary: dict
    pattern_table: list  # SignPatternCohomology entries with nonzero dims
    closed_forms: dict  # sheaf index p -> list of ("S" | sorted pattern tuple, multiplicity)
    basis_note: str
    notes: list = field(default_factory=list)
    per_degree: list = None  # optional [{"alpha": ..., "p": ..., "dim": ...}]
    exact = True  # every route computes exact ranks and counts

    def cones_at(self, p):
        """(pattern tuple, multiplicity) cone summands of H^p, p >= 1."""
        return [(pat, mult) for pat, mult in self.closed_forms.get(p, ()) if pat != "S"]


def fan_grading(fan):
    """The grading group of the fan's coordinate ring, kept on the fan (it
    depends only on the rays, so validation does not gate it)."""
    grading = fan.cache.get("grading")
    if grading is None:
        grading = fan.cache["grading"] = grading_group(fan)
    return grading


ERRATUM_NOTE = (
    "closed forms: each positive-degree cohomology group is exactly the direct "
    "sum of the listed strictly-signed monomial cones; appending any "
    "coordinate-subring summand (a polynomial ring in the complementary "
    "variables) would add classes in degree zero and contradict the vanishing "
    "h^p(O) = 0 for p > 0 that is verified below"
)


def cohomology_of_U(fan):
    """Cohomology of the punctured cone over the toric variety, reported as
    sign-pattern cones with multiplicities (no per-degree table).

    Raises FanError when the fan fails validation or when h^p(O) is nonzero
    or unbounded for some p > 0, which no complete fan allows.  The report
    is kept on the fan only once both checks have passed."""
    cached = fan.cache.get("report")
    if cached is not None:
        return cached
    n = fan.n_rays
    table = pattern_table(fan)  # validates the fan first
    closed = {0: [("S", 1)]}
    for entry in table:
        for level, mult in sorted(entry.dims.items()):
            # Cech index is one below the limit-complex level
            p = level - 1
            closed.setdefault(p, []).append((entry.pattern.as_sorted(), mult))
    for p in closed:
        closed[p] = sorted(closed[p], key=lambda it: ((), ()) if it[0] == "S" else (it[0], ()))
    grading = fan_grading(fan)
    notes = [ERRATUM_NOTE]
    degs = grading.variable_degrees()
    basis_note = (
        "degrees are written in the Smith-normal-form basis of the grading "
        "group; per-variable degrees: "
        + "; ".join(
            "deg x%d = %s%s" % (i + 1, d.free, d.torsion if d.torsion else "")
            for i, d in enumerate(degs)
        )
    )
    report = CohomologyReport(
        fan_summary=fan.summary(),
        pattern_table=table,
        closed_forms=closed,
        basis_note=basis_note,
        notes=notes,
    )
    # degree-zero consistency: all higher cohomology of the structure sheaf
    # must vanish
    zero = grading.zero_class()
    bad = []
    for p in range(1, n + 1):
        try:
            d = sheaf_cohomology_dim(fan, zero, p, report=report)
        except UnboundedRegionError:
            bad.append((p, "unbounded"))
            continue
        if d:
            bad.append((p, d))
    if bad:
        raise FanError(
            "degree-0 consistency check failed: h^p(O) is nonzero or unbounded at "
            "(p, h^p) = %s, which cannot happen on a complete fan" % (bad,)
        )
    notes.append("degree-0 consistency check passed: h^p(O) = 0 for p = 1..%d" % n)
    fan.cache["report"] = report
    return report


def sheaf_cohomology_dim(fan, alpha, p, report=None):
    """Dimension of H^p of the twisting sheaf of class alpha."""
    n = fan.n_rays
    if not 0 <= p <= n:
        raise ValueError("cohomological index %d out of range 0..%d" % (p, n))
    if report is None:
        report = cohomology_of_U(fan)
    grading = fan_grading(fan)
    total = 0
    if p == 0:
        total += component_dimension(grading, alpha)
    for pat, mult in report.cones_at(p):
        total += mult * grading.count_degrees(alpha, SignPattern(pat))
    return total


def cohomology_table(fan, degrees, ps=None):
    """Batch per-degree dimensions; returns a CohomologyReport with the
    per_degree table filled, deterministic ordering (degrees as given, then
    ascending p)."""
    base = cohomology_of_U(fan)
    n = fan.n_rays
    if ps is None:
        ps = list(range(0, n + 1))
    per = []
    for alpha in degrees:
        for p in ps:
            dim = sheaf_cohomology_dim(fan, alpha, p, report=base)
            per.append(
                {"alpha": list(alpha.free) + list(alpha.torsion), "p": p, "dim": dim}
            )
    return CohomologyReport(
        fan_summary=base.fan_summary,
        pattern_table=base.pattern_table,
        closed_forms=base.closed_forms,
        basis_note=base.basis_note,
        notes=list(base.notes),
        per_degree=per,
    )


def report_to_json(report):
    """JSON document per the published schema; patterns carry the sheaf index."""
    patterns = []
    for p in sorted(report.closed_forms):
        for pat, mult in report.closed_forms[p]:
            if pat == "S":
                continue
            patterns.append({"negative": list(pat), "p": p, "mult": mult})
    patterns.sort(key=lambda e: (e["p"], e["negative"]))
    doc = {
        "fan": report.fan_summary,
        "patterns": patterns,
        "per_degree": report.per_degree if report.per_degree is not None else [],
        "basis_note": report.basis_note,
        "notes": list(report.notes),
        "exact": report.exact,
    }
    return doc
