"""Sheaf cohomology of twisting sheaves assembled from the limit pattern table.

The Cech cohomology of the punctured affine cone in positive degrees is the
limit cohomology one level up; global sections additionally carry the whole
coordinate ring.  Pushing forward along the quotient projection turns the
graded pieces into the cohomology of the twisting sheaves downstairs, so a
per-degree dimension is a count of lattice points in a sign-pattern cone.

Every report is checked against h^p(O) = 0 for p > 0 (CLS Thm 9.1.3)
without counting lattice points: at degree 0 a pattern's region is empty
unless it is unbounded, and it is unbounded exactly when a cocircuit of
the rays (the signs of a hyperplane normal spanned by rays) agrees with
the pattern.  `degree0_unbounded` holds the proof; `grading._Fibration`,
which counts every other degree, is its oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import gcd
from operator import mul

import numpy as np

from .fan import FanError
from .grading import grading_group, ray_indices
from .localcoh import pattern_table
from .ring import component_dimension


@dataclass
class CohomologyReport:
    """H^p of the punctured cone: the whole coordinate ring for p = 0, and
    for p >= 1 the sum of the sign-pattern cones in cones[p], a pair of
    lists: the pattern masks (bit i-1 for ray i) in the JSON's order, and
    their multiplicities.  The keys p ascend."""

    fan_summary: dict
    cones: dict  # p -> (masks, multiplicities), only where H^p has cones
    basis_note: str
    notes: list = field(default_factory=list)
    per_degree: list = None  # optional [{"alpha": ..., "p": ..., "dim": ...}]
    exact = True  # every route computes exact ranks and counts

    def cones_at(self, p):
        """(pattern tuple, multiplicity) cone summands of H^p, p >= 1."""
        masks, mults = self.cones.get(p, ((), ()))
        return [(ray_indices(mask), mult) for mask, mult in zip(masks, mults)]


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
    or unbounded for some p > 0, which no complete fan allows; the second
    check flags the table's patterns with `degree0_unbounded`.  The report
    is kept on the fan only once both checks have passed."""
    cached = fan.cache.get("report")
    if cached is not None:
        return cached
    n = fan.n_rays
    table = pattern_table(fan)  # validates the fan first
    cones = {}
    for k, row in enumerate(table.dims):
        # Cech index p = k + 1 is one below the limit-complex level k + 2
        nonzero = np.flatnonzero(row)
        if len(nonzero):
            cones[k + 1] = (table.masks[nonzero].tolist(), row[nonzero].tolist())
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
        cones=cones,
        basis_note=basis_note,
        notes=notes,
    )
    # degree-zero consistency: all higher cohomology of the structure sheaf
    # must vanish; see degree0_unbounded
    flagged = degree0_unbounded(fan.rays, table.masks)
    bad = (1 + np.flatnonzero(table.dims[:, flagged].any(axis=1))).tolist()
    if bad:
        raise FanError(
            "degree-0 consistency check failed: h^p(O) is nonzero or unbounded at "
            "(p, h^p) = %s, which cannot happen on a complete fan"
            % ([(p, "unbounded") for p in bad],)
        )
    notes.append("degree-0 consistency check passed: h^p(O) = 0 for p = 1..%d" % n)
    fan.cache["report"] = report
    return report


def _hyperplane_normals(rays):
    """The primitive normal of every hyperplane spanned by rays, one sign
    per line: the lines orthogonal to the rank-(d-1) subsets of rays.

    A depth-first walk over subsets in index order keeps an integer basis
    b_1..b_k of the orthogonal complement of the subset's span.  A ray u
    joins fraction-free: with c_j = <b_j, u> and a pivot c_p != 0, the
    vectors c_p b_j - c_j b_p (j != p), each divided by the gcd of its
    entries, span the complement of the larger span.  A ray already in the
    span (every c_j = 0) is skipped; at rank d-1 one vector is left."""
    n, d = len(rays), len(rays[0])
    normals = set()

    def extend(start, basis):
        if len(basis) == 1:
            m = basis[0]
            if next(x for x in m if x) < 0:
                m = [-x for x in m]
            normals.add(tuple(m))
            return
        for j in range(start, n):
            pairings = [sum(map(mul, b, rays[j])) for b in basis]
            p = next((k for k, c in enumerate(pairings) if c), None)
            if p is None:
                continue
            cp, bp = pairings[p], basis[p]
            rest = []
            for k, (b, c) in enumerate(zip(basis, pairings)):
                if k != p:
                    v = [cp * x - c * y for x, y in zip(b, bp)]
                    g = gcd(*v)
                    rest.append([x // g for x in v])
            extend(j + 1, rest)

    extend(0, [[int(i == j) for j in range(d)] for i in range(d)])
    return normals


# entries times hyperplanes compared at once, to bound the temporaries
_FLAG_CHUNK = 1 << 20


def degree0_unbounded(rays, masks):
    """For each pattern J, given as a bitmask (bit i-1 for ray i), whether
    its region at degree 0 is unbounded; the rays must span R^d.

    Proof that this decides h^p(O) = 0 for p > 0.  At degree 0 the region of
    a nonempty pattern J is {m : <m,u_i> <= -1 on J, >= 0 off J} in the
    lattice M.  It is closed under m -> 2m and excludes 0, so it is empty
    whenever it is bounded: then J adds nothing to any h^p(O).  Its
    recession cone C_J = {m : <m,u_i> <= 0 on J, >= 0 off J} is the cone
    `grading._Fibration.bounded` tests, in the coordinates of the grading's
    kernel basis, which are rational coordinates on M.  C_J is pointed,
    since a line in it is orthogonal to every ray and the rays span.  So C_J
    holds a nonzero point exactly when it has an extreme ray: a nonzero m on
    which d-1 independent constraints are tight, that is, a normal of a
    hyperplane spanned by rays.  Such an m, with the sign that lies in C_J,
    is a cocircuit c of the rays' oriented matroid, with
    pos(c) = {i : <m,u_i> > 0} and neg(c) = {i : <m,u_i> < 0}, whose signs
    agree with J: neg(c) is inside J and pos(c) misses J (Bjorner, Las
    Vergnas, Sturmfels, White and Ziegler, *Oriented Matroids*, 3.7).
    Conversely such a cocircuit is a nonzero point of C_J.  Hence J is
    flagged exactly when J & supp(c) = neg(c) for some hyperplane normal c,
    taken with either sign."""
    pos, neg = [], []
    for m in _hyperplane_normals(rays):
        above = below = 0
        for i, u in enumerate(rays):
            s = sum(map(mul, m, u))
            if s > 0:
                above |= 1 << i
            elif s < 0:
                below |= 1 << i
        pos.append(above)
        neg.append(below)
    pos = np.array(pos, dtype=np.int64)
    neg = np.array(neg, dtype=np.int64)
    support = pos | neg
    masks = np.asarray(masks, dtype=np.int64).reshape(-1, 1)
    flagged = np.zeros(len(masks), dtype=bool)
    step = max(1, _FLAG_CHUNK // max(1, len(support)))
    for start in range(0, len(masks), step):
        part = masks[start:start + step] & support
        flagged[start:start + step] = ((part == neg) | (part == pos)).any(axis=1)
    return flagged


def sheaf_cohomology_dim(fan, alpha, p):
    """Dimension of H^p of the twisting sheaf of class alpha; GradingError
    when alpha does not have the shape of the fan's grading."""
    n = fan.n_rays
    if not 0 <= p <= n:
        raise ValueError("cohomological index %d out of range 0..%d" % (p, n))
    masks, mults = cohomology_of_U(fan).cones.get(p, ((), ()))
    grading = fan_grading(fan)
    total = component_dimension(grading, alpha) if p == 0 else 0
    if p and not masks:  # no count reads alpha, so check its shape here
        grading.bind(alpha)
    for mask, mult in zip(masks, mults):
        total += mult * grading.count_degrees(alpha, mask)
    return total


def cohomology_table(fan, degrees, ps=None):
    """Batch per-degree dimensions; returns a CohomologyReport with the
    per_degree table filled, deterministic ordering (degrees as given, then
    ascending p)."""
    base = cohomology_of_U(fan)
    if ps is None:
        ps = range(fan.n_rays + 1)
    per = []
    for alpha in degrees:
        for p in ps:
            dim = sheaf_cohomology_dim(fan, alpha, p)
            per.append(
                {"alpha": list(alpha.free) + list(alpha.torsion), "p": p, "dim": dim}
            )
    return replace(base, notes=list(base.notes), per_degree=per)


def report_to_json(report):
    """JSON document per the published schema; patterns carry the sheaf index."""
    patterns = [
        {"negative": list(pat), "p": p, "mult": mult}
        for p in report.cones for pat, mult in report.cones_at(p)
    ]
    doc = {
        "fan": report.fan_summary,
        "patterns": patterns,
        "per_degree": report.per_degree if report.per_degree is not None else [],
        "basis_note": report.basis_note,
        "notes": list(report.notes),
        "exact": report.exact,
    }
    return doc
