import runpy
import sys
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coxcoh.fan import Fan, parse_fan  # noqa: E402
from coxcoh.fans import projective_space_fan, weighted_projective_fan  # noqa: E402
from coxcoh.grading import GradingClass, grading_group, match_degree_basis, ray_indices  # noqa: E402
from coxcoh.linalg import nullspace_rational, solve_rational  # noqa: E402
from coxcoh.localcoh import ext_limit_oracle  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
FANS_DIR = REPO_ROOT / "fans"

# published degree tables for the two Fano blowup fans
FANO7_DEGREES = [(1, 0), (1, 0), (3, 0), (3, 0), (6, 1), (0, 1), (1, 0)]
FANO8_DEGREES = [
    (1, 0, 0),
    (2, 1, 0),
    (2, 1, 0),
    (3, 1, 0),
    (6, 3, 1),
    (0, 0, 1),
    (0, 1, 0),
    (1, 0, 0),
]

FANO7_IDEAL = ["x6x7", "x4x6", "x3x6", "x2x6", "x1x6", "x5x7", "x4x5", "x3x5", "x2x5", "x1x5"]
FANO8_IDEAL = (
    "x6x7x8 x5x7x8 x4x6x7 x4x5x7 x3x6x8 x3x5x8 x3x4x6 x3x4x5 x2x6x8 x2x5x8 "
    "x2x4x6 x2x4x5 x1x6x7 x1x5x7 x1x3x6 x1x3x5 x1x2x6 x1x2x5"
).split()


class PublishedBasis:
    """Translate degree tuples from the published convention into the
    computed Smith-normal-form basis (and back)."""

    def __init__(self, grading, published_table):
        self.grading = grading
        targets = [GradingClass(tuple(t), ()) for t in published_table]
        self.to_published = match_degree_basis(grading.variable_degrees(), targets)
        assert self.to_published is not None, "no basis automorphism matches the published table"
        fr = grading.free_rank
        self._matrix = [[Fraction(v) for v in row] for row in self.to_published]

    def cls(self, published_free, torsion=()):
        sol = solve_rational(self._matrix, list(published_free))
        assert sol is not None and all(x.denominator == 1 for x in sol)
        return self.grading.class_from_free([int(x) for x in sol], torsion)


def mask_of(negative):
    """A pattern's bitmask from its rays: bit i-1 for ray i."""
    return sum(1 << (i - 1) for i in negative)


def table_rows(table):
    """A PatternTable as (ray tuple, {limit level: dim > 0}) rows, in its order."""
    return [
        (ray_indices(mask), {k + 2: v for k, v in enumerate(column) if v})
        for mask, column in zip(table.masks.tolist(), table.dims.T.tolist())
    ]


def subdivide_face(fan, face):
    """Stellar subdivision of a fan at a face (ray indices) of a maximal
    cone: a new ray at the primitive sum of the face's rays, and every
    maximal cone holding the face split into the cones that trade one ray
    of the face for the new one."""
    ray = [sum(col) for col in zip(*fan.cone_rays(face))]
    g = gcd(*ray)
    new = fan.n_rays + 1
    cones = []
    for cone in fan.max_cones:
        if set(face) <= set(cone):
            cones += [tuple(sorted(new if i == j else i for i in cone)) for j in face]
        else:
            cones.append(cone)
    return Fan(fan.dim, fan.rays + (tuple(x // g for x in ray),), tuple(cones))


def product_fan(*factors):
    """The product of fans: each ray padded with zeros into its own block
    of coordinates, the maximal cones the unions of one from each factor."""
    dim = sum(f.dim for f in factors)
    rays, blocks, offset, start = [], [], 0, 0
    for f in factors:
        rays += [(0,) * offset + ray + (0,) * (dim - offset - f.dim) for ray in f.rays]
        blocks.append([tuple(i + start for i in cone) for cone in f.max_cones])
        offset += f.dim
        start += f.n_rays
    cones = tuple(tuple(sorted(sum(parts, ()))) for parts in product(*blocks))
    return Fan(dim, tuple(rays), cones)


def face_subdivided_fan(d, k, rng):
    """P^d after k stellar subdivisions, each at a face of 2 or 3 rays of a
    random maximal cone.  The fans are smooth and, unlike P^d+k, not stacked
    spheres, so their patterns reach the middle degrees."""
    fan = projective_space_fan(d)
    for _ in range(k):
        cone = rng.choice(fan.max_cones)
        fan = subdivide_face(fan, tuple(rng.sample(cone, rng.randint(2, min(3, d)))))
    return fan


def _pattern_rows(grading, negative, alpha):
    """Constraints A t >= c on kernel coordinates t for the region of
    exponent vectors a0 + K t of degree alpha with negative support exactly
    `negative`; a0 is a particular solution and K the kernel basis."""
    a0 = grading._particular_solution(alpha.reduced(grading.torsion))
    rows, rhs = [], []
    for i, krow in enumerate(grading._kernel_basis):
        if (i + 1) in negative:
            rows.append([-x for x in krow])
            rhs.append(1 + a0[i])
        else:
            rows.append(list(krow))
            rhs.append(-a0[i])
    return a0, rows, rhs


def literal_bounded(grading, negative):
    """Boundedness of a sign-pattern region straight from its recession cone
    {A t >= 0}: look for a nonzero direction on a line cut out by d - 1 of
    the constraint rows."""
    d = grading.dim
    _, rows, _ = _pattern_rows(grading, negative, grading.zero_class())
    for subset in combinations(rows, d - 1):
        for direction in nullspace_rational(list(subset), d):
            if not any(direction):
                continue
            for sgn in (1, -1):
                if all(sum(r[j] * sgn * direction[j] for j in range(d)) >= 0 for r in rows):
                    return False
    return True


def box_oracle(grading, alpha, negative):
    """Sorted exponent vectors of the (bounded) region, found by scanning the
    integer bounding box of the polyhedron's vertices; every vertex solves d
    of the constraints with equality.  The scan is vectorised; test values
    stay far inside int64."""
    d = grading.dim
    a0, rows, rhs = _pattern_rows(grading, negative, alpha)
    lo, hi = [None] * d, [None] * d
    for subset in combinations(range(len(rows)), d):
        sol = solve_rational([rows[i] for i in subset], [rhs[i] for i in subset])
        if sol is None or any(sum(r[j] * sol[j] for j in range(d)) < c for r, c in zip(rows, rhs)):
            continue
        lo = [x if m is None else min(m, x) for m, x in zip(lo, sol)]
        hi = [x if m is None else max(m, x) for m, x in zip(hi, sol)]
    if lo[0] is None:
        return []
    axes = [np.arange(ceil(lo[j]), floor(hi[j]) + 1, dtype=np.int64) for j in range(d)]
    t = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])  # d x points
    inside = np.all(np.array(rows, dtype=np.int64) @ t >= np.array(rhs, dtype=np.int64)[:, None], axis=0)
    x = np.array(a0, dtype=np.int64)[:, None] + np.array(grading._kernel_basis, dtype=np.int64) @ t[:, inside]
    return sorted(tuple(int(v) for v in col) for col in x.T)


# a complete fan whose grading group has torsion: Z + Z/2
TORSION_FAN_TEXT = """\
dim 2
rays 3
1 0
-1 2
-1 -2
maxcones 3
1 2
2 3
1 3
"""


# rays (1,0), (1,3), (-4,3), (-4,-3), (1,-3): every wall lies in two cones,
# yet the cones wind twice around the origin
PSEUDO_FAN_TEXT = """\
dim 2
rays 5
1 0
1 3
-4 3
-4 -3
1 -3
maxcones 5
1 3
3 5
2 5
2 4
1 4
"""


@pytest.fixture(scope="session")
def p1_fan():
    return projective_space_fan(1)


@pytest.fixture(scope="session")
def p2_fan():
    return projective_space_fan(2)


@pytest.fixture(scope="session")
def p112_fan():
    return weighted_projective_fan([1, 1, 2])


@pytest.fixture(scope="session")
def fano7_fan():
    return parse_fan((FANS_DIR / "blowup_p11336.fan").read_text())


@pytest.fixture(scope="session")
def fano8_fan():
    return parse_fan((FANS_DIR / "blowup_p112236.fan").read_text())


@pytest.fixture(scope="session")
def stage1_ext_table():
    """table(fan, p): the stage-1 Ext^p Hilbert table on the radius-2 box,
    computed once per session; several acceptance criteria read the same
    fano7 and fano8 tables, and each one takes seconds."""
    tables = {}

    def table(fan, p):
        key = (fan, p)
        if key not in tables:
            tables[key] = ext_limit_oracle(fan, 1, p, box_radius=2)
        return tables[key]

    return table


@pytest.fixture(scope="session")
def fano7_basis(fano7_fan):
    return PublishedBasis(grading_group(fano7_fan), FANO7_DEGREES)


@pytest.fixture(scope="session")
def fano8_basis(fano8_fan):
    return PublishedBasis(grading_group(fano8_fan), FANO8_DEGREES)


def _coxbench_module(name):
    """A file of coxbench/ as a namespace, read with runpy so that nothing
    is imported as a module or written under coxbench/."""
    return SimpleNamespace(**runpy.run_path(str(REPO_ROOT / "coxbench" / name)))


@pytest.fixture(scope="session")
def reference_oracle():
    """coxbench/reference.py: answers from a fan's rays and cones alone,
    imported from nothing in the program; the tests' independent oracle."""
    return _coxbench_module("reference.py")


@pytest.fixture(scope="session")
def fan_generator():
    """coxbench/fangen.py: seeded complete fans, P^d after stellar
    subdivisions (`generated_fan(d, k, seeded_rng(seed, label))`)."""
    return _coxbench_module("fangen.py")
