"""The grading of the homogeneous coordinate ring.

The ray matrix pairs lattice points with the primitive ray generators; its
cokernel is the grading group of the coordinate ring.  Degrees live in
Z^free_rank plus torsion, computed via Smith normal form with explicit
transformation matrices so that degree classes can be lifted back to
exponent vectors exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from .linalg import _gauss_jordan, integer_det
from .snf import mat_vec, smith_normal_form


class GradingError(ValueError):
    pass


class UnboundedRegionError(ValueError):
    """The requested degree region is an unbounded polyhedron."""


@dataclass(frozen=True)
class GradingClass:
    free: tuple
    torsion: tuple = ()

    def __add__(self, other):
        return GradingClass(
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
        )

    def __neg__(self):
        return GradingClass(tuple(-a for a in self.free), tuple(-a for a in self.torsion))

    def reduced(self, factors):
        return GradingClass(self.free, tuple(a % f for a, f in zip(self.torsion, factors)))


def ray_indices(mask):
    """The rays of a pattern given as a bitmask (bit i-1 for ray i), ascending."""
    return tuple(i + 1 for i in range(int(mask).bit_length()) if mask >> i & 1)


class GradingGroup:
    """Cokernel of the ray pairing map, with the projection and section data."""

    def __init__(self, fan):
        n, d = fan.n_rays, fan.dim
        ray_matrix = [list(r) for r in fan.rays]  # n x d, row i pairs with ray i
        u, dd, ui = smith_normal_form(ray_matrix)
        diag = [dd[i][i] for i in range(min(n, d))]
        rank = sum(1 for x in diag if x)
        if rank != d:
            raise GradingError(
                "ray matrix has rank %d < %d; fan cannot be complete" % (rank, d)
            )
        self.n = n
        self.dim = d
        self.free_rank = n - d
        self.torsion = tuple(x for x in diag if x > 1)
        self._torsion_rows = [i for i, x in enumerate(diag) if x > 1]
        self._free_rows = list(range(d, n))
        self._u = u
        self._uinv = ui
        self._diag = diag
        # kernel of the degree map = image of the pairing map; column c of the
        # basis is diag[c] times column c of Uinv
        self._kernel_basis = [[ui[r][c] * diag[c] for c in range(d)] for r in range(n)]
        self.ray_matrix = ray_matrix
        self._fibrations = {}  # pattern mask -> _Fibration
        self._rows = {}  # one shared copy of each row the fibrations hold

    # -- degree map ---------------------------------------------------
    def degree_of(self, exponents):
        if len(exponents) != self.n:
            raise GradingError("exponent vector has length %d, expected %d" % (len(exponents), self.n))
        y = mat_vec(self._u, list(exponents))
        free = tuple(y[r] for r in self._free_rows)
        tors = tuple(y[r] % self._diag[r] for r in self._torsion_rows)
        return GradingClass(free, tors)

    def zero_class(self):
        return GradingClass((0,) * self.free_rank, (0,) * len(self.torsion))

    def class_from_free(self, free, torsion=()):
        free = tuple(int(x) for x in free)
        torsion = tuple(int(x) for x in torsion)
        if len(free) != self.free_rank or len(torsion) != len(self.torsion):
            raise GradingError("class has wrong shape")
        return GradingClass(free, torsion).reduced(self.torsion)

    def variable_degrees(self):
        out = []
        for i in range(self.n):
            e = [0] * self.n
            e[i] = 1
            out.append(self.degree_of(e))
        return out

    def _particular_solution(self, alpha):
        """Some integer exponent vector with the given degree."""
        y = [0] * self.n
        for j, r in enumerate(self._free_rows):
            y[r] = alpha.free[j]
        for j, r in enumerate(self._torsion_rows):
            y[r] = alpha.torsion[j]
        return mat_vec(self._uinv, y)

    # -- lattice points of a sign-pattern region -------------------------
    def _fibration(self, mask):
        """The pattern's cached _Fibration; built once, from the mask alone."""
        fib = self._fibrations.get(mask)
        if fib is None:
            if not 0 <= mask < 1 << self.n:
                raise GradingError("pattern mask %d names a ray outside 1..%d" % (mask, self.n))
            fib = _Fibration(self._kernel_basis, mask, self.dim, self._rows.setdefault)
            # concurrent builders make equal values; setdefault keeps one
            fib = self._fibrations.setdefault(mask, fib)
        return fib

    def _region(self, alpha, mask):
        """The particular solution a0 of alpha and the pattern's levels bound
        to it (None when the region is visibly empty)."""
        alpha = self.class_from_free(alpha.free, alpha.torsion)
        fib = self._fibration(mask)
        if not fib.bounded:
            raise UnboundedRegionError(
                "degree region for %s with pattern %s is unbounded"
                % (alpha, list(ray_indices(mask)))
            )
        a0 = self._particular_solution(alpha)
        return a0, fib.bind(a0, mask)

    def count_degrees(self, alpha, mask):
        """Number of exponent vectors that enumerate_degrees(alpha, mask)
        would return, counted without materialising them.

        Raises GradingError when alpha does not have the grading's shape, and
        UnboundedRegionError when the region is an unbounded polyhedron.
        """
        _, levels = self._region(alpha, mask)
        if levels is None:
            return 0
        return sum(hi - lo + 1 for _, lo, hi in _fibres(levels))

    def enumerate_degrees(self, alpha, mask):
        """All exponent vectors of degree alpha whose negative support is
        exactly the pattern `mask`, a bitmask with bit i-1 for ray i
        (strictly negative there, >= 0 elsewhere; 0 is the monomials).

        Raises GradingError when alpha does not have the grading's shape, and
        UnboundedRegionError when the region is an unbounded polyhedron.
        Output is sorted lexicographically.
        """
        a0, levels = self._region(alpha, mask)
        if levels is None:
            return []
        kb = self._kernel_basis
        last = [row[-1] for row in kb]
        out = []
        for prefix, lo, hi in _fibres(levels):
            base = [a + sum(map(mul, row, prefix)) for a, row in zip(a0, kb)]
            for t in range(lo, hi + 1):
                out.append(tuple(b + k * t for b, k in zip(base, last)))
        return sorted(out)


class _Fibration:
    """Integer Fourier-Motzkin description of one sign-pattern region.

    The region is {t in Z^d : A t >= c}, where row i of A is the kernel-basis
    row i, negated where the pattern's mask has bit i, and c depends on the
    degree: c_i = 1 + a0_i there and -a0_i elsewhere, a0 a particular solution.
    Eliminating t_{d-1}, ..., t_1 in turn gives levels L_{d-1} = A, ..., L_0;
    L_k holds the rows in t_0..t_k that describe the exact projection of the
    polyhedron onto those coordinates.  Every derived row is a nonnegative
    integer combination lam of the rows of A, so for any c its right-hand
    side is lam . c (Schrijver, Theory of Linear and Integer Programming,
    12.2).  Rows whose history has more than e + 1 original rows after e
    eliminations are redundant for every c (Kohler's rule) and are dropped.
    A row left with no coefficients is a condition 0 >= lam . c; one that
    fails shows the region empty before any walking.

    A projection is bounded iff its recession cone is, so the region is
    bounded iff every level has rows of both signs on its own coordinate.
    """

    __slots__ = ("levels", "conditions", "bounded")

    def __init__(self, kernel_basis, mask, d, intern):
        """Patterns of one grading share most rows; `intern` (a dict's
        setdefault) stores each of them once."""
        n = len(kernel_basis)
        rows = {}  # (coefficients on t, multipliers on the rows of A)
        for i, krow in enumerate(kernel_basis):
            coef = tuple(-x for x in krow) if mask >> i & 1 else tuple(krow)
            _add_row(rows, intern, coef, tuple(int(j == i) for j in range(n)))
        conditions = {}  # multipliers of rows 0 >= lam . c, all of t eliminated
        levels = [None] * d
        for k in range(d - 1, -1, -1):
            lower = tuple(row for row in rows if row[0][k] > 0)
            upper = tuple(row for row in rows if row[0][k] < 0)
            levels[k] = (lower, upper)
            nxt = {row: None for row in rows if row[0][k] == 0}
            limit = d - k + 1  # history bound after d - k eliminations
            for pc, plam in lower:
                for qc, qlam in upper:
                    u, v = -qc[k], pc[k]
                    lam = tuple(u * a + v * b for a, b in zip(plam, qlam))
                    if n - lam.count(0) <= limit:
                        _add_row(nxt, intern, tuple(u * a + v * b for a, b in zip(pc, qc)), lam)
            rows = {}
            for row in nxt:
                if any(row[0]):
                    rows[row] = None
                else:
                    conditions[row[1]] = None
        self.conditions = tuple(conditions)
        self.levels = tuple(levels)
        self.bounded = all(lower and upper for lower, upper in levels)

    def bind(self, a0, mask):
        """Per-level (lower, upper) rows (a_k, coefficients, rhs) for the
        degree with particular solution a0, each row meaning
        coefficients . t >= rhs; None if some derived condition already
        shows the region empty."""
        c = [1 + a if mask >> i & 1 else -a for i, a in enumerate(a0)]
        if any(sum(map(mul, lam, c)) > 0 for lam in self.conditions):
            return None
        return [
            tuple([(coef[k], coef, sum(map(mul, lam, c))) for coef, lam in side] for side in level)
            for k, level in enumerate(self.levels)
        ]


def _add_row(rows, intern, coef, lam):
    """Insert a row divided by the gcd of its coefficients and multipliers."""
    g = gcd(*coef, *lam)
    if g > 1:
        coef = tuple(x // g for x in coef)
        lam = tuple(m // g for m in lam)
    row = (coef, lam)
    rows[intern(row, row)] = None


def _fibres(levels):
    """Walk the integer points of the bound levels: yields (t_0..t_{d-2},
    lo, hi) for every prefix whose innermost interval lo <= t_{d-1} <= hi is
    nonempty."""
    d = len(levels)

    def interval(k, prefix):
        lower, upper = levels[k]
        # map stops with the prefix, so coefficients on t_k.. are not summed
        lo = max(-((sum(map(mul, coef, prefix)) - r) // a) for a, coef, r in lower)
        hi = min((r - sum(map(mul, coef, prefix))) // a for a, coef, r in upper)
        return lo, hi

    def walk(prefix):
        k = len(prefix)
        lo, hi = interval(k, prefix)
        if lo > hi:
            return
        if k == d - 1:
            yield tuple(prefix), lo, hi
            return
        prefix.append(lo)
        for t in range(lo, hi + 1):
            prefix[-1] = t
            yield from walk(prefix)
        prefix.pop()

    yield from walk([])


def grading_group(fan):
    return GradingGroup(fan)


def match_degree_basis(computed, target):
    """Integer unimodular matrix T with T*computed_i = target_i for every i,
    acting on the free parts, or None if there is none.  Torsion parts must
    agree on the nose.  Used to compare degree tables across basis choices."""
    if not computed or len(computed) != len(target):
        return None
    fr = len(computed[0].free)
    if any(len(t.free) != fr for t in target):
        return None
    if any(c.torsion != t.torsion for c, t in zip(computed, target)):
        return None
    # [computed | targets] as rows reduces to [I | T^T] over zero rows
    # exactly when some rational T maps every computed vector to its target
    rows = [list(c.free) + list(t.free) for c, t in zip(computed, target)]
    m, pivots = _gauss_jordan(rows, 2 * fr)
    if pivots != list(range(fr)) or any(x.denominator != 1 for row in m[:fr] for x in row):
        return None
    t_rows = [[int(m[j][fr + r]) for j in range(fr)] for r in range(fr)]
    # verify T is unimodular and maps everything
    if abs(integer_det(t_rows)) != 1:
        return None
    for c, t in zip(computed, target):
        mapped = tuple(sum(t_rows[r][j] * c.free[j] for j in range(fr)) for r in range(fr))
        if mapped != t.free:
            return None
    return t_rows
