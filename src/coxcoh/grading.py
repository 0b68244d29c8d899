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
from typing import NamedTuple

import numpy as np

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
        self._last_bound = None  # (alpha as given, its _BoundClass)

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

    def bind(self, alpha):
        """alpha checked against the grading's shape and lifted to a
        particular solution a0, as a _BoundClass.  The grading keeps the
        last class it bound, so the patterns of one class, asked in turn,
        share one check and one lift.

        Raises GradingError when alpha does not have the grading's shape."""
        last = self._last_bound
        if last is not None and last[0] == alpha:
            return last[1]
        reduced = self.class_from_free(alpha.free, alpha.torsion)
        a0 = self._particular_solution(reduced)
        size = max(map(abs, a0))
        bound = _BoundClass(reduced, a0, _int_array(a0, size), size)
        self._last_bound = (alpha, bound)  # one assignment, so readers see a pair
        return bound

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
        """The bound class of alpha, the pattern's _Fibration, and its levels
        bound to the class (None when the region is visibly empty)."""
        bound = self.bind(alpha)
        fib = self._fibration(mask)
        if not fib.bounded:
            raise UnboundedRegionError(
                "degree region for %s with pattern %s is unbounded"
                % (bound.alpha, list(ray_indices(mask)))
            )
        return bound, fib, fib.bind(bound)

    def count_degrees(self, alpha, mask):
        """Number of exponent vectors that enumerate_degrees(alpha, mask)
        would return, counted without materialising them: the sum of the
        innermost interval lengths of the pattern's levels, walked level by
        level (see _Fibration.count).

        Raises GradingError when alpha does not have the grading's shape, and
        UnboundedRegionError when the region is an unbounded polyhedron.
        """
        _, fib, bound_levels = self._region(alpha, mask)
        return 0 if bound_levels is None else fib.count(*bound_levels)

    def enumerate_degrees(self, alpha, mask):
        """All exponent vectors of degree alpha whose negative support is
        exactly the pattern `mask`, a bitmask with bit i-1 for ray i
        (strictly negative there, >= 0 elsewhere; 0 is the monomials).

        Raises GradingError when alpha does not have the grading's shape, and
        UnboundedRegionError when the region is an unbounded polyhedron.
        Output is sorted lexicographically.  The tests use it as the oracle
        of count_degrees: it walks the same levels one prefix at a time.
        """
        bound, _, bound_levels = self._region(alpha, mask)
        if bound_levels is None:
            return []
        kb = self._kernel_basis
        last = [row[-1] for row in kb]
        out = []
        for prefix, lo, hi in _fibres(bound_levels[0]):
            base = [a + sum(map(mul, row, prefix)) for a, row in zip(bound.a0, kb)]
            for t in range(lo, hi + 1):
                out.append(tuple(b + k * t for b, k in zip(base, last)))
        return sorted(out)


class _BoundClass(NamedTuple):
    """A degree class checked against its grading and lifted: a0 is a
    particular solution, `vector` is a0 as an array (int64, or Python ints
    when it is too large) and `size` is max |a0_i|."""

    alpha: GradingClass
    a0: list
    vector: np.ndarray
    size: int


# A frontier wider than this many prefixes is walked in numpy: below it a
# prefix's interval is cheaper in Python than numpy's fixed cost per call.
# On fano8's degree-queries classes any value from 4 to 64 took the same
# time, and 256 took half as long again on the large classes.
_WIDE = 32
# Rows of a numpy frontier expanded at once, so memory does not grow with
# the degree.  fano8's h^0(O(8D)) took the same time at 2^10 to 2^18 rows,
# while peak RSS grew from 30 to 98 MB.
_CHUNK_ROWS = 1 << 12
# Arrays whose magnitudes may reach this are held as Python ints (dtype
# object), which cannot overflow.
_INT64_LIMIT = 1 << 62


def _int_array(values, bound):
    """values as an int64 array, or as Python ints when `bound`, a bound on
    every magnitude computed from them, reaches _INT64_LIMIT."""
    return np.array(values, dtype=np.int64 if bound < _INT64_LIMIT else object)


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

    With b the mask's bits, c = b + (2b - 1) * a0, so every right-hand side
    is weights . a0 + offset with the pattern's fixed integer weights
    lam * (2b - 1) and offset lam . b.  The weights of the conditions and of
    every level row are stacked in one matrix, so binding a class is one
    matrix-vector product.  The coefficients of the level rows are stacked
    the same way, level by level and lower rows first, for the numpy walk
    (count).

    A projection is bounded iff its recession cone is, so the region is
    bounded iff every level has rows of both signs on its own coordinate.
    """

    __slots__ = ("levels", "conditions", "bounded", "_weights", "_offsets", "_reach", "_coefs")

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
        level_rows = [row for level in levels for side in level for row in side]
        lams = self.conditions + tuple(lam for _, lam in level_rows)
        # |weights . a0 + offsets| <= _reach * (max |a0_i| + 1)
        self._reach = max(map(sum, lams), default=0)
        lams = _int_array(lams, self._reach).reshape(-1, n)
        bits = np.array([mask >> i & 1 for i in range(n)], dtype=np.int64)
        self._weights = lams * (2 * bits - 1)
        self._offsets = lams @ bits
        coefs = [coef for coef, _ in level_rows]
        size = max((max(map(abs, coef)) for coef in coefs), default=0)
        self._coefs = _int_array(coefs, size).reshape(-1, d)

    def bind(self, bound):
        """The levels bound to a class: per level, (lower, upper) rows
        (a_k, coefficients, rhs), each meaning coefficients . t >= rhs, and
        the right-hand sides of those rows as one array, level by level.
        None if some derived condition already shows the region empty."""
        vector = bound.vector
        if vector.dtype != object and (bound.size + 1) * self._reach >= _INT64_LIMIT:
            vector = vector.astype(object)
        rhs = self._weights @ vector + self._offsets
        values = rhs.tolist()
        nc = len(self.conditions)
        if any(r > 0 for r in values[:nc]):
            return None
        values = iter(values[nc:])
        levels = [
            tuple([(coef[k], coef, next(values)) for coef, _ in side] for side in level)
            for k, level in enumerate(self.levels)
        ]
        return levels, rhs[nc:]

    def count(self, levels, rhs):
        """Number of integer points of the bound levels, walked level by
        level.  The frontier of prefixes t_0..t_{k-1} starts as the empty
        prefix; each prefix takes its interval of t_k in Python.  At the
        last level the interval lengths are added up.  While the intervals
        hold at most _WIDE values in all, the next frontier is every prefix
        extended by every value; once they hold more, the remaining levels
        go to the numpy walk (_walk), whose values are bounded first
        (_walk_bound) to choose int64 or Python ints."""
        d = len(levels)
        frontier = [()]
        for k, level in enumerate(levels):
            spans = []
            width = 0
            for prefix in frontier:
                lo, hi = _interval(level, prefix)
                if lo <= hi:
                    spans.append((prefix, lo, hi))
                    width += hi - lo + 1
            if k == d - 1 or not spans:
                return width
            if width > _WIDE:
                bound = _walk_bound(levels, k, spans)
                prefixes = _int_array([prefix for prefix, _, _ in spans], bound)
                starts = _int_array([lo for _, lo, _ in spans], bound)
                lengths = _int_array([hi - lo + 1 for _, lo, hi in spans], bound)
                return self._walk(k, prefixes.reshape(len(spans), k), starts, lengths, rhs)
            frontier = [(*prefix, t) for prefix, lo, hi in spans for t in range(lo, hi + 1)]

    def _walk(self, k, prefixes, starts, lengths, rhs):
        """Points over the prefixes t_0..t_{k-1}, row r with t_k running over
        starts[r] .. starts[r] + lengths[r] - 1 (every length positive).

        The extended prefixes are numbered 0..sum(lengths)-1 in row order
        and made _CHUNK_ROWS at a time: number j belongs to the row whose
        cumulative length first exceeds j, at offset j minus the lengths
        before that row.  Each chunk takes its level-(k+1) intervals as
        dot products and either adds their lengths (last level) or walks
        on with its nonempty rows, so at most one chunk per level is held."""
        at = sum(len(lower) + len(upper) for lower, upper in self.levels[:k + 1])
        lower, upper = self.levels[k + 1]
        mid, end = at + len(lower), at + len(lower) + len(upper)
        c_lo, a_lo, r_lo = self._coefs[at:mid, :k + 1], self._coefs[at:mid, k + 1], rhs[at:mid]
        c_up, a_up, r_up = self._coefs[mid:end, :k + 1], self._coefs[mid:end, k + 1], rhs[mid:end]
        last = k + 2 == len(self.levels)
        ends = np.cumsum(lengths)
        before = ends - lengths
        total = int(ends[-1])
        count = 0
        for first in range(0, total, _CHUNK_ROWS):
            j = np.arange(first, min(first + _CHUNK_ROWS, total))
            row = np.searchsorted(ends, j, side="right")
            chunk = np.empty((len(j), k + 1), dtype=prefixes.dtype)
            chunk[:, :k] = prefixes[row]
            chunk[:, k] = starts[row] + (j - before[row])
            lo = (-((chunk @ c_lo.T - r_lo) // a_lo)).max(axis=1)
            hi = ((r_up - chunk @ c_up.T) // a_up).min(axis=1)
            sizes = hi - lo + 1
            if last:
                count += int(np.maximum(sizes, 0).sum())
            else:
                keep = sizes > 0
                if keep.any():
                    count += self._walk(k + 1, chunk[keep], lo[keep], sizes[keep], rhs)
        return count


def _walk_bound(levels, k, spans):
    """A bound on every magnitude the numpy walk below level k computes from
    the frontier `spans` ((prefix, lo, hi) with lo <= hi): values of t,
    partial dot products, right-hand sides, interval ends and lengths, and
    sums of lengths over a chunk or over the frontier.

    With |t_i| <= B_i for i < j, a row (a, coef, r) of level j has
    |coef . t| <= S = sum |coef_i| B_i, so r - S bounds a . t_j from below:
    t_j >= ceil((r - S) / a) on a lower row (a > 0) and t_j <= floor((r - S)
    / a) on an upper one, which gives B_j.  Every interval end of level j
    is then at most |r| + S + 1 in size."""
    cols = list(zip(*((*prefix, lo, hi) for prefix, lo, hi in spans)))
    bounds = [max(map(abs, col)) for col in cols[:k]] + [max(map(abs, cols[k] + cols[k + 1]))]
    top = max(bounds)
    for lower, upper in levels[k + 1:]:
        edges = []
        for a, coef, r in lower + upper:
            s = sum(abs(x) * b for x, b in zip(coef, bounds))
            top = max(top, abs(r) + s + 1)
            edges.append(-((s - r) // a) if a > 0 else (r - s) // a)
        # t_j lies between the largest lower edge and the smallest upper one
        bounds.append(max(abs(max(edges[:len(lower)])), abs(min(edges[len(lower):]))))
    return (2 * top + 2) * max(len(spans), _CHUNK_ROWS)


def _add_row(rows, intern, coef, lam):
    """Insert a row divided by the gcd of its coefficients and multipliers."""
    g = gcd(*coef, *lam)
    if g > 1:
        coef = tuple(x // g for x in coef)
        lam = tuple(m // g for m in lam)
    row = (coef, lam)
    rows[intern(row, row)] = None


def _interval(level, prefix):
    """The interval lo..hi of t_k over the prefix t_0..t_{k-1} at a bound
    level (empty when lo > hi)."""
    lower, upper = level
    # map stops with the prefix, so coefficients on t_k.. are not summed
    lo = max(-((sum(map(mul, coef, prefix)) - r) // a) for a, coef, r in lower)
    hi = min((r - sum(map(mul, coef, prefix))) // a for a, coef, r in upper)
    return lo, hi


def _fibres(levels):
    """Walk the integer points of the bound levels one prefix at a time, depth
    first: yields (t_0..t_{d-2}, lo, hi) for every prefix whose innermost
    interval lo <= t_{d-1} <= hi is nonempty.  enumerate_degrees lists its
    points from these fibres; count_degrees walks the same levels level by
    level (_Fibration.count)."""
    d = len(levels)

    def walk(prefix):
        k = len(prefix)
        lo, hi = _interval(levels[k], prefix)
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
