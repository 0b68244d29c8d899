"""Exact linear algebra over the rationals.

Everything here works with Python ints / fractions.Fraction and never
touches floating point; ranks and solutions are exact.
"""

from __future__ import annotations

from fractions import Fraction


def _gauss_jordan(rows, ncols):
    """Reduced row echelon form of the rows (ints/Fractions, each of length
    ncols) as Fraction rows, and the list of its pivot columns."""
    m = [list(map(Fraction, row)) for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        pr = m[r] = [x * inv for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[col]:
                f = row[col]
                m[i] = [a - f * b for a, b in zip(row, pr)]
        pivots.append(col)
    return m, pivots


def rational_rank(rows):
    """Rank of a matrix given as a list of rows of ints/Fractions."""
    rows = [row for row in rows if any(row)]
    return len(_gauss_jordan(rows, len(rows[0]))[1]) if rows else 0


def solve_rational(a_rows, b):
    """Solve A x = b exactly for square A; returns Fractions or None if singular."""
    n = len(a_rows)
    m, pivots = _gauss_jordan([list(row) + [b[i]] for i, row in enumerate(a_rows)], n + 1)
    if pivots[:n] != list(range(n)):
        return None
    return [m[i][n] for i in range(n)]


def nullspace_rational(rows, ncols):
    """Basis of the right nullspace (list of Fraction vectors of length ncols)."""
    m, pivots = _gauss_jordan(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def sparse_rank_exact(columns):
    """Exact rank of a sparse matrix given as columns: iterable of
    dict[row_index -> int/Fraction].

    Greedy elimination on the shortest live column, preferring a unit pivot
    in the sparsest row, keeps the fill and the intermediate entries small
    for incidence-type matrices.
    """
    cols = [dict(c) for c in columns if c]
    # row -> set of live column indices containing that row
    occupancy = {}
    for ci, c in enumerate(cols):
        for r in c:
            occupancy.setdefault(r, set()).add(ci)
    alive = set(range(len(cols)))
    rank = 0
    while alive:
        pci = min(alive, key=lambda ci: len(cols[ci]))
        pcol = cols[pci]
        prow = min(pcol, key=lambda r: (abs(pcol[r]) != 1, len(occupancy[r])))
        pval = pcol[prow]
        alive.discard(pci)
        rank += 1
        for r in pcol:
            occupancy[r].discard(pci)
        for ci in list(occupancy[prow]):
            if ci not in alive:
                continue
            c = cols[ci]
            # integer entries stay integers whenever the pivot divides them
            f = c[prow] // pval if c[prow] % pval == 0 else Fraction(c[prow]) / pval
            for r, v in pcol.items():
                nv = c.get(r, 0) - f * v
                if nv:
                    if r not in c:
                        occupancy[r].add(ci)
                    c[r] = nv
                elif r in c:
                    del c[r]
                    occupancy[r].discard(ci)
        del occupancy[prow]
        # drop emptied columns
        alive = {ci for ci in alive if cols[ci]}
    return rank


def integer_det(rows):
    """Exact determinant of a square integer matrix (fraction-free Bareiss
    elimination, so every intermediate value is an integer)."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1
