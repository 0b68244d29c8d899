"""Exact linear algebra over the rationals.

Everything here works with Python ints / fractions.Fraction and never
touches floating point; ranks and solutions are exact.
"""

from __future__ import annotations

from fractions import Fraction


def rational_rank(rows):
    """Rank of a matrix given as a list of rows of ints/Fractions."""
    m = [list(map(Fraction, row)) for row in rows if any(row)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    col = 0
    while rank < len(m) and col < ncols:
        piv = None
        for i in range(rank, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][col]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f = m[i][col] * inv
                mi, mr = m[i], m[rank]
                for j in range(col, ncols):
                    mi[j] -= f * mr[j]
        rank += 1
        col += 1
    return rank


def solve_rational(a_rows, b):
    """Solve A x = b exactly for square A; returns Fractions or None if singular."""
    n = len(a_rows)
    m = [list(map(Fraction, row)) + [Fraction(b[i])] for i, row in enumerate(a_rows)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        for j in range(col, n + 1):
            m[col][j] *= inv
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                for j in range(col, n + 1):
                    m[i][j] -= f * m[col][j]
    return [m[i][n] for i in range(n)]


def nullspace_rational(rows, ncols):
    """Basis of the right nullspace (list of Fraction vectors of length ncols)."""
    m = [list(map(Fraction, row)) for row in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][col]
        for j in range(col, ncols):
            m[rank][j] *= inv
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                for j in range(col, ncols):
                    m[i][j] -= f * m[rank][j]
        pivots.append(col)
        rank += 1
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
