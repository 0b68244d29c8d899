"""Smith normal form of integer matrices with the row transformation."""

from __future__ import annotations


def _xgcd(a, b):
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a):
    """Return (U, D, Uinv): U is unimodular with inverse Uinv, D is diagonal
    with nonnegative invariant factors d_1 | d_2 | ..., and U*A*V = D for
    some unimodular V, which is not built.

    Row i of U*A is d_i times row i of V^-1, so the rows past the rank of
    A are zero.  A is a list of rows of ints and is not modified.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(r) for r in a]
    u, ui = _identity(rows), _identity(rows)
    limit = min(rows, cols)

    def row_combine(i1, i2, x, y, p, q):
        # (row i1, row i2) <- (x*r1 + y*r2, -p*r1 + q*r2); det = xq + yp = 1
        for mat in (d, u):
            r1, r2 = mat[i1], mat[i2]
            for j in range(len(r1)):
                r1[j], r2[j] = x * r1[j] + y * r2[j], -p * r1[j] + q * r2[j]
        for r in ui:  # Uinv <- Uinv * M^{-1} acts on columns
            r[i1], r[i2] = q * r[i1] + p * r[i2], -y * r[i1] + x * r[i2]

    def col_combine(j1, j2, x, y, p, q):
        for r in d:
            r[j1], r[j2] = x * r[j1] + y * r[j2], -p * r[j1] + q * r[j2]

    def negate_row(k):
        for j in range(cols):
            d[k][j] = -d[k][j]
        for j in range(rows):
            u[k][j] = -u[k][j]
        for i in range(rows):
            ui[i][k] = -ui[i][k]

    def row_reduce(k, i, m):
        # row i -= m * row k
        for mat in (d, u):
            rk, ri = mat[k], mat[i]
            for j in range(len(rk)):
                ri[j] -= m * rk[j]
        for r in ui:
            r[k] += m * r[i]

    def col_reduce(k, j, m):
        # col j -= m * col k
        for r in d:
            r[j] -= m * r[k]

    def clear_position(k):
        # the divisible case uses plain elementary operations so that the
        # pivot row/column is never disturbed; this guarantees progress
        while True:
            for i in range(k + 1, rows):
                if d[i][k]:
                    if d[i][k] % d[k][k] == 0:
                        row_reduce(k, i, d[i][k] // d[k][k])
                    else:
                        g, x, y = _xgcd(d[k][k], d[i][k])
                        row_combine(k, i, x, y, d[i][k] // g, d[k][k] // g)
            if all(d[k][j] == 0 for j in range(k + 1, cols)):
                break
            for j in range(k + 1, cols):
                if d[k][j]:
                    if d[k][j] % d[k][k] == 0:
                        col_reduce(k, j, d[k][j] // d[k][k])
                    else:
                        g, x, y = _xgcd(d[k][k], d[k][j])
                        col_combine(k, j, x, y, d[k][j] // g, d[k][k] // g)
            if all(d[i][k] == 0 for i in range(k + 1, rows)):
                break

    def diagonalize(start):
        for k in range(start, limit):
            pivot = None
            for i in range(k, rows):
                for j in range(k, cols):
                    if d[i][j]:
                        pivot = (i, j)
                        break
                if pivot:
                    break
            if pivot is None:
                return
            pi, pj = pivot
            if pi != k:
                d[k], d[pi] = d[pi], d[k]
                u[k], u[pi] = u[pi], u[k]
                for r in ui:
                    r[k], r[pi] = r[pi], r[k]
            if pj != k:
                for r in d:
                    r[k], r[pj] = r[pj], r[k]
            clear_position(k)
            if d[k][k] < 0:
                negate_row(k)

    diagonalize(0)

    # enforce divisibility d_k | d_{k+1}
    changed = True
    while changed:
        changed = False
        for k in range(limit - 1):
            a_, b_ = d[k][k], d[k + 1][k + 1]
            if a_ and b_ and b_ % a_ != 0:
                # fold b into column k, then restore diagonal form; clearing
                # spreads fill only into later rows/columns
                for r in d:
                    r[k] += r[k + 1]
                diagonalize(k)
                changed = True
    return u, d, ui


def mat_vec(a, x):
    return [sum(r[j] * x[j] for j in range(len(x))) for r in a]
