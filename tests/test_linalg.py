import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from coxcoh.linalg import integer_det, nullspace_rational, rational_rank, solve_rational
from coxcoh.snf import smith_normal_form


def fraction_det(rows):
    """Reference: Gaussian elimination over the rationals."""
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            for j in range(col, n):
                m[i][j] -= f * m[col][j]
    return det


def test_integer_det_matches_fraction_elimination():
    rng = random.Random(5)
    kinds = {"regular": 0, "singular": 0, "zero_pivot": 0}
    for trial in range(300):
        n = rng.randint(0, 6)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n >= 2 and trial % 3 == 1:
            # singular: the last row is a combination of the others
            coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
            m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n)]
        elif n >= 2 and trial % 3 == 2:
            # zero leading pivot with a nonzero below it: the row swap runs
            m[0][0] = 0
            m[1][0] = m[1][0] or 1
            kinds["zero_pivot"] += 1
        got, want = integer_det(m), fraction_det(m)
        assert isinstance(got, int) and got == want, m
        kinds["singular" if want == 0 else "regular"] += 1
    assert all(count >= 50 for count in kinds.values()), kinds


def test_integer_det_small_cases():
    assert integer_det([]) == 1
    assert integer_det([[-7]]) == -7
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[0, 0], [1, 2]]) == 0
    assert integer_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _minor_gcd(a, k):
    """gcd of the k x k minors of a (0 when it has none or all vanish)."""
    out = 0
    for rs in combinations(range(len(a)), k):
        for cs in combinations(range(len(a[0])), k):
            out = gcd(out, integer_det([[a[i][j] for j in cs] for i in rs]))
    return out


def test_smith_normal_form_contract():
    rng = random.Random(7)
    for trial in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if rows >= 2 and trial % 4 == 1:
            a[-1] = [2 * x - y for x, y in zip(a[0], a[1])]  # force a rank drop
        u, d, ui = smith_normal_form(a)
        assert _mul(u, ui) == [[int(i == j) for j in range(rows)] for i in range(rows)]
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        diag = [d[i][i] for i in range(min(rows, cols))]
        k = sum(1 for x in diag if x)
        assert all(x > 0 for x in diag[:k]) and not any(diag[k:])
        assert all(diag[i + 1] % diag[i] == 0 for i in range(k - 1))
        ua = _mul(u, a)
        assert not any(any(row) for row in ua[k:])
        # U*A = D*W with the maximal minors of W coprime: W is the top of a
        # unimodular V^-1, so some unimodular V has U*A*V = D
        assert all(x % diag[i] == 0 for i in range(k) for x in ua[i])
        w = [[x // diag[i] for x in ua[i]] for i in range(k)]
        assert k == 0 or _minor_gcd(w, k) == 1
        product = 1
        for j in range(1, min(rows, cols) + 1):
            product *= diag[j - 1]
            assert product == _minor_gcd(a, j)


def test_solve_and_nullspace_against_their_definitions():
    rng = random.Random(11)
    singular = 0
    for trial in range(200):
        n = rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n >= 2 and trial % 3 == 0:
            a[-1] = [x + y for x, y in zip(a[0], a[-2])]
        b = [rng.randint(-5, 5) for _ in range(n)]
        x = solve_rational(a, b)
        assert (x is None) == (integer_det(a) == 0)
        if x is None:
            singular += 1
        else:
            assert [sum(r * v for r, v in zip(row, x)) for row in a] == b
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        basis = nullspace_rational(m, cols)
        assert all(len(v) == cols and any(v) for v in basis)
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in m for v in basis)
        assert rational_rank(m) + len(basis) == cols
        assert rational_rank(basis) == len(basis)
    assert singular >= 50
