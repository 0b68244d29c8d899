import random
from fractions import Fraction

from coxcoh.linalg import integer_det


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
