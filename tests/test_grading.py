import random

import pytest

from coxcoh.grading import (
    GradingClass,
    GradingError,
    SignPattern,
    UnboundedRegionError,
    grading_group,
    match_degree_basis,
)
from coxcoh.fan import parse_fan
from conftest import (
    FANO7_DEGREES,
    FANO8_DEGREES,
    FANS_DIR,
    TORSION_FAN_TEXT,
    PublishedBasis,
    box_oracle,
    literal_bounded,
)


def brute_force_degrees(grading, alpha, negative, radius):
    """Independent oracle: scan the integer box of the given radius."""
    n = grading.n
    out = []

    def rec(prefix):
        if len(prefix) == n:
            if grading.degree_of(prefix) == alpha.reduced(grading.torsion):
                out.append(tuple(prefix))
            return
        i = len(prefix) + 1
        lo, hi = (-radius, -1) if i in negative else (0, radius)
        for v in range(lo, hi + 1):
            rec(prefix + [v])

    rec([])
    return sorted(out)


def test_p1_grading(p1_fan):
    g = grading_group(p1_fan)
    assert g.free_rank == 1 and g.torsion == ()
    degs = g.variable_degrees()
    assert degs[0] == degs[1]
    assert abs(degs[0].free[0]) == 1


def test_p2_grading_and_exactness(p2_fan):
    g = grading_group(p2_fan)
    assert g.free_rank == 1
    # kernel of the degree map = rows of the pairing map: generators map to zero
    for m in range(g.dim):
        e = [0] * g.dim
        e[m] = 1
        image = [sum(r[j] * e[j] for j in range(g.dim)) for r in g.ray_matrix]
        assert g.degree_of(image) == g.zero_class()


def test_exactness_and_surjectivity_certificate(fano7_fan, fano8_fan):
    for fan in (fano7_fan, fano8_fan):
        g = grading_group(fan)
        assert g.free_rank + g.dim == g.n
        # image of the pairing map dies under the degree map
        for m in range(g.dim):
            e = [0] * g.dim
            e[m] = 1
            image = [sum(r[j] * e[j] for j in range(g.dim)) for r in g.ray_matrix]
            assert g.degree_of(image) == g.zero_class()
        # the projection hits every class: lift basis classes and re-project
        for k in range(g.free_rank):
            free = [1 if i == k else 0 for i in range(g.free_rank)]
            alpha = g.class_from_free(free)
            lift = g._particular_solution(alpha)
            assert g.degree_of(lift) == alpha


def test_degree_linearity(fano7_fan):
    g = grading_group(fano7_fan)
    rng = random.Random(0)
    for _ in range(40):
        a = [rng.randint(-4, 4) for _ in range(g.n)]
        b = [rng.randint(-4, 4) for _ in range(g.n)]
        ab = [x + y for x, y in zip(a, b)]
        da, db, dab = g.degree_of(a), g.degree_of(b), g.degree_of(ab)
        assert (da + db).reduced(g.torsion) == dab
    assert g.degree_of([0] * g.n) == g.zero_class()


def test_degree_length_mismatch(fano7_fan):
    g = grading_group(fano7_fan)
    with pytest.raises(GradingError):
        g.degree_of([0, 1])


def test_published_degree_tables(fano7_fan, fano8_fan):
    g2 = grading_group(fano7_fan)
    assert g2.free_rank == 2 and g2.torsion == ()
    assert match_degree_basis(
        g2.variable_degrees(), [GradingClass(t, ()) for t in FANO7_DEGREES]
    ) is not None
    g3 = grading_group(fano8_fan)
    assert g3.free_rank == 3 and g3.torsion == ()
    assert match_degree_basis(
        g3.variable_degrees(), [GradingClass(t, ()) for t in FANO8_DEGREES]
    ) is not None


def test_no_match_is_reported(p2_fan):
    g = grading_group(p2_fan)
    bogus = [GradingClass((1,), ()), GradingClass((2,), ()), GradingClass((1,), ())]
    assert match_degree_basis(g.variable_degrees(), bogus) is None


def test_enumerate_p2_stars_and_bars(p2_fan):
    g = grading_group(p2_fan)
    one = g.variable_degrees()[0]
    alpha = g.class_from_free([2 * one.free[0]])
    got = g.enumerate_degrees(alpha, SignPattern())
    assert len(got) == 6
    assert got == brute_force_degrees(g, alpha, frozenset(), 4)


def test_enumerate_p2_negative(p2_fan):
    g = grading_group(p2_fan)
    one = g.variable_degrees()[0]
    alpha = g.class_from_free([-3 * one.free[0]])
    got = g.enumerate_degrees(alpha, SignPattern({1, 2, 3}))
    assert got == [(-1, -1, -1)]


def test_enumerate_fano7_unique_monomial(fano7_fan, fano7_basis):
    g = grading_group(fano7_fan)
    alpha = fano7_basis.cls([-6, -2])
    got = g.enumerate_degrees(alpha, SignPattern({5, 6}))
    assert got == [(0, 0, 0, 0, -1, -1, 0)]


def test_enumerate_matches_bruteforce_randomly(fano7_fan, fano7_basis):
    g = grading_group(fano7_fan)
    rng = random.Random(1)
    for _ in range(10):
        a = [rng.randint(-2, 2) for _ in range(g.n)]
        alpha = g.degree_of(a)
        pattern = frozenset(i + 1 for i, v in enumerate(a) if v < 0)
        try:
            got = g.enumerate_degrees(alpha, SignPattern(pattern))
        except UnboundedRegionError:
            continue
        expected = brute_force_degrees(g, alpha, pattern, 3)
        for vec in expected:
            assert vec in got
        assert tuple(a) in got


def test_unbounded_detection(p1_fan):
    g = grading_group(p1_fan)
    with pytest.raises(UnboundedRegionError):
        g.enumerate_degrees(g.zero_class(), SignPattern({1}))


def test_enumeration_deterministic(fano7_fan, fano7_basis):
    g = grading_group(fano7_fan)
    alpha = fano7_basis.cls([3, 1])
    first = g.enumerate_degrees(alpha, SignPattern())
    second = g.enumerate_degrees(alpha, SignPattern())
    assert first == second == sorted(first)


@pytest.mark.parametrize(
    "name", ["p1", "p2", "p112", "blowup_p11336", "blowup_p112236", "torsion"]
)
def test_count_matches_enumeration_and_box_oracle(name):
    if name == "torsion":
        fan = parse_fan(TORSION_FAN_TEXT)
    else:
        fan = parse_fan((FANS_DIR / (name + ".fan")).read_text())
    g = grading_group(fan)
    rng = random.Random(name)
    checked = 0
    for _ in range(8):
        a = [rng.randint(-2, 2) for _ in range(g.n)]
        alpha = g.degree_of(a)
        own = frozenset(i + 1 for i, v in enumerate(a) if v < 0)
        for negative in (own, frozenset(), frozenset(range(1, g.n + 1))):
            pattern = SignPattern(negative)
            if not literal_bounded(g, negative):
                with pytest.raises(UnboundedRegionError):
                    g.count_degrees(alpha, pattern)
                with pytest.raises(UnboundedRegionError):
                    g.enumerate_degrees(alpha, pattern)
                continue
            points = g.enumerate_degrees(alpha, pattern)
            assert points == box_oracle(g, alpha, negative)
            assert g.count_degrees(alpha, pattern) == len(points)
            if negative == own:
                assert tuple(a) in points
            checked += 1
    assert checked >= 8


@pytest.mark.parametrize("name", ["p2_fan", "fano7_fan", "fano8_fan"])
def test_boundedness_verdict_matches_recession_cone(name, request):
    g = grading_group(request.getfixturevalue(name))
    for mask in range(1 << g.n):
        negative = frozenset(i + 1 for i in range(g.n) if mask >> i & 1)
        assert g._fibration(SignPattern(negative)).bounded == literal_bounded(g, negative), negative


def test_weighted_projective_torsion_free(p112_fan):
    g = grading_group(p112_fan)
    assert g.free_rank == 1 and g.torsion == ()
    basis = PublishedBasis(g, [(1,), (1,), (2,)])
    alpha = basis.cls([4])
    # monomials of weighted degree 4 in weights (1,1,2): a+b+2c=4 has
    # 5 + 3 + 1 solutions over c = 0, 1, 2
    assert len(g.enumerate_degrees(alpha, SignPattern())) == 9


def test_quotient_lattice_with_torsion():
    # fake fan shape: rays (2,1) and (0,1) span an index-2 sublattice of Z^2,
    # so the grading group is pure torsion Z/2
    from coxcoh.fan import Fan

    fan = Fan(dim=2, rays=((2, 1), (0, 1)), max_cones=((1, 2),))
    g = grading_group(fan)
    assert g.free_rank == 0
    assert g.torsion == (2,)
    d1, d2 = g.variable_degrees()
    assert d1.torsion in ((0,), (1,))
    assert (d1 + d2).reduced(g.torsion).torsion in ((0,), (1,))
    # torsion classes lift correctly through the section data
    for residue in (0, 1):
        alpha = g.class_from_free([], [residue])
        lift = g._particular_solution(alpha)
        assert g.degree_of(lift) == alpha
    # a non-complete shape has unbounded regions, on both routes
    for negative in ((), (1,), (2,), (1, 2)):
        assert not literal_bounded(g, frozenset(negative))
        with pytest.raises(UnboundedRegionError):
            g.enumerate_degrees(g.class_from_free([], [0]), SignPattern(negative))
        with pytest.raises(UnboundedRegionError):
            g.count_degrees(g.class_from_free([], [1]), SignPattern(negative))


def test_rank_deficient_ray_matrix_rejected():
    from coxcoh.fan import Fan

    fan = Fan(dim=2, rays=((1, 0), (-1, 0)), max_cones=((1, 2),))
    with pytest.raises(GradingError, match="rank"):
        grading_group(fan)
