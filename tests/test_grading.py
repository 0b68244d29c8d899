import random

import pytest

from coxcoh import grading
from coxcoh.grading import (
    GradingClass,
    GradingError,
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
    mask_of,
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


def test_non_unimodular_match_is_reported(p2_fan, fano7_fan):
    # doubled degrees map exactly under an integer T, but det T = 2^rank
    for fan in (p2_fan, fano7_fan):
        degrees = grading_group(fan).variable_degrees()
        assert match_degree_basis(degrees, degrees) is not None
        doubled = [GradingClass(tuple(2 * x for x in d.free), d.torsion) for d in degrees]
        assert match_degree_basis(degrees, doubled) is None


def test_enumerate_p2_stars_and_bars(p2_fan):
    g = grading_group(p2_fan)
    one = g.variable_degrees()[0]
    alpha = g.class_from_free([2 * one.free[0]])
    got = g.enumerate_degrees(alpha, 0)
    assert len(got) == 6
    assert got == brute_force_degrees(g, alpha, frozenset(), 4)


def test_enumerate_p2_negative(p2_fan):
    g = grading_group(p2_fan)
    one = g.variable_degrees()[0]
    alpha = g.class_from_free([-3 * one.free[0]])
    got = g.enumerate_degrees(alpha, mask_of({1, 2, 3}))
    assert got == [(-1, -1, -1)]


def test_enumerate_fano7_unique_monomial(fano7_fan, fano7_basis):
    g = grading_group(fano7_fan)
    alpha = fano7_basis.cls([-6, -2])
    got = g.enumerate_degrees(alpha, mask_of({5, 6}))
    assert got == [(0, 0, 0, 0, -1, -1, 0)]


def test_enumerate_matches_bruteforce_randomly(fano7_fan, fano7_basis):
    g = grading_group(fano7_fan)
    rng = random.Random(1)
    for _ in range(10):
        a = [rng.randint(-2, 2) for _ in range(g.n)]
        alpha = g.degree_of(a)
        pattern = frozenset(i + 1 for i, v in enumerate(a) if v < 0)
        try:
            got = g.enumerate_degrees(alpha, mask_of(pattern))
        except UnboundedRegionError:
            continue
        expected = brute_force_degrees(g, alpha, pattern, 3)
        for vec in expected:
            assert vec in got
        assert tuple(a) in got


def test_unbounded_detection(p1_fan):
    g = grading_group(p1_fan)
    with pytest.raises(UnboundedRegionError):
        g.enumerate_degrees(g.zero_class(), mask_of({1}))


def test_enumeration_deterministic(fano7_fan, fano7_basis):
    g = grading_group(fano7_fan)
    alpha = fano7_basis.cls([3, 1])
    first = g.enumerate_degrees(alpha, 0)
    second = g.enumerate_degrees(alpha, 0)
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
            mask = mask_of(negative)
            if not literal_bounded(g, negative):
                with pytest.raises(UnboundedRegionError):
                    g.count_degrees(alpha, mask)
                with pytest.raises(UnboundedRegionError):
                    g.enumerate_degrees(alpha, mask)
                continue
            points = g.enumerate_degrees(alpha, mask)
            assert points == box_oracle(g, alpha, negative)
            assert g.count_degrees(alpha, mask) == len(points)
            if negative == own:
                assert tuple(a) in points
            checked += 1
    assert checked >= 8


# a = (1,1,2,1,2,1,2,1) on fano8: h^0(O(kD)) for k = 1, 2, 4, with D the
# class of x^a
FANO8_D = (1, 1, 2, 1, 2, 1, 2, 1)
FANO8_KD = {1: 2903, 2: 49910, 4: 1123083}


def test_count_pinned_on_a_large_fano8_class(fano8_fan):
    g = grading_group(fano8_fan)
    assert g.count_degrees(g.degree_of([4 * x for x in FANO8_D]), 0) == FANO8_KD[4]


@pytest.mark.parametrize("wide", [0, None])
def test_count_walk_in_small_chunks(monkeypatch, wide, fano7_fan, fano8_fan, p112_fan):
    # chunks of 7 rows cut the numpy frontier at many places; with a wide
    # threshold of 0 every count goes to numpy after the first level's
    # intervals, and None keeps the threshold the program uses
    monkeypatch.setattr(grading, "_CHUNK_ROWS", 7)
    if wide is None:
        wide = grading._WIDE
    monkeypatch.setattr(grading, "_WIDE", wide)
    walk, rows = grading._Fibration._walk, []

    def spy(self, k, prefixes, *args):
        rows.append(len(prefixes))
        return walk(self, k, prefixes, *args)

    monkeypatch.setattr(grading._Fibration, "_walk", spy)
    g8 = grading_group(fano8_fan)
    for k in (1, 2):
        assert g8.count_degrees(g8.degree_of([k * x for x in FANO8_D]), 0) == FANO8_KD[k]
    assert rows and max(rows) <= max(7, wide)
    rng = random.Random(wide)
    for fan in (fano7_fan, fano8_fan, p112_fan):
        g = grading_group(fan)
        masks = [m for m in range(1 << g.n) if g._fibration(m).bounded]
        for _ in range(6):
            alpha = g.degree_of([rng.randint(-3, 4) for _ in range(g.n)])
            for mask in masks:
                assert g.count_degrees(alpha, mask) == len(g.enumerate_degrees(alpha, mask))
    assert max(rows) <= max(7, wide)


def test_bound_right_hand_sides_are_exact_past_int64(fano7_fan):
    # every entry of a0 fits int64, but on four patterns some lam . c does
    # not; each must still equal the definition in exact integers
    g = grading_group(fano7_fan)
    bound = g.bind(g.degree_of([0, 0, 0, 0, 0, 2**60, -(2**61 + 2**60)]))
    assert bound.size < 2**62
    past = 0
    for mask in range(1 << g.n):
        fib = g._fibration(mask)
        if not fib.bounded:
            continue
        c = [1 + a if mask >> i & 1 else -a for i, a in enumerate(bound.a0)]

        def rhs(lam):
            return sum(m * x for m, x in zip(lam, c))

        bound_levels = fib.bind(bound)
        assert (bound_levels is None) == any(rhs(lam) > 0 for lam in fib.conditions)
        wanted = [rhs(lam) for level in fib.levels for side in level for _, lam in side]
        if bound_levels is not None:
            got = [r for level in bound_levels[0] for side in level for _, _, r in side]
            assert got == wanted == bound_levels[1].tolist()
        past += max(map(abs, wanted)) >= 2**63
    assert past == 4


@pytest.mark.parametrize("name", ["p2_fan", "fano7_fan", "fano8_fan"])
def test_boundedness_verdict_matches_recession_cone(name, request):
    g = grading_group(request.getfixturevalue(name))
    for mask in range(1 << g.n):
        negative = frozenset(i + 1 for i in range(g.n) if mask >> i & 1)
        assert g._fibration(mask).bounded == literal_bounded(g, negative), negative


def test_weighted_projective_torsion_free(p112_fan):
    g = grading_group(p112_fan)
    assert g.free_rank == 1 and g.torsion == ()
    basis = PublishedBasis(g, [(1,), (1,), (2,)])
    alpha = basis.cls([4])
    # monomials of weighted degree 4 in weights (1,1,2): a+b+2c=4 has
    # 5 + 3 + 1 solutions over c = 0, 1, 2
    assert len(g.enumerate_degrees(alpha, 0)) == 9


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
            g.enumerate_degrees(g.class_from_free([], [0]), mask_of(negative))
        with pytest.raises(UnboundedRegionError):
            g.count_degrees(g.class_from_free([], [1]), mask_of(negative))


def test_rank_deficient_ray_matrix_rejected():
    from coxcoh.fan import Fan

    fan = Fan(dim=2, rays=((1, 0), (-1, 0)), max_cones=((1, 2),))
    with pytest.raises(GradingError, match="rank"):
        grading_group(fan)
