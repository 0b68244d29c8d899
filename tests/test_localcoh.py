import gc
import random
import weakref
from itertools import combinations

import pytest

import coxcoh.fan as fan_module
import coxcoh.localcoh as localcoh
from coxcoh.fan import Fan, FanError, FanReport, irrelevant_generators, parse_fan
from coxcoh.fans import projective_space_fan
from coxcoh.homalg import HomalgError, PresentedModule, hilbert_function_box, box_around
from coxcoh.localcoh import (
    MAX_TABLE_RAYS,
    PatternComplexError,
    all_patterns,
    bracket_power_module,
    ext_limit_oracle,
    literal_pattern_cohomology,
    negative_support,
    pattern_cohomology,
    pattern_table,
)
from coxcoh.ring import Poly

from conftest import FANS_DIR, PSEUDO_FAN_TEXT, face_subdivided_fan, product_fan, table_rows

# seeded P^d+k covering every branch of the sphere route: d = 2 (degree 0
# is also d-2), d = 3, d = 4 (Euler closes the middle), d = 5 (one rank),
# d = 6 and 7 (two and three); fans/p1.fan is d = 1 (degree 0 is also d-1)
SPHERE_SHAPES = [(2, 6), (3, 5), (4, 4), (5, 3), (6, 2), (7, 1)]
# products of projective spaces, whose complexes are joins of simplex
# boundaries: an induced triangle or tetrahedron boundary, or its
# complement, puts a middle degree on a pattern of at most, or more than,
# half the rays, which the subdivided P^d above do not; (3, 3) and
# (4, 2, 1) reach the top ranked middle degree d-4 of d = 6 and 7
SPHERE_PRODUCTS = [(2, 2), (2, 1, 1), (3, 1, 1), (3, 3), (4, 2, 1)]
# (d, k, seed) of face-subdivided P^d, each of which has a nonzero pattern in
# every degree 0..d-1; 9 rays reach them all for d = 4..6, 10 rays for d = 7
SPHERE_FACE_SHAPES = [(4, 4, 0), (5, 3, 0), (6, 2, 0), (7, 2, 3)]


def supports_count(supports, neg, p):
    """Number of p-subsets whose supports jointly cover neg."""
    count = 0
    for c in combinations(range(len(supports)), p):
        union = set()
        for i in c:
            union |= supports[i]
        if neg <= union:
            count += 1
    return count


def test_p2_patterns(p2_fan):
    gens = irrelevant_generators(p2_fan)
    assert pattern_cohomology(gens, {1, 2, 3}, 3) == {3: 1}
    assert pattern_cohomology(gens, (), 3) == {}
    for pat in ({1}, {2}, {1, 2}, {2, 3}):
        assert pattern_cohomology(gens, pat, 3) == {}


def test_table_fano7(fano7_fan):
    assert table_rows(pattern_table(fano7_fan)) == [
        ((1, 2, 3, 4, 5, 6, 7), {6: 1}),
        ((1, 2, 3, 4, 7), {5: 1}),
        ((5, 6), {2: 1}),
    ]


def test_table_fano8(fano8_fan):
    assert table_rows(pattern_table(fano8_fan)) == [
        ((1, 2, 3, 4, 5, 6, 7, 8), {6: 1}),
        ((1, 2, 3, 4, 7, 8), {5: 1}),
        ((1, 4, 5, 6, 8), {4: 1}),
        ((1, 4, 8), {3: 1}),
        ((2, 3, 5, 6, 7), {4: 1}),
        ((2, 3, 7), {3: 1}),
        ((5, 6), {2: 1}),
    ]


def test_methods_agree_on_fano7(fano7_fan):
    gens = irrelevant_generators(fano7_fan)
    for pat in all_patterns(7):
        a = literal_pattern_cohomology(gens, pat, 7)
        b = pattern_cohomology(gens, pat, 7)
        assert a == b, pat


def test_methods_agree_randomized():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(2, 5)
        t = rng.randint(1, 6)
        supports = []
        for _ in range(t):
            size = rng.randint(1, n)
            supports.append(frozenset(rng.sample(range(1, n + 1), size)))
        for pat in all_patterns(n):
            a = literal_pattern_cohomology(supports, pat, n)
            b = pattern_cohomology(supports, pat, n)
            assert a == b, (supports, pat, a, b)


def test_euler_characteristic_invariant(fano7_fan):
    gens = irrelevant_generators(fano7_fan)
    supports = [frozenset(g.support) for g in gens]
    rng = random.Random(4)
    pats = [frozenset(rng.sample(range(1, 8), rng.randint(1, 7))) for _ in range(6)]
    for neg in pats:
        res = pattern_cohomology(gens, neg, 7)
        chi_hom = sum((-1) ** p * d for p, d in res.items())
        chi_cells = sum(
            (-1) ** p * supports_count(supports, neg, p) for p in range(len(supports) + 1)
        )
        assert chi_hom == chi_cells, neg


def test_vanishing_bounds(fano8_fan):
    gens = irrelevant_generators(fano8_fan)
    n = 8
    for _, dims in table_rows(pattern_table(fano8_fan)):
        for p in dims:
            assert 0 < p <= min(len(gens), n)


def test_pattern_outside_union_is_zero():
    supports = [frozenset({1, 2})]
    assert pattern_cohomology(supports, {3}, 3) == {}
    # every generator contains the pattern variable: one surviving cell at
    # level 1 and no differentials, the localization-of-a-hypersurface case
    assert pattern_cohomology(supports, {1}, 2) == {1: 1}
    assert pattern_cohomology([frozenset({1})], {1}, 1) == {1: 1}


def test_bracket_power_module():
    gens = [frozenset({1, 2})]
    M = bracket_power_module(gens, 2, 3)
    assert M.relations[0].entries[0] == Poly.monomial(2, (3, 3))


def test_ext_oracle_fano7(fano7_fan):
    # stage 1: levels 3 and 4 vanish identically; level 2 is the shifted
    # quotient by x5, x6
    hf3 = ext_limit_oracle(fano7_fan, 1, 3, box_radius=1)
    assert not any(hf3.values())
    hf4 = ext_limit_oracle(fano7_fan, 1, 4, box_radius=1)
    assert not any(hf4.values())
    hf2 = ext_limit_oracle(fano7_fan, 1, 2, box_radius=1)
    n = fano7_fan.n_rays
    shift = tuple(-1 if i in (4, 5) else 0 for i in range(n))
    expected = PresentedModule.quotient_by(
        [Poly.monomial(n, tuple(1 if i == j else 0 for i in range(n))) for j in (4, 5)],
        n,
        shift=shift,
    )
    assert hf2 == hilbert_function_box(expected, box_around(n, 1))


def test_ext_oracle_keeps_one_stage_and_frees_it_with_the_fan(monkeypatch):
    resolutions = []
    original = localcoh.free_resolution

    def tracked(module, *args, **kwargs):
        res = original(module, *args, **kwargs)
        resolutions.append(weakref.ref(res))
        return res

    monkeypatch.setattr(localcoh, "free_resolution", tracked)
    fan = projective_space_fan(2)
    for p in range(4):
        ext_limit_oracle(fan, 1, p, box_radius=1)
    assert len(resolutions) == 1  # every p of one stage shares its resolution
    ext_limit_oracle(fan, 2, 3, box_radius=1)
    gc.collect()
    assert len(resolutions) == 2 and resolutions[0]() is None  # only the last stage stays
    del fan
    gc.collect()
    assert resolutions[1]() is None


def test_ext_oracle_refuses_oversized_box_before_resolving(monkeypatch):
    def no_resolution(*args, **kwargs):
        raise AssertionError("resolved an oversized box")

    monkeypatch.setattr(localcoh, "free_resolution", no_resolution)
    fan = projective_space_fan(2)
    with pytest.raises(HomalgError, match="8120601 degrees exceeds"):
        ext_limit_oracle(fan, 1, 3, box_radius=100)


def test_oracle_agreement_small_fans(p1_fan, p2_fan):
    for fan in (p1_fan, p2_fan):
        n = fan.n_rays
        predicted = {}
        for pat, dims in table_rows(pattern_table(fan)):
            for p in dims:
                predicted.setdefault(p, set()).add(pat)
        for p in range(1, n + 1):
            hf = ext_limit_oracle(fan, 1, p, box_radius=2)
            got = {tuple(sorted(negative_support(d))) for d, v in hf.items() if v}
            assert got == predicted.get(p, set()), (fan.summary(), p)


def test_oracle_stage_2_deepens_the_cone(p2_fan):
    hf = ext_limit_oracle(p2_fan, 2, 3, box_radius=2)
    nonzero = {d for d, v in hf.items() if v}
    assert nonzero == {d for d in hf if all(-2 <= x <= -1 for x in d)}


def test_matrix_route_size_guard(fano8_fan):
    import pytest

    from coxcoh.localcoh import PatternComplexError

    gens = irrelevant_generators(fano8_fan)
    with pytest.raises(PatternComplexError, match="cells"):
        literal_pattern_cohomology(gens, range(1, 9), 8)


def test_methods_agree_larger_instance():
    # a 11-generator random system pushes the literal route to 2^11 cells
    rng = random.Random(2024)
    n, t = 6, 11
    supports = [
        frozenset(rng.sample(range(1, n + 1), rng.randint(1, 3))) for _ in range(t)
    ]
    for neg in ({1, 2}, {3, 4, 5}, set(range(1, n + 1))):
        a = literal_pattern_cohomology(supports, neg, n)
        b = pattern_cohomology(supports, neg, n)
        assert a == b, (supports, neg)


def test_oracle_stabilizes_on_the_box(p1_fan, p2_fan):
    # once the stage reaches the box radius, the finite-stage values equal
    # the limit cone indicator on the whole box, not just in support
    for fan, top in ((p1_fan, 2), (p2_fan, 3)):
        n = fan.n_rays
        radius = 2
        hf = ext_limit_oracle(fan, radius, top, box_radius=radius)
        for degree, value in hf.items():
            expected = 1 if all(x <= -1 for x in degree) else 0
            assert value == expected, (fan.summary(), degree, value)


def test_pattern_sweep_thread_safe(fano7_fan):
    # pattern computations are pure; a concurrent sweep must agree with the
    # serial one
    from concurrent.futures import ThreadPoolExecutor

    gens = irrelevant_generators(fano7_fan)
    serial = {
        pat: pattern_cohomology(gens, pat, 7) for pat in all_patterns(7)
    }
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(
            pool.map(lambda pat: (pat, pattern_cohomology(gens, pat, 7)),
                     all_patterns(7))
        )
    assert dict(results) == serial


def test_sphere_route_matches_both_oracles(reference_oracle, fan_generator):
    fans = [parse_fan(path.read_text()) for path in sorted(FANS_DIR.glob("*.fan"))]
    for d, k in SPHERE_SHAPES:
        rays, cones = fan_generator.generated_fan(d, k, fan_generator.seeded_rng(1, "sphere", d))
        fans.append(parse_fan(fan_generator.fan_text(rays, cones, "P^%d+%d" % (d, k))))
    fans += [product_fan(*map(projective_space_fan, dims)) for dims in SPHERE_PRODUCTS]
    for d, k, seed in SPHERE_FACE_SHAPES:
        fan = face_subdivided_fan(d, k, random.Random("face-%d-%d" % (d, seed)))
        assert pattern_table(fan).dims.any(axis=1).all(), (d, k, seed)
        fans.append(fan)
    assert sorted({fan.dim for fan in fans}) == list(range(1, 8))
    for fan in fans:
        n = fan.n_rays
        table = dict(table_rows(pattern_table(fan)))
        assert list(table) == sorted(table)
        gens = irrelevant_generators(fan)
        for pat in all_patterns(n)[1:]:
            want = pattern_cohomology(gens, pat, n)
            assert table.get(pat, {}) == want, (fan.summary(), pat)
        # the reference keys a pattern by its sheaf index, one below the level
        got = {(level - 1, pat): mult for pat, dims in table.items() for level, mult in dims.items()}
        cx = reference_oracle.FanComplex(n, fan.max_cones)
        assert got == reference_oracle.pattern_table(cx), fan.summary()


def test_pattern_table_refuses_an_invalid_fan():
    with pytest.raises(FanError, match="failed validation"):
        pattern_table(parse_fan(PSEUDO_FAN_TEXT))


def test_pattern_table_refuses_more_rays_than_its_limit(fan_generator):
    rays, cones = fan_generator.generated_fan(
        2, MAX_TABLE_RAYS - 2, fan_generator.seeded_rng(1, "too-many-rays")
    )
    fan = parse_fan(fan_generator.fan_text(rays, cones, "polygon"))
    with pytest.raises(PatternComplexError, match="limit is %d rays" % MAX_TABLE_RAYS):
        pattern_table(fan)


def test_sphere_route_reports_a_complex_that_is_no_sphere(monkeypatch):
    # P^2 without the cone {1, 3} leaves a path, not a circle; let it past
    # validation and the Euler characteristic disagrees with the components
    monkeypatch.setattr(fan_module, "validate_fan", lambda fan: FanReport(True, True, True))
    p2 = projective_space_fan(2)
    path = Fan(p2.dim, p2.rays, tuple(c for c in p2.max_cones if c != (1, 3)))
    with pytest.raises(PatternComplexError, match="Euler characteristic"):
        pattern_table(path)
