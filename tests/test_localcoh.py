import gc
import random
import weakref
from itertools import combinations

import pytest

import coxcoh.localcoh as localcoh
from coxcoh.fan import irrelevant_generators
from coxcoh.fans import projective_space_fan
from coxcoh.grading import SignPattern
from coxcoh.homalg import HomalgError, PresentedModule, hilbert_function_box, box_around
from coxcoh.localcoh import (
    all_patterns,
    bracket_power_module,
    ext_limit_oracle,
    literal_pattern_cohomology,
    negative_support,
    pattern_cohomology,
    pattern_table,
)
from coxcoh.ring import Poly


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
    full = pattern_cohomology(gens, SignPattern({1, 2, 3}), 3)
    assert full.dims == {3: 1}
    assert pattern_cohomology(gens, SignPattern(), 3).dims == {}
    for pat in ({1}, {2}, {1, 2}, {2, 3}):
        assert pattern_cohomology(gens, SignPattern(pat), 3).dims == {}


def test_table_fano7(fano7_fan):
    gens = irrelevant_generators(fano7_fan)
    table = [(e.pattern.as_sorted(), e.dims) for e in pattern_table(gens, 7)]
    assert table == [
        ((5, 6), {2: 1}),
        ((1, 2, 3, 4, 7), {5: 1}),
        ((1, 2, 3, 4, 5, 6, 7), {6: 1}),
    ]


def test_table_fano8(fano8_fan):
    gens = irrelevant_generators(fano8_fan)
    table = [(e.pattern.as_sorted(), e.dims) for e in pattern_table(gens, 8)]
    assert table == [
        ((5, 6), {2: 1}),
        ((1, 4, 8), {3: 1}),
        ((2, 3, 7), {3: 1}),
        ((1, 4, 5, 6, 8), {4: 1}),
        ((2, 3, 5, 6, 7), {4: 1}),
        ((1, 2, 3, 4, 7, 8), {5: 1}),
        ((1, 2, 3, 4, 5, 6, 7, 8), {6: 1}),
    ]


def test_methods_agree_on_fano7(fano7_fan):
    gens = irrelevant_generators(fano7_fan)
    for pat in all_patterns(7):
        a = literal_pattern_cohomology(gens, pat, 7)
        b = pattern_cohomology(gens, pat, 7)
        assert a.dims == b.dims, pat


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
            assert a.dims == b.dims, (supports, pat.as_sorted(), a.dims, b.dims)


def test_euler_characteristic_invariant(fano7_fan):
    gens = irrelevant_generators(fano7_fan)
    supports = [frozenset(g.support) for g in gens]
    rng = random.Random(4)
    pats = [frozenset(rng.sample(range(1, 8), rng.randint(1, 7))) for _ in range(6)]
    for neg in pats:
        res = pattern_cohomology(gens, SignPattern(neg), 7)
        chi_hom = sum((-1) ** p * d for p, d in res.dims.items())
        chi_cells = sum(
            (-1) ** p * supports_count(supports, neg, p) for p in range(len(supports) + 1)
        )
        assert chi_hom == chi_cells, neg


def test_vanishing_bounds(fano8_fan):
    gens = irrelevant_generators(fano8_fan)
    n = 8
    for entry in pattern_table(gens, n):
        for p in entry.dims:
            assert 0 < p <= min(len(gens), n)


def test_pattern_outside_union_is_zero():
    supports = [frozenset({1, 2})]
    assert pattern_cohomology(supports, SignPattern({3}), 3).dims == {}
    # every generator contains the pattern variable: one surviving cell at
    # level 1 and no differentials, the localization-of-a-hypersurface case
    assert pattern_cohomology(supports, SignPattern({1}), 2).dims == {1: 1}
    assert pattern_cohomology([frozenset({1})], SignPattern({1}), 1).dims == {1: 1}


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
    for kwargs in ({"box_radius": 100}, {"box": [(-100, 100)] * 3}):
        with pytest.raises(HomalgError, match="8120601 degrees exceeds"):
            ext_limit_oracle(fan, 1, 3, **kwargs)


def test_oracle_agreement_small_fans(p1_fan, p2_fan):
    for fan in (p1_fan, p2_fan):
        gens = irrelevant_generators(fan)
        n = fan.n_rays
        predicted = {}
        for entry in pattern_table(gens, n):
            for p, mult in entry.dims.items():
                predicted.setdefault(p, set()).add(entry.pattern.as_sorted())
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
        literal_pattern_cohomology(gens, SignPattern(range(1, 9)), 8)


def test_methods_agree_larger_instance():
    # a 11-generator random system pushes the literal route to 2^11 cells
    rng = random.Random(2024)
    n, t = 6, 11
    supports = [
        frozenset(rng.sample(range(1, n + 1), rng.randint(1, 3))) for _ in range(t)
    ]
    for neg in ({1, 2}, {3, 4, 5}, set(range(1, n + 1))):
        a = literal_pattern_cohomology(supports, SignPattern(neg), n)
        b = pattern_cohomology(supports, SignPattern(neg), n)
        assert a.dims == b.dims, (supports, neg)


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
        pat.as_sorted(): pattern_cohomology(gens, pat, 7).dims for pat in all_patterns(7)
    }
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(
            pool.map(lambda pat: (pat.as_sorted(), pattern_cohomology(gens, pat, 7).dims),
                     all_patterns(7))
        )
    assert dict(results) == serial
