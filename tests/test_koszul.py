import random

from coxcoh.fan import irrelevant_generators
from coxcoh.homalg import (
    PresentedModule,
    box_around,
    hilbert_function_box,
    presented_is_zero,
)
from coxcoh.koszul import (
    KoszulComplex,
    generates_unit_ideal,
    is_regular_sequence,
    self_duality_check,
)
from coxcoh.ring import Poly, parse_poly


def monomial_sequence(rng, n, length, allow_unit=False):
    seq = []
    for _ in range(length):
        lo = 0 if allow_unit else 0
        e = tuple(rng.randint(0, 2) for _ in range(n))
        if not allow_unit and not any(e):
            e = tuple(1 if i == rng.randrange(n) else 0 for i in range(n))
        seq.append(Poly.monomial(n, e))
    return seq


def test_homology_endpoints():
    n = 2
    S = PresentedModule.free(n)
    x, y = parse_poly("x1", n), parse_poly("x2", n)
    h0 = KoszulComplex([x, y], S).homology(0)
    assert {d for d, v in hilbert_function_box(h0, box_around(n, 1)).items() if v} == {(0, 0)}
    assert presented_is_zero(KoszulComplex([x, y], S).homology(1))
    assert presented_is_zero(KoszulComplex([x, y], S).homology(2))


def test_top_homology_is_annihilator():
    n = 1
    M = PresentedModule.quotient_by([parse_poly("x1", n)], n)
    h1 = KoszulComplex([parse_poly("x1", n)], M).homology(1)
    # everything is annihilated: a copy of M shifted by deg x
    assert hilbert_function_box(h1, [(-1, 2)]) == {(-1,): 0, (0,): 0, (1,): 1, (2,): 0}


def test_unit_ideal_acyclic():
    n = 1
    M = PresentedModule.quotient_by([parse_poly("x1", n)], n)
    seq = [Poly.const(n, 1), parse_poly("x1", n)]
    assert generates_unit_ideal(seq)
    assert not generates_unit_ideal([]) and not generates_unit_ideal([Poly.zero(n)])
    for p in range(3):
        assert presented_is_zero(KoszulComplex(seq, M).homology(p))


def test_regularity_examples():
    n = 3
    S = PresentedModule.free(n)
    xs = [parse_poly("x%d" % i, n) for i in (1, 2, 3)]
    assert is_regular_sequence(xs, S)
    assert not is_regular_sequence([xs[0], xs[0]], S)
    assert not is_regular_sequence([Poly.const(n, 1)], S)


def test_first_nonvanishing_index_matches_depth():
    # handcrafted: <x1x2, x1x3> has grade 1, so H_2 = 0 and H_1 != 0;
    # a regular pair has H_1 = H_2 = 0; a unit pair has everything zero
    n = 3
    S = PresentedModule.free(n)
    xy, xz = parse_poly("x1*x2", n), parse_poly("x1*x3", n)
    assert presented_is_zero(KoszulComplex([xy, xz], S).homology(2))
    assert not presented_is_zero(KoszulComplex([xy, xz], S).homology(1))
    x, y = parse_poly("x1", n), parse_poly("x2", n)
    assert presented_is_zero(KoszulComplex([x, y], S).homology(1))
    # depth 0 situation: the annihilated module sees H_top != 0
    M = PresentedModule.quotient_by([x, y, parse_poly("x3", n)], n)
    assert not presented_is_zero(KoszulComplex([x], M).homology(1))


def test_self_duality_handpicked():
    n = 2
    S = PresentedModule.free(n)
    x, y = parse_poly("x1", n), parse_poly("x2", n)
    assert self_duality_check([x, y], S, 0)
    assert self_duality_check([x, y], S, 1)
    assert self_duality_check([x, y], S, 2)
    n = 1
    M = PresentedModule.quotient_by([parse_poly("x1", n)], n)
    assert self_duality_check([parse_poly("x1", n)], M, 1)
    assert self_duality_check([Poly.const(n, 1)], M, 0)


def test_theorem_suite_randomized():
    # theorems C (unit => acyclic), D (regular => positive homology vanishes),
    # E (graded self-duality) over random monomial sequences in <= 4 variables
    rng = random.Random(1234)
    checked_c = checked_d = checked_e = 0
    for trial in range(60):
        n = rng.randint(1, 4)
        d = rng.randint(1, 3)
        S = PresentedModule.free(n)
        if trial % 10 == 0:
            seq = [Poly.const(n, 1)] + monomial_sequence(rng, n, d - 1) if d > 1 else [
                Poly.const(n, 1)
            ]
        else:
            seq = monomial_sequence(rng, n, d)
        complex_ = KoszulComplex(seq, S)
        if generates_unit_ideal(seq):
            for p in range(d + 1):
                assert presented_is_zero(complex_.homology(p))
            checked_c += 1
            continue
        if is_regular_sequence(seq, S):
            for p in range(1, d + 1):
                assert presented_is_zero(complex_.homology(p))
            checked_d += 1
        radius = 3 if n <= 3 else 2
        for p in range(d + 1):
            assert self_duality_check(seq, S, p, box_radius=radius), (seq, p)
        checked_e += 1
    assert checked_c >= 3 and checked_d >= 5 and checked_e >= 30


def test_differentials_compose_to_zero():
    rng = random.Random(77)
    from coxcoh.ring import FreeModuleElement

    for _ in range(10):
        n = rng.randint(1, 3)
        d = rng.randint(2, 3)
        seq = monomial_sequence(rng, n, d)
        M = PresentedModule.free(n)
        complex_ = KoszulComplex(seq, M)
        for p in range(2, d + 1):
            inner = complex_.boundary_columns(p, complex_.rank)
            outer = complex_.boundary_columns(p - 1, complex_.rank)
            for col in inner:
                acc = FreeModuleElement(complex_.level_rank(p - 2), n)
                for j, entry in enumerate(col.entries):
                    if not entry.is_zero():
                        acc = acc + outer[j].poly_mul(entry)
                assert acc.is_zero()


def test_koszul_builds_only_its_window(fano8_fan, monkeypatch):
    # fano8's irrelevant ideal has 18 generators, so the whole complex has
    # 2^18 basis elements: H_p and H^p may build only d_p and d_(p+1)
    n = fano8_fan.n_rays
    seq = [g.as_poly(n) for g in irrelevant_generators(fano8_fan)]
    assert len(seq) == 18
    original = KoszulComplex.boundary_columns
    asked = []

    def recording(self, p, rank):
        assert p in (level, level + 1), (route.__name__, level, p)
        asked.append(p)
        return original(self, p, rank)

    monkeypatch.setattr(KoszulComplex, "boundary_columns", recording)
    complex_ = KoszulComplex(seq, PresentedModule.free(n))
    for level in (0, 1, 17, 18):
        for route in (complex_.homology, complex_.cohomology):
            asked.clear()
            route(level)
            assert asked, (route.__name__, level)


def test_term_counts():
    n = 3
    S = PresentedModule.free(n)
    seq = [parse_poly("x1", n), parse_poly("x2", n), parse_poly("x3", n)]
    complex_ = KoszulComplex(seq, S)
    assert [complex_.level_rank(p) for p in range(4)] == [1, 3, 3, 1]
    M2 = PresentedModule.free(n, 2)
    rank2 = KoszulComplex(seq, M2)
    assert [rank2.level_rank(p) for p in range(4)] == [2, 6, 6, 2]
