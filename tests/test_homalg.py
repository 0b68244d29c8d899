import random
from itertools import product

import pytest

from coxcoh.fan import irrelevant_generators
from coxcoh.homalg import (
    FreeResolution,
    HomalgError,
    HomStrands,
    PresentedModule,
    box_around,
    ext_presentation,
    free_resolution,
    hilbert_function_box,
    minimal_generators,
    presented_is_zero,
    subquotient_presentation,
)
from coxcoh.ring import FreeModuleElement, Poly, parse_poly


def quotient(n, *texts):
    return PresentedModule.quotient_by([parse_poly(t, n) for t in texts], n)


def shifted_quotient(n, shift, *texts):
    return PresentedModule.quotient_by([parse_poly(t, n) for t in texts], n, shift=shift)


def test_resolution_koszul_one_variable():
    M = quotient(1, "x1")
    res = free_resolution(M)
    assert res.ranks == [1, 1]
    assert res.differentials[0][0].entries[0] == parse_poly("x1", 1)
    assert res.verify_complex()


def test_resolution_koszul_three_variables():
    M = quotient(3, "x1", "x2", "x3")
    res = free_resolution(M)
    assert res.ranks == [1, 3, 3, 1]
    assert res.verify_complex()
    assert res.length() <= 3


def test_resolution_shifts_are_tracked():
    M = quotient(2, "x1*x2", "x2^2")
    res = free_resolution(M)
    assert res.shifts[0] == [(0, 0)]
    assert sorted(res.shifts[1]) == [(1, 1), (0, 2)] or sorted(res.shifts[1]) == [(0, 2), (1, 1)]
    assert res.verify_complex()


def test_resolution_exactness_certificate():
    # kernel generators of d_k reduce to zero against the columns of d_{k+1}
    from coxcoh.groebner import buchberger, divide, syzygy

    M = quotient(3, "x1*x2", "x2*x3", "x1*x3")
    res = free_resolution(M)
    assert res.verify_complex()
    for k, cols in enumerate(res.differentials[:-1]):
        kernel_gens = syzygy(cols)
        nxt = res.differentials[k + 1]
        gb = buchberger(nxt)
        for v in kernel_gens:
            _, r = divide(v, gb.generators, gb.order)
            assert r.is_zero()


def test_minimal_generators_prunes():
    n = 2
    x = parse_poly("x1", n)
    x2 = parse_poly("x1^2", n)
    vs = [FreeModuleElement(1, n, [p]) for p in (x2, x)]
    kept = minimal_generators(vs, [(0, 0)])
    assert len(kept) == 1
    assert kept[0].entries[0] == x


def test_hom_examples():
    # Hom(M, N) is Ext^0(M, N)
    n = 1
    R = PresentedModule.free(n)
    M = quotient(n, "x1")
    h1 = ext_presentation(0, free_resolution(R), M)
    assert hilbert_function_box(h1, [(0, 3)]) == {(0,): 1, (1,): 0, (2,): 0, (3,): 0}
    assert presented_is_zero(ext_presentation(0, free_resolution(M), R))
    h3 = ext_presentation(0, free_resolution(M), M)
    assert hilbert_function_box(h3, [(0, 2)]) == {(0,): 1, (1,): 0, (2,): 0}


def test_hom_of_free_modules():
    n = 2
    F2 = PresentedModule.free(n, 2)
    M = quotient(n, "x1")
    h = ext_presentation(0, free_resolution(F2), M)
    # Hom(R^2, R/x) = (R/x)^2: dimension 2 at each power of x2
    hf = hilbert_function_box(h, [(0, 1), (0, 1)])
    assert hf == {(0, 0): 2, (0, 1): 2, (1, 0): 0, (1, 1): 0}


def test_ext_examples():
    n = 1
    R = PresentedModule.free(n)
    M = quotient(n, "x1")
    assert presented_is_zero(ext_presentation(0, free_resolution(M), R))
    e1 = ext_presentation(1, free_resolution(M), R)
    assert hilbert_function_box(e1, [(-2, 1)]) == {(-2,): 0, (-1,): 1, (0,): 0, (1,): 0}
    assert presented_is_zero(ext_presentation(2, free_resolution(M), R))
    assert ext_presentation(5, free_resolution(M), R).ambient_rank == 0


def test_ext_of_a_complex_with_a_level_of_rank_zero():
    # F = S(-1) -> 0: H^0 Hom(F, S) is S(1), free on a class of degree -1
    res = FreeResolution(ranks=[1, 0], differentials=[[]], shifts=[[(1,)], []], n=1)
    R = PresentedModule.free(1)
    box = [(-2, 1)]
    expected = {(-2,): 0, (-1,): 1, (0,): 1, (1,): 1}
    assert hilbert_function_box(ext_presentation(0, res, R), box) == expected
    assert presented_is_zero(ext_presentation(1, res, R))
    strands = HomStrands(res)
    assert strands.hilbert_box(0, 1, box) == expected
    assert not any(strands.hilbert_box(1, 1, box).values())


def test_hom_strands_match_the_resolution_of_each_bracket_power():
    # Ext^p(S/I^[m], S) from the strands of one resolution of S/I equals
    # the Ext presentation of a resolution of S/I^[m] itself, for monomial
    # ideals I that need not be squarefree
    rng = random.Random(17)
    for _ in range(12):
        n = rng.randint(1, 3)
        gens = {tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))}
        gens = [e for e in gens if any(e)] or [(1,) * n]
        strands = HomStrands(free_resolution(
            PresentedModule.quotient_by([Poly.monomial(n, e) for e in gens], n)
        ))
        box = box_around(n, 2)
        for m in (1, 2):
            res = free_resolution(PresentedModule.quotient_by(
                [Poly.monomial(n, [m * x for x in e]) for e in gens], n
            ))
            for p in range(res.length() + 2):
                direct = hilbert_function_box(ext_presentation(p, res, PresentedModule.free(n)), box)
                assert strands.hilbert_box(p, m, box) == direct, (gens, m, p)


def test_hom_strands_refuse_an_entry_of_more_than_one_term():
    n = 2
    d1 = FreeModuleElement(1, n, [parse_poly("x1 + x2", n)])
    res = FreeResolution(ranks=[1, 1], differentials=[[d1]], shifts=[[(0, 0)], [(1, 0)]], n=n)
    with pytest.raises(HomalgError, match="not a single term"):
        HomStrands(res)


def test_ext0_equals_hom_hilbert():
    # Hom(S/I, S/J) = (J : I)/J for monomial ideals I and J: at degree a it
    # is 1 exactly when a >= 0, x^a is not in J and x^a * g is in J for
    # every generator g of I
    def in_ideal(a, gens):
        return any(all(x >= e for x, e in zip(a, g)) for g in gens)

    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 3)
        i_gens, j_gens = (
            [e for e in (tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(2)) if any(e)]
            for _ in range(2)
        )
        M = PresentedModule.quotient_by([Poly.monomial(n, e) for e in i_gens], n)
        N = PresentedModule.quotient_by([Poly.monomial(n, e) for e in j_gens], n)
        box = box_around(n, 2)
        expected = {
            a: int(
                min(a) >= 0
                and not in_ideal(a, j_gens)
                and all(in_ideal([x + e for x, e in zip(a, g)], j_gens) for g in i_gens)
            )
            for a in product(*(range(lo, hi + 1) for lo, hi in box))
        }
        assert hilbert_function_box(ext_presentation(0, free_resolution(M), N), box) == expected


def test_euler_characteristic_against_dual_complex():
    # for N free: sum_i (-1)^i dim Ext^i(M,N)_a = sum_k (-1)^k dim Hom(F_k,N)_a
    n = 2
    M = quotient(n, "x1*x2", "x2^2")
    R = PresentedModule.free(n)
    res = free_resolution(M)
    box = box_around(n, 2)
    lhs = {}
    for i in range(res.length() + 1):
        hf = hilbert_function_box(ext_presentation(i, res, R), box)
        for d, v in hf.items():
            lhs[d] = lhs.get(d, 0) + (-1) ** i * v
    rhs = {}
    for k in range(res.length() + 1):
        dual = PresentedModule.free(n, res.ranks[k], [tuple(-x for x in s) for s in res.shifts[k]])
        hf = hilbert_function_box(dual, box)
        for d, v in hf.items():
            rhs[d] = rhs.get(d, 0) + (-1) ** k * v
    assert lhs == rhs


def test_ext_vanishes_above_resolution_length():
    n = 2
    M = quotient(n, "x1", "x2")
    R = PresentedModule.free(n)
    res = free_resolution(M)
    for i in range(res.length() + 1, res.length() + 3):
        assert presented_is_zero(ext_presentation(i, res, R))


def test_hilbert_function_examples():
    assert hilbert_function_box(quotient(1, "x1"), [(0, 3)]) == {
        (0,): 1,
        (1,): 0,
        (2,): 0,
        (3,): 0,
    }
    n = 2
    free_shifted = PresentedModule.free(n, 1, [(1, 0)])
    hf = hilbert_function_box(free_shifted, [(0, 1), (0, 1)])
    assert hf == {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}


def test_hilbert_function_matches_degreewise_rank():
    # each degree on its own: the ambient monomials at d minus the rank of
    # the relations multiplied up to d, with rows read off the products
    from itertools import product

    from test_groebner import gauss_rank

    rng = random.Random(41)
    for _ in range(30):
        n, rank = rng.randint(1, 3), rng.randint(1, 3)
        shifts = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rank)]
        rels = []
        for _ in range(rng.randint(0, 4)):
            deg = tuple(max(s) + rng.randint(0, 2) for s in zip(*shifts))
            entries = [Poly.zero(n) for _ in range(rank)]
            for i in rng.sample(range(rank), rng.randint(1, rank)):
                exp = tuple(a - b for a, b in zip(deg, shifts[i]))
                entries[i] = Poly.monomial(n, exp, rng.choice([-2, -1, 1, 3]))
            rels.append(FreeModuleElement(rank, n, entries))
        M = PresentedModule(rank, n, rels, shifts)
        box = [(-2, 2)] * n
        hf = hilbert_function_box(M, box)
        assert list(hf) == list(product(range(-2, 3), repeat=n))
        for d in hf:
            slots = [i for i in range(rank) if all(a >= b for a, b in zip(d, shifts[i]))]
            rows = []
            for rel, rdeg in zip(rels, M.relation_degrees()):
                up = tuple(a - b for a, b in zip(d, rdeg))
                if min(up) >= 0:
                    v = rel.mono_mul(up)
                    rows.append(
                        [v.entries[i].terms.get(tuple(a - b for a, b in zip(d, shifts[i])), 0)
                         for i in slots]
                    )
            assert hf[d] == len(slots) - (gauss_rank(rows) if rows and slots else 0), (M, d)


def test_box_size_limit():
    assert len(box_around(8, 2)) == 8  # fano8 at radius 2: 390,625 degrees
    assert box_around(2, 511) == [(-511, 511)] * 2  # 1023^2 <= 2^20
    with pytest.raises(HomalgError, match="1050625 degrees exceeds"):
        box_around(2, 512)
    with pytest.raises(HomalgError, match="exceeds the limit"):
        hilbert_function_box(PresentedModule.free(1), [(0, 2**20)])


def test_hilbert_function_quotient_boxes(fano7_fan):
    n = fano7_fan.n_rays
    M = quotient(n, "x5", "x6")
    box = [(0, 2) if i in (4, 5) else (0, 0) for i in range(n)]
    hf = hilbert_function_box(M, box)
    assert sum(hf.values()) == 1
    assert hf[(0,) * n] == 1


def test_hilbert_requires_grading():
    M = PresentedModule(1, 1, [], None)
    with pytest.raises(HomalgError):
        hilbert_function_box(M, [(0, 1)])


def test_resolution_ranks_fano7(fano7_fan):
    n = fano7_fan.n_rays
    gens = irrelevant_generators(fano7_fan)
    M = PresentedModule.quotient_by([g.as_poly(n) for g in gens], n)
    res = free_resolution(M)
    assert res.ranks == [1, 10, 25, 30, 20, 7, 1]
    assert res.verify_complex()
    assert res.length() <= n
    # exactness certificate on the first interior levels: kernel generators
    # of d_k reduce to zero against the columns of d_{k+1}
    from coxcoh.groebner import buchberger, divide, syzygy

    for k in (0, 1):
        kernel_gens = syzygy(res.differentials[k])
        gb = buchberger(res.differentials[k + 1])
        for v in kernel_gens:
            _, r = divide(v, gb.generators, gb.order)
            assert r.is_zero()


def test_subquotient_of_everything_is_zero():
    n = 1
    gens = [FreeModuleElement(1, n, [parse_poly("x1", n)])]
    denom = [FreeModuleElement(1, n, [parse_poly("x1", n)])]
    sub = subquotient_presentation(gens, denom, [(0,)], n)
    assert presented_is_zero(sub)
