import random
from fractions import Fraction
from itertools import product

from coxcoh.groebner import (
    GREVLEX,
    LEX,
    buchberger,
    divide,
    kernel_of_quotient_map,
    membership,
    syzygy,
    _lead,
)
from coxcoh.ring import FreeModuleElement, Poly, parse_poly


def rv(text, n):
    return FreeModuleElement(1, n, [parse_poly(text, n)])


def vec(n, *texts):
    return FreeModuleElement(len(texts), n, [parse_poly(t, n) for t in texts])


def dot(fs, s):
    acc = Poly.zero(s.n)
    rank = fs[0].rank
    per_coord = [Poly.zero(s.n) for _ in range(rank)]
    for f, c in zip(fs, s.entries):
        for i in range(rank):
            per_coord[i] = per_coord[i] + f.entries[i] * c
    return per_coord


def is_syzygy(fs, s):
    return all(p.is_zero() for p in dot(fs, s))


def assert_transformation_matrices(fs, gb):
    """F = G*A and G = F*B, read from the sparse columns of A and B, whose
    keys must be in range and whose entries must all be nonzero."""
    G = gb.generators
    assert len(gb.a_columns) == len(fs) and len(gb.b_columns) == len(G)
    for targets, columns, factors in ((fs, gb.a_columns, G), (G, gb.b_columns, fs)):
        for target, col in zip(targets, columns):
            acc = FreeModuleElement(target.rank, target.n)
            for i, entry in col.items():
                assert 0 <= i < len(factors) and not entry.is_zero()
                acc = acc + factors[i].poly_mul(entry)
            assert acc == target


# ---------------------------------------------------------------------------
# order sanity
# ---------------------------------------------------------------------------


def test_order_properties():
    rng = random.Random(2)
    for order in (GREVLEX, LEX):
        exps = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(40)]
        keys = {e: order.exp_key(e) for e in exps}
        one = (0, 0, 0)
        for e in exps:
            if e != one:
                assert keys[e] > order.exp_key(one)  # well-founded above 1
        for a in exps:
            for b in exps:
                if keys[a] > keys[b]:
                    c = (1, 0, 2)
                    ac = tuple(x + y for x, y in zip(a, c))
                    bc = tuple(x + y for x, y in zip(b, c))
                    assert order.exp_key(ac) > order.exp_key(bc)  # multiplicative


def test_grevlex_classic_comparisons():
    # graded first; within a degree the smallest last exponent wins
    k = GREVLEX.exp_key
    assert k((2, 0, 0)) > k((1, 1, 0)) > k((0, 2, 0)) > k((1, 0, 1)) > k((0, 1, 1)) > k((0, 0, 2))
    assert k((0, 0, 2)) > k((1, 0, 0))


def test_position_over_term_prefers_lower_positions():
    key = GREVLEX.term_key
    assert key((0, (0, 0))) > key((1, (5, 5)))


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------


def test_divide_examples():
    q, r = divide(rv("x1^2 + x1*x2", 2), [rv("x1", 2)])
    assert q == {0: parse_poly("x1 + x2", 2)} and r.is_zero()
    q, r = divide(rv("x2", 2), [rv("x1", 2)])
    assert q == {} and r.entries[0] == parse_poly("x2", 2)
    q, r = divide(rv("x1*x2*x3", 3), [rv("x1*x2", 3), rv("x2*x3", 3)])
    assert r.is_zero() and q == {0: parse_poly("x3", 3)}


def random_module_terms(rng, n, rank, count, maxdeg):
    return [
        (rng.randrange(rank), tuple(rng.randint(0, maxdeg) for _ in range(n)))
        for _ in range(count)
    ]


def test_divide_contract_randomized():
    # both orders, on the ring and on rank-2 modules (position over term)
    for order, rank in ((GREVLEX, 1), (LEX, 1), (GREVLEX, 2), (LEX, 2)):
        rng = random.Random(7 + 10 * rank + (order is LEX))
        for _ in range(50):
            n = rng.randint(1, 3)
            f = FreeModuleElement(rank, n)
            for pos, e in random_module_terms(rng, n, rank, rng.randint(1, 4), 3):
                term = Poly.monomial(n, e, rng.randint(-3, 3))
                f = f + FreeModuleElement.unit(rank, n, pos, term)
            basis = []
            for _ in range(rng.randint(1, 3)):
                g = FreeModuleElement(rank, n)
                # leads with coefficient 1 and 2, and tails that reach other positions
                for pos, e in random_module_terms(rng, n, rank, rng.randint(1, 2), 2):
                    term = Poly.monomial(n, e, rng.randint(1, 2))
                    g = g + FreeModuleElement.unit(rank, n, pos, term)
                basis.append(g)
            q, r = divide(f, basis, order)
            # sparse quotients: keys in range, no zero entry
            assert all(0 <= i < len(basis) and not qq.is_zero() for i, qq in q.items())
            recomposed = r
            for i, qq in q.items():
                recomposed = recomposed + basis[i].poly_mul(qq)
            assert recomposed == f
            # no remainder term divisible by a basis lead
            for g in basis:
                if g.is_zero():
                    continue
                pos, exp, _ = _lead(g, order)
                for rpos, rexp, _ in r.iter_terms():
                    assert not (rpos == pos and all(x <= y for x, y in zip(exp, rexp)))
            # lm(q_i g_i) <= lm(f)
            if not f.is_zero():
                fkey = order.term_key(_lead(f, order)[:2])
                for i, qq in q.items():
                    prod = basis[i].poly_mul(qq)
                    assert order.term_key(_lead(prod, order)[:2]) <= fkey


def test_heap_key_sorts_as_term_key():
    rng = random.Random(19)
    for order in (GREVLEX, LEX):
        for _ in range(30):
            n = rng.randint(1, 4)
            terms = list(set(random_module_terms(rng, n, rng.randint(1, 3), 40, 3)))
            by_heap = sorted(terms, key=order.heap_key)
            assert by_heap == sorted(terms, key=order.term_key, reverse=True)
            # distinct terms get distinct keys, so a heap never ties
            assert len({order.heap_key(t) for t in terms}) == len(terms)


# ---------------------------------------------------------------------------
# buchberger
# ---------------------------------------------------------------------------


def test_buchberger_single_element():
    gb = buchberger([rv("x1", 1)])
    assert [g.entries[0] for g in gb.generators] == [parse_poly("x1", 1)]
    assert gb.a_columns == [{0: Poly.const(1, 1)}]
    assert gb.b_columns == [{0: Poly.const(1, 1)}]


def test_buchberger_monomial_pair_is_self_groebner():
    gb = buchberger([rv("x1*x2", 3), rv("x2*x3", 3)])
    assert sorted(format(g.entries[0].terms) for g in gb.generators) == sorted(
        format(p.terms) for p in (parse_poly("x1*x2", 3), parse_poly("x2*x3", 3))
    )


def random_module_vectors(rng, n, rank, count, monomial_only=True):
    out = []
    for _ in range(count):
        entries = [Poly.zero(n) for _ in range(rank)]
        for _ in range(rng.randint(1, 2)):
            pos = rng.randrange(rank)
            e = tuple(rng.randint(0, 2) for _ in range(n))
            coeff = rng.randint(1, 3) if monomial_only else rng.randint(-3, 3)
            entries[pos] = entries[pos] + Poly.monomial(n, e, coeff)
        v = FreeModuleElement(rank, n, entries)
        if not v.is_zero():
            out.append(v)
    return out


def test_buchberger_invariants_randomized():
    rng = random.Random(21)
    for trial in range(40):
        n = rng.randint(1, 3)
        rank = rng.choice([1, 1, 2])
        fs = random_module_vectors(rng, n, rank, rng.randint(1, 3), monomial_only=False)
        if not fs:
            continue
        gb = buchberger(fs)
        G = gb.generators
        # monic leads
        for g in G:
            assert _lead(g, gb.order)[2] == 1
        assert_transformation_matrices(fs, gb)
        # every S-vector reduces to zero
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                pi, ei, _ = _lead(G[i], gb.order)
                pj, ej, _ = _lead(G[j], gb.order)
                if pi != pj:
                    continue
                lcm = tuple(max(a, b) for a, b in zip(ei, ej))
                s = G[i].mono_mul(tuple(a - b for a, b in zip(lcm, ei))) - G[j].mono_mul(
                    tuple(a - b for a, b in zip(lcm, ej))
                )
                _, r = divide(s, G, gb.order)
                assert r.is_zero()


def test_membership_order_independent():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 3)
        fs = random_module_vectors(rng, n, 1, 2, monomial_only=False)
        if not fs:
            continue
        gb1 = buchberger(fs, GREVLEX)
        gb2 = buchberger(fs, LEX)
        probe = random_module_vectors(rng, n, 1, 1, monomial_only=False)
        if not probe:
            continue
        assert membership(probe[0], gb1) == membership(probe[0], gb2)
        # elements of the module are recognized under both orders
        combo = fs[0].poly_mul(parse_poly("x1 + 1", n))
        assert membership(combo, gb1) and membership(combo, gb2)


# ---------------------------------------------------------------------------
# syzygies: examples, contract, and the degreewise kernel oracle
# ---------------------------------------------------------------------------


def test_syzygy_examples():
    assert syzygy([rv("x1", 1)]) == []
    s = syzygy([rv("x1*x2", 3), rv("x2*x3", 3)])
    fs = [rv("x1*x2", 3), rv("x2*x3", 3)]
    assert s and all(is_syzygy(fs, v) for v in s)
    # (x3, -x1) generates; check both inclusions via membership
    target = vec(3, "x3", "-x1")
    gb = buchberger(s)
    assert membership(target, gb)
    gb2 = buchberger([target])
    assert all(membership(v, gb2) for v in s)


def test_syzygy_koszul_for_regular_sequence():
    fs = [rv("x1", 3), rv("x2", 3), rv("x3", 3)]
    s = syzygy(fs)
    assert all(is_syzygy(fs, v) for v in s)
    kosz = [vec(3, "x2", "-x1", "0"), vec(3, "x3", "0", "-x1"), vec(3, "0", "x3", "-x2")]
    gb = buchberger(s)
    for k in kosz:
        assert membership(k, gb)
    gbk = buchberger(kosz)
    for v in s:
        assert membership(v, gbk)


def gauss_rank(rows):
    """Test-local exact rank, independent of the package implementation."""
    m = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [v / m[rank][c] for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[rank])]
        rank += 1
    return rank


def degreewise_kernel_dim(fs, degree):
    """Oracle: dimension of the syzygies of monomial vectors fs in one fine
    degree, by exact linear algebra over the monomial basis."""
    n = fs[0].n
    rank = fs[0].rank
    cols = []
    col_labels = []
    for i, f in enumerate(fs):
        fdeg = f.fine_degree()
        residual = tuple(d - fd for d, fd in zip(degree, fdeg))
        if any(x < 0 for x in residual):
            continue
        col_labels.append((i, residual))
    basis = {}
    mat = []
    for i, residual in col_labels:
        entries = {}
        for pos, e, c in fs[i].iter_terms():
            key = (pos, tuple(x + y for x, y in zip(e, residual)))
            entries[key] = entries.get(key, 0) + c
            basis.setdefault(key, len(basis))
        mat.append(entries)
    if not col_labels:
        return 0
    rows = [[0] * len(col_labels) for _ in range(len(basis))]
    for ci, entries in enumerate(mat):
        for key, c in entries.items():
            rows[basis[key]][ci] = c
    return len(col_labels) - gauss_rank(rows) if rows else len(col_labels)


def degreewise_span_dim(vectors, fs_degrees, degree):
    """Oracle: dimension of the degree slice of the span of syzygy vectors."""
    if not vectors:
        return 0
    n = vectors[0].n
    rank = vectors[0].rank
    basis = {}
    rows = []
    for v in vectors:
        vdeg = v.fine_degree(fs_degrees)
        residual = tuple(d - vd for d, vd in zip(degree, vdeg))
        if any(x < 0 for x in residual):
            continue
        entries = {}
        for pos, e, c in v.iter_terms():
            key = (pos, tuple(x + y for x, y in zip(e, residual)))
            entries[key] = entries.get(key, 0) + c
            basis.setdefault(key, len(basis))
        rows.append(entries)
    if not rows:
        return 0
    dense = [[0] * len(basis) for _ in range(len(rows))]
    for ri, entries in enumerate(rows):
        for key, c in entries.items():
            dense[ri][basis[key]] = c
    return gauss_rank(dense)


def test_syzygy_completeness_against_degreewise_oracle():
    rng = random.Random(33)
    trials = 0
    while trials < 100:
        n = rng.randint(1, 3)
        count = rng.randint(1, 3)
        fs = []
        for _ in range(count):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            fs.append(FreeModuleElement(1, n, [Poly.monomial(n, e)]))
        trials += 1
        s = syzygy(fs)
        for v in s:
            assert is_syzygy(fs, v)
        fs_degrees = [f.fine_degree() for f in fs]
        for degree in product(range(0, 5), repeat=n):
            want = degreewise_kernel_dim(fs, degree)
            got = degreewise_span_dim(s, fs_degrees, degree)
            assert got == want, (fs, degree, got, want)


def test_kernel_of_quotient_map_examples():
    k = kernel_of_quotient_map([rv("1", 1)], [rv("x1", 1)])
    gb = buchberger(k)
    assert membership(rv("x1", 1), gb)
    assert not membership(rv("1", 1), gb)
    k = kernel_of_quotient_map([rv("x1", 1)], [rv("x1^2", 1)])
    gb = buchberger(k)
    assert membership(rv("x1", 1), gb)
    k = kernel_of_quotient_map([rv("x1", 2)], [rv("x2", 2)])
    gb = buchberger(k)
    assert membership(rv("x2", 2), gb)
    assert not membership(rv("1", 2), gb)


def test_transformation_matrices_at_oracle_scale(fano7_fan):
    # systems from fano7's stage-1 Ext oracle, far larger than the random
    # ones above: the level-2 columns of the resolution (25 sources of rank
    # 10), and the dual of d_3 whose kernel gives Ext^3 (30 sources of rank
    # 20), where S-pairs add generators with several source coordinates
    from coxcoh.fan import irrelevant_generators
    from coxcoh.homalg import PresentedModule, _precompose_columns, free_resolution

    n = fano7_fan.n_rays
    gens = irrelevant_generators(fano7_fan)
    res = free_resolution(PresentedModule.quotient_by([g.as_poly(n) for g in gens], n))
    systems = [res.differentials[1], _precompose_columns(res.differentials[3], 30, 1, n)]
    assert [(len(fs), fs[0].rank) for fs in systems] == [(25, 10), (30, 20)]
    for fs in systems:
        gb = buchberger(fs)
        assert_transformation_matrices(fs, gb)
    # the second system really combines sources
    assert len(gb.generators) > len(fs)
    assert sum(1 for col in gb.b_columns if len(col) > 1) >= 6


def test_fano7_ideal_is_self_groebner(fano7_fan):
    from coxcoh.fan import irrelevant_generators

    n = fano7_fan.n_rays
    fs = [FreeModuleElement(1, n, [g.as_poly(n)]) for g in irrelevant_generators(fano7_fan)]
    gb = buchberger(fs)
    got = sorted(tuple(sorted(g.entries[0].terms)) for g in gb.generators)
    want = sorted(tuple(sorted(f.entries[0].terms)) for f in fs)
    assert got == want
