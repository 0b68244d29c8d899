"""Acceptance suite: one test per criterion, exact assertions, with a timed
PASS line printed per criterion (run pytest with -rA or -s to see them)."""

import random
import time
from itertools import product

import pytest

from coxcoh.fan import irrelevant_generators
from coxcoh.fans import projective_space_fan, weighted_projective_fan
from coxcoh.groebner import buchberger, divide, syzygy, _lead
from coxcoh.homalg import (
    PresentedModule,
    box_around,
    free_resolution,
    hilbert_function_box,
    presented_is_zero,
)
from coxcoh.koszul import KoszulComplex, generates_unit_ideal, is_regular_sequence, self_duality_check
from coxcoh.localcoh import negative_support, pattern_table
from coxcoh.ring import FreeModuleElement, Poly
from coxcoh.sheaf import cohomology_of_U, fan_grading, sheaf_cohomology_dim

from conftest import table_rows
from test_groebner import (
    assert_transformation_matrices,
    degreewise_kernel_dim,
    degreewise_span_dim,
)


def _report(criterion, started, detail):
    print("ACCEPTANCE %s: PASS (%.1fs) %s" % (criterion, time.time() - started, detail))


def twisted_quotient(n, neg_vars, m=1):
    """The expected stage-m module for a cone: the quotient by the m-th
    powers of the cone's variables, twisted so that its generator sits at
    degree -m * sum(e_v).  This is the documented limit normalization."""
    shift = tuple(-m if (i + 1) in neg_vars else 0 for i in range(n))
    polys = []
    for v in sorted(neg_vars):
        e = [0] * n
        e[v - 1] = m
        polys.append(Poly.monomial(n, e))
    return PresentedModule.quotient_by(polys, n, shift=shift)


def hf_direct_sum(*hfs):
    out = {}
    for hf in hfs:
        for k, v in hf.items():
            out[k] = out.get(k, 0) + v
    return out


# ---------------------------------------------------------------------------
# 1. weighted projective spaces
# ---------------------------------------------------------------------------


def test_criterion_1_weighted_projective_spaces():
    t0 = time.time()
    for weights in ((1, 1, 1), (1, 1, 2)):
        fan = weighted_projective_fan(weights)
        d = fan.dim
        n = fan.n_rays
        rep = cohomology_of_U(fan)
        for p in range(1, d):
            assert rep.cones_at(p) == [], (weights, p)
        assert rep.cones_at(d) == [(tuple(range(1, n + 1)), 1)], weights
        for p in range(d + 1, n + 1):
            assert rep.cones_at(p) == [], (weights, p)

    p2 = weighted_projective_fan((1, 1, 1))
    g = fan_grading(p2)
    one = g.variable_degrees()[0].free[0]
    assert sheaf_cohomology_dim(p2, g.class_from_free([-3 * one]), 2) == 1
    assert sheaf_cohomology_dim(p2, g.class_from_free([-4 * one]), 2) == 3

    p112 = weighted_projective_fan((1, 1, 2))
    g2 = fan_grading(p112)
    # fix the sign so that the variable degrees are the positive weights
    sgn = 1 if g2.variable_degrees()[2].free[0] > 0 else -1
    assert sheaf_cohomology_dim(p112, g2.class_from_free([sgn * -5]), 2) == 2
    elapsed = time.time() - t0
    assert elapsed < 5.0, "criterion 1 exceeded its 5s budget: %.1fs" % elapsed
    _report("1", t0, "weighted projective reproduction, exact")


# ---------------------------------------------------------------------------
# 2. first Fano fan: Ext table at stage 1 and resolution shape
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fano7_resolution(fano7_fan):
    n = fano7_fan.n_rays
    gens = irrelevant_generators(fano7_fan)
    module = PresentedModule.quotient_by([g.as_poly(n) for g in gens], n)
    return module, free_resolution(module)


def test_criterion_2_ext_oracle_stage_1(fano7_fan, fano7_resolution, stage1_ext_table):
    t0 = time.time()
    n = fano7_fan.n_rays
    module, res = fano7_resolution
    assert res.ranks == [1, 10, 25, 30, 20, 7, 1]
    box = box_around(n, 2)
    expected = {
        2: hilbert_function_box(twisted_quotient(n, {5, 6}), box),
        3: None,
        4: None,
        5: hilbert_function_box(twisted_quotient(n, {1, 2, 3, 4, 7}), box),
        6: hilbert_function_box(twisted_quotient(n, {1, 2, 3, 4, 5, 6, 7}), box),
    }
    for p, want in expected.items():
        got = stage1_ext_table(fano7_fan, p)
        if want is None:
            assert not any(got.values()), "Ext^%d should vanish" % p
        else:
            assert got == want, "Ext^%d Hilbert mismatch" % p
    elapsed = time.time() - t0
    assert elapsed < 600.0, "criterion 2 exceeded its 10min budget: %.1fs" % elapsed
    _report("2", t0, "stage-1 Ext table and resolution ranks [1,10,25,30,20,7,1]")


# ---------------------------------------------------------------------------
# 3. first Fano fan: limit pattern table, erratum flag, degree-0 check
# ---------------------------------------------------------------------------


def test_criterion_3_limit_pattern_table(fano7_fan):
    t0 = time.time()
    rep = cohomology_of_U(fano7_fan)
    assert rep.cones_at(1) == [((5, 6), 1)]
    assert rep.cones_at(4) == [((1, 2, 3, 4, 7), 1)]
    assert rep.cones_at(5) == [((1, 2, 3, 4, 5, 6, 7), 1)]
    for p in (2, 3, 6, 7):
        assert rep.cones_at(p) == []
    # the report flags that no polynomial-subring summands are appended
    assert any("coordinate-subring" in note for note in rep.notes)
    # and the degree-0 consistency check must have passed
    assert any(
        note.startswith("degree-0 consistency check passed") for note in rep.notes
    ), rep.notes
    g = fan_grading(fano7_fan)
    for p in range(1, fano7_fan.n_rays + 1):
        assert sheaf_cohomology_dim(fano7_fan, g.zero_class(), p) == 0
    elapsed = time.time() - t0
    assert elapsed < 120.0, "criterion 3 exceeded its 2min budget: %.1fs" % elapsed
    _report("3", t0, "limit cones {5,6}->H^1, {1,2,3,4,7}->H^4, {1..7}->H^5; erratum flagged")


# ---------------------------------------------------------------------------
# 4. second Fano fan: full reproduction
# ---------------------------------------------------------------------------


def test_criterion_4_second_fano_reproduction(fano8_fan, stage1_ext_table):
    t0 = time.time()
    n = fano8_fan.n_rays
    gens = irrelevant_generators(fano8_fan)
    module = PresentedModule.quotient_by([g.as_poly(n) for g in gens], n)
    res = free_resolution(module)
    assert res.ranks == [1, 18, 45, 48, 27, 8, 1]

    box = box_around(n, 2)
    expected = {
        2: hilbert_function_box(twisted_quotient(n, {5, 6}), box),
        3: hf_direct_sum(
            hilbert_function_box(twisted_quotient(n, {2, 3, 7}), box),
            hilbert_function_box(twisted_quotient(n, {1, 4, 8}), box),
        ),
        4: hf_direct_sum(
            hilbert_function_box(twisted_quotient(n, {2, 3, 5, 6, 7}), box),
            hilbert_function_box(twisted_quotient(n, {1, 4, 5, 6, 8}), box),
        ),
        5: hilbert_function_box(twisted_quotient(n, {1, 2, 3, 4, 7, 8}), box),
        6: hilbert_function_box(twisted_quotient(n, {1, 2, 3, 4, 5, 6, 7, 8}), box),
    }
    for p, want in expected.items():
        got = stage1_ext_table(fano8_fan, p)
        assert got == want, "Ext^%d Hilbert mismatch" % p

    assert table_rows(pattern_table(fano8_fan)) == [
        ((1, 2, 3, 4, 5, 6, 7, 8), {6: 1}),
        ((1, 2, 3, 4, 7, 8), {5: 1}),
        ((1, 4, 5, 6, 8), {4: 1}),
        ((1, 4, 8), {3: 1}),
        ((2, 3, 5, 6, 7), {4: 1}),
        ((2, 3, 7), {3: 1}),
        ((5, 6), {2: 1}),
    ]
    elapsed = time.time() - t0
    assert elapsed < 1800.0, "criterion 4 exceeded its 30min budget: %.1fs" % elapsed
    _report("4", t0, "Ext table, resolution ranks [1,18,45,48,27,8,1], seven cones")


# ---------------------------------------------------------------------------
# 5. Koszul theorem suite
# ---------------------------------------------------------------------------


def test_criterion_5_koszul_theorem_suite():
    t0 = time.time()
    rng = random.Random(20240)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 4)
        d = rng.randint(1, 3) if checked % 4 else min(4, rng.randint(2, 4))
        seq = []
        for _ in range(d):
            if checked % 9 == 0 and not seq:
                seq.append(Poly.const(n, 1))
                continue
            e = tuple(rng.randint(0, 2) for _ in range(n))
            if not any(e):
                e = tuple(1 if i == rng.randrange(n) else 0 for i in range(n))
            seq.append(Poly.monomial(n, e))
        checked += 1
        S = PresentedModule.free(n)
        complex_ = KoszulComplex(seq, S)
        if generates_unit_ideal(seq):
            # unit ideal: acyclic in every level
            for p in range(d + 1):
                assert presented_is_zero(complex_.homology(p)), (seq, p)
            continue
        if is_regular_sequence(seq, S):
            for p in range(1, d + 1):
                assert presented_is_zero(complex_.homology(p)), (seq, p)
        for p in range(d + 1):
            assert self_duality_check(seq, S, p, box_radius=3), (seq, p)

    # converse of the depth criterion on handcrafted cases: the index of the
    # first nonvanishing homology, counted from the top of the complex,
    # equals the maximal regular-sequence length in the ideal
    n = 3
    S = PresentedModule.free(n)
    x1 = Poly.variable(n, 1)
    x2 = Poly.variable(n, 2)
    xy = Poly.monomial(n, (1, 1, 0))
    xz = Poly.monomial(n, (1, 0, 1))
    # regular pair: every positive level vanishes
    assert all(presented_is_zero(KoszulComplex([x1, x2], S).homology(p)) for p in (1, 2))
    # grade-1 pair: H_2 = 0 but H_1 != 0, maximal length 2 - 1 = 1
    c = KoszulComplex([xy, xz], S)
    assert presented_is_zero(c.homology(2)) and not presented_is_zero(c.homology(1))
    # a third element shifts the first nonvanishing level but the detected
    # maximal length stays 3 - 2 = 1
    c = KoszulComplex([xy, xz, x1], S)
    assert presented_is_zero(c.homology(3))
    assert not presented_is_zero(c.homology(2))
    elapsed = time.time() - t0
    assert elapsed < 300.0, "criterion 5 exceeded its 5min budget: %.1fs" % elapsed
    _report("5", t0, "200 random sequences: acyclicity, regularity, self-duality")


# ---------------------------------------------------------------------------
# 6. Groebner / syzygy suite
# ---------------------------------------------------------------------------


def test_criterion_6_groebner_syzygy_suite():
    t0 = time.time()
    rng = random.Random(31337)
    done = 0
    while done < 100:
        n = rng.randint(1, 3)
        count = rng.randint(1, 4)
        fs = []
        for _ in range(count):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            fs.append(FreeModuleElement(1, n, [Poly.monomial(n, e)]))
        done += 1
        gb = buchberger(fs)
        G = gb.generators
        assert_transformation_matrices(fs, gb)
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
        syz = syzygy(fs)
        for v in syz:
            acc = Poly.zero(n)
            for f, c in zip(fs, v.entries):
                acc = acc + f.entries[0] * c
            assert acc.is_zero()
        fs_degrees = [f.fine_degree() for f in fs]
        for degree in product(range(0, 5), repeat=n):
            want = degreewise_kernel_dim(fs, degree)
            got = degreewise_span_dim(syz, fs_degrees, degree)
            assert got == want, (fs, degree)
    elapsed = time.time() - t0
    assert elapsed < 300.0, "criterion 6 exceeded its 5min budget: %.1fs" % elapsed
    _report("6", t0, "100 random monomial systems: matrices, S-pairs, kernel oracle")


# ---------------------------------------------------------------------------
# 7. oracle agreement across the chain
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_agreement(fano7_fan, fano8_fan, stage1_ext_table):
    t0 = time.time()
    fans = [projective_space_fan(2), fano7_fan, fano8_fan]
    for fan in fans:
        n = fan.n_rays
        predicted = {}
        for pat, dims in table_rows(pattern_table(fan)):
            for p in dims:
                predicted.setdefault(p, set()).add(pat)
        for p in range(1, n):
            hf = stage1_ext_table(fan, p)
            got = {tuple(sorted(negative_support(d))) for d, v in hf.items() if v}
            assert got == predicted.get(p, set()), (fan.summary(), p, got)
    elapsed = time.time() - t0
    assert elapsed < 1800.0, "criterion 7 exceeded its 30min budget: %.1fs" % elapsed
    _report("7", t0, "limit/Ext support agreement on all three fans, p in 1..n-1")
