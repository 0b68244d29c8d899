import gc
import random
import weakref

import pytest

from coxcoh import fan as fan_module
from coxcoh import grading
from coxcoh.fan import Fan, FanError, FanReport, parse_fan
from coxcoh.fans import projective_space_fan
from coxcoh.grading import SignPattern, grading_group
from coxcoh.linalg import rational_rank
from coxcoh.sheaf import (
    cohomology_of_U,
    cohomology_table,
    degree0_unbounded,
    fan_grading,
    report_to_json,
    sheaf_cohomology_dim,
)

from conftest import FANS_DIR, PSEUDO_FAN_TEXT, TORSION_FAN_TEXT, box_oracle


def test_p2_report(p2_fan):
    rep = cohomology_of_U(p2_fan)
    assert rep.closed_forms[0] == [("S", 1)]
    assert rep.cones_at(2) == [((1, 2, 3), 1)]
    assert 1 not in rep.closed_forms
    assert rep.exact
    assert any("passed" in note for note in rep.notes)
    assert any("coordinate-subring" in note for note in rep.notes)


def test_p112_report(p112_fan):
    rep = cohomology_of_U(p112_fan)
    assert rep.cones_at(2) == [((1, 2, 3), 1)]
    assert all(p in (0, 2) for p in rep.closed_forms)


def test_fano7_report(fano7_fan):
    rep = cohomology_of_U(fano7_fan)
    assert rep.cones_at(1) == [((5, 6), 1)]
    assert rep.cones_at(4) == [((1, 2, 3, 4, 7), 1)]
    assert rep.cones_at(5) == [((1, 2, 3, 4, 5, 6, 7), 1)]
    assert rep.cones_at(2) == [] and rep.cones_at(3) == []
    assert any("passed" in n for n in rep.notes)


def test_fano8_report(fano8_fan):
    rep = cohomology_of_U(fano8_fan)
    assert rep.cones_at(1) == [((5, 6), 1)]
    assert rep.cones_at(2) == [((1, 4, 8), 1), ((2, 3, 7), 1)]
    assert rep.cones_at(3) == [((1, 4, 5, 6, 8), 1), ((2, 3, 5, 6, 7), 1)]
    assert rep.cones_at(4) == [((1, 2, 3, 4, 7, 8), 1)]
    assert rep.cones_at(5) == [((1, 2, 3, 4, 5, 6, 7, 8), 1)]


def test_p2_spot_dimensions(p2_fan):
    g = fan_grading(p2_fan)
    one = g.variable_degrees()[0].free[0]
    assert sheaf_cohomology_dim(p2_fan, g.class_from_free([-3 * one]), 2) == 1
    assert sheaf_cohomology_dim(p2_fan, g.class_from_free([-4 * one]), 2) == 3
    assert sheaf_cohomology_dim(p2_fan, g.class_from_free([2 * one]), 0) == 6
    for p in (1, 2, 3):
        assert sheaf_cohomology_dim(p2_fan, g.zero_class(), p) == 0


def test_p1_classical_table(p1_fan):
    g = fan_grading(p1_fan)
    one = g.variable_degrees()[0].free[0]
    degrees = [g.class_from_free([k * one]) for k in (-2, -1, 0, 1)]
    rep = cohomology_table(p1_fan, degrees)
    dims = {(tuple(e["alpha"]), e["p"]): e["dim"] for e in rep.per_degree}
    assert [dims[((k * one,), 0)] for k in (-2, -1, 0, 1)] == [0, 0, 1, 2]
    assert [dims[((k * one,), 1)] for k in (-2, -1, 0, 1)] == [1, 0, 0, 0]


def test_fano7_degree_and_zero(fano7_fan, fano7_basis):
    alpha = fano7_basis.cls([-6, -2])
    assert sheaf_cohomology_dim(fano7_fan, alpha, 1) == 1
    g = fan_grading(fano7_fan)
    dims = [sheaf_cohomology_dim(fano7_fan, g.zero_class(), p) for p in range(0, 6)]
    assert dims == [1, 0, 0, 0, 0, 0]


def test_serre_h0_consistency(fano7_fan, p2_fan):
    # h^0 of O(alpha) is the number of monomials of degree alpha, here found
    # by the test-only box scan rather than by the counting route
    rng = random.Random(17)
    for fan in (p2_fan, fano7_fan):
        g = fan_grading(fan)
        assert cohomology_of_U(fan).cones_at(0) == []
        for _ in range(40):
            a = [rng.randint(-3, 3) for _ in range(g.n)]
            alpha = g.degree_of(a)
            expected = len(box_oracle(g, alpha, frozenset()))
            assert sheaf_cohomology_dim(fan, alpha, 0) == expected
            if all(v >= 0 for v in a):
                assert expected >= 1


def test_pushforward_double_count(p2_fan):
    # summing per-degree dims of H^2 over a degree window equals counting
    # lattice points of the pattern cone with degree in that window
    g = fan_grading(p2_fan)
    one = g.variable_degrees()[0].free[0]
    total = 0
    for k in range(-6, 0):
        total += sheaf_cohomology_dim(p2_fan, g.class_from_free([k * one]), 2)
    pts = 0
    for k in range(-6, 0):
        pts += len(g.enumerate_degrees(g.class_from_free([k * one]), SignPattern({1, 2, 3})))
    assert total == pts > 0


def test_report_json_shape_and_determinism(fano7_fan, fano7_basis):
    rep = cohomology_table(fano7_fan, [fano7_basis.cls([-6, -2])], ps=[1])
    doc1 = report_to_json(rep)
    doc2 = report_to_json(cohomology_table(fano7_fan, [fano7_basis.cls([-6, -2])], ps=[1]))
    assert doc1 == doc2
    assert doc1["per_degree"][0]["dim"] == 1
    assert [e["p"] for e in doc1["patterns"]] == sorted(e["p"] for e in doc1["patterns"])
    assert doc1["exact"] is True
    assert "basis_note" in doc1


def test_incomplete_fan_rejected():
    fan = parse_fan("dim 1\nrays 2\n1\n-1\nmaxcones 2\n1\n2\n")
    broken = type(fan)(dim=1, rays=fan.rays, max_cones=(fan.max_cones[0],))
    with pytest.raises(FanError):
        cohomology_of_U(broken)


def test_out_of_range_p(p2_fan):
    g = fan_grading(p2_fan)
    with pytest.raises(ValueError):
        sheaf_cohomology_dim(p2_fan, g.zero_class(), 99)


def test_finiteness_on_random_degrees(fano8_fan):
    rng = random.Random(3)
    g = fan_grading(fano8_fan)
    rep = cohomology_of_U(fano8_fan)
    for _ in range(10):
        a = [rng.randint(-2, 2) for _ in range(g.n)]
        alpha = g.degree_of(a)
        for p in range(0, 6):
            d = sheaf_cohomology_dim(fano8_fan, alpha, p, report=rep)
            assert d >= 0


def test_cohomology_dim_never_materialises_points(monkeypatch, fano8_fan):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_degrees called on the counting route")

    monkeypatch.setattr(grading.GradingGroup, "enumerate_degrees", refuse)
    # a fan new to the process also runs the degree-0 check under the patch
    p3 = projective_space_fan(3)
    rep = cohomology_of_U(p3)
    g = fan_grading(p3)
    one = g.variable_degrees()[0].free[0]
    assert sheaf_cohomology_dim(p3, g.class_from_free([-5 * one]), 3, report=rep) == 4
    g8 = fan_grading(fano8_fan)
    rep8 = cohomology_of_U(fano8_fan)
    for p in range(fano8_fan.n_rays + 1):
        assert sheaf_cohomology_dim(fano8_fan, g8.class_from_free([1, 1, 1]), p, report=rep8) >= 0


def test_fano8_large_class_pinned(fano8_fan):
    # class (0, 6, -15) in the Smith basis; materialising its points took
    # seconds and hundreds of megabytes, counting them takes a fraction of
    # a second
    g = fan_grading(fano8_fan)
    alpha = g.class_from_free([0, 6, -15])
    rep = cohomology_table(fano8_fan, [alpha])
    assert [e["dim"] for e in rep.per_degree] == [0, 0, 17511, 0, 0, 0, 0, 0, 0]


def test_torsion_fan_dimensions():
    # grading group Z + Z/2; h^0 and h^2 count monomials and their duals
    fan = parse_fan(TORSION_FAN_TEXT)
    g = fan_grading(fan)
    for k in range(-6, 7):
        for residue in (0, 1):
            alpha = g.class_from_free([k], [residue])
            assert sheaf_cohomology_dim(fan, alpha, 0) == len(box_oracle(g, alpha, frozenset()))
            assert sheaf_cohomology_dim(fan, alpha, 2) == len(box_oracle(g, alpha, {1, 2, 3}))
            assert sheaf_cohomology_dim(fan, alpha, 1) == 0


def test_degree0_failure_is_fan_error_and_not_cached(monkeypatch):
    # validation rejects the pseudo-fan; past validation, the degree-0 check must
    monkeypatch.setattr(fan_module, "validate_fan", lambda fan: FanReport(True, True, True))
    fan = parse_fan(PSEUDO_FAN_TEXT)
    for _ in range(2):
        with pytest.raises(FanError) as exc:
            cohomology_of_U(fan)
        assert str(exc.value) == (
            "degree-0 consistency check failed: h^p(O) is nonzero or unbounded at "
            "(p, h^p) = [(1, 'unbounded')], which cannot happen on a complete fan"
        )


def _degree0_oracle_configurations(fan_generator):
    """(rays, d) for every shipped fan, the pseudo-fan, the torsion fan,
    seeded P^d+k with at most 9 rays, and 30 seeded random spanning ray
    sets in dimension <= 3 (entries in -2..2, so lines repeat and
    hyperplanes hold many rays).  P^5+2 and P^6+1 stay out: Fourier-Motzkin
    on their unbounded patterns takes minutes."""
    configs = [(fan.rays, fan.dim) for fan in
               [parse_fan(path.read_text()) for path in sorted(FANS_DIR.glob("*.fan"))]
               + [parse_fan(PSEUDO_FAN_TEXT), parse_fan(TORSION_FAN_TEXT)]]
    shapes = [(2, k) for k in range(1, 7)] + [(3, k) for k in range(6)] + [(4, k) for k in range(5)]
    for d, k in shapes + [(5, 0), (5, 1), (6, 0)]:
        rays, _ = fan_generator.generated_fan(d, k, fan_generator.seeded_rng(1, "degree0", d, k))
        configs.append((rays, d))
    rng = random.Random("degree0-random")
    wanted = len(configs) + 30
    while len(configs) < wanted:
        d = rng.randint(1, 3)
        rays = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(d, 9))]
        if all(any(r) for r in rays) and rational_rank(rays) == d:
            configs.append((tuple(rays), d))
    return configs


def test_degree0_check_matches_fibration_oracle(fan_generator):
    # the cocircuit verdict on every nonempty pattern against the
    # Fourier-Motzkin boundedness of the pattern's region
    checked = flagged = 0
    for rays, d in _degree0_oracle_configurations(fan_generator):
        n = len(rays)
        g = grading_group(Fan(d, rays, ()))
        masks = range(1, 1 << n)
        for mask, unbounded in zip(masks, degree0_unbounded(rays, masks).tolist()):
            pattern = SignPattern(i + 1 for i in range(n) if mask >> i & 1)
            assert unbounded == (not g._fibration(pattern).bounded), (rays, pattern)
            checked += 1
            flagged += unbounded
    assert checked > 4000 and flagged > 1000


def test_degree0_check_builds_no_fibration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a _Fibration was built by the degree-0 check")

    monkeypatch.setattr(grading._Fibration, "__init__", refuse)
    rep = cohomology_of_U(projective_space_fan(4))
    assert rep.cones_at(4) == [((1, 2, 3, 4, 5), 1)]
    assert rep.notes[-1] == "degree-0 consistency check passed: h^p(O) = 0 for p = 1..5"


def test_derived_state_is_freed_with_its_fan():
    fan = parse_fan(TORSION_FAN_TEXT)
    grading_ref = weakref.ref(fan_grading(fan))
    report_ref = weakref.ref(cohomology_of_U(fan))
    # an equal fan built anew computes its own state
    assert cohomology_of_U(parse_fan(TORSION_FAN_TEXT)) is not report_ref()
    del fan
    gc.collect()
    assert grading_ref() is None and report_ref() is None


@pytest.mark.parametrize("path", sorted(FANS_DIR.glob("*.fan")), ids=lambda p: p.stem)
def test_serre_duality_and_vanishing_above_dimension(path):
    # on a complete simplicial toric variety of dimension d,
    # h^p(O(D)) = h^(d-p)(O(K - D)) with K = -(D_1 + ... + D_n), and h^p = 0
    # for p > d (CLS Thm 9.2.10); D = sum a_i D_i has K - D = sum (-1 - a_i) D_i
    fan = parse_fan(path.read_text())
    g = fan_grading(fan)
    rep = cohomology_of_U(fan)
    d, n = fan.dim, fan.n_rays
    rng = random.Random("serre-" + path.stem)
    for _ in range(20):
        a = [rng.randint(-3, 3) for _ in range(n)]
        alpha, dual = g.degree_of(a), g.degree_of([-1 - x for x in a])
        for p in range(d + 1):
            assert sheaf_cohomology_dim(fan, alpha, p, report=rep) == sheaf_cohomology_dim(
                fan, dual, d - p, report=rep
            ), (a, p)
        for p in range(d + 1, n + 1):
            assert sheaf_cohomology_dim(fan, alpha, p, report=rep) == 0, (a, p)
