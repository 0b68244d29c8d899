import random
from fractions import Fraction

import pytest

from coxcoh.grading import grading_group
from coxcoh.ring import (
    FreeModuleElement,
    Poly,
    RingError,
    component_dimension,
    format_poly,
    parse_poly,
)


def random_poly(rng, n, nterms=3, maxdeg=3):
    p = Poly.zero(n)
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(n))
        p = p + Poly.monomial(n, e, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return p


def test_basic_identities():
    n = 2
    x, y = Poly.variable(n, 1), Poly.variable(n, 2)
    assert (x + y) + (-x) == y
    assert x * (x + Poly.const(n, 1)) == Poly.monomial(n, (2, 0)) + x
    assert Poly.const(n, Fraction(1, 2)) * x.scale(2) == x


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        a, b, c = (random_poly(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero(n) == a
        assert a * Poly.const(n, 1) == a


def test_parse_format_roundtrip():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 4)
        p = random_poly(rng, n)
        assert parse_poly(format_poly(p), n) == p
    assert parse_poly("x1^2*x2 - 3/2*x3", 3) == Poly.monomial(3, (2, 1, 0)) + Poly.monomial(
        3, (0, 0, 1), Fraction(-3, 2)
    )
    assert parse_poly("0", 2).is_zero()


def test_parse_rejects_garbage():
    with pytest.raises(RingError):
        parse_poly("x0", 2)
    with pytest.raises(RingError):
        parse_poly("x3", 2)
    with pytest.raises(RingError):
        parse_poly("x1^-2", 2)
    with pytest.raises(RingError):
        parse_poly("bogus", 2)


def test_too_many_variables_rejected():
    with pytest.raises(RingError):
        Poly.zero(65)


def test_module_element_operations():
    n = 2
    x, y = Poly.variable(n, 1), Poly.variable(n, 2)
    v = FreeModuleElement(2, n, [x, y])
    w = FreeModuleElement(2, n, [y, x])
    assert (v + w).entries == [x + y, x + y]
    assert (v - v).is_zero()
    assert v.mono_mul((1, 0)).entries[0] == Poly.monomial(n, (2, 0))
    with pytest.raises(RingError):
        v + FreeModuleElement(3, n)


def test_fine_degree_tracking():
    n = 2
    shifts = [(0, 0), (1, 0)]
    v = FreeModuleElement(2, n, [Poly.variable(n, 1), Poly.zero(n)])
    assert v.fine_degree(shifts) == (1, 0)
    w = FreeModuleElement(2, n, [Poly.variable(n, 1), Poly.const(n, 1)])
    assert w.fine_degree(shifts) == (1, 0)
    bad = FreeModuleElement(2, n, [Poly.variable(n, 1), Poly.variable(n, 2)])
    with pytest.raises(RingError):
        bad.fine_degree(shifts)


def test_component_dimension_p2(p2_fan):
    g = grading_group(p2_fan)
    one = g.variable_degrees()[0].free[0]
    assert component_dimension(g, g.class_from_free([3 * one])) == 10
    assert component_dimension(g, g.class_from_free([0])) == 1
    assert component_dimension(g, g.class_from_free([-one])) == 0


def test_component_dimension_fano7(fano7_fan, fano7_basis):
    g = grading_group(fano7_fan)
    assert component_dimension(g, fano7_basis.cls([1, 0])) == 3  # x1, x2, x7
    assert component_dimension(g, g.zero_class()) == 1


def test_multiplication_closes_into_sum_degree(fano7_fan, fano7_basis):
    g = grading_group(fano7_fan)
    alpha = fano7_basis.cls([1, 0])
    beta = fano7_basis.cls([0, 1])
    mono_a = g.enumerate_degrees(alpha, 0)
    mono_b = g.enumerate_degrees(beta, 0)
    target = set(g.enumerate_degrees((alpha + beta).reduced(g.torsion), 0))
    products = {tuple(x + y for x, y in zip(a, b)) for a in mono_a for b in mono_b}
    assert products <= target
    assert len(products) <= component_dimension(g, alpha) * component_dimension(g, beta)
