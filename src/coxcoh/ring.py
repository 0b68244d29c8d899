"""Exact multigraded polynomial and free-module arithmetic over the rationals.

Monomials are fixed-length exponent tuples; coefficients are
fractions.Fraction.  All values are immutable in spirit: operations return
new objects and never mutate their arguments.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

MAX_VARS = 64
MAX_EXPONENT = 2**31 - 1


class RingError(ValueError):
    pass


def _check_exponents(e):
    if e and max(e) > MAX_EXPONENT:
        raise RingError("exponent overflow: %d" % max(e))
    return e


class Poly:
    """A polynomial in n variables: dict {exponent tuple: nonzero Fraction}."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        if n > MAX_VARS:
            raise RingError("at most %d variables supported" % MAX_VARS)
        self.n = n
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[tuple(e)] = c

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(n):
        return Poly(n)

    @staticmethod
    def const(n, c):
        return Poly(n, {(0,) * n: Fraction(c)})

    @staticmethod
    def variable(n, i):
        """x_i with 1-based index i."""
        e = [0] * n
        e[i - 1] = 1
        return Poly(n, {tuple(e): Fraction(1)})

    @staticmethod
    def monomial(n, exponents, coeff=1):
        return Poly(n, {tuple(exponents): Fraction(coeff)})

    # -- predicates ----------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        if self.n != other.n:
            raise RingError("variable count mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            nc = terms.get(e, 0) + c
            if nc:
                terms[e] = nc
            elif e in terms:
                del terms[e]
        out = Poly(self.n)
        out.terms = terms
        return out

    def __neg__(self):
        out = Poly(self.n)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        out = Poly(self.n)
        if c:
            out.terms = {e: c * v for e, v in self.terms.items()}
        return out

    def mono_mul(self, exponents, coeff=1):
        """Multiply by coeff * x^exponents; a unit coefficient is copied."""
        out = Poly(self.n)
        if not coeff:
            return out
        exponents = tuple(exponents)
        terms = out.terms
        if coeff == 1:
            for e, c in self.terms.items():
                terms[_check_exponents(tuple(map(add, e, exponents)))] = c
        else:
            coeff = Fraction(coeff)
            for e, c in self.terms.items():
                terms[_check_exponents(tuple(map(add, e, exponents)))] = coeff * c
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.n != other.n:
            raise RingError("variable count mismatch")
        out = Poly(self.n)
        terms = out.terms
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                ne = _check_exponents(tuple(map(add, e1, e2)))
                nc = terms.get(ne, 0) + c1 * c2
                if nc:
                    terms[ne] = nc
                elif ne in terms:
                    del terms[ne]
        return out

    __rmul__ = __mul__

    # -- queries ---------------------------------------------------------
    def fine_degree(self):
        """The common exponent vector of all terms; None for 0, error if mixed."""
        deg = None
        for e in self.terms:
            if deg is None:
                deg = e
            elif deg != e:
                raise RingError("polynomial is not a monomial in the fine grading")
        return deg

    def __repr__(self):
        return "Poly(%s)" % format_poly(self)


def format_poly(p):
    if p.is_zero():
        return "0"
    bits = []
    for e in sorted(p.terms, key=lambda t: (-sum(t), t), reverse=False):
        c = p.terms[e]
        factors = []
        for i, a in enumerate(e):
            if a == 1:
                factors.append("x%d" % (i + 1))
            elif a:
                factors.append("x%d^%d" % (i + 1, a))
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        sign = "-" if c < 0 else "+"
        bits.append((sign, body))
    first_sign, first_body = bits[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in bits[1:]:
        out += " %s %s" % (sign, body)
    return out


_TERM_FACTOR = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")
_RATIONAL = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_poly(text, n):
    """Parse the textual polynomial format, e.g. ``x1^2*x2 - 3/2*x3``."""
    s = text.replace("-", "+-").replace("**", "^")
    chunks = [c.strip() for c in s.split("+")]
    out = Poly.zero(n)
    for chunk in chunks:
        if not chunk:
            continue
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:].strip()
        if not chunk:
            raise RingError("dangling sign in polynomial %r" % text)
        coeff = Fraction(1)
        exps = [0] * n
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise RingError("empty factor in polynomial %r" % text)
            m = _TERM_FACTOR.match(factor)
            if m:
                i, e = int(m.group(1)), int(m.group(2) or 1)
                if not 1 <= i <= n:
                    raise RingError("variable x%d out of range (n=%d)" % (i, n))
                if e < 0:
                    raise RingError("negative exponent in %r" % text)
                exps[i - 1] += e
            elif _RATIONAL.match(factor):
                coeff *= Fraction(factor)
            else:
                raise RingError("cannot parse factor %r" % factor)
        if neg:
            coeff = -coeff
        out = out + Poly.monomial(n, exps, coeff)
    return out


class FreeModuleElement:
    """A vector of polynomials in a free module R^rank.  Its fine-degree
    shifts belong to the ambient (PresentedModule.shifts)."""

    __slots__ = ("rank", "n", "entries")

    def __init__(self, rank, n, entries=None):
        if rank < 1:
            raise RingError("rank must be positive")
        self.rank = rank
        self.n = n
        if entries is None:
            self.entries = [Poly.zero(n) for _ in range(rank)]
        else:
            if len(entries) != rank:
                raise RingError("entry count %d != rank %d" % (len(entries), rank))
            self.entries = list(entries)

    @staticmethod
    def unit(rank, n, position, poly=None):
        """poly * e_position (0-based position)."""
        v = FreeModuleElement(rank, n)
        v.entries[position] = poly if poly is not None else Poly.const(n, 1)
        return v

    def is_zero(self):
        return all(e.is_zero() for e in self.entries)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, FreeModuleElement)
            and self.rank == other.rank
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rank, tuple(self.entries)))

    def __add__(self, other):
        if self.rank != other.rank:
            raise RingError("rank mismatch")
        return FreeModuleElement(
            self.rank, self.n, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self):
        return FreeModuleElement(self.rank, self.n, [-e for e in self.entries])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return FreeModuleElement(self.rank, self.n, [e.scale(c) for e in self.entries])

    def mono_mul(self, exponents, coeff=1):
        return FreeModuleElement(
            self.rank, self.n, [e.mono_mul(exponents, coeff) for e in self.entries]
        )

    def poly_mul(self, p):
        return FreeModuleElement(self.rank, self.n, [e * p for e in self.entries])

    def iter_terms(self):
        for pos, poly in enumerate(self.entries):
            for e, c in poly.terms.items():
                yield pos, e, c

    def num_terms(self):
        return sum(len(p.terms) for p in self.entries)

    def fine_degree(self, ambient_shifts=None):
        """Common Z^n degree of all terms, with ambient_shifts[j] added to
        entry j; no shifts (None) means all-zero.  None for the zero vector."""
        deg = None
        for pos, e, _ in self.iter_terms():
            s = ambient_shifts[pos] if ambient_shifts else (0,) * self.n
            d = tuple(a + b for a, b in zip(e, s))
            if deg is None:
                deg = d
            elif deg != d:
                raise RingError("element is not homogeneous in the fine grading")
        return deg

    def __repr__(self):
        return "FreeModuleElement[%s]" % ", ".join(format_poly(e) for e in self.entries)


def component_dimension(grading, alpha):
    """dim of the graded piece of the polynomial ring in class alpha.

    Counts exponent vectors with the given degree and no negative entries;
    raises UnboundedRegionError if that region is unbounded (impossible for
    a valid complete fan, checked defensively).
    """
    return grading.count_degrees(alpha, 0)
