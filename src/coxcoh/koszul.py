"""Koszul complexes, their (co)homology, and regular-sequence detection.

K(a; S) on elements (a_1..a_d) has level-p basis e_T over p-subsets T, at
the degree of the product of the a_k with k in T; its boundary multiplies
by a_k with alternating signs.  Homology is that of K(a; M) = K(a; S) (x) M,
with basis e_T (x) m_i.  Cohomology is that of Hom(K(a; S), M(deg a_1 +
... + deg a_d)), computed as the Ext layer computes H^i Hom(F, N): the
slot (T, i) then sits at the shift of m_i plus the degrees of the a_k with
k outside T, which makes the self duality H_p = H^(d-p) an equality of
graded Hilbert functions on the nose.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .groebner import kernel_of_quotient_map
from .homalg import (
    FreeResolution,
    PresentedModule,
    _basis_vectors,
    _postcompose_columns,
    box_around,
    ext_presentation,
    hilbert_function_box,
    presented_is_zero,
    subquotient_presentation,
)
from .ring import FreeModuleElement, Poly, RingError


class KoszulComplex:
    """Koszul complex of a sequence of ring elements with module coefficients."""

    def __init__(self, elements, module):
        if not elements:
            raise ValueError("need at least one ring element")
        self.elements = list(elements)
        self.module = module
        self.d = len(elements)
        self.n = module.n
        self.rank = module.ambient_rank
        if module.is_graded():
            try:
                self.elem_degrees = [p.fine_degree() for p in self.elements]
            except RingError:
                self.elem_degrees = None
            if self.elem_degrees is not None and any(d is None for d in self.elem_degrees):
                self.elem_degrees = None
        else:
            self.elem_degrees = None

    def level_rank(self, p):
        if 0 <= p <= self.d:
            return comb(self.d, p) * self.rank
        return 0

    def level_shifts(self, p, base):
        """Shifts of the level-p basis e_T (x) f_i of K(a; F), F free with
        shifts base: base[i] plus the degrees of the a_k with k in T."""
        if self.elem_degrees is None:
            return None
        out = []
        for t in combinations(range(self.d), p):
            deg = [sum(self.elem_degrees[k][j] for k in t) for j in range(self.n)]
            out.extend(tuple(b + e for b, e in zip(shift, deg)) for shift in base)
        return out

    def boundary_columns(self, p, rank):
        """Columns of d_p: level p -> level p-1 of K(a; S^rank), the basis
        e_T (x) f_i at flat index T * rank + i."""
        if not 1 <= p <= self.d:
            return []
        index = {t: pos for pos, t in enumerate(combinations(range(self.d), p - 1))}
        target_rank = len(index) * rank
        cols = []
        for t in combinations(range(self.d), p):
            for i in range(rank):
                entries = [Poly.zero(self.n) for _ in range(target_rank)]
                for k, elem_index in enumerate(t, start=1):
                    tgt = index[t[: k - 1] + t[k:]] * rank + i
                    entries[tgt] = self.elements[elem_index].scale(-1 if k % 2 else 1)
                cols.append(FreeModuleElement(target_rank, self.n, entries))
        return cols

    def _relations(self, p):
        """The module relations embedded in every exterior slot at level p."""
        return _postcompose_columns(self.module.relations, comb(self.d, p), self.rank, self.n)

    def homology(self, p):
        """H_p of K(a; M) as a PresentedModule."""
        if not 0 <= p <= self.d:
            return PresentedModule(0, self.n, [], [])
        rank = self.rank
        if p == 0:
            kern = _basis_vectors(rank, self.n)
        else:
            kern = kernel_of_quotient_map(self.boundary_columns(p, rank), self._relations(p - 1))
        denom = self.boundary_columns(p + 1, rank) + self._relations(p)
        shifts = self.level_shifts(p, self.module.shifts)
        return subquotient_presentation(kern, denom, shifts, self.n)

    def cohomology(self, p):
        """H^p of Hom(K(a; S), M(deg a_1 + ... + deg a_d)) as a
        PresentedModule, from ext_presentation on the levels p-1..p+1 of
        K(a; S): no other level is built."""
        if not 0 <= p <= self.d:
            return PresentedModule(0, self.n, [], [])
        levels = range(max(p - 1, 0), min(p + 1, self.d) + 1)
        free = [(0,) * self.n]
        window = FreeResolution(
            ranks=[comb(self.d, q) for q in levels],
            differentials=[self.boundary_columns(q, 1) for q in levels[1:]],
            shifts=[self.level_shifts(q, free) for q in levels],
            n=self.n,
        )
        # level d is the one subset of all k: M's shifts plus every deg a_k
        shifted = PresentedModule(
            self.rank, self.n, self.module.relations, self.level_shifts(self.d, self.module.shifts)
        )
        return ext_presentation(p - levels[0], window, shifted)


def generates_unit_ideal(elements):
    """True iff the ring elements generate the unit ideal: S/<elements> is
    zero.  An empty or all-zero sequence generates the zero ideal."""
    return bool(elements) and presented_is_zero(
        PresentedModule.quotient_by(elements, elements[0].n)
    )


def is_regular_sequence(elements, module):
    """True iff the sequence has vanishing Koszul homology in all positive
    levels (the homological regularity criterion).  Sequences generating the
    unit ideal are rejected up front: the definition excludes them even
    though their complexes are acyclic."""
    if generates_unit_ideal(elements):
        return False
    complex_ = KoszulComplex(elements, module)
    for p in range(1, complex_.d + 1):
        if not presented_is_zero(complex_.homology(p)):
            return False
    return True


def self_duality_check(elements, module, p, box_radius=3):
    """Compare graded Hilbert functions of H_p and H^(d-p) on a box: the
    tensor route of homology against the Hom route of the Ext layer."""
    box = box_around(module.n, box_radius)
    complex_ = KoszulComplex(elements, module)
    h_low = hilbert_function_box(complex_.homology(p), box)
    h_high = hilbert_function_box(complex_.cohomology(complex_.d - p), box)
    return h_low == h_high
