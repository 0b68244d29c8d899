"""Koszul complexes, their (co)homology, and regular-sequence detection.

The homological complex on elements (a_1..a_d) with coefficients in a
presented module M has level-p basis e_T (x) m_i over p-subsets T; the
boundary multiplies by a_k with alternating signs.  Grading convention:
the level-p component at T is shifted by the degrees of the a_k with k in T
(homological) or k outside T (cohomological), which makes the self
duality H_p = H^(d-p) an equality of graded Hilbert functions on the nose.
"""

from __future__ import annotations

from itertools import combinations

from .groebner import kernel_of_quotient_map
from .homalg import (
    PresentedModule,
    box_around,
    hilbert_function_box,
    presented_is_zero,
    subquotient_presentation,
)
from .ring import FreeModuleElement, Poly


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
            except Exception:
                self.elem_degrees = None
            if self.elem_degrees is not None and any(d is None for d in self.elem_degrees):
                self.elem_degrees = None
        else:
            self.elem_degrees = None
        self._subsets = {p: list(combinations(range(self.d), p)) for p in range(self.d + 1)}

    def level_basis(self, p):
        return [(t, i) for t in self._subsets.get(p, []) for i in range(self.rank)]

    def level_rank(self, p):
        if 0 <= p <= self.d:
            return len(self._subsets[p]) * self.rank
        return 0

    def _index(self, p):
        return {key: pos for pos, key in enumerate(self.level_basis(p))}

    def level_shifts(self, p, cohomological=False):
        if self.elem_degrees is None:
            return None
        out = []
        for t, i in self.level_basis(p):
            base = self.module.shifts[i]
            acc = list(base)
            members = set(t)
            for k in range(self.d):
                inside = k in members
                if inside != cohomological:
                    for j in range(self.n):
                        acc[j] += self.elem_degrees[k][j]
            out.append(tuple(acc))
        return out

    def level_relations(self, p):
        """The module relations embedded in every exterior slot at level p."""
        rank = self.level_rank(p)
        idx = self._index(p)
        out = []
        for t in self._subsets[p]:
            for rel in self.module.relations:
                entries = [Poly.zero(self.n) for _ in range(rank)]
                for i, poly in enumerate(rel.entries):
                    if not poly.is_zero():
                        entries[idx[(t, i)]] = entries[idx[(t, i)]] + poly
                out.append(FreeModuleElement(rank, self.n, entries))
        return out

    def boundary_columns(self, p):
        """Columns of d_p: level p -> level p-1 (homological)."""
        if not 1 <= p <= self.d:
            return []
        target_rank = self.level_rank(p - 1)
        idx = self._index(p - 1)
        cols = []
        for t in self._subsets[p]:
            for i in range(self.rank):
                entries = [Poly.zero(self.n) for _ in range(target_rank)]
                for k, elem_index in enumerate(t, start=1):
                    rest = tuple(x for x in t if x != elem_index)
                    sign = -1 if k % 2 else 1
                    tgt = idx[(rest, i)]
                    entries[tgt] = entries[tgt] + self.elements[elem_index].scale(sign)
                cols.append(FreeModuleElement(target_rank, self.n, entries))
        return cols

    def coboundary_columns(self, p):
        """Columns of d^p: level p -> level p+1 (cohomological)."""
        if not 0 <= p < self.d:
            return []
        target_rank = self.level_rank(p + 1)
        idx = self._index(p + 1)
        cols = []
        for t in self._subsets[p]:
            members = set(t)
            for i in range(self.rank):
                entries = [Poly.zero(self.n) for _ in range(target_rank)]
                for j in range(self.d):
                    if j in members:
                        continue
                    bigger = tuple(sorted(t + (j,)))
                    k = bigger.index(j) + 1
                    sign = -1 if k % 2 else 1
                    tgt = idx[(bigger, i)]
                    entries[tgt] = entries[tgt] + self.elements[j].scale(sign)
                cols.append(FreeModuleElement(target_rank, self.n, entries))
        return cols

    def homology(self, p):
        """H_p of the homological complex as a PresentedModule."""
        if not 0 <= p <= self.d:
            return PresentedModule(0, self.n, [], [])
        shifts = self.level_shifts(p, cohomological=False)
        rank = self.level_rank(p)
        if p == 0:
            kern = [FreeModuleElement.unit(rank, self.n, j) for j in range(rank)]
        else:
            kern = kernel_of_quotient_map(self.boundary_columns(p), self.level_relations(p - 1))
        denom = list(self.boundary_columns(p + 1)) + self.level_relations(p)
        return subquotient_presentation(kern, denom, shifts, self.n)

    def cohomology(self, p):
        """H^p of the cohomological complex as a PresentedModule."""
        if not 0 <= p <= self.d:
            return PresentedModule(0, self.n, [], [])
        shifts = self.level_shifts(p, cohomological=True)
        rank = self.level_rank(p)
        if p == self.d:
            kern = [FreeModuleElement.unit(rank, self.n, j) for j in range(rank)]
        else:
            kern = kernel_of_quotient_map(self.coboundary_columns(p), self.level_relations(p + 1))
        denom = list(self.coboundary_columns(p - 1)) + self.level_relations(p)
        return subquotient_presentation(kern, denom, shifts, self.n)


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
    """Compare graded Hilbert functions of H_p and H^(d-p) on a box."""
    box = box_around(module.n, box_radius)
    complex_ = KoszulComplex(elements, module)
    h_low = hilbert_function_box(complex_.homology(p), box)
    h_high = hilbert_function_box(complex_.cohomology(complex_.d - p), box)
    return h_low == h_high
