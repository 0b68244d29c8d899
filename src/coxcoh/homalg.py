"""Presentations, free resolutions, Hom, Ext, and graded Hilbert functions.

A module is presented as the cokernel of its relation columns inside a free
ambient module; when the ambient carries fine Z^n degree shifts and the
relations are homogeneous, graded Hilbert functions over boxes of degrees
are available and are the workhorse for comparing modules.

Hom(R^p, R^k) is flattened to R^(p*k) column-major: the matrix unit sending
e_j to e_i sits at flat index j*k + i.  Hom(M, N) is Ext^0(M, N), that is
ext_presentation(0, free_resolution(M), N).  Groebner work runs in grevlex,
the groebner default: no result here depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .groebner import GREVLEX, buchberger, kernel_of_quotient_map, membership, syzygy
from .linalg import sparse_rank_exact
from .ring import FreeModuleElement, Poly, RingError


class HomalgError(ValueError):
    pass


@dataclass
class PresentedModule:
    """Cokernel of the relation columns inside a free module of the given rank."""

    ambient_rank: int
    n: int
    relations: list = field(default_factory=list)
    shifts: list = None  # list of Z^n tuples, one per ambient generator

    def __post_init__(self):
        for r in self.relations:
            if r.rank != self.ambient_rank:
                raise HomalgError("relation rank mismatch")
        if self.shifts is not None:
            self.shifts = [tuple(s) for s in self.shifts]
            if len(self.shifts) != self.ambient_rank:
                raise HomalgError("shift count mismatch")

    @staticmethod
    def free(n, rank=1, shifts=None):
        if shifts is None:
            shifts = [(0,) * n] * rank
        return PresentedModule(rank, n, [], shifts)

    @staticmethod
    def quotient_by(polys, n, shift=None):
        """S/<polys> as a rank-1 presentation."""
        shift = (0,) * n if shift is None else tuple(shift)
        rels = [FreeModuleElement(1, n, [p]) for p in polys if not p.is_zero()]
        return PresentedModule(1, n, rels, [shift])

    def is_graded(self):
        return self.shifts is not None

    def relation_degrees(self):
        return [r.fine_degree(self.shifts) for r in self.relations]


def _det_key(v):
    return tuple(
        tuple(sorted((e, str(c)) for e, c in p.terms.items())) for p in v.entries
    )


def minimal_generators(vectors, ambient_shifts=None):
    """Prune a generating set greedily: process in ascending degree and drop
    anything in the module generated by what was already kept.

    For fine-graded homogeneous inputs this yields a minimal generating set
    (graded Nakayama); for ungraded inputs it is still a sound pruning."""
    from .groebner import _Worker

    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        return []

    def sort_key(v):
        try:
            deg = v.fine_degree(ambient_shifts)
        except RingError:
            deg = None
        if deg is not None:
            return (0, sum(deg), deg, _det_key(v))
        return (1, v.num_terms(), (), _det_key(v))

    ordered = sorted(vectors, key=sort_key)
    rank, n = ordered[0].rank, ordered[0].n
    worker = _Worker(rank, n, GREVLEX)
    kept = []
    for v in ordered:
        if worker.add(v):
            worker.saturate()
            kept.append(v)
    return kept


@dataclass
class FreeResolution:
    """ranks[k] with differentials[k-1] mapping level k to level k-1, given by
    columns; shifts[k] grades each level when available."""

    ranks: list
    differentials: list
    shifts: list
    n: int

    def length(self):
        return len(self.ranks) - 1

    def verify_complex(self):
        """d_{k-1} o d_k = 0 as an exact identity."""
        for k in range(1, len(self.differentials)):
            prev = self.differentials[k - 1]
            for col in self.differentials[k]:
                acc = FreeModuleElement(self.ranks[k - 1], self.n)
                for j, entry in enumerate(col.entries):
                    if not entry.is_zero():
                        acc = acc + prev[j].poly_mul(entry)
                if not acc.is_zero():
                    return False
        return True


def free_resolution(module):
    """Minimal free resolution by iterated syzygy computation.

    Terminates within the syzygy bound (at most n steps past the
    presentation; more than n + 2 levels raise); each level's generators are
    pruned to a minimal generating set, which keeps the result minimal."""
    n = module.n
    ranks = [module.ambient_rank]
    shifts = [list(module.shifts) if module.shifts is not None else None]
    diffs = []
    ambient_shifts = module.shifts
    rels = minimal_generators(module.relations, ambient_shifts)
    while rels:
        if len(diffs) > n + 2:
            raise HomalgError("resolution exceeded the syzygy bound")
        graded = ambient_shifts is not None
        level_shifts = [r.fine_degree(ambient_shifts) for r in rels] if graded else None
        diffs.append(rels)
        ranks.append(len(rels))
        shifts.append(level_shifts)
        rels = minimal_generators(syzygy(rels), level_shifts)
        ambient_shifts = level_shifts
    return FreeResolution(ranks=ranks, differentials=diffs, shifts=shifts, n=n)


def presented_is_zero(module):
    """Exact zero test: every ambient generator lies in the relation span."""
    if module.ambient_rank == 0:
        return True
    if not module.relations:
        return False
    gb = buchberger(module.relations)
    return all(
        membership(FreeModuleElement.unit(module.ambient_rank, module.n, i), gb)
        for i in range(module.ambient_rank)
    )


def subquotient_presentation(gens, denominators, ambient_shifts, n):
    """Presentation of <gens> / <denominators> inside a common free ambient.

    The generators become the ambient basis of the result; the relations are
    the coefficient vectors c with sum(c_i * gens_i) in <denominators>."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return PresentedModule(0, n, [], [])
    rels = kernel_of_quotient_map(gens, denominators)
    if ambient_shifts is not None:
        shifts = [g.fine_degree(ambient_shifts) for g in gens]
    else:
        shifts = None
    return PresentedModule(len(gens), n, rels, shifts)


# ---------------------------------------------------------------------------
# Hom and Ext
# ---------------------------------------------------------------------------


def _flat_shifts(target_shifts, source_shifts):
    """Shifts of Hom(R^p, R^k): flat index j*k + i has degree
    target_shift[i] - source_shift[j]."""
    out = []
    for sj in source_shifts:
        for ti in target_shifts:
            out.append(tuple(a - b for a, b in zip(ti, sj)))
    return out


def _precompose_columns(phi_cols, b, k, n):
    """phi: R^a -> R^b given by columns; returns the columns of
    Hom(R^b, R^k) -> Hom(R^a, R^k), psi -> psi o phi.

    Output: b*k vectors (flat order (j, i) -> j*k + i), each of rank a*k."""
    a = len(phi_cols)
    out = []
    for j in range(b):
        for i in range(k):
            entries = [Poly.zero(n) for _ in range(a * k)]
            for s in range(a):
                val = phi_cols[s].entries[j]
                if not val.is_zero():
                    entries[s * k + i] = val
            out.append(FreeModuleElement(a * k, n, entries))
    return out


def _postcompose_columns(beta_cols, p, k, n):
    """beta: R^l -> R^k given by columns; returns generators of the image of
    Hom(R^p, R^l) -> Hom(R^p, R^k), phi -> beta o phi (p*l vectors, rank p*k)."""
    out = []
    for j in range(p):
        for col in beta_cols:
            entries = [Poly.zero(n) for _ in range(p * k)]
            for i in range(k):
                val = col.entries[i]
                if not val.is_zero():
                    entries[j * k + i] = val
            out.append(FreeModuleElement(p * k, n, entries))
    return out


def _basis_vectors(rank, n):
    return [FreeModuleElement.unit(rank, n, t) for t in range(rank)]


def ext_presentation(i, res, n_module):
    """Presentation of H^i Hom(F, N), where res holds the complex F of free
    modules in FreeResolution form: Ext^i(M, N) when F resolves M.

    The fine grading is carried through the whole pipeline, so for monomial
    input the result lands in canonical degrees (see the limit oracle)."""
    if i < 0:
        raise HomalgError("negative cohomological index")
    n = res.n
    big_l = res.length()
    k = n_module.ambient_rank
    if i > big_l or k == 0:
        return PresentedModule(0, n, [], [])
    beta = minimal_generators(n_module.relations, n_module.shifts)
    graded = (res.shifts[0] is not None) and n_module.is_graded()
    n_shifts = n_module.shifts if n_module.shifts is not None else [(0,) * n] * k
    level_shifts = res.shifts[i] if res.shifts[i] is not None else [(0,) * n] * res.ranks[i]
    flat = _flat_shifts(n_shifts, level_shifts) if graded else None

    if i < big_l:
        front = _precompose_columns(res.differentials[i], res.ranks[i], k, n)
        modulo = _postcompose_columns(beta, res.ranks[i + 1], k, n)
        kern = kernel_of_quotient_map(front, modulo)
    else:
        kern = _basis_vectors(res.ranks[i] * k, n)
    denom = []
    if i >= 1:
        denom.extend(_precompose_columns(res.differentials[i - 1], res.ranks[i - 1], k, n))
    denom.extend(_postcompose_columns(beta, res.ranks[i], k, n))
    return subquotient_presentation(kern, denom, flat, n)


# ---------------------------------------------------------------------------
# Graded Hilbert functions on boxes
# ---------------------------------------------------------------------------


# the largest box a Hilbert table may cover; fano8 at radius 2 has 390,625
MAX_BOX_DEGREES = 2**20


def check_box_size(box):
    """Refuse a box of more than MAX_BOX_DEGREES degrees, so that callers
    can check before anything is resolved or materialised."""
    size = 1
    for lo, hi in box:
        size *= max(0, hi - lo + 1)
    if size > MAX_BOX_DEGREES:
        raise HomalgError(
            "box of %d degrees exceeds the limit of %d degrees" % (size, MAX_BOX_DEGREES)
        )


def box_around(n, radius):
    if radius < 0:
        raise ValueError("box radius must be >= 0, got %d" % radius)
    box = [(-radius, radius)] * n
    check_box_size(box)
    return box


def _threshold_bits(box, thresholds):
    """Packed bit rows over the box (in product order): bit i of a degree d
    is set iff d >= thresholds[i] in every coordinate.

    Each coordinate contributes a table over its own range; the rows are
    the AND of those tables broadcast over the grid."""
    n = len(box)
    acc = None
    for t, (lo, hi) in enumerate(box):
        values = np.arange(lo, hi + 1, dtype=np.int64)
        table = np.packbits(values[:, None] >= thresholds[None, :, t], axis=1)
        shape = [1] * n + [table.shape[1]]
        shape[t] = len(values)
        table = table.reshape(shape)
        acc = table if acc is None else acc & table
    return acc.reshape(int(np.prod(acc.shape[:-1])), acc.shape[-1])


def hilbert_function_box(module, box):
    """Exact dimensions of the fine-graded pieces over all degrees in the box.

    box is a list of n (lo, hi) pairs; returns {degree tuple: dimension}
    including zero entries.  Requires a graded presentation.

    The dimension at d is the number of ambient slots at or below d minus
    the rank of the relation coefficients among them; it depends only on
    which slots and which relations sit at or below d, so each distinct
    (slot set, relation set) pair is ranked once."""
    if not module.is_graded():
        raise HomalgError("ungraded presentation")
    n = module.n
    if len(box) != n:
        raise HomalgError("box has wrong dimension")
    check_box_size(box)
    degrees = list(product(*(range(lo, hi + 1) for lo, hi in box)))
    r = module.ambient_rank
    if r == 0 or not degrees:
        return dict.fromkeys(degrees, 0)
    shifts = np.array(module.shifts, dtype=np.int64).reshape(r, n)
    rels = module.relations
    m = len(rels)
    slot_bits = _threshold_bits(box, shifts)
    rel_degs = np.array(module.relation_degrees(), dtype=np.int64).reshape(m, n)
    act_bits = _threshold_bits(box, rel_degs)
    width = slot_bits.shape[1]
    bits = np.ascontiguousarray(np.hstack([slot_bits, act_bits]))
    del slot_bits, act_bits
    # one opaque value per row: a 1-D unique sorts these much faster than rows
    rows = bits.view(np.dtype((np.void, bits.shape[1]))).reshape(-1)
    keys, inverse = np.unique(rows, return_inverse=True)
    del bits, rows
    # a homogeneous relation has one term per nonzero entry i, sitting at
    # slot i in every degree where the relation is active (slot i is then
    # at or below that degree too)
    columns = []
    for rel in rels:
        col = {}
        for i, entry in enumerate(rel.entries):
            for c in entry.terms.values():
                col[i] = int(c) if c.denominator == 1 else c
        columns.append(col)
    dims = []
    for key in keys:
        key = np.frombuffer(key.tobytes(), dtype=np.uint8)
        nslots = int(np.unpackbits(key[:width], count=r).sum())
        active = np.flatnonzero(np.unpackbits(key[width:], count=m))
        dims.append(nslots - sparse_rank_exact(columns[j] for j in active.tolist()))
    values = np.array(dims, dtype=np.int64)[inverse.reshape(-1)]
    return dict(zip(degrees, values.tolist()))
