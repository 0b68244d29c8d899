"""Presentations, free resolutions, Hom, Ext, and graded Hilbert functions.

A module is presented as the cokernel of its relation columns inside a free
ambient module; when the ambient carries fine Z^n degree shifts and the
relations are homogeneous, graded Hilbert functions over boxes of degrees
are available and are the workhorse for comparing modules.

Hom(R^p, R^k) is flattened to R^(p*k) column-major: the matrix unit sending
e_j to e_i sits at flat index j*k + i.  Hom(M, N) is Ext^0(M, N), that is
ext_presentation(0, free_resolution(M), N).  When N = S and F has monomial
entries, HomStrands reads H^p Hom(F, S) off each fine degree without a
presentation.  Groebner work runs in grevlex, the groebner default: no
result here depends on it.
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
    if i > big_l or k == 0 or res.ranks[i] == 0:
        return PresentedModule(0, n, [], [])
    beta = minimal_generators(n_module.relations, n_module.shifts)
    graded = (res.shifts[0] is not None) and n_module.is_graded()
    n_shifts = n_module.shifts if n_module.shifts is not None else [(0,) * n] * k
    level_shifts = res.shifts[i] if res.shifts[i] is not None else [(0,) * n] * res.ranks[i]
    flat = _flat_shifts(n_shifts, level_shifts) if graded else None

    if i < big_l and res.ranks[i + 1]:
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


def _box_table(box, thresholds, evaluate):
    """{degree: evaluate(*active)} over every degree of the box, in product
    order and zeros included.

    thresholds is a list of (k, n) int arrays; in a degree d, array g is
    active at the indices i with d >= thresholds[g][i] in every coordinate,
    and active[g] is the tuple of those indices.  The activity is packed
    into one bit row per degree, and evaluate runs once per distinct row."""
    check_box_size(box)
    degrees = list(product(*(range(lo, hi + 1) for lo, hi in box)))
    if not degrees:
        return {}
    tables = [_threshold_bits(box, t) for t in thresholds]
    if not sum(table.shape[1] for table in tables):
        return dict.fromkeys(degrees, evaluate(*([()] * len(thresholds))))
    bits = np.ascontiguousarray(np.hstack(tables))
    # one opaque value per row: a 1-D unique sorts these much faster than rows
    rows = bits.view(np.dtype((np.void, bits.shape[1]))).reshape(-1)
    keys, inverse = np.unique(rows, return_inverse=True)
    del tables, bits, rows
    values = []
    for key in keys:
        key = np.frombuffer(key.tobytes(), dtype=np.uint8)
        active, start = [], 0
        for t in thresholds:
            width = (len(t) + 7) // 8
            flags = np.unpackbits(key[start:start + width], count=len(t))
            active.append(tuple(np.flatnonzero(flags).tolist()))
            start += width
        values.append(evaluate(*active))
    values = np.array(values, dtype=np.int64)[inverse.reshape(-1)]
    return dict(zip(degrees, values.tolist()))


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
    shifts = np.array(module.shifts, dtype=np.int64).reshape(-1, n)
    rel_degs = np.array(module.relation_degrees(), dtype=np.int64).reshape(-1, n)
    # a homogeneous relation has one term per nonzero entry i, sitting at
    # slot i in every degree where the relation is active (slot i is then
    # at or below that degree too)
    columns = []
    for rel in module.relations:
        col = {}
        for i, entry in enumerate(rel.entries):
            for c in entry.terms.values():
                col[i] = int(c) if c.denominator == 1 else c
        columns.append(col)

    def dimension(slots, active):
        return len(slots) - sparse_rank_exact(columns[j] for j in active)

    return _box_table(box, [shifts, rel_degs], dimension)


class HomStrands:
    """H^p Hom(F^[m], S) at every fine degree, read off the scalar strands of
    a fine-graded complex F of free modules over S = k[x_1..x_n], where
    F^[m] is F pulled back along x_i -> x_i^m.

    Every entry of d_k: F_k -> F_(k-1) must be a single term c x^(s_l - s_j)
    (generator e_l of shift s_l to e_j of shift s_j), as in any fine-graded
    map; another entry raises HomalgError.  `rows[k]` holds the coefficient
    matrix D_k by rows.  In degree a the complex is scalar on the active
    generators A_k = {j : a + m s_j >= 0}, and
        dim H^p_a = |A_p| - rank D_(p+1)[A_p, :] - rank D_p[A_(p-1), :]
    (ext_limit_oracle holds the proof).  Each distinct (A_(p-1), A_p) pair
    is evaluated once, and the ranks are kept by (level, active set): the
    kernel rank at level p is the image rank at level p + 1, and the same
    sets recur across stages."""

    def __init__(self, res):
        if any(s is None for s in res.shifts):
            raise HomalgError("ungraded resolution")
        self.resolution = res
        self.n = n = res.n
        self.shifts = [np.array(s, dtype=np.int64).reshape(len(s), n) for s in res.shifts]
        # rows[k][j] = {l: c_jl}, row j of the coefficient matrix D_k of d_k
        self.rows = [None]
        for k, columns in enumerate(res.differentials, start=1):
            rows = [{} for _ in range(res.ranks[k - 1])]
            for l, col in enumerate(columns):
                for j, entry in enumerate(col.entries):
                    if entry.is_zero():
                        continue
                    exponent = tuple(a - b for a, b in zip(res.shifts[k][l], res.shifts[k - 1][j]))
                    if list(entry.terms) != [exponent]:
                        raise HomalgError(
                            "entry (%d, %d) of d_%d is not a single term of degree %s"
                            % (j, l, k, exponent)
                        )
                    c = entry.terms[exponent]
                    rows[j][l] = int(c) if c.denominator == 1 else c
            self.rows.append(rows)
        self.ranks = {}  # (level k, active rows of D_k) -> rank

    def _rank(self, k, active):
        if not active or not 0 < k < len(self.rows):
            return 0
        key = (k, active)
        rank = self.ranks.get(key)
        if rank is None:
            rows = self.rows[k]
            rank = self.ranks[key] = sparse_rank_exact(rows[j] for j in active)
        return rank

    def hilbert_box(self, p, m, box):
        """{degree: dim H^p Hom(F^[m], S)} over every degree of the box."""
        if p < 0:
            raise HomalgError("negative cohomological index")
        if m < 1:
            raise HomalgError("stage m must be >= 1")
        if len(box) != self.n:
            raise HomalgError("box has wrong dimension")
        # level k's generators e_j are active in degree a iff a >= -m s_j
        none = np.zeros((0, self.n), dtype=np.int64)
        levels = [-m * self.shifts[k] if 0 <= k < len(self.shifts) else none for k in (p - 1, p)]

        def dimension(prev, cur):
            return len(cur) - self._rank(p + 1, cur) - self._rank(p, prev)

        return _box_table(box, levels, dimension)
