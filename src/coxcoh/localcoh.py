"""Degreewise limit cohomology of the coordinate ring along the irrelevant
ideal, organized by sign pattern.

In a fixed fine degree whose negative support is J, the level-p term of the
limit complex has one basis vector per p-subset T of the ideal generators
whose supports jointly cover J, and the coboundary is the Koszul sign matrix
restricted to those subsets.  The resulting dimensions depend on J alone
(Hochster's formula; Eisenbud-Mustata-Stillman 2000).

`pattern_cohomology` evaluates them on the nerve: the complex is the
quotient of the full (exact) subset complex by the span of the subsets
missing some variable of J; that span is a union of full simplices, so its
cohomology equals the cohomology of the nerve of that cover, a complex on at
most |J| vertices.  `literal_pattern_cohomology` builds the 0/+-1 coboundary
matrices of the subset complex itself and takes exact ranks; it is the
oracle the tests hold the nerve route to, and no production path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .fan import SquarefreeMonomial, irrelevant_generators
from .grading import SignPattern
from .homalg import (
    PresentedModule,
    box_around,
    check_box_size,
    ext_presentation,
    free_resolution,
    hilbert_function_box,
)
from .kernels import popcounts, surviving_masks
from .linalg import rational_rank, sparse_rank_exact
from .ring import Poly

LITERAL_CELL_LIMIT = 1 << 16


@dataclass
class SignPatternCohomology:
    """Nonzero limit cohomology dimensions for one sign pattern."""

    pattern: SignPattern
    dims: dict = field(default_factory=dict)  # level p -> dimension > 0

    def nonzero_levels(self):
        return sorted(self.dims)


def _supports(gens):
    out = []
    for g in gens:
        if isinstance(g, SquarefreeMonomial):
            out.append(frozenset(g.support))
        else:
            out.append(frozenset(int(i) for i in g))
    return out


def _minimal_family(sets):
    """Minimal elements of a family of sets under inclusion, deduplicated."""
    uniq = set(sets)
    return frozenset(s for s in uniq if not any(o < s for o in uniq))


class PatternComplexError(RuntimeError):
    pass


def _pattern_setup(gens, pattern, n):
    """(supports, negative support, minimal family of the generator sets
    hitting each negative variable); the family is None when the pattern's
    cohomology vanishes outright (empty pattern, or a negative variable in
    no generator)."""
    supports = _supports(gens)
    neg = frozenset(pattern.negative if isinstance(pattern, SignPattern) else pattern)
    if any(not 1 <= v <= n for v in neg):
        raise ValueError("pattern indices must lie in 1..%d" % n)
    if not neg:
        return supports, neg, None
    hitting = {v: frozenset(i for i, s in enumerate(supports) if v in s) for v in neg}
    if any(not h for h in hitting.values()):
        return supports, neg, None
    return supports, neg, _minimal_family(hitting.values())


def _check_level_bounds(dims, t, n):
    for p in dims:
        if p > t or p > n:
            raise PatternComplexError(
                "cohomology above the generator count or variable bound at level %d" % p
            )


def literal_pattern_cohomology(gens, pattern, n):
    """Oracle for `pattern_cohomology`: the same dimensions from the literal
    subset complex on the generators, by exact sparse ranks.  Its size is
    up to 2^t cells, so it refuses complexes above LITERAL_CELL_LIMIT."""
    supports, neg, family = _pattern_setup(gens, pattern, n)
    if family is None:
        return SignPatternCohomology(SignPattern(neg), {})
    t = len(supports)
    var_masks = sorted(sum(1 << i for i in g) for g in family)
    masks = surviving_masks(t, var_masks)
    if len(masks) > LITERAL_CELL_LIMIT:
        raise PatternComplexError(
            "literal subset complex has %d cells; the oracle stops at %d"
            % (len(masks), LITERAL_CELL_LIMIT)
        )
    levels = {}
    for m, p in zip(masks.tolist(), popcounts(masks).tolist()):
        levels.setdefault(p, []).append(m)
    index = {p: {m: i for i, m in enumerate(ms)} for p, ms in levels.items()}

    def sign_of_insert(mask, bit_index):
        below = bin(mask & ((1 << bit_index) - 1)).count("1")
        return -1 if (below + 1) % 2 else 1

    ranks = {}
    for p, ms in sorted(levels.items()):
        up = index.get(p + 1)
        if up is None:
            continue
        cols = []
        for m in ms:
            col = {}
            for j in range(t):
                bit = 1 << j
                if m & bit:
                    continue
                bigger = m | bit
                row = up.get(bigger)
                if row is None:
                    raise PatternComplexError("surviving family is not upward closed")
                col[row] = sign_of_insert(bigger, j)
            cols.append(col)
        ranks[p] = sparse_rank_exact(cols)
    dims = {}
    for p, ms in levels.items():
        d = len(ms) - ranks.get(p, 0) - ranks.get(p - 1, 0)
        if d:
            dims[p] = d
    _check_level_bounds(dims, t, n)
    return SignPatternCohomology(SignPattern(neg), dims)


def _nerve_route_dims(supports, neg):
    """Reduced nerve cohomology: dims[p] = H~^(p-2) of the union of the
    simplices of generators missing each variable of the pattern."""
    vertices = sorted(v for v in neg if any(v not in s for s in supports))
    faces_by_size = {0: [()]}
    for size in range(1, len(vertices) + 1):
        layer = []
        for a in combinations(vertices, size):
            aset = set(a)
            if any(not (s & aset) for s in supports):
                layer.append(a)
        if not layer:
            break
        faces_by_size[size] = layer
    index = {size: {a: i for i, a in enumerate(layer)} for size, layer in faces_by_size.items()}
    ranks = {}
    for size, layer in faces_by_size.items():
        up = index.get(size + 1)
        if not up:
            continue
        rows = []
        for a in layer:
            row = [0] * len(up)
            aset = set(a)
            for v in vertices:
                if v in aset:
                    continue
                bigger = tuple(sorted(a + (v,)))
                col = up.get(bigger)
                if col is None:
                    continue
                k = bigger.index(v) + 1
                row[col] = -1 if k % 2 else 1
            rows.append(row)
        # rank of the coboundary from this layer (columns = faces above)
        ranks[size] = rational_rank(rows)
    dims = {}
    for size, layer in faces_by_size.items():
        d = len(layer) - ranks.get(size, 0) - ranks.get(size - 1, 0)
        if d:
            # augmented-complex level ell corresponds to limit level p = ell + 1
            dims[size + 1] = d
    return dims


def pattern_cohomology(gens, pattern, n):
    """Limit cohomology dimensions of the coordinate ring in any fine degree
    with the given negative support; constant across such degrees.

    gens are squarefree monomials (the irrelevant ideal's minimal basis)."""
    supports, neg, family = _pattern_setup(gens, pattern, n)
    result_pattern = SignPattern(neg)
    if family is None:
        return SignPatternCohomology(result_pattern, {})
    dims = _nerve_route_dims(supports, neg)
    _check_level_bounds(dims, len(supports), n)
    return SignPatternCohomology(result_pattern, dims)


def all_patterns(n):
    """All sign patterns in subset-lexicographic order."""
    out = []
    for size in range(n + 1):
        for c in combinations(range(1, n + 1), size):
            out.append(SignPattern(c))
    return out


def pattern_table(gens, n):
    """SignPatternCohomology for every pattern with nonzero dims, in
    subset-lexicographic pattern order."""
    out = []
    for pat in all_patterns(n):
        res = pattern_cohomology(gens, pat, n)
        if res.dims:
            out.append(res)
    return out


# ---------------------------------------------------------------------------
# finite-stage Ext oracle
# ---------------------------------------------------------------------------

def bracket_power_module(gens, n, m):
    """S / <g^m for g in gens> as a presented module (bracket power:
    generatorwise m-th powers, not the ordinary ideal power)."""
    supports = _supports(gens)
    polys = []
    for s in supports:
        e = [0] * n
        for v in s:
            e[v - 1] = m
        polys.append(Poly.monomial(n, e))
    return PresentedModule.quotient_by(polys, n)


def ext_limit_oracle(fan, m, p, box_radius=2, box=None):
    """Hilbert function of Ext^p(S/<gens^m>, S) over the box, where gens
    generate the fan's irrelevant ideal.

    Degree convention: the fine grading is tracked through the resolution
    and its dual, so a class appears at its limit degree directly: at stage
    m the degree of a class equals its naive coordinate-ring degree minus m
    times the degree of the localizing monomial of its cone, and that shift
    is exactly what the resolution twists contribute.  Stabilized values can
    therefore be compared with pattern_cohomology with no further shifting:
    within a box of radius r the stage-m values agree with the limit for
    m >= r, and the nonzero-degree sign patterns agree for every m >= 1.

    The fan keeps the last stage's module and resolution, so asking for
    every p of one stage resolves once; no Hilbert table is kept."""
    if m < 1:
        raise ValueError("stage m must be >= 1")
    n = fan.n_rays
    if box is None:
        box = box_around(n, box_radius)
    else:
        check_box_size(box)
    stage = fan.cache.get("ext_stage")
    if stage is None or stage[0] != m:
        module = bracket_power_module(irrelevant_generators(fan), n, m)
        stage = fan.cache["ext_stage"] = (m, module, free_resolution(module))
    _, module, res = stage
    ext = ext_presentation(p, module, PresentedModule.free(n), resolution=res)
    return hilbert_function_box(ext, list(box))


def negative_support(degree):
    return frozenset(i + 1 for i, a in enumerate(degree) if a < 0)
