"""Degreewise limit cohomology of the coordinate ring along the irrelevant
ideal, organized by sign pattern.

In a fixed fine degree whose negative support is J, the level-p term of the
limit complex has one basis vector per p-subset T of the ideal generators
whose supports jointly cover J, and the coboundary is the Koszul sign matrix
restricted to those subsets.  The resulting dimensions depend on J alone:
level p carries dim H~^(p-2)(Delta_J), where Delta is the fan's simplicial
complex (vertices the rays, faces the subsets of maximal cones) and Delta_J
its subcomplex induced on J (Hochster's formula; Eisenbud-Mustata-Stillman
2000; Cox-Little-Schenck, *Toric Varieties*, Thm 9.1.3).

`pattern_table` is the production route.  Validation proves Delta is a
(d-1)-sphere, so the components of 1-skeleta, Alexander duality and one
Euler-characteristic transform over the 2^n pattern masks give the whole
table; exact ranks remain only for the d-4 middle degrees of fans of
dimension d >= 5.  `pattern_cohomology` is the general oracle: for any
family of generator supports it evaluates one pattern on the nerve, the
quotient of the full (exact) subset complex by the span of the subsets
missing some variable of J; that span is a union of full simplices, so its
cohomology equals the cohomology of the nerve of that cover, a complex on
at most |J| vertices.  `literal_pattern_cohomology` builds the 0/+-1
coboundary matrices of the subset complex itself and takes exact ranks; it
is the oracle the tests hold the nerve route to.  Both take a pattern as
its ray indices and return {level p: dimension} on its nonzero levels.  No
production path calls either oracle.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

from .fan import SquarefreeMonomial, irrelevant_generators, require_valid
from .grading import ray_indices
from .homalg import (
    PresentedModule,
    box_around,
    ext_presentation,
    free_resolution,
    hilbert_function_box,
)
from .kernels import popcounts, surviving_masks
from .linalg import sparse_rank_exact
from .ring import Poly

LITERAL_CELL_LIMIT = 1 << 16
# the sphere route keeps a few int64 arrays over the 2^n pattern masks
MAX_TABLE_RAYS = 22


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
    hitting each negative variable) for a pattern given by its ray indices;
    the family is None when the pattern's cohomology vanishes outright
    (empty pattern, or a negative variable in no generator)."""
    supports = _supports(gens)
    neg = frozenset(pattern)
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
        return {}
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
    return dims


def _coboundary_rank(lower, upper):
    """Exact rank of the simplicial coboundary from the faces `lower` to the
    faces `upper` one size up, all given as vertex bitmasks: the column of F
    holds (-1)^(vertices of F below v) at each face F + v."""
    if not lower or not upper:
        return 0
    index = {f: i for i, f in enumerate(lower)}
    cols = [{} for _ in lower]
    for row, g in enumerate(upper):
        rest, below = g, 0
        while rest:
            bit = rest & -rest
            rest ^= bit
            cols[index[g ^ bit]][row] = -1 if below & 1 else 1
            below += 1
    return sparse_rank_exact(cols)


def _layer_cohomology(layers, sizes):
    """{s: dimension of the cohomology at the faces of size s} for s in
    sizes, where layers[s] lists the size-s faces of a simplicial complex as
    bitmasks; a complex holding the empty face gives reduced cohomology."""
    ranks = {}

    def rank(s):  # of the coboundary leaving the faces of size s
        if s not in ranks:
            ranks[s] = _coboundary_rank(layers.get(s, ()), layers.get(s + 1, ()))
        return ranks[s]

    return {s: len(layers.get(s, ())) - rank(s) - rank(s - 1) for s in sizes}


def _nerve_route_dims(supports, neg):
    """Reduced nerve cohomology: dims[p] = H~^(p-2) of the union of the
    simplices of generators missing each variable of the pattern."""
    vertices = sorted(v for v in neg if any(v not in s for s in supports))
    # a face is a set of pattern variables that one generator misses
    # entirely, so the faces are the subsets of these bitmasks
    tops = {sum(1 << i for i, v in enumerate(vertices) if v not in s) for s in supports}
    faces = set()
    for top in tops:
        sub = top
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & top
    layers = {}
    for f in sorted(faces):
        layers.setdefault(f.bit_count(), []).append(f)
    # augmented-complex level ell corresponds to limit level p = ell + 1
    return {s + 1: h for s, h in _layer_cohomology(layers, layers).items() if h}


def pattern_cohomology(gens, pattern, n):
    """Limit cohomology dimensions {level p: dimension > 0} of the coordinate
    ring in any fine degree whose negative support is `pattern`, an iterable
    of ray indices; constant across such degrees.

    gens are squarefree monomials (the irrelevant ideal's minimal basis), or
    any family of supports: this is the general oracle for `pattern_table`,
    which needs a validated fan."""
    supports, neg, family = _pattern_setup(gens, pattern, n)
    if family is None:
        return {}
    dims = _nerve_route_dims(supports, neg)
    _check_level_bounds(dims, len(supports), n)
    return dims


def all_patterns(n):
    """Every pattern over n rays as an ascending tuple of ray indices, by
    size, then lexicographically."""
    return [c for size in range(n + 1) for c in combinations(range(1, n + 1), size)]


def _subset_closure(n, tops):
    """Boolean array over the 2^n masks, true on every subset of a top."""
    closed = np.zeros(1 << n, dtype=bool)
    closed[tops] = True
    for i in range(n):
        view = closed.reshape(-1, 2, 1 << i)  # view[:, 1] = view[:, 0] + bit i
        view[:, 0, :] |= view[:, 1, :]
    return closed


def _euler_characteristics(n, is_face, sizes):
    """chi~(Delta_J) for every mask J: the sum of (-1)^(|F|-1) over the faces
    F of Delta inside J, the empty face included, by one zeta transform."""
    chi = np.where(is_face, np.where(sizes & 1, 1, -1), 0).astype(np.int64)
    for i in range(n):
        view = chi.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return chi


def _component_counts(n, cones, masks):
    """Connected components of Delta_J for every mask J (0 for J empty):
    flood the component of J's lowest vertex along the edges of Delta; the
    rest of J is a smaller mask, counted by following those rests down."""
    within_one_edge = np.zeros(1 << n, dtype=np.int64)
    within_one_edge[1 << np.arange(n)] = 1 << np.arange(n)  # so every flood grows
    for cone in cones:
        for i in range(n):
            if cone >> i & 1:
                within_one_edge[1 << i] |= cone
    for i in range(n):
        view = within_one_edge.reshape(-1, 2, 1 << i)
        view[:, 1, :] |= view[:, 0, :]
    component = masks & -masks
    while True:
        grown = within_one_edge[component] & masks
        if np.array_equal(grown, component):
            break
        component = grown
    rest = masks ^ component
    counts = np.zeros_like(masks)
    left = masks
    while left.any():
        counts += left != 0
        left = rest[left]
    return counts


def _rank_middle_degrees(h, d, n, masks, sizes, cones, is_face):
    """Set h[k][S] = dim H~^k(Delta_S) for k = 1..d-4 on every S with
    2|S| <= n, and the Alexander dual h[d-2-k] on the complement of S when
    2|S| < n.  An S with under 3 vertices has none, and neither has a cone:
    Delta_S is contractible when a vertex v of S makes (C & S) + v a face
    of Delta for every maximal cone C, since every face of Delta_S lies in
    some C & S."""
    is_cone = np.zeros_like(is_face)
    for v in range(n):
        apex = (masks >> v & 1).astype(bool)
        for cone in cones:
            apex &= is_face[(masks & cone) | (1 << v)]
        is_cone |= apex
    full = (1 << n) - 1
    faces = np.flatnonzero(is_face)
    layers = {s: faces[sizes[faces] == s] for s in range(1, d - 1)}
    for s_mask in np.flatnonzero((2 * sizes <= n) & (sizes >= 3) & ~is_cone).tolist():
        outside = full ^ s_mask
        sub = {s: layer[(layer & outside) == 0].tolist() for s, layer in layers.items()}
        for size, value in _layer_cohomology(sub, range(2, d - 2)).items():
            h[size - 1][s_mask] = value
            if 2 * int(sizes[s_mask]) < n:
                h[d - 1 - size][outside] = value


class PatternTable(NamedTuple):
    """The patterns with nonzero limit cohomology.  masks[j] is a pattern as
    a bitmask (bit i-1 for ray i) and dims[k, j] its dimension at limit
    level k+2, both int64.  The masks are in lexicographic order of their
    ascending ray indices, a prefix first: (1, 2) < (1, 2, 3) < (1, 3) < (2,)."""

    masks: np.ndarray  # (N,)
    dims: np.ndarray  # (d, N)


def pattern_table(fan):
    """The PatternTable of the fan; FanError unless the fan passes
    validation.

    Level p of a nonempty pattern J is h^(p-2)(J), where h^k(J) is the
    dimension of H~^k(Delta_J) over Q and d = fan.dim.  The route:

    * Delta is a (d-1)-sphere.  validate_fan proves that the maximal cones
      are simplicial, cover R^d and hold each point off the walls exactly
      once, and that every wall is a facet of exactly two of them.  Let x
      lie in a maximal cone C, in the relative interior of its face F, and
      let N be a ball around x that meets no face, of any cone, missing x.
      Crossing a wall through x leads to a cone in which x again has the
      face F.  The cones so reached from C cover N: a general path in N
      leaving their union would cross a wall through x into a cone that is
      reached.  A cone C' containing x has points of N off the walls, each
      in one reached cone only, so C' is reached and F is a face of C'.
      The cones thus meet in common faces, and sending a point of a face
      of Delta to the matching combination of rays, scaled to unit length,
      maps |Delta| onto S^(d-1) one-to-one: a homeomorphism.
    * h^0(J) = (components of Delta_J) - 1, the components of its 1-skeleton.
    * Alexander duality: |Delta| minus |Delta_J| deformation retracts onto
      |Delta_K|, K the complement of J (slide each point of a face away
      from the face's part in J), so H~^k(Delta_J) = H~_(d-2-k)(Delta_K),
      the empty complex carrying H~_(-1) = Q (Hatcher, Thm 3.44).  Hence
      h^(d-2)(J) = h^0(K), h^(d-1)(J) = [J = all rays], and h^k(J) =
      h^(d-2-k)(K) for every k, since homology and cohomology over Q have
      the same dimensions.
    * Euler characteristic: sum_k (-1)^k h^k(J) = chi~(Delta_J), the sum of
      (-1)^(|F|-1) over the faces F of Delta inside J, the empty face
      included: one zeta (subset-sum) transform of the faces' weights over
      the Boolean lattice of the 2^n masks.
    * So d <= 3 needs components alone, with chi~ as a check.  d = 4
      closes its one middle degree with chi~.  d >= 5 ranks h^k for
      k = 1..d-4 on the smaller of J and K, with exact integer sparse
      elimination, and chi~ closes the one middle degree left.  Where two
      rules name one degree (d = 1: 0 = d-1; d = 2: 0 = d-2) it is taken
      once.  A negative closed degree, or a failed check, raises
      PatternComplexError.
    """
    require_valid(fan)
    n, d = fan.n_rays, fan.dim
    if n > MAX_TABLE_RAYS:
        raise PatternComplexError(
            "a pattern table over %d rays has 2^%d patterns; the limit is %d rays"
            % (n, n, MAX_TABLE_RAYS)
        )
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = popcounts(masks)
    cones = [sum(1 << (i - 1) for i in cone) for cone in fan.max_cones]
    is_face = _subset_closure(n, cones)
    components = _component_counts(n, cones, masks)
    # h[k][J] = h^k(J); where two rules name one degree, the first holds.
    # Reversing an array over the masks reads it at the complements.
    h = {0: components - 1}
    h.setdefault(d - 1, (masks == masks[-1]).astype(np.int64))
    if d >= 2:
        h.setdefault(d - 2, np.maximum(components[::-1] - 1, 0))
    for k in range(1, d - 2):
        h[k] = np.zeros_like(masks)
    if d >= 5:
        _rank_middle_degrees(h, d, n, masks, sizes, cones, is_face)
    residual = _euler_characteristics(n, is_face, sizes) - sum(
        (-1) ** k * h[k] for k in range(d)
    )
    residual[0] = 0  # the empty pattern is not in the table
    if d >= 4:
        # the degree left open: d-3 where J was ranked on itself, else 1
        own = 2 * sizes <= n
        h[d - 3] += np.where(own, (-1) ** (d - 3) * residual, 0)
        h[1] -= np.where(own, 0, residual)
    elif residual.any():
        raise PatternComplexError(
            "Euler characteristic disagrees with the components of pattern %s"
            % (ray_indices(np.flatnonzero(residual)[0]),)
        )
    table = np.stack([h[k] for k in range(d)])
    table[:, 0] = 0
    if (table < 0).any():
        k, j = np.argwhere(table < 0)[0].tolist()
        raise PatternComplexError(
            "Euler characteristic leaves H~^%d of pattern %s at %d"
            % (k, ray_indices(j), table[k, j])
        )
    _check_level_bounds(2 + np.flatnonzero(table.any(axis=1)), len(fan.max_cones), n)
    nonzero = np.flatnonzero(table.any(axis=0))
    # column c of the sort keys holds the c-th smallest ray of each mask,
    # 0 past its last; frexp reads ray i off the lowest bit 2^(i-1)
    rest, columns = nonzero, []
    while rest.any():
        lowest = rest & -rest
        columns.append(np.frexp(lowest)[1])
        rest = rest ^ lowest
    masks = nonzero[np.lexsort(columns[::-1])]
    return PatternTable(masks, table[:, masks])


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


def ext_limit_oracle(fan, m, p, box_radius=2):
    """Hilbert function of Ext^p(S/<gens^m>, S) over the box
    [-box_radius, box_radius]^n, where gens generate the fan's irrelevant
    ideal; `box_around` refuses an oversized box before anything resolves.

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
    box = box_around(n, box_radius)
    stage = fan.cache.get("ext_stage")
    if stage is None or stage[0] != m:
        module = bracket_power_module(irrelevant_generators(fan), n, m)
        stage = fan.cache["ext_stage"] = (m, module, free_resolution(module))
    _, module, res = stage
    ext = ext_presentation(p, module, PresentedModule.free(n), resolution=res)
    return hilbert_function_box(ext, box)


def negative_support(degree):
    return frozenset(i + 1 for i, a in enumerate(degree) if a < 0)
