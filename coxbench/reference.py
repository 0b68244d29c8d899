"""Answers computed from a fan's rays and maximal cones alone.

Nothing here imports the program.  The one fact used is that of
Cox-Little-Schenck, *Toric Varieties*, Thm 9.1.3, and Eisenbud-Mustata-
Stillman (2000): for a complete simplicial fan with simplicial complex
Delta (vertices = rays, faces = subsets of maximal cones),

* H^p(X, O(D))_m = H~^{p-1}(Delta_{J(m)}) with D = sum a_i D_i and
  J(m) = {i : <m, v_i> + a_i < 0};
* the sign-pattern cone J of the program's table sits at sheaf index p
  with multiplicity dim H~^{p-1}(Delta_J);
* local cohomology H^p_B(S)_a = H~^{p-2}(Delta_{neg(a)}), which the
  stage-m Ext oracle reproduces on boxes of radius r <= m;

where Delta_J is the subcomplex induced on J.  Ranks are exact over Q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor

import numpy as np


def exact_rank(rows):
    """Rank over Q of an integer matrix given as sparse rows {column: value}."""
    rows = [dict(r) for r in rows if r]
    rank = 0
    while rows:
        # prefer a unit pivot in a short row, so entries stay small
        pi, pc = min(
            ((i, c) for i, r in enumerate(rows) for c, v in r.items()),
            key=lambda ic: (abs(rows[ic[0]][ic[1]]) != 1, len(rows[ic[0]])),
        )
        prow = rows.pop(pi)
        pv = prow[pc]
        rank += 1
        kept = []
        for r in rows:
            f = r.get(pc)
            if f:
                # r <- pv*r - f*prow clears column pc and stays integral
                new = {}
                for c in r.keys() | prow.keys():
                    v = pv * r.get(c, 0) - f * prow.get(c, 0)
                    if v:
                        new[c] = v
                r = new
            if r:
                kept.append(r)
        rows = kept
    return rank


class FanComplex:
    """The simplicial complex of a fan, with reduced cohomology of its
    induced subcomplexes (faces as bitmasks over 0-based ray indices)."""

    def __init__(self, n_rays, cones):
        self.n = n_rays
        self.cone_masks = [sum(1 << (i - 1) for i in cone) for cone in cones]
        self._memo = {}

    def faces(self, jmask):
        """Faces of the subcomplex induced on jmask, by size (size 0 = empty face)."""
        found = set()
        for c in self.cone_masks:
            top = c & jmask
            sub = top
            while True:
                found.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & top
        by_size = {}
        for f in found:
            by_size.setdefault(bin(f).count("1"), []).append(f)
        return by_size

    def reduced_cohomology(self, jmask):
        """{k: dim H~^k(Delta_J)} for the nonzero degrees k >= -1."""
        cached = self._memo.get(jmask)
        if cached is not None:
            return cached
        by_size = self.faces(jmask)
        index = {s: {f: i for i, f in enumerate(sorted(fs))} for s, fs in by_size.items()}
        ranks = {}
        for s, fs in by_size.items():
            up = index.get(s + 1)
            if not up:
                continue
            rows = []
            for f in fs:
                row = {}
                below = 0  # vertices of f below the inserted one, for the sign
                for v in range(self.n):
                    bit = 1 << v
                    if f & bit:
                        below += 1
                        continue
                    col = up.get(f | bit)
                    if col is not None:
                        row[col] = -1 if below % 2 else 1
                rows.append(row)
            ranks[s] = exact_rank(rows)
        dims = {}
        for s, fs in by_size.items():
            h = len(fs) - ranks.get(s, 0) - ranks.get(s - 1, 0)
            if h:
                dims[s - 1] = h
        self._memo[jmask] = dims
        return dims


def pattern_table(cx):
    """{(sheaf index p, sorted 1-based pattern): multiplicity} over all
    nonempty patterns J: the cone table `cohomology-u` prints."""
    out = {}
    for jmask in range(1, 1 << cx.n):
        pattern = tuple(i + 1 for i in range(cx.n) if jmask >> i & 1)
        for k, h in cx.reduced_cohomology(jmask).items():
            out[(k + 1, pattern)] = h
    return out


def local_cohomology(cx, p, negative_mask):
    """dim H^p_B(S)_a for any a with negative support negative_mask."""
    if not negative_mask:
        return 0
    return cx.reduced_cohomology(negative_mask).get(p - 2, 0)


def _box_bounds(rays, a):
    """Integer box holding every bounded region {m : J(m) = J}.

    Each such region is cut out by <m, v_i> <= -a_i - 1 (i in J) and
    <m, v_i> >= -a_i (i not in J), so its vertices solve d independent
    equations <m, v_i> = c_i with c_i in {-a_i, -a_i - 1}.  Regions with
    infinitely many lattice points contribute nothing, since H^p(X, O(D))
    is finite-dimensional."""
    d = len(rays[0])
    lo = [None] * d
    hi = [None] * d
    for subset, inv in _bases(rays):
        for j in range(d):
            # m_j = sum_k inv[j][k] c_k is a sum of terms in separate c_k, so
            # over the 2^d choices of c its extremes take each term at its own
            terms = [(inv[j][k] * -a[i], inv[j][k] * (-a[i] - 1)) for k, i in enumerate(subset)]
            low, high = sum(min(t) for t in terms), sum(max(t) for t in terms)
            lo[j] = low if lo[j] is None or low < lo[j] else lo[j]
            hi[j] = high if hi[j] is None or high > hi[j] else hi[j]
    return [ceil(x) for x in lo], [floor(x) for x in hi]


_BASES = {}


def _bases(rays):
    """[(subset, inverse)] for every d-subset of the rays that is a basis of
    Q^d; it does not depend on the divisor, so it is computed once per fan."""
    key = tuple(map(tuple, rays))
    if key not in _BASES:
        d = len(rays[0])
        subsets = [(s, _inverse([rays[i] for i in s])) for s in combinations(range(len(rays)), d)]
        _BASES[key] = [(s, inv) for s, inv in subsets if inv is not None]
    return _BASES[key]


def _inverse(rows):
    d = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(rows)]
    for col in range(d):
        piv = next((i for i in range(col, d) if aug[i][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(d):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[d:] for row in aug]


def sheaf_cohomology(cx, rays, a, chunk=1 << 18):
    """[h^p(X, O(sum a_i D_i)) for p = 0..n]: count lattice points m of the
    box by J(m), then weight each J by dim H~^{p-1}(Delta_J)."""
    n, d = len(rays), len(rays[0])
    lo, hi = _box_bounds(rays, a)
    counts = np.zeros(1 << n, dtype=np.int64)
    if all(l <= h for l, h in zip(lo, hi)):
        v = np.array(rays, dtype=np.int64).T  # d x n
        av = np.array(a, dtype=np.int64)
        weights = np.int64(1) << np.arange(n, dtype=np.int64)
        axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(lo, hi)]
        # iterate over the first coordinates, vectorise the last ones
        inner = 1
        split = d
        while split > 0 and inner * len(axes[split - 1]) <= chunk:
            split -= 1
            inner *= len(axes[split])
        tail = np.stack(np.meshgrid(*axes[split:], indexing="ij"), axis=-1).reshape(-1, d - split) \
            if split < d else np.zeros((1, 0), dtype=np.int64)
        tail_part = tail @ v[split:] + av
        for head in product(*axes[:split]):
            s = tail_part + np.array(head, dtype=np.int64) @ v[:split]
            codes = (s < 0).astype(np.int64) @ weights
            counts += np.bincount(codes, minlength=1 << n)
    h = [0] * (n + 1)
    for jmask in np.nonzero(counts)[0].tolist():
        for k, dim in cx.reduced_cohomology(jmask).items():
            if 0 <= k + 1 <= n:
                h[k + 1] += int(counts[jmask]) * dim
    return h
