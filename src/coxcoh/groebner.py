"""Division, Buchberger with transformation matrices, and syzygies.

Free-module elements are ordered position-over-term with lower positions
preferred; the ring order is grevlex by default (lex available).  A
Groebner basis carries both transformation matrices: F = G*A and G = F*B,
which is what makes the syzygy extraction below work.

Buchberger and the syzygy extraction work on nonzero entries only: the
tracked representations are sparse {source index: Poly} maps, a basis is
flattened for division once per generator, and division pops its leading
terms from a heap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import add, le, sub

from .ring import FreeModuleElement, Poly, RingError


class MonomialOrder:
    """Total order on module terms (position, exponent tuple)."""

    def __init__(self, kind="grevlex"):
        if kind not in ("grevlex", "lex"):
            raise ValueError("unknown order %r" % kind)
        self.kind = kind

    def exp_key(self, exp):
        if self.kind == "grevlex":
            return (sum(exp), tuple(-e for e in reversed(exp)))
        return exp

    def term_key(self, term):
        pos, exp = term
        return (-pos,) + (self.exp_key(exp) if self.kind == "grevlex" else (exp,))

    def heap_key(self, term):
        """A flat key that sorts ascending exactly as term_key sorts
        descending, so the smallest heap key is the leading term."""
        pos, exp = term
        if self.kind == "grevlex":
            return (pos, -sum(exp)) + exp[::-1]
        return (pos,) + tuple(-e for e in exp)

    def __repr__(self):
        return "MonomialOrder(%r)" % self.kind


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def _poly(n, terms):
    """A Poly around a dict of nonzero coefficients, taken as is."""
    out = Poly(n)
    out.terms = terms
    return out


def _divides(a, b):
    """Does x^a divide x^b."""
    return all(map(le, a, b))


def _lead(v, order):
    """(position, exponent, coefficient) of the leading term of v."""
    pos, exp = min(((pos, e) for pos, e, _ in v.iter_terms()), key=order.heap_key)
    return pos, exp, v.entries[pos].terms[exp]


class _DivisionBasis:
    """A basis flattened once for division.

    entries[i] is (lead coefficient, tail terms with negated coefficients)
    of basis element i, or None for a zero element or one masked out;
    by_pos maps each position to the (index, lead exponent) pairs of the
    elements leading there, in basis order, so division tries divisors in
    the same order as the basis."""

    def __init__(self, order, basis=()):
        self.order = order
        self.entries = []
        self.by_pos = {}
        for g in basis:
            self.append(g)

    def _entry(self, g):
        pos, exp, c = _lead(g, self.order)
        tail = [(p, e, -t) for p, e, t in g.iter_terms() if e != exp or p != pos]
        return pos, exp, (c, tail)

    def append(self, g):
        entry = None
        if not g.is_zero():
            pos, exp, entry = self._entry(g)
            self.by_pos.setdefault(pos, []).append((len(self.entries), exp))
        self.entries.append(entry)

    def replace(self, i, g):
        """Put g, which has the same leading term, in place of element i."""
        self.entries[i] = self._entry(g)[2]


def divide(f, basis, order=GREVLEX, flat=None):
    """Division with remainder: f = sum(q_i * basis_i) + r where no term of r
    is divisible by any leading term of the basis (in matching position).

    flat is the basis already flattened (a _DivisionBasis in the same order);
    callers that divide by one basis many times pass it to skip that work.
    Returns (quotients, remainder); quotients are ring polynomials."""
    n, rank = f.n, f.rank
    if flat is None:
        flat = _DivisionBasis(order, basis)
    entries, by_pos, hkey = flat.entries, flat.by_pos, order.heap_key
    work = {}
    heap = []
    for pos, e, c in f.iter_terms():
        key = (pos, e)
        work[key] = c
        heap.append((hkey(key), key))
    heapq.heapify(heap)
    quotients = [None] * len(entries)
    rem = [{} for _ in range(rank)]
    while heap:
        key = heapq.heappop(heap)[1]
        coeff = work.pop(key, None)
        if coeff is None:
            continue  # cancelled since it was pushed, or pushed twice
        pos, exp = key
        for bi, bexp in by_pos.get(pos, ()):
            entry = entries[bi]
            if entry is None or not _divides(bexp, exp):
                continue
            bcoeff, tail = entry
            shift = tuple(map(sub, exp, bexp))
            factor = coeff if bcoeff == 1 else coeff / bcoeff
            qt = quotients[bi]
            if qt is None:
                qt = quotients[bi] = {}
            qt[shift] = factor
            unit = factor == 1
            for p2, e2, c2 in tail:
                k2 = (p2, tuple(map(add, e2, shift)))
                delta = c2 if unit else factor * c2
                old = work.get(k2)
                if old is None:
                    work[k2] = delta
                    heapq.heappush(heap, (hkey(k2), k2))
                else:
                    nv = old + delta
                    if nv:
                        work[k2] = nv
                    else:
                        del work[k2]
            break
        else:
            rem[pos][exp] = coeff
    quotients = [_poly(n, qt) if qt else Poly(n) for qt in quotients]
    return quotients, FreeModuleElement(rank, n, [_poly(n, t) for t in rem])


def _add_into(acc, key, poly):
    """acc[key] += poly over a sparse {key: Poly} map, dropping zeros."""
    old = acc.get(key)
    new = poly if old is None else old + poly
    if new.terms:
        acc[key] = new
    elif old is not None:
        del acc[key]


@dataclass
class GroebnerBasis:
    """Reduced Groebner basis G with monic leads plus the change-of-basis
    matrices: F = G*A and G = F*B (entries are ring polynomials).

    a_columns[j] and b_columns[k] hold the nonzero entries of column j of A
    and column k of B as {row: Poly}; flat is G flattened for division."""

    generators: list
    a_matrix: list  # len(G) x len(F)
    b_matrix: list  # len(F) x len(G)
    order: MonomialOrder
    source: list
    a_columns: list = field(default=None, repr=False, compare=False)
    b_columns: list = field(default=None, repr=False, compare=False)
    flat: _DivisionBasis = field(default=None, repr=False, compare=False)


class _Worker:
    """Incremental Buchberger state with optional representation tracking.

    A tracked representation is a sparse {source index: Poly} map."""

    def __init__(self, rank, n, order, track=False):
        self.rank = rank
        self.n = n
        self.order = order
        self.track = track
        self.gens = []  # monic FreeModuleElements
        self.leads = []  # (pos, exp)
        self.flat = _DivisionBasis(order)
        self.reps = []  # coordinates in the source list, when tracking
        self.pairs = []
        self._tick = 0

    def _push_pairs(self, k):
        posk, expk = self.leads[k]
        for i in range(k):
            posi, expi = self.leads[i]
            if posi != posk:
                continue
            lcm = tuple(max(a, b) for a, b in zip(expi, expk))
            heapq.heappush(self.pairs, (sum(lcm), self._tick, i, k))
            self._tick += 1

    def _reduce_rep(self, rep, qts, reps):
        """rep - sum(q_k * reps[k]) over the nonzero quotients."""
        for k, q in enumerate(qts):
            if q.terms:
                for i, p in reps[k].items():
                    _add_into(rep, i, -(q * p))
        return rep

    def add(self, v, rep=None):
        """Reduce v against the current basis and absorb it if nonzero.
        Returns True when the basis grew."""
        qts, r = divide(v, self.gens, self.order, self.flat)
        if r.is_zero():
            return False
        pos, exp, lc = _lead(r, self.order)
        g = r if lc == 1 else r.scale(1 / lc)
        if self.track:
            new_rep = self._reduce_rep(dict(rep or {}), qts, self.reps)
            if lc != 1:
                inv = 1 / lc
                new_rep = {i: p.scale(inv) for i, p in new_rep.items()}
            self.reps.append(new_rep)
        self.gens.append(g)
        self.leads.append((pos, exp))
        self.flat.append(g)
        self._push_pairs(len(self.gens) - 1)
        return True

    def saturate(self):
        while self.pairs:
            _, _, i, j = heapq.heappop(self.pairs)
            posi, expi = self.leads[i]
            posj, expj = self.leads[j]
            lcm = tuple(max(a, b) for a, b in zip(expi, expj))
            if self.rank == 1 and all(a + b == c for a, b, c in zip(expi, expj, lcm)):
                continue  # coprime-lcm criterion (ring case only)
            ui = tuple(map(sub, lcm, expi))
            uj = tuple(map(sub, lcm, expj))
            s = self.gens[i].mono_mul(ui) - self.gens[j].mono_mul(uj)
            rep = None
            if self.track:
                rep = {k: p.mono_mul(ui) for k, p in self.reps[i].items()}
                for k, p in self.reps[j].items():
                    _add_into(rep, k, -p.mono_mul(uj))
            self.add(s, rep)

    def interreduce(self):
        """Minimalize and tail-reduce; returns (gens, flat, reps) in lead order."""
        idx = sorted(range(len(self.gens)), key=lambda i: self.order.term_key(self.leads[i]))
        kept = []
        for i in idx:
            posi, expi = self.leads[i]
            if any(
                self.leads[j][0] == posi and _divides(self.leads[j][1], expi) for j in kept
            ):
                continue
            kept.append(i)
        gens = [self.gens[i] for i in kept]
        reps = [self.reps[i] if self.track else None for i in kept]
        flat = _DivisionBasis(self.order, gens)
        for a in range(len(gens)):
            # divide by all the others: mask a out of the basis meanwhile
            entry, flat.entries[a] = flat.entries[a], None
            qts, r = divide(gens[a], gens, self.order, flat)
            flat.entries[a] = entry
            if any(q.terms for q in qts):
                if self.track:
                    reps[a] = self._reduce_rep(dict(reps[a]), qts, reps)
                gens[a] = r
                flat.replace(a, r)
        return gens, flat, reps


def buchberger(source, order=GREVLEX):
    """Reduced Groebner basis of the submodule generated by `source`, with
    transformation matrices per the GroebnerBasis contract."""
    if not source:
        raise RingError("empty generating system")
    rank, n = source[0].rank, source[0].n
    for f in source:
        if f.rank != rank or f.n != n:
            raise RingError("mixed ranks in generating system")
    worker = _Worker(rank, n, order, track=True)
    one = Poly.const(n, 1)
    for j, f in enumerate(source):
        worker.add(f, {j: one})
    worker.saturate()
    gens, flat, reps = worker.interreduce()
    # A: divide each source element by the final basis
    a_columns = []
    for f in source:
        qts, r = divide(f, gens, order, flat)
        if not r.is_zero():
            raise RingError("internal error: source element does not reduce to zero")
        a_columns.append({i: q for i, q in enumerate(qts) if q.terms})
    a_matrix = [[Poly(n) for _ in source] for _ in gens]
    for j, col in enumerate(a_columns):
        for i, q in col.items():
            a_matrix[i][j] = q
    b_matrix = [[Poly(n) for _ in gens] for _ in source]
    for k, col in enumerate(reps):
        for i, p in col.items():
            b_matrix[i][k] = p
    return GroebnerBasis(
        generators=gens, a_matrix=a_matrix, b_matrix=b_matrix, order=order,
        source=list(source), a_columns=a_columns, b_columns=reps, flat=flat,
    )


def syzygy(source, order=GREVLEX):
    """Generators of the syzygy module of `source` (vectors s with
    source * s = 0), extracted from a Groebner basis via its S-pair
    cofactors and the transformation matrices."""
    source = list(source)
    if not source:
        return []
    n = source[0].n
    p = len(source)
    gb = buchberger(source, order)
    gens, a_cols, b_cols = gb.generators, gb.a_columns, gb.b_columns
    q = len(gens)
    out = []
    seen = set()

    def emit(col):
        # col is a sparse {position: Poly} vector of rank p
        if not col:
            return
        key = tuple(sorted((i, tuple(sorted(e.terms.items()))) for i, e in col.items()))
        if key in seen:
            return
        seen.add(key)
        out.append(FreeModuleElement(p, n, [col.get(i) or Poly(n) for i in range(p)]))

    # columns of identity - B*A
    one = Poly.const(n, 1)
    for j in range(p):
        col = {j: one}
        for k, akj in a_cols[j].items():
            for i, bik in b_cols[k].items():
                _add_into(col, i, -(bik * akj))
        emit(col)

    # B * s_ij for the S-pair syzygies of the basis
    leads = [_lead(g, order) for g in gens]
    for i in range(q):
        pos_i, exp_i, _ = leads[i]
        for j in range(i + 1, q):
            pos_j, exp_j, _ = leads[j]
            if pos_i != pos_j:
                continue
            lcm = tuple(max(a, b) for a, b in zip(exp_i, exp_j))
            ui = tuple(map(sub, lcm, exp_i))
            uj = tuple(map(sub, lcm, exp_j))
            s = gens[i].mono_mul(ui) - gens[j].mono_mul(uj)
            qts, r = divide(s, gens, order, gb.flat)
            if not r.is_zero():
                raise RingError("internal error: S-vector does not reduce to zero")
            # s_ij in coordinates of G, then mapped through B
            svec = {i: Poly.monomial(n, ui)}
            _add_into(svec, j, -Poly.monomial(n, uj))
            for k, qq in enumerate(qts):
                if qq.terms:
                    _add_into(svec, k, -qq)
            col = {}
            for k, sk in svec.items():
                for a, bak in b_cols[k].items():
                    _add_into(col, a, bak * sk)
            emit(col)
    return out


def kernel_of_quotient_map(front, modulo, order=GREVLEX):
    """Generators of the kernel of R^p -> (ambient)/(submodule): p = len(front),
    the map sending e_i to front_i modulo the submodule generated by `modulo`.

    Per the syzygy truncation trick: take syzygies of front ++ modulo and keep
    the first p coordinates."""
    front = list(front)
    modulo = list(modulo)
    p = len(front)
    if p == 0:
        return []
    n = front[0].n
    syz = syzygy(front + modulo, order)
    out = []
    seen = set()
    for s in syz:
        entries = s.entries[:p]
        v = FreeModuleElement(p, n, entries)
        if v.is_zero():
            continue
        key = tuple(tuple(sorted(e.terms.items())) for e in v.entries)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def membership(v, gb):
    """Is v in the module generated by gb.generators."""
    _, r = divide(v, gb.generators, gb.order, gb.flat)
    return r.is_zero()
