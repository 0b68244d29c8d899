"""Complete simplicial fans: parsing, validation, irrelevant ideal.

Fan file format (UTF-8, '#' starts a comment line, tokens whitespace
separated)::

    dim <d>
    rays <n>
    <n lines of d integers>
    maxcones <t>
    <t lines of d 1-based ray indices>
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .linalg import integer_det


class FanError(ValueError):
    """Structural problem with a fan or a fan file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Fan:
    """A complete simplicial fan given by its rays and maximal cones.

    `cache` holds the state derived from this fan (its grading, its
    validated cohomology report, the last Ext oracle stage); it lives and
    dies with the object, and an equal Fan built anew starts empty."""

    dim: int
    rays: tuple  # tuple of tuples of ints, primitive generators
    max_cones: tuple  # tuple of tuples of 1-based ray indices, each of size dim
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_rays(self):
        return len(self.rays)

    def cone_rays(self, cone):
        return [self.rays[i - 1] for i in cone]

    def summary(self):
        return {
            "dim": self.dim,
            "n_rays": self.n_rays,
            "n_max_cones": len(self.max_cones),
        }


@dataclass(frozen=True)
class FanReport:
    simplicial: bool
    complete: bool
    wall_condition: bool
    messages: tuple = field(default_factory=tuple)

    def ok(self):
        return self.simplicial and self.complete


@dataclass(frozen=True)
class SquarefreeMonomial:
    """A squarefree monomial recorded by its support (1-based variable indices)."""

    support: tuple

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(sorted(self.support)))

    def as_string(self):
        return "".join("x%d" % i for i in self.support) if self.support else "1"

    def as_poly(self, n):
        from .ring import Poly

        e = [0] * n
        for i in self.support:
            e[i - 1] = 1
        return Poly.monomial(n, e)


def _tokens_with_lines(text):
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield lineno, tok


def parse_fan(text):
    """Parse fan file contents into a Fan, with line-numbered errors."""
    stream = list(_tokens_with_lines(text))
    pos = 0

    def take(expect=None):
        nonlocal pos
        if pos >= len(stream):
            last = stream[-1][0] if stream else 1
            raise FanError("unexpected end of file", line=last)
        lineno, tok = stream[pos]
        pos += 1
        if expect is not None and tok != expect:
            raise FanError("expected %r, found %r" % (expect, tok), line=lineno)
        return lineno, tok

    def take_int(what):
        lineno, tok = take()
        try:
            return lineno, int(tok)
        except ValueError:
            raise FanError("expected integer %s, found %r" % (what, tok), line=lineno) from None

    take("dim")
    lineno, d = take_int("dimension")
    if d < 1:
        raise FanError("dimension must be positive", line=lineno)
    take("rays")
    lineno, n = take_int("ray count")
    if n < 1:
        raise FanError("ray count must be positive", line=lineno)
    rays = []
    for r in range(n):
        vec = []
        for _ in range(d):
            lineno, val = take_int("ray coordinate")
            vec.append(val)
        if all(v == 0 for v in vec):
            raise FanError("zero ray %d" % (r + 1), line=lineno)
        if gcd(*(abs(v) for v in vec)) != 1:
            raise FanError("non-primitive ray %d: %s" % (r + 1, tuple(vec)), line=lineno)
        vec = tuple(vec)
        if vec in rays:
            raise FanError("duplicate ray %s" % (vec,), line=lineno)
        rays.append(vec)
    take("maxcones")
    lineno, t = take_int("cone count")
    if t < 1:
        raise FanError("cone count must be positive", line=lineno)
    cones = []
    for _ in range(t):
        idx = []
        for _ in range(d):
            lineno, val = take_int("ray index")
            if not 1 <= val <= n:
                raise FanError("ray index %d out of range 1..%d" % (val, n), line=lineno)
            if val in idx:
                raise FanError("repeated ray index %d in cone" % val, line=lineno)
            idx.append(val)
        cones.append(tuple(sorted(idx)))
    if pos != len(stream):
        raise FanError("trailing tokens", line=stream[pos][0])
    used = {i for cone in cones for i in cone}
    missing = sorted(set(range(1, n + 1)) - used)
    if missing:
        raise FanError("rays not used in any max cone: %s" % missing)
    return Fan(dim=d, rays=tuple(rays), max_cones=tuple(cones))


def emit_fan(fan, comment=None):
    """Serialize a Fan to the fan file format (round-trips through parse_fan)."""
    lines = []
    if comment:
        lines.append("# " + comment)
    lines.append("dim %d" % fan.dim)
    lines.append("rays %d" % fan.n_rays)
    for ray in fan.rays:
        lines.append(" ".join(str(v) for v in ray))
    lines.append("maxcones %d" % len(fan.max_cones))
    for cone in fan.max_cones:
        lines.append(" ".join(str(i) for i in cone))
    return "\n".join(lines) + "\n"


def _sign(x):
    return (x > 0) - (x < 0)


def _in_closed_cone(rays, cone_det, point):
    """Membership of an integer point in the simplicial cone spanned by rays
    (nonzero determinant cone_det): by Cramer's rule the coordinate on ray i
    has the sign of det(rays with ray i replaced by point) / cone_det."""
    s = _sign(cone_det)
    for i in range(len(rays)):
        swapped = rays[:i] + [point] + rays[i + 1 :]
        if _sign(integer_det(swapped)) * s < 0:
            return False
    return True


def validate_fan(fan):
    """Check simpliciality and the wall condition, and decide completeness
    exactly from the walls.  A fan whose rays repeat, or include one in no
    maximal cone, is not complete: parse_fan refuses both, and a Fan built
    in code is held to the same rule here.  So is a ray with other than d
    coordinates, a zero ray, a non-primitive ray (parse_fan's wording), and
    a cone naming a ray index outside 1..n or holding other than d indices;
    these are reported before any determinant is taken, and the report then
    claims nothing (simplicial, complete and wall condition all false).  A
    wall is keyed by its ascending indices, whatever order its cones list
    them in.

    Proof of the completeness test.  Let the maximal cones be simplicial,
    let every wall (facet of a maximal cone) lie in exactly two maximal
    cones, and let the two rays opposite a wall W have determinants of
    opposite sign against W's rays, so the two cones lie on opposite sides
    of span W.  For a point x of the sphere S^(d-1) outside every wall let
    c(x) be the number of maximal cones containing x.  Join two such points
    by a path that meets the walls only in finitely many points, each in
    the relative interior of the walls through it and off every
    intersection of walls with different spans (those sets have codimension
    at least 2 in the sphere, so a general path avoids them).  At such a
    point y the walls through y span one hyperplane H, which the path
    crosses; a cone not containing y adds nothing near y, a cone with y
    inside adds one on both sides, and a cone with y on its boundary has
    exactly one facet through y.  Those facets come in the pairs the wall
    condition gives, one cone on each side of H, so c is the same on both
    sides of y.  Hence c is constant off the walls when d >= 2, since the
    sphere is connected.  The sum of the rays of cone 1 is an interior
    point of cone 1; if it lies in no other closed maximal cone, a
    neighbourhood of it meets no wall and has c = 1, so c = 1 everywhere
    off the walls.  The cones then cover a dense subset of R^d, and as a
    finite union of closed sets they cover all of it: the fan is complete.
    For d = 1 the only wall is the origin, both cones contain it, and the
    sign test says the two rays point opposite ways, which covers R.
    Conversely, a complete simplicial fan passes every test: a wall's far
    side is covered by exactly one cone, which must contain the wall, and
    an interior point of one cone lies in no other.  The cost is two
    determinants per wall and d + 1 per cone.
    """
    n, d = fan.n_rays, fan.dim
    messages = []
    for ri, ray in enumerate(fan.rays, start=1):
        if len(ray) != d:
            messages.append("ray %d %s has size %d, expected %d" % (ri, tuple(ray), len(ray), d))
        elif not any(ray):
            messages.append("zero ray %d" % ri)
        elif gcd(*ray) != 1:
            messages.append("non-primitive ray %d: %s" % (ri, tuple(ray)))
    for ci, cone in enumerate(fan.max_cones, start=1):
        if len(cone) != d:
            messages.append("cone %d has size %d, expected %d" % (ci, len(cone), d))
        messages.extend(
            "cone %d names ray index %d outside 1..%d" % (ci, i, n) for i in cone if not 1 <= i <= n
        )
    if messages:
        # a d x d determinant needs d rays that exist, each of d coordinates
        return FanReport(False, False, False, tuple(messages))
    cone_rays = [fan.cone_rays(cone) for cone in fan.max_cones]
    dets = [integer_det(rays) for rays in cone_rays]

    simplicial = True
    for ci, det in enumerate(dets, start=1):
        if det == 0:
            simplicial = False
            messages.append("cone %d is degenerate: rays are linearly dependent" % ci)

    # wall condition: every facet of a max cone lies in exactly two max cones
    wall_cones = {}
    for cone in fan.max_cones:
        for drop in cone:
            wall = tuple(sorted(i for i in cone if i != drop))
            wall_cones.setdefault(wall, []).append(drop)
    wall_condition = True
    for wall, opposite in sorted(wall_cones.items()):
        if len(opposite) != 2:
            wall_condition = False
            messages.append(
                "wall %s lies in %d max cone(s), expected 2" % (set(wall) or "{}", len(opposite))
            )

    rays_ok = True
    used = {i for cone in fan.max_cones for i in cone}
    first = {}
    for ri, ray in enumerate(fan.rays, start=1):
        if ri not in used:
            rays_ok = False
            messages.append("ray %d %s lies in no max cone" % (ri, tuple(ray)))
        rj = first.setdefault(tuple(ray), ri)
        if rj != ri:
            rays_ok = False
            messages.append("ray %d repeats ray %d %s" % (ri, rj, tuple(ray)))

    complete = simplicial and wall_condition and rays_ok
    if complete:
        for wall, (a, b) in sorted(wall_cones.items()):
            base = fan.cone_rays(wall)
            side_a = _sign(integer_det(base + [fan.rays[a - 1]]))
            if side_a == _sign(integer_det(base + [fan.rays[b - 1]])):
                complete = False
                messages.append(
                    "wall %s has both its cones on one side (rays %d and %d)"
                    % (set(wall) or "{}", a, b)
                )
    if complete:
        point = [sum(col) for col in zip(*cone_rays[0])]
        covering = sum(
            _in_closed_cone(rays, det, point) for rays, det in zip(cone_rays, dets)
        )
        if covering != 1:
            complete = False
            messages.append(
                "interior point %s of cone 1 lies in %d max cones, expected 1"
                % (tuple(point), covering)
            )
    if complete:
        messages.append(
            "complete: every wall separates its two cones and an interior point "
            "of cone 1 lies in no other cone"
        )
    return FanReport(
        simplicial=simplicial,
        complete=complete,
        wall_condition=wall_condition,
        messages=tuple(messages),
    )


def require_valid(fan):
    """Raise FanError unless the fan passes validate_fan."""
    rep = validate_fan(fan)
    if not rep.ok():
        raise FanError(
            "fan failed validation (simplicial=%s complete=%s): %s"
            % (rep.simplicial, rep.complete, "; ".join(rep.messages))
        )


def irrelevant_generators(fan):
    """Minimal monomial basis of the irrelevant ideal: one squarefree
    monomial per max cone, on the variables whose rays are outside the cone.
    Deduplicated keeping first occurrence, in max-cone order."""
    seen = set()
    out = []
    all_indices = set(range(1, fan.n_rays + 1))
    for cone in fan.max_cones:
        support = tuple(sorted(all_indices - set(cone)))
        if support not in seen:
            seen.add(support)
            out.append(SquarefreeMonomial(support))
    return out
