"""Built-in fans: projective spaces, weighted projective spaces, and the two
Fano blowup fans used throughout the test corpus."""

from __future__ import annotations

from math import gcd

from .fan import Fan, FanError, parse_fan
from .snf import smith_normal_form


def projective_space_fan(d):
    """The fan of P^d: rays e_1..e_d and -(e_1+...+e_d), all d-subsets as cones."""
    return weighted_projective_fan([1] * (d + 1))


def weighted_projective_fan(weights):
    """Fan of the weighted projective space with the given positive weights.

    The rays are the images of the standard basis of Z^(d+1) in the quotient
    lattice Z^(d+1) / Z*w, expressed in a basis computed via Smith normal
    form.  Requires gcd(weights) = 1 and each image primitive.
    """
    w = [int(x) for x in weights]
    if len(w) < 2 or any(x <= 0 for x in w):
        raise FanError("weights must be at least two positive integers")
    if gcd(*w) != 1:
        raise FanError("weights must be coprime overall")
    d = len(w) - 1
    # column vector w: U w has a single nonzero entry (the gcd, = 1) in row 0;
    # rows 1..d of U give coordinates on the quotient lattice
    u, dd, v, ui, vi = smith_normal_form([[x] for x in w])
    assert dd[0][0] == 1
    rays = []
    for i in range(d + 1):
        img = tuple(u[r][i] for r in range(1, d + 1))
        g = gcd(*(abs(x) for x in img))
        if g != 1:
            raise FanError(
                "weight system %s gives a non-primitive ray; "
                "the weighted projective space is not well-formed here" % (w,)
            )
        rays.append(img)
    cones = []
    for skip in range(d + 1):
        cones.append(tuple(sorted(i + 1 for i in range(d + 1) if i != skip)))
    return Fan(dim=d, rays=tuple(rays), max_cones=tuple(cones))


# Fano toric variety: blowup of P(1,1,1,3,3,6); 7 rays, 10 max cones in Z^5.
BLOWUP_P11336_TEXT = """\
# blowup of the weighted projective space P(1,1,1,3,3,6)
dim 5
rays 7
1 0 0 0 0
0 1 0 0 0
0 0 1 0 0
0 0 0 1 0
0 0 0 0 1
0 0 0 0 -1
-1 -1 -3 -3 -6
maxcones 10
1 2 3 4 5
1 2 3 4 6
1 2 3 6 7
1 2 4 6 7
1 3 4 6 7
2 3 4 6 7
1 2 3 5 7
1 2 4 5 7
1 3 4 5 7
2 3 4 5 7
"""

# Fano toric variety from a maximal triangulation of a reflexive polytope:
# blowup of P(1,1,2,2,3,6); 8 rays, 18 max cones in Z^5.
BLOWUP_P112236_TEXT = """\
# blowup of the weighted projective space P(1,1,2,2,3,6)
dim 5
rays 8
1 0 0 0 0
0 1 0 0 0
0 0 1 0 0
0 0 0 1 0
0 0 0 0 1
0 0 0 0 -1
0 -1 -1 -1 -3
-1 -2 -2 -3 -6
maxcones 18
1 2 3 4 5
1 2 3 4 6
1 2 3 5 8
1 2 3 6 8
1 2 4 5 7
1 2 4 6 7
1 2 5 7 8
1 2 6 7 8
1 3 4 5 7
1 3 4 6 7
1 3 5 7 8
1 3 6 7 8
2 3 4 5 8
2 3 4 6 8
2 4 5 7 8
2 4 6 7 8
3 4 5 7 8
3 4 6 7 8
"""


def blowup_p11336_fan():
    return parse_fan(BLOWUP_P11336_TEXT)


def blowup_p112236_fan():
    return parse_fan(BLOWUP_P112236_TEXT)
