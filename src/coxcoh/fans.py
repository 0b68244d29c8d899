"""Built-in fans: projective spaces and weighted projective spaces.  The two
Fano blowup fans of the test corpus ship as files under fans/."""

from __future__ import annotations

from math import gcd

from .fan import Fan, FanError
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
    u, dd, _ = smith_normal_form([[x] for x in w])
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
