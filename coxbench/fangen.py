"""Seeded complete simplicial fans for the benchmark.

A fan is a pair (rays, cones): rays is a tuple of integer tuples, cones a
tuple of sorted tuples of 1-based ray indices, as in the `.fan` file
format.  Generated fans start from P^d and apply stellar subdivision to a
randomly chosen maximal cone; each subdivision adds one ray and turns one
maximal cone into d, so P^d after k steps has d + 1 + k rays and
d + 1 + k(d - 1) maximal cones and is again complete and simplicial.
"""

from __future__ import annotations

import random
from math import gcd

# Rays (1,0), (1,3), (-4,3), (-4,-3), (1,-3) with cones 13, 35, 25, 24, 14:
# every wall lies in two cones, yet the cones wind twice around the origin.
PSEUDO_FAN = (
    ((1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3)),
    ((1, 3), (3, 5), (2, 5), (2, 4), (1, 4)),
)


def projective_space(d):
    rays = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    rays.append(tuple(-1 for _ in range(d)))
    cones = [tuple(i + 1 for i in range(d + 1) if i != skip) for skip in range(d + 1)]
    return tuple(rays), tuple(cones)


def stellar_subdivision(rays, cones, which):
    """Subdivide maximal cone number `which` at the primitive sum of its rays."""
    cone = cones[which]
    v = [sum(rays[i - 1][j] for i in cone) for j in range(len(rays[0]))]
    g = gcd(*v)
    new_ray = tuple(x // g for x in v)
    new_index = len(rays) + 1
    new_cones = [tuple(sorted(new_index if i == drop else i for i in cone)) for drop in cone]
    return rays + (new_ray,), cones[:which] + tuple(new_cones) + cones[which + 1:]


def relabel(rays, cones, rng):
    """The same fan with its rays and maximal cones listed in random order."""
    perm = list(range(len(rays)))
    rng.shuffle(perm)  # old index perm[k] becomes new index k
    new_of_old = {old + 1: new + 1 for new, old in enumerate(perm)}
    new_rays = tuple(rays[old] for old in perm)
    new_cones = [tuple(sorted(new_of_old[i] for i in cone)) for cone in cones]
    rng.shuffle(new_cones)
    return new_rays, tuple(new_cones)


def generated_fan(d, steps, rng):
    """P^d after `steps` stellar subdivisions of random maximal cones, relabelled."""
    rays, cones = projective_space(d)
    for _ in range(steps):
        rays, cones = stellar_subdivision(rays, cones, rng.randrange(len(cones)))
    return relabel(rays, cones, rng)


# Seed of the stream that fixes the shapes of generated fans.  The workload
# seed only relabels them, so every run does work of the same shapes.
SHAPE_SEED = 0


def fixed_shape(d, steps, *labels):
    """P^d+steps drawn from the stream `labels` under SHAPE_SEED: the same
    fan in every run, to be relabelled from the workload seed."""
    return generated_fan(d, steps, seeded_rng(SHAPE_SEED, "shape", *labels))


def fan_text(rays, cones, comment):
    lines = ["# " + comment, "dim %d" % len(rays[0]), "rays %d" % len(rays)]
    lines += [" ".join(map(str, r)) for r in rays]
    lines.append("maxcones %d" % len(cones))
    lines += [" ".join(map(str, c)) for c in cones]
    return "\n".join(lines) + "\n"


def read_fan_file(path):
    """(rays, cones) of a `.fan` file, read without the program's parser."""
    with open(path, encoding="utf-8") as fh:
        tokens = [tok for line in fh for tok in line.split("#", 1)[0].split()]
    d, n = int(tokens[1]), int(tokens[3])
    vals = [int(t) for t in tokens[4:4 + n * d]]
    rays = tuple(tuple(vals[i * d:(i + 1) * d]) for i in range(n))
    t = int(tokens[5 + n * d])
    idx = [int(x) for x in tokens[6 + n * d:]]
    if len(idx) != t * d:
        raise ValueError("malformed fan file %s" % path)
    cones = tuple(tuple(sorted(idx[i * d:(i + 1) * d])) for i in range(t))
    return rays, cones


def seeded_rng(seed, *labels):
    """An independent stream per (seed, labels), so inputs of one part of a
    workload do not shift when another part changes."""
    return random.Random("%d:%s" % (seed, ":".join(map(str, labels))))
