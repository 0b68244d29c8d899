"""Integer bitmask kernels, in numpy.

`surviving_masks` serves only `localcoh.literal_pattern_cohomology`, the
test oracle for the nerve route; `popcounts` also sizes the pattern masks
of `localcoh.pattern_table`.
"""

from __future__ import annotations

import numpy as np

MAX_SUBSET_BITS = 22


def surviving_masks(t, var_masks):
    """All subsets (bitmasks over t generators) intersecting every var mask."""
    if t > MAX_SUBSET_BITS:
        raise ValueError("too many generators for subset enumeration: %d" % t)
    masks = np.arange(1 << t, dtype=np.int64)
    keep = np.ones(masks.shape, dtype=bool)
    for gm in var_masks:
        keep &= (masks & np.int64(gm)) != 0
    return masks[keep]


def popcounts(masks):
    work = np.array(masks, dtype=np.int64)
    out = np.zeros(work.shape, dtype=np.int64)
    while work.any():
        out += work & 1
        work >>= 1
    return out
