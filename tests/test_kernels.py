import random

import numpy as np

from coxcoh import kernels
from coxcoh.linalg import rational_rank, sparse_rank_exact


def test_surviving_masks_matches_bruteforce():
    rng = random.Random(0)
    for _ in range(20):
        t = rng.randint(1, 10)
        var_masks = [rng.getrandbits(t) for _ in range(rng.randint(1, 4))]
        var_masks = [m if m else 1 for m in var_masks]
        got = set(kernels.surviving_masks(t, var_masks).tolist())
        want = {m for m in range(1 << t) if all(m & vm for vm in var_masks)}
        assert got == want


def test_popcounts():
    arr = np.array([0, 1, 3, 255, 2**17], dtype=np.int64)
    assert kernels.popcounts(arr).tolist() == [0, 1, 2, 8, 1]


def test_sparse_rank_exact_matches_dense():
    rng = random.Random(6)
    for _ in range(40):
        rows = rng.randint(1, 9)
        cols = rng.randint(1, 9)
        dense = [[rng.choice([-1, 0, 0, 1, 2]) for _ in range(cols)] for _ in range(rows)]
        sparse_cols = []
        for j in range(cols):
            col = {i: dense[i][j] for i in range(rows) if dense[i][j]}
            sparse_cols.append(col)
        assert sparse_rank_exact(sparse_cols) == rational_rank(dense)

