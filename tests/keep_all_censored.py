"""Keep-all reference for ``qpwalk.oracle._direct_censored``.

The same level censoring, holding the LU factor of every level from the
way down to the way back up: n+1 factors of (n+1)^2 doubles, 33 MB at
n=160.  The shipped solve keeps only checkpoints and rebuilds the rest by
the same calls in the same order, so the two grids must agree bit for bit.
"""

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from qpwalk.oracle import _gth, _level_blocks


def keep_all_censored(spec, n: int) -> np.ndarray:
    N = n + 1
    blocks = _level_blocks(spec, n)  # blocks[j]: down, within, up
    lus = [None] * N
    lus[n] = lu_factor(np.eye(N) - blocks[n][1])
    for j in range(n - 1, -1, -1):
        # A_up (I - W_{j+1})^{-1}: solve the transposed system on A_up^T.
        Y = lu_solve(lus[j + 1], blocks[j][2].T, trans=1).T
        Wj = blocks[j][1] + Y @ blocks[j + 1][0]
        if j > 0:
            lus[j] = lu_factor(np.eye(N) - Wj)
    levels = np.zeros((N, N))  # levels[j][i] = pi(i, j), unnormalized
    levels[0] = _gth(Wj)  # the loop ends on W_0
    for j in range(n):
        v = levels[j] @ blocks[j][2]
        levels[j + 1] = lu_solve(lus[j + 1], v, trans=1)
    grid = levels.T.copy()
    return grid / grid.sum()
