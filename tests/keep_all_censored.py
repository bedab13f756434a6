"""Reference implementations for ``qpwalk.oracle``'s direct solve.

``keep_all_censored`` censors the levels from the top down in
matrix-geometric form, holding the rate matrix R_j of every level from
the way down to the way back up: n matrices of (n+1)^2 doubles, a 36 MB
peak at n=160.  It shares only the level blocks with the shipped cyclic
reduction, and solves its bottom level with its own ``loop_gth``, so it is
an independent check, to rounding.
Its rate matrices come from LAPACK solves, which subtract, so on
drifting walks its smallest cells lose relative accuracy that the
reduction keeps.

``loop_gth`` is state reduction (Grassmann-Taksar-Heyman) with its
rank-1 update written as a loop over columns, the reference for the
shipped solve's last level, which censors onto one state instead.
"""

import numpy as np

from qpwalk.oracle import _level_blocks


def censor_all(spec, n: int):
    """Every rate matrix R_1..R_n (index 0 unused) and the bottom block W_0."""
    N = n + 1
    W0, D, Wi, U, Wn = _level_blocks(spec, n)
    Rs = [None] * N
    W = Wn  # level j's within block, censored on the levels above it
    for j in range(n, 0, -1):
        # R_j = U (I - W_j)^{-1}: solve the transposed system on U^T.
        Rs[j] = np.linalg.solve((np.eye(N) - W).T, U.T).T
        W = (W0 if j == 1 else Wi) + Rs[j] @ D
    return Rs, W


def keep_all_censored(spec, n: int) -> np.ndarray:
    Rs, W0 = censor_all(spec, n)
    levels = np.zeros((n + 1, n + 1))  # levels[j][i] = pi(i, j), unnormalized
    levels[0] = loop_gth(W0)
    for j in range(1, n + 1):
        levels[j] = levels[j - 1] @ Rs[j]
    grid = levels.T.copy()
    return grid / grid.sum()


def loop_gth(W: np.ndarray) -> np.ndarray:
    A = np.array(W, dtype=float)
    m = A.shape[0]
    for k in range(m - 1, 0, -1):
        s = A[k, :k].sum()
        A[:k, k] /= s
        for i in range(k):
            A[:k, i] += A[:k, k] * A[k, i]
    x = np.zeros(m)
    x[0] = 1.0
    for k in range(1, m):
        x[k] = x[:k] @ A[:k, k]
    return x / x.sum()
