"""Plain cyclic reduction, the reference for ``qpwalk.oracle``'s direct solve.

``plain_reduction`` expands the five level blocks into one (down,
within, up) triple per level and eliminates the odd levels of each stage
one by one, forming every level's blocks separately: no product is shared
between levels, even where their operands are one shared array.  The
shipped solve carries only the five blocks through each stage and forms
each of their products once, by the same calls in the same order, so the
two grids must agree bit for bit.
"""

import numpy as np

from qpwalk.oracle import _censored_stationary, _level_blocks, _level_inverse


def plain_reduction(spec, n: int) -> np.ndarray:
    W0, D, W, U, Wn = _level_blocks(spec, n)
    levels = [(None, W0, U)] + [(D, W, U)] * (n - 1) + [(D, Wn, None)]
    stages = []
    while len(levels) > 1:
        L = len(levels)
        into = []  # per odd l: U_{l-1} X_l, D_{l+1} X_l
        for l in range(1, L, 2):
            X = _level_inverse(*levels[l])
            up = np.matmul(levels[l - 1][2], X)
            down = np.matmul(levels[l + 1][0], X) if l + 1 < L else None
            into.append((up, down))
        kept = []
        for e in range(0, L, 2):
            D, W, U = levels[e]
            if e > 0:
                down = into[e // 2 - 1][1]
                W = np.add(W, np.matmul(down, levels[e - 1][2]))
                D = np.matmul(down, levels[e - 1][0])
            if e + 1 < L:
                up, above = into[e // 2][0], levels[e + 1]
                W = np.add(W, np.matmul(up, above[0]))
                U = None if above[2] is None else np.matmul(up, above[2])
            kept.append((D, W, U))
        stages.append(into)
        levels = kept
    pi = [_censored_stationary(levels[0][1])]
    for into in reversed(stages):
        full = []
        for i, (up, down) in enumerate(into):
            below = pi[i] @ up
            full += [pi[i], below if down is None else below + pi[i + 1] @ down]
        pi = full + pi[len(into) :]
    grid = np.array(pi).T.copy()
    return grid / grid.sum()
