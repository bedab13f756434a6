"""Gauss-Jordan level inverse, the byte reference for ``qpwalk.oracle``'s
blocked inverse.

``gauss_jordan_inverse`` runs the leaf's sweep on the whole block, one row
at a time and over whole rows, with the escape and the inverse held apart
from W.  The entries the shipped leaf skips are zeros here, and adding a
multiple of zero changes no bit, so on a block no larger than a leaf the
two must agree byte for byte.

``blocked_inverse`` runs the Schur split above the leaf in its allocating
form, with that sweep on blocks of at most 32 rows.  Each block it builds
is a fresh C-ordered array, so every product takes the BLAS path the
shipped inverse's takes, and at every size the two must agree byte for
byte.
"""

import numpy as np


def gauss_jordan_inverse(W, escape) -> np.ndarray:
    A = np.array(W, dtype=float)  # its diagonal is never read
    escape = np.array(escape, dtype=float)
    m = A.shape[0]
    X = np.eye(m)
    pivot = np.empty(m)
    for k in range(m):
        pivot[k] = A[k, k + 1 :].sum() + escape[k]
        for i in range(m):
            if i != k:
                factor = A[i, k] / pivot[k]
                A[i, k + 1 :] += factor * A[k, k + 1 :]
                escape[i] += factor * escape[k]
                X[i] += factor * X[k]
    return X / pivot[:, None]


def blocked_inverse(W, escape) -> np.ndarray:
    m = W.shape[0]
    if m <= 32:  # the largest block one sweep inverts
        return gauss_jordan_inverse(W, escape)
    h = m // 2
    W12, W21 = W[:h, h:], W[h:, :h]
    X11 = blocked_inverse(W[:h, :h], escape[:h] + W12.sum(axis=1))
    P, Q = X11 @ W12, W21 @ X11
    Y = blocked_inverse(W[h:, h:] + W21 @ P, escape[h:] + Q @ escape[:h])
    PY = P @ Y
    return np.block([[X11 + PY @ Q, PY], [Y @ Q, Y]])
