"""Whole-block Gauss-Jordan level inverse, the byte reference for the
leaves of ``qpwalk.oracle``'s blocked inverse.

``gauss_jordan_inverse`` runs the leaf's sweep on the whole block, one row
at a time and over whole rows, with the escape and the inverse held apart
from W.  The entries the shipped leaf skips are zeros here, and adding a
multiple of zero changes no bit, so on a block no larger than a leaf the
two must agree byte for byte.
"""

import numpy as np


def gauss_jordan_inverse(D, W, U) -> np.ndarray:
    A = np.array(W, dtype=float)  # its diagonal is never read
    escape = sum(b.sum(axis=1) for b in (D, U) if b is not None)
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
