"""Column-by-column level inverse, the reference for ``qpwalk.oracle``'s.

``loop_level_inverse`` eliminates and substitutes one column per step on
the whole block: an LU factorization without pivoting, each pivot the
mass its row still sends elsewhere, and the two triangular factors
inverted by substitution.  It shares no step with the shipped blocked
inverse, whose leaves run one Gauss-Jordan sweep instead.  Both are
subtraction-free, so they must agree componentwise to rounding at every
size, leaves included.
"""

import numpy as np


def loop_level_inverse(D, W, U) -> np.ndarray:
    A = np.array(W, dtype=float)  # its diagonal is never read
    escape = sum(b.sum(axis=1) for b in (D, U) if b is not None)
    m = A.shape[0]
    pivot = np.empty(m)
    for k in range(m):
        pivot[k] = A[k, k + 1 :].sum() + escape[k]
        A[k + 1 :, k] /= pivot[k]
        A[k + 1 :, k + 1 :] += A[k + 1 :, k, None] * A[k, k + 1 :]
        escape[k + 1 :] += A[k + 1 :, k] * escape[k]
    # I - W = (I - L)(diag(pivot) - R), L and R the parts of A below and
    # above its diagonal; invert each factor by substitution.
    lower = np.eye(m)
    for k in range(1, m):
        lower[k, :k] = A[k, :k] @ lower[:k, :k]
    upper = np.diag(1.0 / pivot)
    for k in range(m - 2, -1, -1):
        upper[k, k + 1 :] = A[k, k + 1 :] @ upper[k + 1 :, k + 1 :] / pivot[k]
    return upper @ lower
