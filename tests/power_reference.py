"""Power iteration, the independent reference for ``qpwalk.oracle``'s solve.

``power_stationary`` iterates the sparse transition operator of the
truncated walk (``qpwalk.transition_matrix``) from the uniform vector
until successive iterates agree to ``POWER_TOL`` relative on every cell
above the mass floor.  It shares only the level triples with the
shipped cyclic reduction, and none of its arithmetic.
"""

import numpy as np

from qpwalk.errors import QpwalkError
from qpwalk.oracle import MASS_FLOOR, transition_matrix

POWER_TOL = 1e-13
POWER_CAP = 200_000


class NotConverged(QpwalkError):
    """Power iteration failed to reach the target residual."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"power iteration: residual {residual:.3e} after {iterations} iterations"
        )


def power_iteration(P) -> np.ndarray:
    PT = P.T.tocsr()
    size = P.shape[0]
    x = np.full(size, 1.0 / size)
    check_every = 100
    done = 0
    while done < POWER_CAP:
        prev = x
        for _ in range(check_every):
            x = PT @ x
        x = x / x.sum()
        done += check_every
        big = x > MASS_FLOOR
        change = float(np.abs((x[big] - prev[big]) / x[big]).max())
        if change <= POWER_TOL:
            return x
    raise NotConverged(done, change)


def power_stationary(spec, n: int) -> np.ndarray:
    """The (n+1, n+1) grid, pi(i, j) at [i, j], normalized as
    ``truncated_stationary`` normalizes its own."""
    grid = power_iteration(transition_matrix(spec, n)).reshape(n + 1, n + 1)
    grid = np.abs(grid)
    return grid / grid.sum()
