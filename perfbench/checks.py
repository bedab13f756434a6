"""Correctness checks made apart from the program.

Each check takes plain arrays and term triples and returns a list of
problems (empty when the output is right).  The balance equations and
the truncated chain come from ``inputs.step_laws``, not from qpwalk, and
the thresholds are the package's own acceptance tolerances: 1e-8 on
balance residuals and on the sup relative error against the oracle.
"""

from __future__ import annotations

import numpy as np

from inputs import Walk, push, step_laws

WINDOW = 12              # balance is checked on {0..WINDOW}^2
CORE = 8                 # measure and oracle are compared on {0..CORE}^2
BALANCE_TOL = 1e-8
AGREE_TOL = 1e-8
STATIONARY_TOL = 1e-10   # one-step relative change of an oracle grid on the core
MASS_FLOOR = 1e-13       # core cells below this carry no relative accuracy


def measure_grid(terms, size: int) -> np.ndarray:
    """``m(i, j) = sum alpha rho^i sigma^j`` on ``{0..size-1}^2``."""
    k = np.arange(size, dtype=float)
    m = np.zeros((size, size))
    for rho, sigma, alpha in terms:
        m += alpha * np.outer(rho**k, sigma**k)
    return m


def measure_problems(walk: Walk, terms) -> list[str]:
    """A measure must be normalizable, positive and balanced on the window."""
    problems = []
    if not all(0.0 < r < 1.0 and 0.0 < s < 1.0 for r, s, _ in terms):
        problems.append("a term lies outside the open unit square: mass is infinite")
        return problems
    mass = sum(a / ((1.0 - r) * (1.0 - s)) for r, s, a in terms)
    if not mass > 0.0:
        problems.append(f"total mass {mass:.3g} is not positive")
    size = WINDOW + 2
    m = measure_grid(terms, size)
    inner = m[: WINDOW + 1, : WINDOW + 1]
    if not (inner > 0.0).all():
        problems.append(f"{int((inner <= 0.0).sum())} cells of the window are not positive")
        return problems
    inflow = push(step_laws(walk, size - 1), m, truncated=False)[: WINDOW + 1, : WINDOW + 1]
    residual = float((np.abs(inflow - inner) / inner).max())
    if residual > BALANCE_TOL:
        problems.append(f"balance residual {residual:.3g} > {BALANCE_TOL:g}")
    return problems


def oracle_problems(walk: Walk, grid: np.ndarray) -> list[str]:
    """An oracle grid must be a stationary distribution of the truncated chain."""
    n = grid.shape[0] - 1
    if not (grid >= 0.0).all() or abs(float(grid.sum()) - 1.0) > 1e-12:
        return ["oracle grid is not a probability distribution"]
    moved = push(step_laws(walk, n), grid, truncated=True)
    core = grid[: CORE + 1, : CORE + 1]
    keep = core >= MASS_FLOOR
    change = float((np.abs(moved[: CORE + 1, : CORE + 1] - core)[keep] / core[keep]).max())
    if change > STATIONARY_TOL:
        return [f"oracle grid moves by {change:.3g} in one step on the core"]
    return []


def agreement(terms, grid: np.ndarray) -> float:
    """Sup relative error between measure and oracle on the unit-mass core."""
    m = measure_grid(terms, CORE + 1)
    pi = grid[: CORE + 1, : CORE + 1]
    m = m / m.sum()
    pi = pi / pi.sum()
    keep = pi >= MASS_FLOOR
    return float((np.abs(m - pi)[keep] / pi[keep]).max())


def agreement_problems(terms, grid: np.ndarray) -> list[str]:
    err = agreement(terms, grid)
    if err > AGREE_TOL:
        return [f"measure and oracle differ by {err:.3g} > {AGREE_TOL:g} on the core"]
    return []


def kernel(walk: Walk, x, y):
    """``Q(x, y) = sum_{s,t} w[s+1, t+1] x^(1-s) y^(1-t) - x y``."""
    total = -x * y
    for s in (-1, 0, 1):
        for t in (-1, 0, 1):
            total = total + walk.w[s + 1, t + 1] * x ** (1 - s) * y ** (1 - t)
    return total


def singularity_problems(walk: Walk, found) -> list[str]:
    """The origin is a double point exactly for the eligible class.

    Central differences with step 1/2 are exact for a polynomial of degree
    two in each variable.
    """
    half = 0.5
    value = kernel(walk, 0.0, 0.0)
    dx = (kernel(walk, half, 0.0) - kernel(walk, -half, 0.0)) / (2 * half)
    dy = (kernel(walk, 0.0, half) - kernel(walk, 0.0, -half)) / (2 * half)
    double_point = max(abs(value), abs(dx), abs(dy)) <= 1e-12
    if double_point != walk.eligible:
        return [f"kernel differences say double point {double_point}, class says {walk.eligible}"]
    expected = (0.0, 0.0) if double_point else None
    if found != expected:
        return [f"singularity reported at {found}, expected {expected}"]
    return []


ARC_DIRECTIONS = {"Q00": (1, -1), "Q10": (1, 1), "Q11": (-1, 1), "Q01": (-1, -1)}


def trace_problems(points: np.ndarray, arcs, eligible: bool) -> list[str]:
    """A traced positive component passes through (1, 1), splits into four
    monotone arcs and meets the axes only at the origin.

    In the eligible class the left and bottom corners are both the double
    point at the origin, so the arc between them is that single point.
    """
    problems = []
    xs, ys = points[:, 0], points[:, 1]
    if float(np.hypot(xs - 1.0, ys - 1.0).min()) > 1e-9:
        problems.append("trace misses (1, 1)")
    if xs.min() < -1e-12 or ys.min() < -1e-12:
        problems.append("trace crosses an axis")
    near_axis = (xs <= 1e-9) | (ys <= 1e-9)
    if near_axis.any() and np.maximum(xs, ys)[near_axis].max() > 1e-6:
        problems.append("trace touches an axis away from the origin")
    labels = np.asarray(arcs)
    for name, (sx, sy) in ARC_DIRECTIONS.items():
        seg = points[labels == name]
        if eligible and name == "Q00":
            if seg.shape[0] == 0 or np.abs(seg).max() > 1e-12:
                problems.append("arc Q00 is not the origin")
        elif seg.shape[0] < 2:
            problems.append(f"arc {name} is missing")
        elif min(np.min(sx * np.diff(seg[:, 0])), np.min(sy * np.diff(seg[:, 1]))) < -1e-9:
            problems.append(f"arc {name} is not monotone")
    return problems
