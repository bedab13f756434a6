"""Independent numerical ground truth for candidate measures.

Nothing here knows about compensation: both stationary solvers read one
description of the truncated chain, dense level blocks built from the step
law.  Balance residuals plug a measure into the raw balance equations, and
the convexity check samples midpoints.  Agreement between these and the
analytic construction is the evidence the rest of the package stands on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve

from .errors import NotConverged
from .model import OFFSETS, WalkSpec, ensure_valid
from .terms import GammaSet

MASS_FLOOR = 1e-13       # cells below this are excluded from relative errors
POWER_TOL = 1e-13
POWER_CAP = 200_000
# auto switches to power iteration above this.  Direct is faster there too,
# but keeps n+1 LU factors of (n+1)^2 doubles (33 MB at n=160): forced on the
# benchmark's n=160 workload (one BLAS thread, 2-core Xeon) it took 0.4 s per
# verification against 2.4 s, at 101 MB peak RSS against 75 MB.
DIRECT_LIMIT = 120


@dataclass(frozen=True)
class LatticeWindow:
    """Stationary distribution of the truncated chain on {0..n} squared."""

    n: int
    values: np.ndarray  # shape (n+1, n+1), values[i, j] = pi(i, j)

    def core(self, size: int) -> np.ndarray:
        block = self.values[: size + 1, : size + 1]
        return block / block.sum()


def _level_blocks(spec: WalkSpec, n: int) -> list[np.ndarray]:
    """Dense level blocks of the walk truncated to {0..n} squared.

    Levels are the second coordinate: ``blocks[j][t + 1][i, i2]`` is the
    probability of moving from (i, j) to (i2, j + t).  Steps that would
    leave the box stay put instead, summed onto the diagonal of
    ``blocks[j][1]`` in (s, t) order.  Levels 0 < j < n share one array.
    """
    law = np.zeros((2, 2, 3, 3))  # law[i > 0, j > 0, s + 1, t + 1]
    law[1, 1] = spec.interior
    law[1, 0, :, 1] = spec.horizontal
    law[1, 0, :, 2] = spec.interior[:, 2]
    law[0, 1, 1, :] = spec.vertical
    law[0, 1, 2, :] = spec.interior[2, :]
    law[0, 0, 2, 1], law[0, 0, 1, 2], law[0, 0, 2, 2] = spec.h(1), spec.v(1), spec.p(1, 1)
    law[0, 0, 1, 1] = 1.0 - spec.h(1) - spec.v(1) - spec.p(1, 1)
    i = np.arange(n + 1)

    def level(j: int) -> np.ndarray:
        out = np.zeros((3, n + 1, n + 1))
        row = law[np.minimum(i, 1), min(j, 1)]
        for s in OFFSETS:
            for t in OFFSETS:
                leaves = (i + s < 0) | (i + s > n) | (not 0 <= j + t <= n)
                to = np.where(leaves, i, i + s)
                out[np.where(leaves, 1, t + 1), i, to] += row[:, s + 1, t + 1]
        return out

    kinds = {j: level(j) for j in {0, min(1, n), n}}
    return [kinds[j if j in (0, n) else 1] for j in range(n + 1)]


def transition_matrix(spec: WalkSpec, n: int) -> sp.csr_matrix:
    """Row-stochastic transition matrix of the walk truncated to {0..n}
    squared, with outflow across the truncation redirected to a self-loop.

    State (i, j) maps to row i*(n+1) + j.  Assembled from the level blocks.
    """
    N = n + 1
    levels = _level_blocks(spec, n)
    rows, cols, vals = [], [], []
    for blocks in {id(b): b for b in levels}.values():
        j = np.array([j for j, b in enumerate(levels) if b is blocks])[:, None]
        t, i, i2 = np.nonzero(blocks)
        rows.append(i * N + j)
        cols.append(i2 * N + j + t - 1)
        vals.append(np.broadcast_to(blocks[t, i, i2], rows[-1].shape))
    rows, cols, vals = (np.concatenate(a, axis=None) for a in (rows, cols, vals))
    return sp.csr_matrix((vals, (rows, cols)), shape=(N * N, N * N))


def _gth(W: np.ndarray) -> np.ndarray:
    """Stationary vector of a small dense stochastic matrix.

    State-reduction form with no subtractions, so every entry comes out
    with full relative accuracy even when the masses span many orders of
    magnitude.
    """
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


def _direct_censored(spec: WalkSpec, n: int) -> np.ndarray:
    """Componentwise-accurate stationary grid via level censoring.

    Levels are the second coordinate.  Censoring eliminates levels from
    the top down: the chain watched only below level j+1 has transition
    blocks W_j = A_within + A_up (I - W_{j+1})^{-1} A_down.  The level-0
    censored chain is solved by state reduction and the stationary mass is
    propagated back up one level at a time.  Unlike a plain sparse solve
    of pi P = pi, small cells keep full relative accuracy.
    """
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


def _power_iteration(P: sp.csr_matrix) -> np.ndarray:
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


def truncated_stationary(
    spec: WalkSpec, n: int, method: str = "auto"
) -> LatticeWindow:
    """Stationary distribution of the truncated walk.

    Methods: "direct" (censored elimination, componentwise accurate, n+1
    dense LU factors), "power" (iterated sparse transition operator to a
    1e-13 successive change), or "auto" picking direct up to n = 120.

    Raises
    ------
    NotConverged
        If power iteration hits its cap before stabilizing.
    """
    ensure_valid(spec)
    if n < 8:
        raise ValueError(f"truncation size n = {n} is too small, need n >= 8")
    if method == "auto":
        method = "direct" if n <= DIRECT_LIMIT else "power"
    if method == "direct":
        grid = _direct_censored(spec, n)
    elif method == "power":
        grid = _power_iteration(transition_matrix(spec, n)).reshape(n + 1, n + 1)
    else:
        raise ValueError(f"unknown method {method!r}")
    grid = np.abs(grid)
    grid = grid / grid.sum()
    grid.flags.writeable = False
    return LatticeWindow(n, grid)


@dataclass(frozen=True)
class VerificationReport:
    """Worst relative balance violations of a measure, per region."""

    max_residual_interior: float
    max_residual_h: float
    max_residual_v: float
    max_residual_origin: float
    window: int
    sup_rel_error: Optional[float] = None

    @property
    def worst(self) -> float:
        return max(
            self.max_residual_interior,
            self.max_residual_h,
            self.max_residual_v,
            self.max_residual_origin,
        )

    def to_dict(self) -> dict:
        return {
            "max_residual_interior": self.max_residual_interior,
            "max_residual_h": self.max_residual_h,
            "max_residual_v": self.max_residual_v,
            "max_residual_origin": self.max_residual_origin,
            "window": self.window,
            "sup_rel_error": self.sup_rel_error,
            "worst": self.worst,
        }

    def with_oracle_error(self, err: float) -> "VerificationReport":
        return replace(self, sup_rel_error=err)


def _relative(residual: np.ndarray, mass: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.abs(residual) / np.abs(mass)
    return np.where(np.isnan(out), 0.0, out)


def _grid_residuals(spec: WalkSpec, m: np.ndarray, window: int):
    """Raw balance residuals (interior, horizontal, vertical, origin) of a
    measure grid: each state's mass minus its inflow, on {0..window}
    squared.

    The grid must extend at least one cell past the window in each
    direction so inflow sums stay inside it.
    """
    W = window
    if m.shape[0] < W + 2 or m.shape[1] < W + 2:
        raise ValueError(f"grid {m.shape} too small for window {W}")

    inflow = np.zeros((W, W))
    for s in OFFSETS:
        for t in OFFSETS:
            inflow += spec.p(s, t) * m[1 - s : W + 1 - s, 1 - t : W + 1 - t]

    inflow_h = np.zeros(W)
    inflow_v = np.zeros(W)
    for s in OFFSETS:
        inflow_h += spec.h(s) * m[1 - s : W + 1 - s, 0]
        inflow_h += spec.p(s, -1) * m[1 - s : W + 1 - s, 1]
        inflow_v += spec.v(s) * m[0, 1 - s : W + 1 - s]
        inflow_v += spec.p(-1, s) * m[1, 1 - s : W + 1 - s]

    stay = 1.0 - spec.h(1) - spec.v(1) - spec.p(1, 1)
    inflow_o = (
        m[0, 0] * stay
        + m[1, 0] * spec.h(-1)
        + m[0, 1] * spec.v(-1)
        + m[1, 1] * spec.p(-1, -1)
    )
    return (
        m[1 : W + 1, 1 : W + 1] - inflow,
        m[1 : W + 1, 0] - inflow_h,
        m[0, 1 : W + 1] - inflow_v,
        m[0, 0] - inflow_o,
    )


def grid_residual_report(
    spec: WalkSpec, m: np.ndarray, window: int
) -> VerificationReport:
    """Balance residuals of an arbitrary measure grid on {0..window}
    squared, relative to the local mass; see _grid_residuals."""
    W = window
    interior, horiz, vert, origin = _grid_residuals(spec, m, W)
    return VerificationReport(
        max_residual_interior=float(
            _relative(interior, m[1 : W + 1, 1 : W + 1]).max()
        ),
        max_residual_h=float(_relative(horiz, m[1 : W + 1, 0]).max()),
        max_residual_v=float(_relative(vert, m[0, 1 : W + 1]).max()),
        max_residual_origin=float(
            _relative(np.asarray(origin), np.asarray(m[0, 0]))
        ),
        window=window,
    )


def balance_residuals(
    spec: WalkSpec, g: GammaSet, window: int = 12
) -> VerificationReport:
    """Plug a geometric-sum measure into the balance equations verbatim."""
    idx = np.arange(window + 2)
    I, J = np.meshgrid(idx, idx, indexing="ij")
    m = g.value(I, J)
    return grid_residual_report(spec, m, window)


def compare(g: GammaSet, oracle: LatticeWindow, core: int) -> float:
    """Sup relative error between a measure and the oracle on the core.

    Both are normalized to unit mass over {0..core} squared first; cells
    where the oracle carries less than the mass floor are skipped.  The
    core must sit at least 10 cells inside the truncation so boundary
    artifacts cannot contaminate the comparison.
    """
    if oracle.n - core < 10:
        raise ValueError(
            f"core {core} too close to truncation {oracle.n}, need margin >= 10"
        )
    pi = oracle.core(core)
    idx = np.arange(core + 1)
    I, J = np.meshgrid(idx, idx, indexing="ij")
    m = g.value(I, J)
    m = m / m.sum()
    mask = pi >= MASS_FLOOR
    return float(np.abs((m[mask] - pi[mask]) / pi[mask]).max())


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of the sampled midpoint test on the log-image of Q < 0."""

    passed: bool
    checked: int
    requested: int
    violations: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checked": self.checked,
            "requested": self.requested,
            "violations": list(self.violations),
        }


LOG_CLAMP = math.log(1e-6)


def convexity_check(
    spec: WalkSpec, samples: int = 10_000, seed: int = 0
) -> ConvexityReport:
    """Midpoint convexity test of {Q(e^u, e^w) < 0} in log coordinates.

    Draws pairs of feasible points uniformly from the branch-point
    bounding box intersected with the negative quadrant (clamped below at
    log 1e-6, since a curve touching an axis sends the box to minus
    infinity) and checks that each midpoint stays feasible.  Convexity of
    this region is what forces the coordinates of any infinite geometric
    sum to accumulate at the origin.
    """
    from .curve import branch_points, kernel

    ker = kernel(spec)
    report = branch_points(spec)

    def log_clamped(value: float) -> float:
        if value <= 0.0:
            return LOG_CLAMP
        return max(math.log(value), LOG_CLAMP)

    lo_u = log_clamped(report.x_l)
    lo_w = log_clamped(report.y_b)
    hi_u = min(0.0, math.log(report.x_r)) if math.isfinite(report.x_r) else 0.0
    hi_w = min(0.0, math.log(report.y_t)) if math.isfinite(report.y_t) else 0.0

    if not (lo_u < hi_u and lo_w < hi_w):
        return ConvexityReport(False, 0, samples, ())

    rng = np.random.default_rng(seed)
    checked = 0
    violations: list[dict] = []
    max_draws = 200 * samples
    drawn = 0
    batch = max(512, 2 * samples)
    # Accept single feasible points, then pair consecutive acceptances.
    # Rejecting whole pairs at once squares the miss rate and starves
    # walks whose feasible region is a thin sliver of the box.
    pool_u = np.empty(0)
    pool_w = np.empty(0)
    while checked < samples and drawn < max_draws:
        u = rng.uniform(lo_u, hi_u, size=batch)
        w = rng.uniform(lo_w, hi_w, size=batch)
        drawn += batch
        vals = ker.value(np.exp(u), np.exp(w))
        feasible = vals < 0.0
        pool_u = np.concatenate([pool_u, u[feasible]])
        pool_w = np.concatenate([pool_w, w[feasible]])
        n_pairs = min(pool_u.size // 2, samples - checked)
        if n_pairs == 0:
            continue
        k = 2 * n_pairs
        u1, u2 = pool_u[0:k:2], pool_u[1:k:2]
        w1, w2 = pool_w[0:k:2], pool_w[1:k:2]
        pool_u, pool_w = pool_u[k:], pool_w[k:]
        mu = 0.5 * (u1 + u2)
        mw = 0.5 * (w1 + w2)
        mid = ker.value(np.exp(mu), np.exp(mw))
        bad = np.flatnonzero(mid >= 0.0)
        for b in bad[:5]:
            violations.append(
                {
                    "first": [float(u1[b]), float(w1[b])],
                    "second": [float(u2[b]), float(w2[b])],
                    "midpoint": [float(mu[b]), float(mw[b])],
                    "value": float(mid[b]),
                }
            )
        checked += n_pairs
    passed = checked > 0 and not violations
    return ConvexityReport(passed, checked, samples, tuple(violations))
