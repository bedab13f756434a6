"""Seeded walk generation, ergodicity labels and the benchmark's own lattice.

Nothing here calls qpwalk: the walks are plain ``(w, h, v)`` arrays, the
ergodicity label comes from the drift criterion, and the truncated chain
used to cross-check labels and oracle grids is built from the arrays by
this file.  ``w[s+1, t+1]`` is the interior probability of step ``(s, t)``;
``h`` and ``v`` are the axis laws, with the homogeneity convention of the
package: from the horizontal axis the upward steps reuse ``w[:, 2]``, from
the vertical axis the rightward steps reuse ``w[2, :]``, and the origin
moves right by ``h[2]``, up by ``v[2]``, diagonally by ``w[2, 2]`` and
otherwise stays.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve


@dataclass(frozen=True)
class Walk:
    w: np.ndarray
    h: np.ndarray
    v: np.ndarray
    label: str  # where the walk came from, for the run log

    @property
    def eligible(self) -> bool:
        return self.w[2, 1] == 0.0 and self.w[2, 2] == 0.0 and self.w[1, 2] == 0.0


def recipe_walk(rng, forced=False, neg_drift=False, min_cell=0.05, label=""):
    """Draw a walk with the test suite's recipe (``conftest.random_walk``).

    Every allowed cell is at least ``min_cell`` before normalizing, so no
    singular support pattern and no invalid walk can come out; the draw
    sequence is the suite's, so the same generator seed gives the same walks.
    ``forced`` zeroes the east, northeast and north interior steps.
    """
    while True:
        w = min_cell + rng.random((3, 3))
        if forced:
            w[2, 1] = w[2, 2] = w[1, 2] = 0.0
        w = w / w.sum()
        budget_h = 1.0 - w[:, 2].sum()
        budget_v = 1.0 - w[2, :].sum()
        if budget_h < 1e-6 or budget_v < 1e-6:
            continue
        h = min_cell + rng.random(3)
        h *= budget_h / h.sum()
        v = min_cell + rng.random(3)
        v *= budget_v / v.sum()
        if neg_drift:
            mx, my = drift(w)
            if mx >= -1e-3 or my >= -1e-3:
                continue
        return Walk(w, h, v, label)


def perturbed(base: Walk, rng, scale: float, label: str) -> Walk:
    """Base walk with each allowed interior cell scaled by up to ``scale``.

    The axis laws keep their shape and take up the new budgets, so the
    result is again a valid walk of the same support class.
    """
    w = base.w * (1.0 + scale * rng.uniform(-1.0, 1.0, (3, 3)))
    w = w / w.sum()
    h = base.h * (1.0 - w[:, 2].sum()) / base.h.sum()
    v = base.v * (1.0 - w[2, :].sum()) / base.v.sum()
    return Walk(w, h, v, label)


def drift(w):
    return float(w[2].sum() - w[0].sum()), float(w[:, 2].sum() - w[:, 0].sum())


def margin(walk: Walk) -> float:
    """Signed distance from the Fayolle-Malyshev-Menshikov ergodicity boundary.

    Uses the interior drift ``M`` and the drifts ``M'`` on the horizontal
    axis and ``M''`` on the vertical axis (zero interior drift does not
    occur in the generated classes).  The walk is positive recurrent when
    the result is positive: it is the smallest of ``-(M x M')`` and
    ``-(M'' x M)`` over the conditions the criterion imposes for the sign
    pattern of ``M``.
    """
    w, h, v = walk.w, walk.h, walk.v
    mx, my = drift(w)
    hx = float(sum(s * (h[s + 1] + w[s + 1, 2]) for s in (-1, 0, 1)))
    hy = float(w[:, 2].sum())
    vx = float(w[2, :].sum())
    vy = float(sum(t * (v[t + 1] + w[2, t + 1]) for t in (-1, 0, 1)))
    horizontal = my * hx - mx * hy
    vertical = mx * vy - my * vx
    if mx < 0.0 and my < 0.0:
        return min(horizontal, vertical)
    if mx >= 0.0 and my < 0.0:
        return horizontal
    if mx < 0.0 and my >= 0.0:
        return vertical
    return -math.inf


def ergodic(walk: Walk) -> bool:
    return margin(walk) > 0.0


def step_laws(walk: Walk, n: int) -> np.ndarray:
    """``P[s+1, t+1, i, j]``: probability of step (s, t) from cell (i, j)."""
    N = n + 1
    w, h, v = walk.w, walk.h, walk.v
    P = np.zeros((3, 3, N, N))
    P[:, :, 1:, 1:] = w[:, :, None, None]
    P[:, 1, 1:, 0] = h[:, None]
    P[:, 2, 1:, 0] = w[:, 2, None]
    P[1, :, 0, 1:] = v[:, None]
    P[2, :, 0, 1:] = w[2, :, None]
    P[2, 1, 0, 0] = h[2]
    P[1, 2, 0, 0] = v[2]
    P[2, 2, 0, 0] = w[2, 2]
    P[1, 1, 0, 0] = 1.0 - h[2] - v[2] - w[2, 2]
    return P


def _moves(s: int, t: int, N: int):
    """Source and destination slices of the cells whose step stays in range."""
    src = (slice(max(0, -s), N - max(0, s)), slice(max(0, -t), N - max(0, t)))
    dst = (slice(max(0, s), N - max(0, -s)), slice(max(0, t), N - max(0, -t)))
    return src, dst


def push(P: np.ndarray, grid: np.ndarray, truncated: bool) -> np.ndarray:
    """One step of the chain applied to a measure on the box.

    ``truncated`` keeps mass that would leave the box at its cell (the
    package's truncation); otherwise it is dropped, which leaves the inflow
    exact on every cell whose neighbours all lie in the box.
    """
    N = grid.shape[0]
    out = np.zeros_like(grid)
    for a in range(3):
        for b in range(3):
            c = P[a, b] * grid
            src, dst = _moves(a - 1, b - 1, N)
            out[dst] += c[src]
            if truncated:
                out += c
                out[src] -= c[src]
    return out


def stationary(walk: Walk, n: int) -> np.ndarray:
    """Stationary grid of the truncated walk by one sparse solve.

    A plain normwise-accurate solve: fine for the large cells the checks
    look at, not for cells many orders of magnitude below the core.
    """
    N = n + 1
    P = step_laws(walk, n)
    idx = np.arange(N * N).reshape(N, N)
    # Equation k of pi (T - I) = 0 collects the inflow into cell k.  The
    # origin's equation is redundant and is replaced by pi(0, 0) = 1, which
    # keeps the matrix sparse; the grid is normalized afterwards.
    eq, var, coef = [np.zeros(1, dtype=int)], [np.zeros(1, dtype=int)], [np.ones(1)]
    for a in range(3):
        for b in range(3):
            src, dst = _moves(a - 1, b - 1, N)
            target = idx.copy()
            target[src] = idx[dst]
            keep = P[a, b] > 0.0
            eq.append(target[keep])
            var.append(idx[keep])
            coef.append(P[a, b][keep])
    eq.append(idx.ravel())
    var.append(idx.ravel())
    coef.append(-np.ones(N * N))
    eq, var, coef = np.concatenate(eq), np.concatenate(var), np.concatenate(coef)
    inflow = eq != 0
    inflow[0] = True
    A = sp.csc_matrix((coef[inflow], (eq[inflow], var[inflow])), shape=(N * N, N * N))
    rhs = np.zeros(N * N)
    rhs[0] = 1.0
    pi = spsolve(A, rhs).reshape(N, N)
    return pi / pi.sum()


# Cross-check of the drift label against the benchmark's own lattice: the
# mass of the core {0..8}^2 at n = 80 as a share of its mass at n = 40.  On
# an ergodic walk doubling the truncation only adds tail, so the share
# stays near 1; on a transient walk the mass moves out to the truncation
# boundary and the core empties as n grows.  Over 11661 ergodic eligible
# recipe walks at least 0.005 inside the boundary the share was at least
# 0.65, and over 4259 non-ergodic ones at least 0.005 outside it at most
# 0.45.  Nearer the boundary ergodic walks went down to 0.51 and
# non-ergodic ones up to 0.61.
TREND_NS = (40, 80)
CORE_SIZE = 9
TREND_SPLIT = 0.5
EMPTY_CORE = 1e-9        # core mass at n = 40 below which the share is taken as 0


def core_trend(walk: Walk) -> float:
    """Core mass at the larger truncation as a share of that at the smaller."""
    small, large = (float(stationary(walk, n)[:CORE_SIZE, :CORE_SIZE].sum()) for n in TREND_NS)
    return large / small if small > EMPTY_CORE else 0.0


def label_mismatch(walk: Walk, is_ergodic: bool) -> str | None:
    """Reason the lattice disagrees with the drift label, or None."""
    trend = core_trend(walk)
    if is_ergodic != (trend >= TREND_SPLIT):
        return (f"{walk.label}: drift says {'' if is_ergodic else 'not '}ergodic, but the core "
                f"keeps {trend:.3g} of its mass from n={TREND_NS[0]} to n={TREND_NS[1]}")
    return None


def digest(walks) -> str:
    """Short hash of a walk list, to show two runs measured the same inputs."""
    h = hashlib.sha256()
    for walk in walks:
        for arr in (walk.w, walk.h, walk.v):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()[:16]
