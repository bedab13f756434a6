"""Independent numerical ground truth for candidate measures.

Nothing here knows about compensation: the stationary solve and the
transition matrix read one description of the truncated chain, dense level
blocks built from the step law.  Balance residuals plug a measure into the
raw balance equations, and the convexity check samples midpoints.
Agreement between these and the analytic construction is the evidence the
rest of the package stands on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .curve import branch_points, kernel
from .model import OFFSETS, WalkSpec, drift, ensure_valid
from .terms import GammaSet

if TYPE_CHECKING:
    import scipy.sparse as sp

MASS_FLOOR = 1e-13       # cells below this are excluded from relative errors


@dataclass(frozen=True, eq=False)
class LatticeWindow:
    """Stationary distribution of the truncated chain on {0..n} squared."""

    n: int
    values: np.ndarray  # shape (n+1, n+1), values[i, j] = pi(i, j)

    def core(self, size: int) -> np.ndarray:
        """The grid on {0..size} squared, renormalized to unit mass."""
        if not 0 <= size <= self.n:
            raise ValueError(f"core size {size} outside the truncation 0..{self.n}")
        block = self.values[: size + 1, : size + 1]
        return block / block.sum()


def _level_blocks(spec: WalkSpec, n: int) -> tuple[np.ndarray, ...]:
    """The moves of the walk truncated to {0..n} squared, as four level
    blocks (W0, D, W, U).

    Levels are the second coordinate: ``W[i, i2]`` is the probability of
    moving from (i, j) to (i2, j) within a level, and D and U move to levels
    j - 1 and j + 1.  The bottom level moves within by W0, every other one
    by W.  A stay or a step out of the box is no move, so every within
    block has a zero diagonal.
    """
    if n < 2:
        raise ValueError(f"truncation size n = {n} is too small, need n >= 2")
    law = np.zeros((2, 2, 3, 3))  # law[i > 0, j > 0, s + 1, t + 1]
    law[1, 1] = spec.interior
    law[1, 0, :, 1] = spec.horizontal
    law[1, 0, :, 2] = spec.interior[:, 2]
    law[0, 1, 1, :] = spec.vertical
    law[0, 1, 2, :] = spec.interior[2, :]
    law[0, 0, 2, 1], law[0, 0, 1, 2], law[0, 0, 2, 2] = spec.h(1), spec.v(1), spec.p(1, 1)
    law[:, :, 1, 1] = 0.0  # a stay is not a move
    blocks = np.zeros((2, 3, n + 1, n + 1))  # blocks[j > 0, t + 1, i, i + s]
    for s in OFFSETS:
        i = np.arange(max(-s, 0), n + 1 - max(s, 0))  # i + s inside the box
        blocks[:, :, i, i + s] = law[np.minimum(i, 1), :, s + 1].transpose(1, 2, 0)
    (_, W0, _), (D, W, U) = blocks
    return W0, D, W, U


def transition_matrix(spec: WalkSpec, n: int) -> sp.csr_matrix:
    """Row-stochastic transition matrix of the walk truncated to {0..n}
    squared.

    State (i, j) maps to row i*(n+1) + j.  Each of the four level blocks
    (_level_blocks) fills its own range of levels, and each state's
    self-loop is the mass it does not move, one minus its row sum.  Only
    this needs scipy, so it is imported here and the stationary solve runs
    on numpy alone.
    """
    import scipy.sparse as sp

    N = n + 1
    W0, D, W, U = _level_blocks(spec, n)
    rows, cols, vals = [], [], []
    # (block, its levels, level step)
    for block, first, last, t in ((D, 1, n, -1), (W0, 0, 0, 0), (W, 1, n, 0), (U, 0, n - 1, 1)):
        j = np.arange(first, last + 1)[:, None]
        i, i2 = np.nonzero(block)
        rows.append(i * N + j)
        cols.append(i2 * N + j + t)
        vals.append(np.broadcast_to(block[i, i2], rows[-1].shape))
    rows, cols, vals = (np.concatenate(a, axis=None) for a in (rows, cols, vals))
    P = sp.csr_matrix((vals, (rows, cols)), shape=(N * N, N * N))
    return P + sp.diags(1.0 - np.asarray(P.sum(axis=1)).ravel())


# Largest block _escape_inverse inverts in one Gauss-Jordan sweep; larger
# ones it splits in two.  In BENCH_transposed_leaf.json's sweep of this bound
# over 16..48, a 161-row inversion is within 20% at every value and the n=160
# solve is fastest at 32, where N = 161 splits three times.  Another value
# re-splits the blocks and so moves the bits of every grid.
_LEAF = 32


def _censored_stationary(W: np.ndarray) -> np.ndarray:
    """Stationary vector of a dense stochastic matrix W, subtraction-free.

    The chain is censored onto state 0: for j > 0, pi_j / pi_0 is the
    expected number of visits to j between two visits to 0, the row
    W[0, 1:] (I - W[1:, 1:])^{-1}.  The mass that leaves states 1.. is
    W[1:, 0], the escape _escape_inverse takes; W's diagonal is never read.
    """
    x = np.concatenate([[1.0], W[0, 1:] @ _escape_inverse(W[1:, 1:], W[1:, 0])])
    return x / x.sum()


def _level_inverse(
    D: Optional[np.ndarray], W: np.ndarray, U: Optional[np.ndarray]
) -> np.ndarray:
    """(I - W)^{-1} for the within block W of a level whose down and up
    blocks are D and U (None where the level has none), subtraction-free.

    The diagonal of I - W is the mass each state moves: the off-diagonal
    mass of W plus the escape mass D1 + U1 that leaves the level, never
    1 - W_ii; see _escape_inverse.
    """
    escape = sum(b.sum(axis=1) for b in (D, U) if b is not None)
    return _escape_inverse(W, escape)


def _escape_inverse(W: np.ndarray, escape: np.ndarray) -> np.ndarray:
    """(I - W)^{-1} where row i of I - W sums to escape[i]: the diagonal is
    the off-diagonal mass of row i of W plus escape[i], and W's own
    diagonal is never read.

    A block of more than _LEAF rows is split in two, W = [W11 W12; W21 W22],
    and inverted by its Schur complement.  Block 1 is inverted with escape
    e1 + W12 1, since mass into block 2 leaves block 1.  The complement
    S = W22 + W21 X11 W12 gets escape e2 + W21 X11 e1, the mass that leaves
    through block 1; with Y its inverse, X = [X11 + X11 W12 Y W21 X11,
    X11 W12 Y; Y W21 X11, Y].  A smaller block is inverted by one
    Gauss-Jordan sweep without pivoting, carrying the escape mass along:
    pivot k is the mass row k still sends to the states not yet eliminated
    plus its escape, as in state reduction (Grassmann-Taksar-Heyman),
    every other row adds its share of row k, and each row of the inverse
    is divided by its pivot once, at the end.  Every step adds, multiplies
    or divides non-negative numbers, so each entry keeps full relative
    accuracy.

    The sweep runs on [W | escape | I] stored transposed, so each step adds
    into contiguous memory, but the block it returns is C-ordered like
    every block the split builds: the Schur products then take the same
    BLAS path whatever the leaf's storage, and their bits do not move.
    """
    m = W.shape[0]
    if m > _LEAF:
        h = m // 2
        W12, W21 = W[:h, h:], W[h:, :h]
        X11 = _escape_inverse(W[:h, :h], escape[:h] + W12.sum(axis=1))
        P, Q = X11 @ W12, W21 @ X11
        Y = _escape_inverse(W[h:, h:] + W21 @ P, escape[h:] + Q @ escape[:h])
        X = np.empty((m, m))
        X[:h, h:] = PY = P @ Y
        X[:h, :h] = X11 + PY @ Q
        X[h:, :h] = Y @ Q
        X[h:, h:] = Y
        return X
    # Gauss-Jordan on A = [W | escape | I], stored transposed: column k of
    # A is AT[k] and row k is AT[:, k].  At step k row k can be nonzero only
    # in columns k+1 .. m+1+k (later states, the escape, X's first k+1), so
    # the step adds into the contiguous rows AT[k+1 : m+2+k].
    AT = np.vstack([W.T, escape, np.eye(m)])
    pivot = np.empty(m)
    factor = np.empty(m)
    outer = np.empty((m + 1, m))
    for k in range(m):
        rows = AT[k + 1 : m + 2 + k]
        row = rows[:, k]
        pivot[k] = np.add.reduce(row[: m - 1 - k]) + row[m - 1 - k]
        np.divide(AT[k], pivot[k], out=factor)
        factor[k] = 0.0
        np.multiply(row[:, None], factor, out=outer)
        rows += outer
    return np.divide(AT[m + 1 :].T, pivot[:, None], out=np.empty((m, m)))


def _direct_censored(spec: WalkSpec, n: int) -> np.ndarray:
    """Componentwise-accurate stationary grid via cyclic reduction.

    Levels are the second coordinate, and the chain is block tridiagonal
    over them, with the four blocks of _level_blocks; the top level, which
    has no U, gets its own within block Wn, which starts as W.  Each stage
    censors the chain on its even levels (Bini-Meini cyclic reduction),
    and the censored chain again has such blocks.  An interior odd level
    is eliminated through X = (I - W)^{-1}, and a top odd level, when the
    level count is even, through Xn = (I - Wn)^{-1}.  The even levels get
    D X D and U X U, and the within blocks W0 + U X D, W + D X U + U X D
    and Wn + D X U; when the top level is odd, the new top is
    W + D X U + U Xn D instead.  Stages halve the level count until one
    level is left, censored onto one state (_censored_stationary).  The
    way back is pi_l = pi_{l-1} (U X) + pi_{l+1} (D X) for an interior odd
    level l and pi_l = pi_{l-1} (U Xn) for a top one, with U X, D X and
    U Xn kept from the way down, one vector-matrix product per level.  No
    step subtracts (see _level_inverse), so small cells keep full relative
    accuracy and none is negative.

    A stage inverts the interior block once (unless only two levels are
    left) and the top block once when the level count is even, so a solve
    does O(log n) inversions, plus one for the last level.  It keeps
    O(n^2 log n) memory: two or three (n+1)^2 products per stage.  Each
    inversion splits its block in halves down to blocks of at most _LEAF
    rows (three levels at n = 160), so most of the arithmetic runs in
    matrix products rather than one Python step per column.
    """
    W0, D, W, U = _level_blocks(spec, n)
    Wn = W
    L = n + 1
    stages = []  # per stage: level count, U X, D X, U Xn
    while L > 1:
        UX = DX = UXn = None
        if L % 2 == 0:  # the top level is odd
            UXn = U @ _level_inverse(D, Wn, None)
        if L == 2:
            W0 = W0 + UXn @ D
        else:
            X = _level_inverse(D, W, U)
            UX, DX = U @ X, D @ X
            UXD, DXU = UX @ D, DX @ U
            W0, inner = W0 + UXD, W + DXU
            W, Wn = inner + UXD, Wn + DXU if L % 2 else inner + UXn @ D
            D, U = DX @ D, UX @ U
        stages.append((L, UX, DX, UXn))
        L = (L + 1) // 2
    pi = [_censored_stationary(W0)]  # pi[l][i] = pi(i, l), unnormalized
    for L, UX, DX, UXn in reversed(stages):
        full = []
        for e in range(L // 2):  # odd level 2e + 1 lies between pi[e] and pi[e + 1]
            odd = pi[e] @ UX + pi[e + 1] @ DX if 2 * e + 2 < L else pi[e] @ UXn
            full += [pi[e], odd]
        pi = full + pi[L // 2 :]
    grid = np.array(pi).T.copy()
    return grid / grid.sum()


def truncated_stationary(spec: WalkSpec, n: int) -> LatticeWindow:
    """Stationary distribution of the truncated walk, by cyclic reduction
    on its level blocks (_direct_censored): subtraction-free, so
    componentwise accurate and non-negative, numpy only, O(n^2 log n)
    memory.

    Raises
    ------
    ValueError
        If n is below 8, or if the truncation traps mass: with the moves
        out of the box dropped, some states never reach the origin, a
        pivot of the solve vanishes and the grid is not finite.
    """
    ensure_valid(spec)
    if n < 8:
        raise ValueError(f"truncation size n = {n} is too small, need n >= 8")
    with np.errstate(divide="ignore", invalid="ignore"):
        grid = _direct_censored(spec, n)
    if not np.isfinite(grid).all():
        raise ValueError(
            f"truncation size n = {n} traps mass: with the moves out of "
            f"{{0..{n}}} squared dropped, some states never reach the origin, "
            "so the truncated chain has no stationary grid"
        )
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


def _relative(residual: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """|residual| / |mass|, with 0/0 read as 0; callers open the
    ``np.errstate`` that lets x/0 and 0/0 pass without a warning."""
    out = np.abs(residual) / np.abs(mass)
    return np.where(np.isnan(out), 0.0, out)


def _inflow(weights: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Sum of ``weights[k] * windows[..., k, :]`` over k, added in k order.

    One product and one sequential ``np.add.accumulate``: the roundings of
    ``+=`` from zero, with ``+ 0.0`` giving a sum of negative zeros the
    sign that such a sum has (see ``terms._term_sum``).
    """
    return np.add.accumulate(weights * windows, axis=-2)[..., -1, :] + 0.0


def _axis_residuals(walk: WalkSpec, m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Raw balance residuals at cells 1..W of the horizontal axis, of a grid
    or a stack of grids: the inflow from columns 0 and 1 of the rows that
    ``rows`` (3, W) names, by ``h(s)`` and ``p(s, -1)``, added in (s,
    column) order."""
    W = rows.shape[1]
    weights = np.concatenate((walk.horizontal[:, None], walk.interior[:, :1]), axis=1)
    windows = m[..., rows[:, None, :], np.arange(2)[:, None]]  # (..., 3, 2, W)
    inflow = _inflow(weights.reshape(6, 1), windows.reshape(*m.shape[:-2], 6, W))
    return m[..., 1 : W + 1, 0] - inflow


def _grid_residuals(spec: WalkSpec, m: np.ndarray, window: int):
    """Raw balance residuals (interior, horizontal, vertical, origin) of a
    measure grid, or of grids stacked on leading axes: each state's mass
    minus its inflow, on {0..window} squared.  The vertical axis is the
    horizontal one of the transposed walk and grid.

    Each inflow gathers its shifted windows of the grid at once (nine for
    the interior, six for each axis, four cells for the origin), weighs
    them by their step probabilities and adds them in (s, t) order with
    one accumulate: the roundings of adding one shifted slice at a time,
    so a stack of grids gives the bytes of separate calls.

    The grid must extend at least one cell past the window in each
    direction so inflow sums stay inside it.
    """
    W = window
    if W < 1:
        raise ValueError(f"window {W} is too small, need window >= 1")
    if m.shape[-2] < W + 2 or m.shape[-1] < W + 2:
        raise ValueError(f"grid {m.shape} too small for window {W}")
    lead = m.shape[:-2]

    # rows[s + 1] are the rows 1 - s .. W - s that step s moves to rows 1 .. W.
    rows = np.arange(2, -1, -1)[:, None] + np.arange(W)
    windows = m[..., rows[:, None, :, None], rows[None, :, None, :]]  # (..., 3, 3, W, W)
    inflow = _inflow(spec.interior.reshape(9, 1), windows.reshape(*lead, 9, W * W))

    stay = 1.0 - spec.h(1) - spec.v(1) - spec.p(1, 1)
    to_origin = np.array([stay, spec.h(-1), spec.v(-1), spec.p(-1, -1)])
    cells = m[..., (0, 1, 0, 1), (0, 0, 1, 1)]  # (0, 0), (1, 0), (0, 1), (1, 1)
    inflow_o = np.add.accumulate(cells * to_origin, axis=-1)[..., -1]
    return (
        m[..., 1 : W + 1, 1 : W + 1] - inflow.reshape(*lead, W, W),
        _axis_residuals(spec, m, rows),
        _axis_residuals(spec.transpose(), np.swapaxes(m, -1, -2), rows),
        m[..., 0, 0] - inflow_o,
    )


def grid_residual_report(
    spec: WalkSpec, m: np.ndarray, window: int
) -> VerificationReport:
    """Balance residuals of an arbitrary measure grid on {0..window}
    squared, relative to the local mass; see _grid_residuals."""
    W = window
    interior, horiz, vert, origin = _grid_residuals(spec, m, W)
    # The four regions in one array, so that one division serves them all.
    residual = np.concatenate((interior.ravel(), horiz, vert, np.reshape(origin, 1)))
    mass = np.concatenate(
        (m[1 : W + 1, 1 : W + 1].ravel(), m[1 : W + 1, 0], m[0, 1 : W + 1], m[:1, 0])
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = _relative(residual, mass)
    worst = np.maximum.reduceat(relative, (0, W * W, W * W + W, W * W + 2 * W))
    return VerificationReport(*worst.tolist(), window=window)


def balance_residuals(
    spec: WalkSpec, g: GammaSet, window: int = 12
) -> VerificationReport:
    """Plug a geometric-sum measure into the balance equations verbatim."""
    idx = np.arange(window + 2)
    m = g.value(idx[:, None], idx[None, :])
    return grid_residual_report(spec, m, window)


def compare(g: GammaSet, oracle: LatticeWindow, core: int) -> float:
    """Sup relative error between a measure and the oracle on the core.

    Both are normalized to unit mass over {0..core} squared first; cells
    where the oracle carries less than the mass floor are skipped.  The
    core must sit at least 10 cells inside the truncation so boundary
    artifacts cannot contaminate the comparison, and must hold at least
    one cell beside the origin, or both normalize to one and always agree.
    """
    if oracle.n - core < 10:
        raise ValueError(
            f"core {core} too close to truncation {oracle.n}, need margin >= 10"
        )
    if core < 1:
        raise ValueError(f"core {core} of truncation {oracle.n} is below 1, need n >= 11")
    pi = oracle.core(core)
    idx = np.arange(core + 1)
    m = g.value(idx[:, None], idx[None, :])
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

    A walk drifting up and right has no feasible point in the quadrant:
    with ``phi(u, w) = sum p e^{-su-tw}``, ``Q(e^u, e^w) < 0`` says
    ``phi < 1``, and phi is convex with ``phi(0) = 1`` and gradient
    ``-(mx, my)`` there, so ``phi >= 1 - mx u - my w >= 1`` when
    ``u, w <= 0``.  Such a walk gets the report of a search that found no
    pair, without drawing.

    Raises
    ------
    ValueError
        If samples is below 1: a check of no pair has no verdict.
    """
    if samples < 1:
        raise ValueError(f"samples = {samples} is too small, need samples >= 1")
    ker = kernel(spec)
    report = branch_points(spec)
    d = drift(spec)
    if d.mx > 0.0 and d.my > 0.0:
        return ConvexityReport(False, 0, samples, ())

    (lo_u, hi_u), (lo_w, hi_w) = (
        (
            max(math.log(axis.low), LOG_CLAMP) if axis.low > 0.0 else LOG_CLAMP,
            min(0.0, math.log(axis.high)) if math.isfinite(axis.high) else 0.0,
        )
        for axis in (report.x, report.y)
    )

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
        feasible = np.flatnonzero(ker.value(np.exp(u), np.exp(w)) < 0.0)
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
