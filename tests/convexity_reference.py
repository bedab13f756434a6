"""Batch-by-batch convexity sampler, the reference for ``qpwalk.oracle.convexity_check``.

``convexity_check`` below is the sampler's body as it was before the
kernel was evaluated in place and the feasible draws were indexed once:
it masks each batch twice and evaluates Q with the numpy form kept in
``scalar_reference``, which allocates per term.  The shipped sampler
draws the same stream, so its reports must match this one's exactly.
"""

import math

import numpy as np

from qpwalk.curve import branch_points, kernel
from qpwalk.model import WalkSpec
from qpwalk.oracle import LOG_CLAMP, ConvexityReport

from scalar_reference import kernel_value


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
        vals = kernel_value(ker, np.exp(u), np.exp(w))
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
        mid = kernel_value(ker, np.exp(mu), np.exp(mw))
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
