"""Per-point trace loop, the reference for ``qpwalk.curve.trace_qplus``.

``loop_trace`` samples the curve as the shipped trace does and then
builds the loop one point at a time: a ``(float(x), float(y))`` tuple and
an arc label per sample, lower branch first, then the upper branch in
reverse.  The shipped trace fills the same rows with array operations,
so its points must match byte for byte and its arcs exactly.
"""

import numpy as np

from qpwalk import curve
from qpwalk.errors import EmptyComponent


def loop_trace(spec, n_points: int = 2048):
    """(points, arcs) of ``trace_qplus(spec, n_points)``, built per point."""
    report = curve.branch_points(spec)
    ker = curve.kernel(spec)
    xs = curve._trace_grid(report.x_l, report.x_r, n_points)
    lower, upper, valid = curve._y_roots_on_interval(ker, xs)
    xs, lower, upper = xs[valid], lower[valid], upper[valid]

    tol = curve.ONCURVE_TOL
    residual_scale = ker.scale * (1.0 + xs**2)
    ok_low = np.abs(ker.value(xs, lower)) <= tol * residual_scale * (1.0 + lower**2)
    ok_up = np.abs(ker.value(xs, upper)) <= tol * residual_scale * (1.0 + upper**2)

    x_b = report.corners[1][0]
    x_t = report.corners[3][0]

    pts: list[tuple[float, float]] = []
    arcs: list[str] = []
    for x, y in zip(xs[ok_low], lower[ok_low]):
        pts.append((float(x), float(y)))
        arcs.append("Q00" if x <= x_b else "Q10")
    for x, y in zip(xs[ok_up][::-1], upper[ok_up][::-1]):
        pts.append((float(x), float(y)))
        arcs.append("Q11" if x >= x_t else "Q01")
    if not pts:
        raise EmptyComponent("all sampled points failed the on-curve residual")
    return np.array(pts), tuple(arcs)
