"""Kernel curve analysis: quadratics, branch points, tracing, boundaries.

The kernel of a walk is the polynomial

    Q(x, y) = x*y*(sum_{s,t} x^{-s} y^{-t} p[s][t] - 1)
            = sum_{a,b in {0,1,2}} c[a][b] x^a y^b,

with ``c[a][b] = p[1-a][1-b]`` except ``c[1][1] = p[0][0] - 1``.  A
geometric measure ``rho^i sigma^j`` satisfies the interior balance
equations exactly when ``Q(rho, sigma) = 0``, so the positive branch of
the zero set of Q carries every candidate term.

At fixed x the kernel is a quadratic in y whose discriminant is a quartic
in x; its real roots are the branch points that bound the positive
component of the curve.  The boundary polynomials H and V play the same
role for the balance equations on the two axes.  H is linear in y, so the
points where the curve meets H = 0 (the seeds of the compensation series)
are the real roots of one polynomial in x of degree at most six; V is H
of the transposed walk.  Branch points and seeds share one real-root
finder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    ComplexRoots,
    EmptyComponent,
    InconsistentSingularity,
    SingularWalk,
)
from .model import WalkSpec, _per_walk, drift, eligible, singular_class

UNIT_ROOT_TOL = 1e-8     # |x - 1| below this counts as the unit branch point
DEGREE_DROP_TOL = 1e-12  # leading coefficient cutoff, relative to max |coeff|
DOUBLE_ROOT_TOL = 1e-8   # cluster width for multiplicity detection
ONCURVE_TOL = 1e-10
EQUALITY_TOL = 1e-12     # sub-case boundary p0 = 2*sqrt(pm*pp)

# Kernel terms (a, b) after (0, 0), in the order KernelPoly.value adds them.
_LATER_TERMS = tuple((a, b) for a in range(3) for b in range(3))[1:]


@dataclass(frozen=True, eq=False)
class KernelPoly:
    """Coefficients ``c[a][b]`` of the kernel polynomial."""

    c: np.ndarray

    @cached_property
    def scale(self) -> float:
        return float(np.abs(self.c).max())

    @cached_property
    def _coeffs(self) -> list[list[float]]:
        # c as Python floats: scalar arithmetic on them skips numpy's
        # per-call overhead and rounds exactly as numpy does.
        return self.c.tolist()

    def value(self, x, y):
        """Evaluate Q at floats, or at arrays, which broadcast.

        One body serves both: it adds ``c[a][b] * x^a * y^b`` in (a, b)
        order, with ``x^2`` formed as ``x * x`` as numpy's ``x**2`` is.
        A float call therefore returns the bits of the matching entry of
        an array call, and of the former form that ran every call through
        numpy arrays.  An array call forms each term in one buffer and
        adds it into the total in place: besides ``x * x`` and ``y * y``
        it allocates those two arrays, where the former form made three
        per term.  The inputs are only read.  Floats and 0-d arrays give a
        float, arrays an array.
        """
        shape = ()
        if not (isinstance(x, float) and isinstance(y, float)):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            shape = np.broadcast_shapes(x.shape, y.shape)
        xs = (1.0, x, x * x)
        ys = (1.0, y, y * y)
        c = self._coeffs
        # A factor 1.0 changes no bit, so the (0, 0) term is c[0][0] and
        # the array form skips the factor in the terms with a or b zero.
        total = 0.0 + c[0][0]
        if shape:
            total = np.full(shape, total)
            term = np.empty(shape)
        for a, b in _LATER_TERMS:
            if not shape:
                total = total + c[a][b] * xs[a] * ys[b]
                continue
            np.multiply(c[a][b], xs[a] if a else ys[b], out=term)
            if a and b:
                term *= ys[b]
            total += term
        return total if shape else float(total)


def kernel(spec: WalkSpec) -> KernelPoly:
    """Kernel polynomial of a nonsingular walk, computed once per WalkSpec.

    Raises
    ------
    SingularWalk
        If the walk is singular; the branch-point theory below assumes a
        kernel of full degree in both variables.
    """
    return _per_walk(spec, "_kernel", _build_kernel)


def _build_kernel(spec: WalkSpec) -> KernelPoly:
    sc = singular_class(spec)
    if sc.singular:
        raise SingularWalk(f"{sc.tag}: {sc.reason}")
    c = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            c[a, b] = spec.p(1 - a, 1 - b)
    c[1, 1] = spec.p(0, 0) - 1.0
    c.flags.writeable = False
    return KernelPoly(c)


def y_quadratic(ker: KernelPoly, x):
    """Coefficients ``(A, B, C)`` of ``Q(x, .)`` as ``A y^2 + B y + C``."""
    c = ker._coeffs
    A = c[0][2] + x * (c[1][2] + x * c[2][2])
    B = c[0][1] + x * (c[1][1] + x * c[2][1])
    C = c[0][0] + x * (c[1][0] + x * c[2][0])
    return A, B, C


def disc_y_coeffs(ker: KernelPoly) -> np.ndarray:
    """Ascending coefficients of the quartic ``B(x)^2 - 4 A(x) C(x)``."""
    c = ker.c
    A = np.array([c[0, 2], c[1, 2], c[2, 2]])
    B = np.array([c[0, 1], c[1, 1], c[2, 1]])
    C = np.array([c[0, 0], c[1, 0], c[2, 0]])
    return np.convolve(B, B) - 4.0 * np.convolve(A, C)


def _polyval(coeffs: list[float], x: float) -> float:
    """Ascending coefficients evaluated by Horner's rule, in the operations
    of ``numpy.polynomial.polynomial.polyval`` (which starts from
    ``c[-1] + x*0``) so the bits match it, on Python floats."""
    total = coeffs[-1] + x * 0
    for c in reversed(coeffs[:-1]):
        total = c + total * x
    return float(total)


def real_roots(coeffs: np.ndarray) -> tuple[list[float], int]:
    """Real roots of a real polynomial, with multiplicity and sorted, plus
    the count of roots at infinity.

    The polynomial is normalized to monic form and its companion matrix
    eigenvalues are taken; a leading coefficient smaller than
    ``DEGREE_DROP_TOL`` times the largest one drops the degree and records
    a root at infinity instead.  Candidates with small imaginary part are
    polished by Newton iteration on the real axis and accepted only if the
    polished residual vanishes at scale.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    scale = float(np.abs(coeffs).max())
    if scale == 0.0:
        raise ComplexRoots("identically zero polynomial")
    deg = coeffs.size - 1
    n_inf = 0
    while deg > 0 and abs(coeffs[deg]) < DEGREE_DROP_TOL * scale:
        deg -= 1
        n_inf += 1
    if deg == 0:
        return [], n_inf

    monic = coeffs[: deg + 1] / coeffs[deg]
    companion = np.zeros((deg, deg))
    companion[1:, :-1] = np.eye(deg - 1)
    companion[:, -1] = -monic[:deg]
    eigs = np.linalg.eigvals(companion)

    poly = coeffs[: deg + 1].tolist()
    deriv = [j * c for j, c in enumerate(poly)][1:]  # numpy's polyder products
    roots: list[float] = []
    for z in eigs:
        # Double roots perturb into conjugate pairs with |Im| ~ sqrt(eps),
        # so the pre-filter is loose and the residual test decides.
        if abs(z.imag) > 1e-5 * max(1.0, abs(z)):
            continue
        r = float(z.real)
        order = [r]  # order[i] is r after i steps
        for i in range(1, 61):
            fr = _polyval(poly, r)
            dr = _polyval(deriv, r)
            if dr == 0.0:
                break
            step = fr / dr
            if abs(step) > 1.0 + abs(r):
                break
            r -= step
            if abs(step) <= 1e-16 * max(1.0, abs(r)):
                break
            # Each step depends on r alone, so a repeated nonzero r (0.0 ==
            # -0.0) cycles from here: take the value step 60 would reach.
            if r and r in order:
                j = order.index(r)
                r = order[j + (60 - i) % (i - j)]
                break
            order.append(r)
        residual = abs(_polyval(poly, r))
        if residual <= 1e-9 * scale * max(1.0, abs(r)) ** deg:
            roots.append(r)
    roots.sort()
    return roots, n_inf


def quartic_real_roots(coeffs: np.ndarray) -> tuple[list[float], int]:
    """``real_roots`` of a quartic discriminant, all of which theory says
    are real; raises ComplexRoots when fewer are found than the degree."""
    roots, n_inf = real_roots(coeffs)
    deg = len(coeffs) - 1 - n_inf
    if len(roots) != deg:
        raise ComplexRoots(
            f"found {len(roots)} real roots of a degree-{deg} discriminant"
        )
    return roots, n_inf


@dataclass(frozen=True)
class RootLabel:
    """Unit-circle position and sign of one branch point."""

    value: float  # math.inf for a root at infinity
    modulus: str  # inside | unit | outside
    sign: str     # negative | zero | positive | infinite

    def to_dict(self) -> dict:
        return {"value": self.value, "modulus": self.modulus, "sign": self.sign}


def _label(value: float) -> RootLabel:
    if math.isinf(value):
        return RootLabel(value, "outside", "infinite")
    if abs(abs(value) - 1.0) <= UNIT_ROOT_TOL:
        modulus = "unit"
    elif abs(value) < 1.0:
        modulus = "inside"
    else:
        modulus = "outside"
    if abs(value) <= DOUBLE_ROOT_TOL:
        sign = "zero"
    elif value > 0:
        sign = "positive"
    else:
        sign = "negative"
    return RootLabel(value, modulus, sign)


def _sign_case(p0: float, pm: float, pp: float) -> str:
    """Sub-case of the pair classification: compare p0 with 2*sqrt(pm*pp)."""
    bound = 2.0 * math.sqrt(pm * pp)
    if abs(p0 - bound) <= EQUALITY_TOL:
        return "b"
    return "a" if p0 > bound else "c"


def _pair_matches_case(labels: list[RootLabel], case: str, inner: bool) -> bool:
    """Check an inside or outside pair against its predicted sign pattern."""
    signs = sorted(lab.sign for lab in labels)
    if case == "a":
        return signs == ["positive", "positive"]
    if case == "c":
        return signs == ["negative", "positive"]
    if inner:
        # Boundary case: one root is zero, the other nonnegative.
        return "zero" in signs and all(s in ("zero", "positive") for s in signs)
    return "infinite" in signs and all(s in ("infinite", "positive") for s in signs)


@dataclass(frozen=True)
class AxisBranchData:
    """Branch points of Y(x) on one axis, classified, with their corners."""

    roots: tuple[float, ...]
    labels: tuple[RootLabel, ...]
    case_inner: str
    case_outer: str
    consistent: bool
    low: float   # branch point just below 1 bounding the positive component
    high: float  # branch point just above 1
    corner_low: float   # the double y-root at low
    corner_high: float  # the double y-root at high, nan when high is infinite


def _axis_branch_data(spec: WalkSpec) -> AxisBranchData:
    """Branch points of Y(x), classified, with the corners they bound.

    The y-roots of a walk are the x-roots of its transpose, so this one
    routine serves both axes.
    """
    ker = kernel(spec)
    d = drift(spec)
    coeffs = disc_y_coeffs(ker)
    case_inner = _sign_case(spec.p(1, 0), spec.p(1, -1), spec.p(1, 1))
    case_outer = _sign_case(spec.p(-1, 0), spec.p(-1, -1), spec.p(-1, 1))
    finite, n_inf = quartic_real_roots(coeffs)
    values = list(finite) + [math.inf] * n_inf
    labels = [_label(v) for v in values]

    unit = [r for r in finite if abs(r - 1.0) <= UNIT_ROOT_TOL]
    inside = [lab for lab in labels if lab.modulus == "inside"]
    outside = [lab for lab in labels if lab.modulus == "outside"]

    if abs(d.my) > UNIT_ROOT_TOL and not unit:
        consistent = (
            len(inside) == 2
            and len(outside) == 2
            and _pair_matches_case(inside, case_inner, inner=True)
            and _pair_matches_case(outside, case_outer, inner=False)
        )
    elif unit:
        # Zero vertical drift pins a branch point at 1.  The remaining
        # three split by the sign of the horizontal drift: negative drift
        # leaves two inside the unit circle, positive drift two outside.
        others = [lab for lab in labels if abs(abs(lab.value) - 1.0) > UNIT_ROOT_TOL]
        n_in = sum(1 for lab in others if lab.modulus == "inside")
        n_out = len(others) - n_in
        if d.mx < 0:
            consistent = len(unit) >= 1 and n_in == 2 and n_out == 1
        elif d.mx > 0:
            consistent = len(unit) >= 1 and n_in == 1 and n_out == 2
        else:
            consistent = True  # both drifts vanish: no prediction applies
    else:
        consistent = False

    below = [r for r in finite if r < 1.0 - UNIT_ROOT_TOL]
    above = [r for r in finite if r > 1.0 + UNIT_ROOT_TOL]
    if unit:
        # Decide which side of the unit root the positive component extends.
        probe = _polyval(coeffs.tolist(), 1.0 + 1e-6)
        if probe > 0.0:
            low = 1.0
            high = min(above) if above else math.inf
        else:
            low = max(below) if below else 0.0
            high = 1.0
    else:
        low = max(below) if below else 0.0
        high = min(above) if above else math.inf

    corner_low = _double_root_of_quadratic(*(float(v) for v in y_quadratic(ker, low)))
    corner_high = (
        _double_root_of_quadratic(*(float(v) for v in y_quadratic(ker, high)))
        if math.isfinite(high)
        else math.nan
    )
    return AxisBranchData(
        tuple(values), tuple(labels), case_inner, case_outer, consistent,
        low, high, corner_low, corner_high,
    )


def _double_root_of_quadratic(A: float, B: float, C: float) -> float:
    """Root of a quadratic at a point where its discriminant vanishes."""
    if abs(A) > 1e-13 * max(abs(A), abs(B), abs(C), 1e-300):
        return -B / (2.0 * A)
    if B != 0.0:
        return -C / B
    return 0.0


@dataclass(frozen=True)
class BranchPointReport:
    """Branch points of both discriminants: ``x`` is the walk's own axis,
    ``y`` the x axis of the transposed walk, the same object as the
    transposed walk's own ``x``."""

    x: AxisBranchData
    y: AxisBranchData

    @property
    def corners(self) -> tuple[tuple[float, float], ...]:
        """Left, bottom, right and top corners of the positive component."""
        x, y = self.x, self.y
        return ((x.low, x.corner_low), (y.corner_low, y.low),
                (x.high, x.corner_high), (y.corner_high, y.high))

    def to_dict(self) -> dict:
        x, y = self.x, self.y
        return {
            "roots_x": list(x.roots),
            "roots_y": list(y.roots),
            "labels": {
                "x": [lab.to_dict() for lab in x.labels],
                "y": [lab.to_dict() for lab in y.labels],
                "case_x_inner": x.case_inner,
                "case_x_outer": x.case_outer,
                "case_y_inner": y.case_inner,
                "case_y_outer": y.case_outer,
                "consistent_x": x.consistent,
                "consistent_y": y.consistent,
            },
            "interval": {"x_l": x.low, "x_r": x.high, "y_b": y.low, "y_t": y.high},
            "corners": [list(c) for c in self.corners],
        }


def _axis(spec: WalkSpec) -> AxisBranchData:
    """The walk's x axis, computed once per walk.  Its y axis is
    ``_axis(spec.transpose())``, kept on the twin."""
    return _per_walk(spec, "_axis", _axis_branch_data)


def branch_points(spec: WalkSpec) -> BranchPointReport:
    """Branch points of both discriminants, classified and with corners.

    The x-roots are the branch points of the algebraic function Y(x), the
    y-roots those of X(y).  For nonzero vertical drift exactly two x-roots
    lie inside and two outside the unit circle (infinity counts as
    outside); the sign patterns of each pair follow from comparing the
    straight-ahead probability with twice the geometric mean of its
    diagonal neighbors.  The corners are the points of the positive
    component where the two y-roots (or x-roots) collide.

    Each axis is computed once per walk and orientation: the y axis is
    the x axis of ``spec.transpose()``, so a walk and its transpose share
    their two axes, swapped.  The report is kept per WalkSpec too: the
    trace and the convexity sampler of one walk read the same one.
    """
    return _per_walk(spec, "_branch_points", _build_branch_points)


def _build_branch_points(spec: WalkSpec) -> BranchPointReport:
    return BranchPointReport(_axis(spec), _axis(spec.transpose()))


def _y_roots_on_interval(ker: KernelPoly, xs: np.ndarray):
    """Stable lower and upper y-roots of the kernel along an x-grid.

    Negative discriminant values within rounding of zero are clipped; the
    quadratic formula uses the sign trick to avoid cancellation.
    """
    A, B, C = y_quadratic(ker, xs)
    disc = B * B - 4.0 * A * C
    clip = 1e-13 * ker.scale**2 * np.maximum(1.0, xs) ** 4
    disc = np.where(disc > -clip, np.maximum(disc, 0.0), disc)
    valid = disc >= 0.0
    sq = np.sqrt(np.maximum(disc, 0.0))
    q = -0.5 * (B + np.where(B >= 0.0, 1.0, -1.0) * sq)

    tiny = 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(np.abs(A) > tiny, q / np.where(A == 0.0, 1.0, A), np.nan)
        r2 = np.where(np.abs(q) > tiny, C / np.where(q == 0.0, 1.0, q), np.nan)
    # Degree drops: A ~ 0 leaves the single root -C/B, q ~ 0 means C ~ 0
    # so y = 0 pairs with -B/A.
    linear = np.abs(A) <= 1e-14 * ker.scale * np.maximum(1.0, xs) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        lin_root = np.where(B != 0.0, -C / np.where(B == 0.0, 1.0, B), 0.0)
    r1 = np.where(linear, lin_root, r1)
    r2 = np.where(linear, lin_root, r2)
    both = np.isnan(r2) & ~np.isnan(r1)
    r2 = np.where(both, np.where(np.abs(A) > tiny, 0.0 * r1, r1), r2)
    r1 = np.where(np.isnan(r1), r2, r1)

    lower = np.minimum(r1, r2)
    upper = np.maximum(r1, r2)
    return lower, upper, valid


@dataclass(frozen=True, eq=False)
class QPlusTrace:
    """Ordered closed-loop sample of the positive curve component."""

    points: np.ndarray  # (N, 2)
    arcs: tuple[str, ...]  # per point: Q00 | Q10 | Q11 | Q01
    report: BranchPointReport

    def arc_points(self, name: str) -> np.ndarray:
        return self.points[np.asarray(self.arcs) == name]


def _trace_grid(x_l: float, x_r: float, n_points: int) -> np.ndarray:
    # Chebyshev clustering concentrates samples at the corners where the
    # two y-roots collide and the curve turns vertical.
    k = np.arange(n_points)
    theta = np.pi * (1.0 - k / (n_points - 1))
    xs = 0.5 * (x_l + x_r) + 0.5 * (x_r - x_l) * np.cos(theta)
    extra = [np.array([1.0])] if x_l < 1.0 < x_r else []
    # Square-law ladders refine the first and last base segments further.
    u = np.linspace(0.0, 1.0, 33)[1:-1] ** 2
    span = x_r - x_l
    first = x_l + (xs[1] - x_l) * u
    last = x_r - (x_r - xs[-2]) * u
    xs = np.concatenate([xs, first, last] + extra)
    xs = np.unique(np.clip(xs, x_l, x_r))
    if span > 0:
        keep = np.concatenate([[True], np.diff(xs) > 1e-15 * max(1.0, abs(x_r))])
        xs = xs[keep]
    return xs


def trace_qplus(spec: WalkSpec, n_points: int = 2048) -> QPlusTrace:
    """Trace the positive component of the kernel curve as a closed loop.

    Samples x between the two central branch points, takes both real
    y-roots, and orders the points along the loop starting at the left
    corner and running through the lower branch first.  Arc labels split
    the loop at the four corners: Q00 from the left corner down to the
    bottom corner, Q10 up to the right corner, Q11 on to the top corner
    and Q01 back to the left corner.

    Raises
    ------
    ValueError
        If n_points is below 2, too few to span the branch interval.
    EmptyComponent
        If no real points are found; the positive component of an ergodic
        nonsingular walk is never empty, so this signals a failure worth
        surfacing.
    """
    if n_points < 2:
        raise ValueError(f"n_points = {n_points} is too small, need n_points >= 2")
    report = branch_points(spec)
    ker = kernel(spec)
    x_l, x_r = report.x.low, report.x.high
    if not (math.isfinite(x_l) and math.isfinite(x_r)) or x_r <= x_l:
        raise EmptyComponent(f"degenerate branch interval [{x_l}, {x_r}]")

    xs = _trace_grid(x_l, x_r, n_points)
    lower, upper, valid = _y_roots_on_interval(ker, xs)
    if not valid.any():
        raise EmptyComponent("no real y-roots between the branch points")
    xs, lower, upper = xs[valid], lower[valid], upper[valid]

    residual_scale = ker.scale * (1.0 + xs**2)
    ok_low = np.abs(ker.value(xs, lower)) <= ONCURVE_TOL * residual_scale * (1.0 + lower**2)
    ok_up = np.abs(ker.value(xs, upper)) <= ONCURVE_TOL * residual_scale * (1.0 + upper**2)

    x_b, x_t = report.y.corner_low, report.y.corner_high

    x_low, x_up = xs[ok_low], xs[ok_up][::-1]
    n_low = x_low.size
    points = np.empty((n_low + x_up.size, 2))
    if not len(points):
        raise EmptyComponent("all sampled points failed the on-curve residual")
    points[:n_low, 0], points[:n_low, 1] = x_low, lower[ok_low]
    points[n_low:, 0], points[n_low:, 1] = x_up, upper[ok_up][::-1]
    # x_low ascends and x_up descends, so each arc is a run of the loop.
    n00, n11 = np.count_nonzero(x_low <= x_b), np.count_nonzero(x_up >= x_t)
    arcs = ("Q00",) * n00 + ("Q10",) * (n_low - n00) + ("Q11",) * n11 + ("Q01",) * (x_up.size - n11)
    return QPlusTrace(points, arcs, report)


def detect_singularity(spec: WalkSpec) -> Optional[tuple[float, float]]:
    """Self-intersection of the curve in the closed unit square, if any.

    The curve has one exactly when the walk takes no north, northeast or
    east interior steps, in which case both branches pass through the
    origin.  The symbolic support test is cross-checked numerically: Q and
    both partials must vanish at the reported point and the Hessian
    determinant must be negative (two real crossing branches, not an
    isolated point or a cusp).

    Raises
    ------
    InconsistentSingularity
        If the symbolic and numeric verdicts disagree, or the crossing
        fails the negative-Hessian test.
    """
    ker = kernel(spec)
    c = ker.c
    symbolic = eligible(spec)
    # Q(0,0) = c00, Qx(0,0) = c10, Qy(0,0) = c01.
    numeric = max(abs(c[0, 0]), abs(c[1, 0]), abs(c[0, 1])) <= 1e-12
    if symbolic != numeric:
        raise InconsistentSingularity(
            f"support test says {symbolic}, derivative test says {numeric}"
        )
    if not symbolic:
        return None
    hessian_det = 4.0 * c[2, 0] * c[0, 2] - c[1, 1] ** 2
    if not hessian_det < -1e-12:
        raise InconsistentSingularity(
            f"origin crossing is not a two-branch node: Hessian det {hessian_det}"
        )
    return (0.0, 0.0)


def boundary_h(spec: WalkSpec, x, y):
    """Horizontal-axis balance polynomial.

    ``boundary_h(rho, sigma) = 0`` says the geometric term ``rho^i sigma^j``
    satisfies the balance equation on the horizontal axis by itself.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = -x
    for s in (-1, 0, 1):
        total = total + x ** (1 - s) * (spec.h(s) + y * spec.p(s, -1))
    return total if np.ndim(total) else float(total)


def boundary_v(spec: WalkSpec, x, y):
    """Vertical-axis balance polynomial: boundary_h of the transposed walk."""
    return boundary_h(spec.transpose(), y, x)


@dataclass(frozen=True)
class Intersection:
    """A point of the positive curve component on one boundary polynomial."""

    x: float
    y: float
    which: str  # "H" | "V"

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "which": self.which}


U_MARGIN = 1e-9


def _h_zeros(spec: WalkSpec) -> list[tuple[float, float]]:
    """Distinct points of the curve with x between the branch points of
    the walk's x axis (``_axis(spec)``), inside the open unit square by
    ``U_MARGIN``, where the horizontal balance polynomial vanishes.

    ``boundary_h(x, y) = y D(x) - N(x)`` is linear in y, so substituting
    ``y = N / D`` into the kernel and clearing ``D^2`` leaves one
    polynomial in x of degree at most six whose real roots are the zeros.
    ``D > 0`` for ``x > 0`` on a nonsingular walk, so the division is safe
    once x is inside the square.
    """
    D = np.array([spec.p(1, -1), spec.p(0, -1), spec.p(-1, -1)])
    N = np.array([-spec.h(1), 1.0 - spec.h(0), -spec.h(-1)])
    powers = (np.convolve(D, D), np.convolve(N, D), np.convolve(N, N))
    c = kernel(spec).c
    R = sum(np.convolve(c[:, b], powers[b]) for b in range(3))
    roots, _ = real_roots(R)
    axis = _axis(spec)
    N, D = N.tolist(), D.tolist()
    zeros = []
    for x in roots:
        if not (axis.low <= x <= axis.high and U_MARGIN < x < 1.0 - U_MARGIN):
            continue
        y = _polyval(N, x) / _polyval(D, x)
        if U_MARGIN < y < 1.0 - U_MARGIN and not any(
            abs(x - x0) <= 1e-10 and abs(y - y0) <= 1e-10 for x0, y0 in zeros
        ):
            zeros.append((x, y))
    return zeros


def curve_boundary_intersections(spec: WalkSpec) -> list[Intersection]:
    """All boundary zeros on the positive curve component inside the open
    unit square, sorted by boundary and then by coordinates.

    The H zeros are the roots of one polynomial in x (see ``_h_zeros``);
    the V zeros are the H zeros of the transposed walk with coordinates
    swapped, bounded by its x axis, which is this walk's y axis.  The
    point (1, 1) always solves the interior balance but lies on the closed
    square's boundary, so it is excluded along with everything else within
    ``U_MARGIN`` of the unit square's edge.
    """
    twin = spec.transpose()
    # Both axes before either seed polynomial, so that a walk with no
    # real branch points on one axis raises ComplexRoots from there.
    for side in (spec, twin):
        _axis(side)
    found = [Intersection(x, y, "H") for x, y in _h_zeros(spec)]
    found += [Intersection(x, y, "V") for y, x in _h_zeros(twin)]
    found.sort(key=lambda p: (p.which, p.x, p.y))
    return found
