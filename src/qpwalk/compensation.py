"""Compensation construction of candidate invariant measures.

For walks that never step north, northeast or east in the interior, an
invariant measure can be built as an alternating series of geometric
terms.  A seed on the kernel curve that balances one axis by itself
generally unbalances the other axis; adding the companion root of the
kernel quadratic with a tuned coefficient cancels that error, at the
price of a new error on the first axis, and so on.  The coordinates
contract toward the origin, so the corrections shrink and the series
stabilizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .curve import (U_MARGIN, Intersection, KernelPoly, _companion, boundary_h,
                    curve_boundary_intersections, kernel)
from .errors import (
    DegenerateT,
    Diverged,
    EmptyComponent,
    IllConditioned,
    NotEligible,
    OffCurve,
    QpwalkError,
    StalledAtBranchPoint,
)
from .model import OFFSETS, WalkSpec, _per_walk, eligible
from .oracle import _grid_residuals, balance_residuals
from .terms import GammaSet, WeightedTerm, _merge_terms, _term_sum

SEED_RESIDUAL_TOL = 1e-10
SERIES_RESIDUAL_TOL = 1e-12
T_DEGENERACY_TOL = 1e-14
DIVERGENCE_GRACE = 4
# construct rebuilds its series at most this often: 1 to 3 times on the 17
# random walks whose series first stopped short of the gate, and all 4
# rounds, most adding no term, on 49 of 860 ergodic random eligible walks.
TIGHTEN_ROUNDS = 4

TermLike = Union[WeightedTerm, Sequence[float]]


def _coords(term: TermLike) -> tuple[float, float]:
    if isinstance(term, WeightedTerm):
        return term.rho, term.sigma
    if hasattr(term, "x") and hasattr(term, "y"):
        return float(term.x), float(term.y)
    rho, sigma = term
    return float(rho), float(sigma)


def _t_of(spec: WalkSpec) -> Callable[[float, float], float]:
    """The horizontal balance functional T of one walk as a function of
    (rho, sigma), kept per walk.  A weighted pair sharing rho balances the
    horizontal axis exactly when the T-weighted coefficients cancel."""
    return _per_walk(spec, "_t", _build_t)


def _build_t(spec: WalkSpec) -> Callable[[float, float], float]:
    """T for one walk, with its step constants read once: the two
    horizontal axis steps, the north mass and the three south steps."""
    east, west = spec.h(1), spec.h(-1)
    north = sum(spec.p(s, 1) for s in OFFSETS)
    south_w, south_0, south_e = (spec.p(s, -1) for s in OFFSETS)

    def t(rho: float, sigma: float) -> float:
        if not rho > 0.0:
            raise ValueError(
                f"T needs rho > 0 (sigma > 0 in the vertical form), got {rho}"
            )
        # rho^(-s) p(s, -1) in OFFSETS order; rho^1 and rho^0 p are exact.
        south = sum((rho * south_w, south_0, rho ** -1 * south_e))
        return (1.0 - 1.0 / rho) * east + (1.0 - rho) * west + north - sigma * south

    return t


def _ratio(T1: float, T2: float) -> float:
    """Coefficient multiplier of a rho-sharing pair with T values T1 and
    T2: alpha2 = ratio * alpha1 makes the pair balance the horizontal axis."""
    if abs(T2) < T_DEGENERACY_TOL:
        raise DegenerateT(f"balancing value {T2} vanishes at working precision")
    return -T1 / T2


@dataclass(frozen=True)
class CompensationSeries:
    """One alternating series produced by the compensation recursion."""

    terms: tuple[WeightedTerm, ...]
    links: tuple[str, ...]  # between consecutive terms: H-coupled | V-coupled
    tail_bound: float
    start: Intersection  # the seed; which is the axis it balances alone
    stopped: str  # converged | max-terms

    def to_dict(self) -> dict:
        return {
            "terms": [t.to_dict() for t in self.terms],
            "links": list(self.links),
            "tail_bound": self.tail_bound,
            "seed": {"point": [self.start.x, self.start.y], "boundary": self.start.which},
            "stopped": self.stopped,
        }


def _series_norm(alpha: float, x: float, y: float, prev_alpha: float) -> float:
    # Envelope of the new term plus the drift of |alpha|: both must settle
    # for the partial sums to stabilize, since |alpha| can tend to a
    # nonzero constant while the coordinates vanish.
    return abs(alpha) * max(x, y) + abs(abs(alpha) - abs(prev_alpha))


def _tail_estimate(norms: list[float]) -> float:
    if not norms:
        return 0.0
    if len(norms) == 1 or norms[-2] <= 0.0:
        return norms[-1]
    r = norms[-1] / norms[-2]
    r = min(max(r, 0.0), 0.95)
    return norms[-1] * r / (1.0 - r)


def _step(
    ker: KernelPoly, frame: tuple, x: float, y: float, alpha: float
) -> tuple[str, float, float, float]:
    """One compensation step from the term (x, y, alpha) of a series.

    ``frame`` is ``(kernel, T, swap)`` of the walk the step runs in: the
    walk itself for an H-coupled step, which keeps x, and its transposed
    twin, with ``swap`` set, for a V-coupled one, which keeps y.  The
    companion's coefficient makes the pair cancel that walk's horizontal
    sum; the new term must then lie on ``ker``, the walk's own kernel.

    Returns ``("ok", x, y, alpha)`` of the new term; ``("balanced", x, y,
    alpha)`` of the old term when the new coefficient vanishes, because
    the old term already balanced the axis alone; or the companion's
    status and raw root (in place of x) when there is no companion.
    """
    walk_ker, t, swap = frame
    keep, move = (y, x) if swap else (x, y)
    status, other = _companion(walk_ker, keep, move)
    if status != "ok":
        return status, other, y, alpha
    new_alpha = _ratio(t(keep, move), t(keep, other)) * alpha
    if new_alpha == 0.0:
        return "balanced", x, y, alpha
    x, y = (other, keep) if swap else (keep, other)
    residual = abs(ker.value(x, y)) / ker.scale
    if residual > SERIES_RESIDUAL_TOL:
        raise OffCurve(f"companion ({x}, {y}) drifted off the curve: {residual}")
    return "ok", x, y, new_alpha


def build_series(
    spec: WalkSpec,
    seed: TermLike,
    tol: float = 1e-12,
    max_terms: int = 200,
) -> CompensationSeries:
    """Run the compensation recursion from one boundary seed.

    The seed must lie on the kernel curve inside the open unit square and
    zero one boundary polynomial by itself.  Companions are then taken
    alternately in the direction opposite to the seeded boundary, each new
    coefficient chosen so the freshly coupled pair zeroes the other
    boundary sum.  The recursion stops once two consecutive stabilization
    norms fall below tol; a companion failure after at least one
    companion, with a below-tol tail estimate, also counts as convergence
    since the remaining terms cannot move the partial sums.

    The recursion is a loop of ``_step`` over the state (x, y, alpha,
    side) of the last term on Python floats; a ``WeightedTerm`` is made
    once per kept term.

    Raises
    ------
    ValueError
        If tol is not positive and finite, or max_terms is below 2: a
        series of the seed alone balances one axis only.
    NotEligible
        If the walk has a north, northeast or east interior step.
    OffCurve
        If the seed fails its curve or boundary residual.
    StalledAtBranchPoint
        If the seed has no companion, or a later companion is unavailable
        while the tail estimate still exceeds tol.
    Diverged
        If term coordinates grow again after the grace period.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance tol = {tol} must be positive and finite")
    if max_terms < 2:
        raise ValueError(f"max_terms = {max_terms} is too small, need max_terms >= 2")
    if not eligible(spec):
        raise NotEligible(
            "interior east/northeast/north probabilities must vanish: "
            f"p(1,0)={spec.p(1, 0)}, p(1,1)={spec.p(1, 1)}, p(0,1)={spec.p(0, 1)}"
        )
    rho0, sigma0 = _coords(seed)
    if not (
        U_MARGIN < rho0 < 1.0 - U_MARGIN and U_MARGIN < sigma0 < 1.0 - U_MARGIN
    ):
        raise OffCurve(f"seed ({rho0}, {sigma0}) is not inside the open unit square")
    ker = kernel(spec)
    if abs(ker.value(rho0, sigma0)) > SEED_RESIDUAL_TOL * ker.scale:
        raise OffCurve(f"seed ({rho0}, {sigma0}) is not on the kernel curve")
    twin = spec.transpose()
    res_h = abs(boundary_h(spec, rho0, sigma0))
    res_v = abs(boundary_h(twin, sigma0, rho0))
    if min(res_h, res_v) > SEED_RESIDUAL_TOL:
        raise OffCurve(
            f"seed balances neither axis: |H| = {res_h}, |V| = {res_v}"
        )
    seeded = "H" if res_h <= res_v else "V"
    start = Intersection(rho0, sigma0, seeded)

    terms = [WeightedTerm(rho0, sigma0, 1.0)]
    links: list[str] = []
    norms: list[float] = []
    # A V-seed balances the vertical axis, so the first correction must
    # repair the horizontal one: an H-coupled step keeps rho and cancels
    # bh_sum of the new pair.  The V-coupled step is the same step in the
    # walk's transposed twin.
    frames = ((kernel(spec), _t_of(spec), False), (kernel(twin), _t_of(twin), True))
    link_names = ("H-coupled", "V-coupled")
    x, y, alpha = rho0, sigma0, 1.0
    side = 0 if seeded == "V" else 1
    stopped = "max-terms"
    stalled: Optional[tuple[str, float]] = None

    while len(terms) < max_terms:
        status, nx, ny, new_alpha = _step(ker, frames[side], x, y, alpha)
        if status == "balanced":
            stopped = "converged"
            break
        if status != "ok":
            stalled = (status, nx)
            break
        terms.append(WeightedTerm(nx, ny, new_alpha))
        links.append(link_names[side])
        side = 1 - side
        norms.append(_series_norm(new_alpha, nx, ny, alpha))
        x, y, alpha = nx, ny, new_alpha

        k = len(terms) - 1
        if k > DIVERGENCE_GRACE:
            env_now = max(x, y)
            before = terms[k - 2]
            env_before = max(before.rho, before.sigma)
            if env_now > env_before * (1.0 + 1e-12):
                raise Diverged(
                    f"term envelope grew from {env_before} to {env_now} "
                    f"at step {k}"
                )
        if len(norms) >= 2 and norms[-1] < tol and norms[-2] < tol:
            stopped = "converged"
            break

    tail = _tail_estimate(norms)
    if stalled is not None:
        status, raw = stalled
        if not norms:
            # The series would be the seed alone, which balances only the
            # axis it was found on: no tail estimate can stand for the rest.
            raise StalledAtBranchPoint(
                f"the seed has no companion ({status}, raw root {raw})"
            )
        if tail > tol:
            raise StalledAtBranchPoint(
                f"companion unavailable ({status}, raw root {raw}) "
                f"with tail estimate {tail} > {tol}"
            )
        stopped = "converged"
    return CompensationSeries(tuple(terms), tuple(links), tail, start, stopped)


@dataclass(frozen=True)
class AssembledMeasure:
    """Superposition of series, normalized, with a balance summary."""

    gamma: GammaSet
    weights: tuple[float, ...]
    condition: float
    report: object  # VerificationReport over the assembly window
    window: int

    def to_dict(self) -> dict:
        return {
            "terms": [t.to_dict() for t in self.gamma.terms],
            "weights": list(self.weights),
            "condition": self.condition,
            "residual_summary": self.report.to_dict(),
            "window": self.window,
        }


def _folded_terms(series: CompensationSeries) -> list[WeightedTerm]:
    # Halving the final kept term evaluates the series in the Abel sense,
    # which is the canonical value when the plain partial sums oscillate.
    terms = list(series.terms)
    if len(terms) >= 2:
        last = terms[-1]
        terms[-1] = WeightedTerm(last.rho, last.sigma, 0.5 * last.alpha)
    return terms


def _corner_residuals(
    spec: WalkSpec, series_terms: Sequence[Sequence[WeightedTerm]]
) -> np.ndarray:
    """Raw balance residuals at the origin, (1, 0), (0, 1) and (1, 1), as
    four rows with one column per term list: the term sums on {0, 1, 2}
    squared, stacked, go through one ``_grid_residuals`` call."""
    idx = np.arange(3)
    grids = np.array([_term_sum(terms, idx[:, None], idx[None, :]) for terms in series_terms])
    interior, horiz, vert, origin = _grid_residuals(spec, grids, 1)
    return np.array([origin, horiz[:, 0], vert[:, 0], interior[:, 0, 0]])


def _mass(terms: Sequence[WeightedTerm]) -> float:
    return sum(t.alpha / ((1.0 - t.rho) * (1.0 - t.sigma)) for t in terms)


def assemble_measure(
    series_list: Sequence[CompensationSeries],
    spec: WalkSpec,
    window: int = 12,
) -> AssembledMeasure:
    """Superpose series with least-squares weights and normalize the mass.

    Each series enters with one scalar weight.  The weights minimize the
    residuals of the balance equations at the four corner states together
    with the unit-total-mass condition; the corner rows are homogeneous,
    so the mass row pins the overall scale and genuine redundancy between
    the series shows up as an ill-conditioned system rather than an
    arbitrary answer.  After the solve the weights are rescaled so the
    total mass is exactly one.

    Raises
    ------
    IllConditioned
        If the system's condition number exceeds 1e12 or the solved
        superposition carries no usable mass.
    """
    if not series_list:
        raise EmptyComponent("no series to assemble")
    folded = [_folded_terms(s) for s in series_list]
    k = len(folded)
    A = np.zeros((5, k))
    A[:4] = _corner_residuals(spec, folded)
    A[4] = [_mass(terms) for terms in folded]
    b = np.zeros(5)
    b[4] = 1.0

    singulars = np.linalg.svd(A, compute_uv=False)
    condition = float("inf") if singulars[-1] == 0.0 else float(
        singulars[0] / singulars[-1]
    )
    if condition > 1e12:
        raise IllConditioned(
            f"weight system condition number {condition:.3e} exceeds 1e12"
        )
    weights, *_ = np.linalg.lstsq(A, b, rcond=None)

    total = float(A[4] @ weights)
    if not abs(total) > 1e-12:
        raise IllConditioned(
            f"assembled superposition has vanishing total mass {total}"
        )
    weights = (weights / total).tolist()

    merged = _merge_terms(
        WeightedTerm(t.rho, t.sigma, w * t.alpha)
        for w, terms in zip(weights, folded)
        for t in terms
    )
    gamma = GammaSet(merged)

    report = balance_residuals(spec, gamma, window=window)
    return AssembledMeasure(
        gamma=gamma,
        weights=tuple(weights),
        condition=condition,
        report=report,
        window=window,
    )


def construct(spec: WalkSpec, tol: float = 1e-12, max_terms: int = 200, window: int = 12):
    """A walk's candidate measure: a series from every curve/boundary seed,
    superposed, and the series rebuilt until their tails fit ``tol``.

    Returns ``(seeds, series, failures, measure)``: ``failures`` holds a
    ``{"seed", "error", "message"}`` record for each seed whose series
    raised, and ``measure`` is None when no seed gives a series.

    ``build_series`` stops a series on its own unweighted norms, while the
    gate judges the weighted measure relative to its mass.  So while the
    weighted tail sum |w_k| * tail_bound_k of an assembly exceeds ``tol``
    times the least of m(0,0), m(1,0) and m(0,1), every series is rebuilt
    from its seed with its tolerance scaled by their ratio, at most
    ``TIGHTEN_ROUNDS`` times.  A seed whose rebuild raises keeps its last
    series, and the tightening stops there.
    """
    seeds = curve_boundary_intersections(spec)
    series, failures = [], []
    for inter in seeds:
        try:
            series.append(build_series(spec, (inter.x, inter.y), tol=tol, max_terms=max_terms))
        except QpwalkError as exc:
            failures.append({"seed": inter.to_dict(), "error": type(exc).__name__,
                             "message": str(exc)})
    if not series:
        return seeds, series, failures, None
    series_tol, stalled = tol, False
    assembled = assemble_measure(series, spec, window=window)
    for _ in range(TIGHTEN_ROUNDS):
        m = assembled.gamma.value
        budget = tol * min(m(0, 0), m(1, 0), m(0, 1))
        tail = sum(abs(w) * s.tail_bound for w, s in zip(assembled.weights, series))
        if stalled or not 0.0 < budget < tail:
            break
        series_tol *= budget / tail
        for k, s in enumerate(series):
            try:
                series[k] = build_series(spec, s.start, tol=series_tol, max_terms=max_terms)
            except QpwalkError:
                stalled = True
        assembled = assemble_measure(series, spec, window=window)
    return seeds, series, failures, assembled
