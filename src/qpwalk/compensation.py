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

from .curve import U_MARGIN, KernelPoly, boundary_h, boundary_v, kernel, y_quadratic
from .errors import (
    DegenerateT,
    Diverged,
    EmptyComponent,
    IllConditioned,
    MixedGroup,
    NotEligible,
    OffCurve,
    StalledAtBranchPoint,
)
from .model import OFFSETS, WalkSpec, eligible
from .oracle import _grid_residuals, balance_residuals
from .terms import GammaSet, WeightedTerm, _close, _merge_terms, _term_sum

SEED_RESIDUAL_TOL = 1e-10
SERIES_RESIDUAL_TOL = 1e-12
DOUBLE_TOL = 1e-12       # exits-u margin: a companion at or above 1 - this leaves U
T_DEGENERACY_TOL = 1e-14
DIVERGENCE_GRACE = 4
DOUBLE_ROOT_SEP = 1e-8

TermLike = Union[WeightedTerm, Sequence[float]]


def _coords(term: TermLike) -> tuple[float, float]:
    if isinstance(term, WeightedTerm):
        return term.rho, term.sigma
    if hasattr(term, "x") and hasattr(term, "y"):
        return float(term.x), float(term.y)
    rho, sigma = term
    return float(rho), float(sigma)


def t_value(term: TermLike, spec: WalkSpec) -> float:
    """Horizontal balance functional T of a point (rho, sigma).

    A weighted pair sharing rho balances the horizontal axis exactly when
    the T-weighted coefficients cancel; see coefficient_ratio_h.
    """
    return _t_function(spec)(term)


def _t_function(spec: WalkSpec) -> Callable[[TermLike], float]:
    """t_value for one walk, with its step constants read once: the two
    horizontal axis steps, the north mass and the three south steps."""
    east, west = spec.h(1), spec.h(-1)
    north = sum(spec.p(s, 1) for s in OFFSETS)
    south_steps = [(s, spec.p(s, -1)) for s in OFFSETS]

    def t(term: TermLike) -> float:
        rho, sigma = _coords(term)
        if not rho > 0.0:
            raise ValueError(
                f"t_value needs rho > 0 (sigma > 0 in the vertical form), got {rho}"
            )
        south = sum(rho ** (-s) * p for s, p in south_steps)
        return (1.0 - 1.0 / rho) * east + (1.0 - rho) * west + north - sigma * south

    return t


@dataclass(frozen=True)
class CompanionStatus:
    """Companion outcome with the reason when none exists."""

    term: Optional[WeightedTerm]
    status: str  # ok | double-root | nonpositive | exits-u
    value: float  # the raw other root, inf when the quadratic degenerates


def _other_root(A: float, B: float, C: float, known: float) -> float:
    scale = max(abs(A), abs(B), abs(C))
    if scale == 0.0:
        return math.nan
    if abs(A) <= 1e-14 * scale:
        return math.inf  # degree drop: the second root escapes to infinity
    prod = A * known
    if abs(prod) > 1e-14 * scale:
        other = C / prod
    else:
        disc = max(B * B - 4.0 * A * C, 0.0)
        sq = math.sqrt(disc)
        q = -0.5 * (B + math.copysign(sq, B))
        r1 = q / A
        r2 = C / q if q != 0.0 else 0.0
        other = r1 if abs(r1 - known) >= abs(r2 - known) else r2
    # One Newton step tightens the Vieta value to full precision.  Near a
    # double root the derivative collapses and the step would fling the
    # value half a root away, so polishing only runs when well posed.
    for _ in range(2):
        d = 2.0 * A * other + B
        if not math.isfinite(other) or abs(d) <= 1e-8 * max(
            abs(2.0 * A * other), abs(B)
        ):
            break
        other -= (A * other * other + B * other + C) / d
    return other


def companion_v_status(term: TermLike, spec: WalkSpec) -> CompanionStatus:
    """Other root of the kernel quadratic in y at the term's x-coordinate."""
    return _companion_v(term, kernel(spec))


def _companion_v(term: TermLike, ker: KernelPoly) -> CompanionStatus:
    """companion_v_status with the walk's kernel already built."""
    rho, sigma = _coords(term)
    if abs(ker.value(rho, sigma)) > SEED_RESIDUAL_TOL * ker.scale * max(
        1.0, rho * rho
    ) * max(1.0, sigma * sigma):
        raise OffCurve(f"({rho}, {sigma}) is not on the kernel curve")
    A, B, C = (float(v) for v in y_quadratic(ker, rho))
    other = _other_root(A, B, C, sigma)

    # Equality is judged at the scale of the roots themselves: deep in a
    # series both roots shrink toward zero and an absolute test would
    # misread every companion there as a double root.  The threshold is
    # sqrt(eps)-sized because root equality is only observable to the
    # square root of the coefficient accuracy: at an exact branch point
    # the computed roots still land about 1e-8 apart.
    if math.isfinite(other) and abs(other - sigma) <= DOUBLE_ROOT_SEP * max(
        abs(sigma), abs(other)
    ):
        return CompanionStatus(None, "double-root", other)
    if not math.isfinite(other) or other >= 1.0 - DOUBLE_TOL:
        return CompanionStatus(None, "exits-u", other)
    if other <= 0.0:
        return CompanionStatus(None, "nonpositive", other)
    alpha = term.alpha if isinstance(term, WeightedTerm) else 1.0
    return CompanionStatus(WeightedTerm(rho, other, alpha), "ok", other)


def companion_v(term: TermLike, spec: WalkSpec) -> Optional[WeightedTerm]:
    """Companion sharing rho, or None at double roots and outside (0, 1)."""
    return companion_v_status(term, spec).term


def _ratio(T1: float, T2: float) -> float:
    if abs(T2) < T_DEGENERACY_TOL:
        raise DegenerateT(f"balancing value {T2} vanishes at working precision")
    return -T1 / T2


def coefficient_ratio_h(
    pair: Sequence[TermLike], spec: WalkSpec
) -> float:
    """Coefficient multiplier that makes a rho-sharing pair balance the
    horizontal axis: alpha2 = ratio * alpha1 gives bh_sum = 0.

    A zero numerator means the first term balances the axis alone and the
    companion is not needed; the ratio is then 0.
    """
    return _coefficient_ratio(pair, _t_function(spec))


def _coefficient_ratio(
    pair: Sequence[TermLike], t: Callable[[TermLike], float]
) -> float:
    """coefficient_ratio_h with the walk's T already built."""
    t1, t2 = pair
    r1, _ = _coords(t1)
    r2, _ = _coords(t2)
    if not _close(r1, r2):
        raise MixedGroup(
            f"pair does not share rho (sigma in the vertical form): {r1} vs {r2}"
        )
    return _ratio(t(t1), t(t2))


@dataclass(frozen=True)
class SeriesStart:
    point: tuple[float, float]
    boundary: str  # H | V: the axis the seed balances alone

    def to_dict(self) -> dict:
        return {"point": list(self.point), "boundary": self.boundary}


@dataclass(frozen=True)
class CompensationSeries:
    """One alternating series produced by the compensation recursion."""

    terms: tuple[WeightedTerm, ...]
    links: tuple[str, ...]  # between consecutive terms: H-coupled | V-coupled
    tail_bound: float
    start: SeriesStart
    stopped: str  # converged | max-terms

    def gamma(self) -> GammaSet:
        return GammaSet(self.terms)

    def to_dict(self) -> dict:
        return {
            "terms": [t.to_dict() for t in self.terms],
            "links": list(self.links),
            "tail_bound": self.tail_bound,
            "seed": self.start.to_dict(),
            "stopped": self.stopped,
        }


def _series_norm(new: WeightedTerm, prev: WeightedTerm) -> float:
    # Envelope of the new term plus the drift of |alpha|: both must settle
    # for the partial sums to stabilize, since |alpha| can tend to a
    # nonzero constant while the coordinates vanish.
    return abs(new.alpha) * max(new.rho, new.sigma) + abs(
        abs(new.alpha) - abs(prev.alpha)
    )


def _tail_estimate(norms: list[float]) -> float:
    if not norms:
        return 0.0
    if len(norms) == 1 or norms[-2] <= 0.0:
        return norms[-1]
    r = norms[-1] / norms[-2]
    r = min(max(r, 0.0), 0.95)
    return norms[-1] * r / (1.0 - r)


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
    norms fall below tol; a companion failure with a below-tol tail
    estimate also counts as convergence since the remaining terms cannot
    move the partial sums.

    Raises
    ------
    ValueError
        If tol is not positive and finite.
    NotEligible
        If the walk has a north, northeast or east interior step.
    OffCurve
        If the seed fails its curve or boundary residual.
    StalledAtBranchPoint
        If a companion is unavailable while the tail estimate still
        exceeds tol.
    Diverged
        If term coordinates grow again after the grace period.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance tol = {tol} must be positive and finite")
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
    res_h = abs(boundary_h(spec, rho0, sigma0))
    res_v = abs(boundary_v(spec, rho0, sigma0))
    if min(res_h, res_v) > SEED_RESIDUAL_TOL:
        raise OffCurve(
            f"seed balances neither axis: |H| = {res_h}, |V| = {res_v}"
        )
    seeded = "H" if res_h <= res_v else "V"
    start = SeriesStart((rho0, sigma0), seeded)

    terms = [WeightedTerm(rho0, sigma0, 1.0)]
    links: list[str] = []
    norms: list[float] = []
    # A V-seed balances the vertical axis, so the first correction must
    # repair the horizontal one: companion_v keeps rho and the H-ratio
    # cancels bh_sum of the new pair.  The V-coupled step is the same step
    # in the transposed walk, reached by transposing the term on the way in
    # and out.  Each frame's kernel and T are built once here; the
    # transposed walk's kernel is the transpose of this one.
    frames = (
        (_t_function(spec), ker, "H-coupled", lambda t: t),
        (
            _t_function(spec.transpose()),
            KernelPoly(ker.c.T),
            "V-coupled",
            WeightedTerm.transpose,
        ),
    )
    side = 0 if seeded == "V" else 1
    stopped = "max-terms"
    stalled: Optional[CompanionStatus] = None

    while len(terms) < max_terms:
        prev = terms[-1]
        frame_t, frame_ker, link, mirror = frames[side]
        status = _companion_v(mirror(prev), frame_ker)
        if status.term is None:
            stalled = status
            break
        alpha = _coefficient_ratio((mirror(prev), status.term), frame_t) * prev.alpha
        if alpha == 0.0:
            # The previous term already balanced the axis alone; nothing
            # further to compensate.
            stopped = "converged"
            break
        new = mirror(WeightedTerm(status.term.rho, status.term.sigma, alpha))
        residual = abs(ker.value(new.rho, new.sigma)) / ker.scale
        if residual > SERIES_RESIDUAL_TOL:
            raise OffCurve(
                f"companion ({new.rho}, {new.sigma}) drifted off the curve: "
                f"{residual}"
            )
        terms.append(new)
        links.append(link)
        side = 1 - side
        norms.append(_series_norm(new, prev))

        k = len(terms) - 1
        if k > DIVERGENCE_GRACE:
            env_now = max(new.rho, new.sigma)
            env_before = max(terms[k - 2].rho, terms[k - 2].sigma)
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
        if tail <= tol:
            stopped = "converged"
        else:
            raise StalledAtBranchPoint(
                f"companion unavailable ({stalled.status}, raw root "
                f"{stalled.value}) with tail estimate {tail} > {tol}"
            )
    return CompensationSeries(tuple(terms), tuple(links), tail, start, stopped)


@dataclass(frozen=True)
class AssembledMeasure:
    """Superposition of series, normalized, with a balance summary."""

    gamma: GammaSet
    weights: tuple[float, ...]
    condition: float
    report: object  # VerificationReport over the assembly window
    window: int

    @property
    def max_residual(self) -> float:
        return self.report.worst

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


def _corner_residuals(spec: WalkSpec, terms: Sequence[WeightedTerm]) -> np.ndarray:
    """Raw balance residuals at the origin, (1, 0), (0, 1) and (1, 1)."""
    I, J = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    m = _term_sum(terms, I, J)
    interior, horiz, vert, origin = _grid_residuals(spec, m, 1)
    return np.array([origin, horiz[0], vert[0], interior[0, 0]])


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
    for col, terms in enumerate(folded):
        A[:4, col] = _corner_residuals(spec, terms)
        A[4, col] = _mass(terms)
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
    weights = weights / total

    merged = _merge_terms(
        WeightedTerm(t.rho, t.sigma, float(w) * t.alpha)
        for w, terms in zip(weights, folded)
        for t in terms
    )
    gamma = GammaSet(merged)

    report = balance_residuals(spec, gamma, window=window)
    return AssembledMeasure(
        gamma=gamma,
        weights=tuple(float(w) for w in weights),
        condition=condition,
        report=report,
        window=window,
    )
