"""Reference bodies for the construct path's scalar and term-set code.

These are the numpy, per-object and all-pairs forms that the shipped code
replaced: kernel arithmetic on 0-d arrays, ``numpy.polynomial``
evaluation, real roots polished through all 60 Newton steps, a pairwise
duplicate scan, a pairwise merge of assembled terms, classes from every
pair of terms, term sums added one term at a time, the boundary
polynomial on 0-d arrays, the compensation loop that calls
``companion_v_status`` and ``coefficient_ratio_h`` per step through mirror
frames, the balance residuals of one grid added one shifted slice at a
time on meshgrids, and the corner residuals of one series at a time.  The
shipped code must give their bytes.  Each function keeps the name and
signature of what it stands in for, so a test can monkeypatch it in.
``t_value``, ``companion_v_status`` and ``coefficient_ratio_h`` are the
per-term forms of the series' private T, companion and ratio bodies.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from qpwalk.compensation import (
    DIVERGENCE_GRACE,
    SEED_RESIDUAL_TOL,
    SERIES_RESIDUAL_TOL,
    CompensationSeries,
    _coords,
    _ratio,
    _tail_estimate,
)
from qpwalk.curve import DEGREE_DROP_TOL, DOUBLE_ROOT_SEP, U_MARGIN, Intersection, kernel
from qpwalk.errors import (
    ComplexRoots,
    Diverged,
    EmptyComponent,
    MixedGroup,
    NotEligible,
    OffCurve,
    StalledAtBranchPoint,
)
from qpwalk.model import OFFSETS, eligible
from qpwalk.oracle import VerificationReport
from qpwalk.terms import PartitionResult, WeightedTerm, _close


def kernel_value(self, x, y):
    """``KernelPoly.value`` on numpy arrays and 0-d arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = np.zeros(np.broadcast(x, y).shape)
    for a in range(3):
        for b in range(3):
            total += self.c[a, b] * x**a * y**b
    return total if total.shape else float(total)


def y_quadratic(ker, x):
    x = np.asarray(x, dtype=float)
    c = ker.c
    A = c[0, 2] + x * (c[1, 2] + x * c[2, 2])
    B = c[0, 1] + x * (c[1, 1] + x * c[2, 1])
    C = c[0, 0] + x * (c[1, 0] + x * c[2, 0])
    return A, B, C


def polyval(coeffs, x: float) -> float:
    return float(npoly.polyval(x, coeffs))


def real_roots(coeffs, steps=None):
    """``curve.real_roots`` with ``numpy.polynomial``'s derivative and no
    cycle test: a root whose Newton iterates cycle runs all 60 steps.
    The step count of each candidate is appended to ``steps`` if given."""
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
    poly = coeffs[: deg + 1]
    deriv = npoly.polyder(poly)
    roots = []
    for z in np.linalg.eigvals(companion):
        if abs(z.imag) > 1e-5 * max(1.0, abs(z)):
            continue
        r = float(z.real)
        for k in range(60):
            fr = polyval(poly, r)
            dr = polyval(deriv, r)
            if dr == 0.0:
                break
            step = fr / dr
            if abs(step) > 1.0 + abs(r):
                break
            r -= step
            if abs(step) <= 1e-16 * max(1.0, abs(r)):
                break
        if steps is not None:
            steps.append(k + 1)
        if abs(polyval(poly, r)) <= 1e-9 * scale * max(1.0, abs(r)) ** deg:
            roots.append(r)
    roots.sort()
    return roots, n_inf


def gamma_init(self, terms):
    """``GammaSet.__init__`` with every earlier term scanned for duplicates."""
    terms = tuple(terms)
    if not terms:
        raise EmptyComponent("a term set needs at least one term")
    seen = []
    for t in terms:
        if not all(map(math.isfinite, (t.rho, t.sigma, t.alpha))):
            raise ValueError(f"non-finite term ({t.rho}, {t.sigma}, {t.alpha})")
        if not (t.rho > 0.0 and t.sigma > 0.0):
            raise ValueError(f"nonpositive coordinates ({t.rho}, {t.sigma})")
        if t.alpha == 0.0:
            raise ValueError(f"zero coefficient at ({t.rho}, {t.sigma})")
        for r, s in seen:
            if _close(t.rho, r) and _close(t.sigma, s):
                raise ValueError(f"duplicate coordinates ({t.rho}, {t.sigma})")
        seen.append((t.rho, t.sigma))
    object.__setattr__(self, "terms", terms)


def merge_terms(terms):
    """``_merge_terms`` as the pairwise loop of ``assemble_measure``."""
    merged = []
    for t in terms:
        for idx, seen in enumerate(merged):
            if (
                abs(seen.rho - t.rho) <= 1e-9 * max(seen.rho, t.rho)
                and abs(seen.sigma - t.sigma) <= 1e-9 * max(seen.sigma, t.sigma)
            ):
                merged[idx] = WeightedTerm(seen.rho, seen.sigma, seen.alpha + t.alpha)
                break
        else:
            merged.append(WeightedTerm(t.rho, t.sigma, t.alpha))
    return [t for t in merged if t.alpha != 0.0]


def _merge_classes(n, linked):
    """Classes of {0..n-1} under ``linked``, tested on every pair."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if linked(i, j):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for _, g in sorted(groups.items()))


def maximal_partitions(g):
    terms, n = g.terms, len(g.terms)

    def same_rho(i, j):
        return _close(terms[i].rho, terms[j].rho)

    def same_sigma(i, j):
        return _close(terms[i].sigma, terms[j].sigma)

    return PartitionResult(
        h_groups=_merge_classes(n, same_rho),
        v_groups=_merge_classes(n, same_sigma),
        g_groups=_merge_classes(n, lambda i, j: same_rho(i, j) or same_sigma(i, j)),
    )


def term_sum(terms, i, j):
    """``_term_sum`` as one ``+=`` per term."""
    i = np.asarray(i)
    j = np.asarray(j)
    total = np.zeros(np.broadcast(i, j).shape)
    for t in terms:
        total += t.alpha * t.rho ** np.asarray(i) * t.sigma ** np.asarray(j)
    return total


def boundary_h(spec, x, y):
    """``curve.boundary_h`` on 0-d arrays, with numpy's powers."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = -x
    for s in (-1, 0, 1):
        total = total + x ** (1 - s) * (spec.h(s) + y * spec.p(s, -1))
    return total if np.ndim(total) else float(total)


def t_value(term, spec):
    """T of ``compensation._t_of`` on a term, south steps added by ``sum``."""
    east, west = spec.h(1), spec.h(-1)
    north = sum(spec.p(s, 1) for s in OFFSETS)
    south_steps = [(s, spec.p(s, -1)) for s in OFFSETS]
    rho, sigma = _coords(term)
    if not rho > 0.0:
        raise ValueError(
            f"t_value needs rho > 0 (sigma > 0 in the vertical form), got {rho}"
        )
    south = sum(rho ** (-s) * p for s, p in south_steps)
    return (1.0 - 1.0 / rho) * east + (1.0 - rho) * west + north - sigma * south


def other_root(A, B, C, known):
    scale = max(abs(A), abs(B), abs(C))
    if scale == 0.0:
        return math.nan
    if abs(A) <= 1e-14 * scale:
        return math.inf
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
    for _ in range(2):
        d = 2.0 * A * other + B
        if not math.isfinite(other) or abs(d) <= 1e-8 * max(
            abs(2.0 * A * other), abs(B)
        ):
            break
        other -= (A * other * other + B * other + C) / d
    return other


@dataclass(frozen=True)
class CompanionStatus:
    """Companion outcome with the reason when none exists."""

    term: Optional[WeightedTerm]
    status: str  # ok | double-root | nonpositive | exits-u
    value: float  # the raw other root, inf when the quadratic degenerates


def companion_v_status(term, spec):
    """``curve._companion`` on a term, after a check that it is on the
    curve; ``.term`` is the companion with the term's coefficient."""
    ker = kernel(spec)
    rho, sigma = _coords(term)
    if abs(ker.value(rho, sigma)) > SEED_RESIDUAL_TOL * ker.scale * max(
        1.0, rho * rho
    ) * max(1.0, sigma * sigma):
        raise OffCurve(f"({rho}, {sigma}) is not on the kernel curve")
    A, B, C = (float(v) for v in y_quadratic(ker, rho))
    other = other_root(A, B, C, sigma)
    if math.isfinite(other) and abs(other - sigma) <= DOUBLE_ROOT_SEP * max(
        abs(sigma), abs(other)
    ):
        return CompanionStatus(None, "double-root", other)
    if not math.isfinite(other) or other >= 1.0 - U_MARGIN:
        return CompanionStatus(None, "exits-u", other)
    if other <= 0.0:
        return CompanionStatus(None, "nonpositive", other)
    alpha = term.alpha if isinstance(term, WeightedTerm) else 1.0
    return CompanionStatus(WeightedTerm(rho, other, alpha), "ok", other)


def coefficient_ratio_h(pair, spec):
    """``compensation._ratio`` of the T values of a rho-sharing pair."""
    t1, t2 = pair
    r1, _ = _coords(t1)
    r2, _ = _coords(t2)
    if not _close(r1, r2):
        raise MixedGroup(
            f"pair does not share rho (sigma in the vertical form): {r1} vs {r2}"
        )
    return _ratio(t_value(t1, spec), t_value(t2, spec))


def series_norm(new, prev):
    return abs(new.alpha) * max(new.rho, new.sigma) + abs(
        abs(new.alpha) - abs(prev.alpha)
    )


def build_series(spec, seed, tol=1e-12, max_terms=200):
    """``compensation.build_series`` as a loop over term objects: one
    ``companion_v_status`` and one ``coefficient_ratio_h`` per step, the
    V-coupled step reached by transposing the term on the way in and out."""
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
    res_v = abs(boundary_h(spec.transpose(), sigma0, rho0))
    if min(res_h, res_v) > SEED_RESIDUAL_TOL:
        raise OffCurve(
            f"seed balances neither axis: |H| = {res_h}, |V| = {res_v}"
        )
    seeded = "H" if res_h <= res_v else "V"
    start = Intersection(rho0, sigma0, seeded)

    terms = [WeightedTerm(rho0, sigma0, 1.0)]
    links = []
    norms = []
    frames = (
        (spec, "H-coupled", lambda t: t),
        (spec.transpose(), "V-coupled", WeightedTerm.transpose),
    )
    side = 0 if seeded == "V" else 1
    stopped = "max-terms"
    stalled: Optional[CompanionStatus] = None

    while len(terms) < max_terms:
        prev = terms[-1]
        walk, link, mirror = frames[side]
        status = companion_v_status(mirror(prev), walk)
        if status.term is None:
            stalled = status
            break
        alpha = coefficient_ratio_h((mirror(prev), status.term), walk) * prev.alpha
        if alpha == 0.0:
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
        norms.append(series_norm(new, prev))

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
        if not norms:
            raise StalledAtBranchPoint(
                f"the seed has no companion ({stalled.status}, raw root "
                f"{stalled.value})"
            )
        if tail > tol:
            raise StalledAtBranchPoint(
                f"companion unavailable ({stalled.status}, raw root "
                f"{stalled.value}) with tail estimate {tail} > {tol}"
            )
        stopped = "converged"
    return CompensationSeries(tuple(terms), tuple(links), tail, start, stopped)


def grid_residuals(spec, m, window):
    """``oracle._grid_residuals`` of one grid, one shifted slice at a time."""
    W = window
    if W < 1:
        raise ValueError(f"window {W} is too small, need window >= 1")
    if m.shape[0] < W + 2 or m.shape[1] < W + 2:
        raise ValueError(f"grid {m.shape} too small for window {W}")

    inflow = np.zeros((W, W))
    for s in OFFSETS:
        for t in OFFSETS:
            inflow += spec.p(s, t) * m[1 - s : W + 1 - s, 1 - t : W + 1 - t]

    def horizontal(spec, m):
        inflow_h = np.zeros(W)
        for s in OFFSETS:
            inflow_h += spec.h(s) * m[1 - s : W + 1 - s, 0]
            inflow_h += spec.p(s, -1) * m[1 - s : W + 1 - s, 1]
        return m[1 : W + 1, 0] - inflow_h

    stay = 1.0 - spec.h(1) - spec.v(1) - spec.p(1, 1)
    inflow_o = (
        m[0, 0] * stay
        + m[1, 0] * spec.h(-1)
        + m[0, 1] * spec.v(-1)
        + m[1, 1] * spec.p(-1, -1)
    )
    return (
        m[1 : W + 1, 1 : W + 1] - inflow,
        horizontal(spec, m),
        horizontal(spec.transpose(), m.T),
        m[0, 0] - inflow_o,
    )


def _relative(residual, mass):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.abs(residual) / np.abs(mass)
    return np.where(np.isnan(out), 0.0, out)


def grid_residual_report(spec, m, window):
    W = window
    interior, horiz, vert, origin = grid_residuals(spec, m, W)
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


def balance_residuals(spec, g, window=12):
    idx = np.arange(window + 2)
    I, J = np.meshgrid(idx, idx, indexing="ij")
    return grid_residual_report(spec, term_sum(g.terms, I, J), window)


def compare(g, oracle, core):
    if oracle.n - core < 10:
        raise ValueError(
            f"core {core} too close to truncation {oracle.n}, need margin >= 10"
        )
    if core < 1:
        raise ValueError(f"core {core} of truncation {oracle.n} is below 1, need n >= 11")
    pi = oracle.core(core)
    idx = np.arange(core + 1)
    I, J = np.meshgrid(idx, idx, indexing="ij")
    m = term_sum(g.terms, I, J)
    m = m / m.sum()
    mask = pi >= 1e-13
    return float(np.abs((m[mask] - pi[mask]) / pi[mask]).max())


def corner_residuals(spec, series_terms):
    """``compensation._corner_residuals``, one meshgrid and one grid per series."""
    rows = []
    for terms in series_terms:
        I, J = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
        m = term_sum(terms, I, J)
        interior, horiz, vert, origin = grid_residuals(spec, m, 1)
        rows.append([origin, horiz[0], vert[0], interior[0, 0]])
    return np.array(rows).T


def patch_all(monkeypatch):
    """Swap every reference body into the package."""
    from qpwalk import cli, compensation, curve, oracle, terms

    monkeypatch.setattr(curve.KernelPoly, "value", kernel_value)
    monkeypatch.setattr(curve, "y_quadratic", y_quadratic)
    monkeypatch.setattr(curve, "_polyval", polyval)
    monkeypatch.setattr(curve, "real_roots", real_roots)
    monkeypatch.setattr(terms.GammaSet, "__init__", gamma_init)
    monkeypatch.setattr(compensation, "_merge_terms", merge_terms)
    monkeypatch.setattr(compensation, "_term_sum", term_sum)
    monkeypatch.setattr(terms, "_term_sum", term_sum)
    monkeypatch.setattr(terms, "maximal_partitions", maximal_partitions)
    monkeypatch.setattr(cli, "maximal_partitions", maximal_partitions)
    monkeypatch.setattr(compensation, "build_series", build_series)
    monkeypatch.setattr(compensation, "_corner_residuals", corner_residuals)
    for module in (oracle, compensation):
        monkeypatch.setattr(module, "_grid_residuals", grid_residuals)
    monkeypatch.setattr(oracle, "grid_residual_report", grid_residual_report)
    for module in (oracle, compensation, cli):
        monkeypatch.setattr(module, "balance_residuals", balance_residuals)
    monkeypatch.setattr(cli, "compare", compare)
