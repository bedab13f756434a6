"""Weighted geometric terms, grouping, and necessary conditions.

A candidate invariant measure is a finite or countable sum

    m(i, j) = sum_k alpha_k rho_k^i sigma_k^j.

Objects here carry such sums, partition them into groups sharing a
coordinate, evaluate the boundary balance of each group, and test the
structural conditions any genuinely infinite sum of geometrics must meet.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .curve import ONCURVE_TOL, U_MARGIN, KernelPoly, boundary_h, kernel
from .errors import EmptyComponent, MixedGroup
from .model import WalkSpec

COUPLE_TOL = 1e-9  # relative tolerance for two coordinates counting as equal


def _close(a: float, b: float) -> bool:
    """Whether two coordinates count as one: the coupling rule of a term set."""
    return abs(a - b) <= COUPLE_TOL * max(abs(a), abs(b))


class _RhoIndex:
    """Items kept sorted by a rho, found by a window around another rho.

    For positive values ``_close(a, b)`` bounds b to ``[a (1 - COUPLE_TOL),
    a / (1 - COUPLE_TOL)]``; ``near`` returns every item whose rho lies in
    that window widened by a relative 1e-12, so rounding cannot drop one,
    and callers apply ``_close`` to what it returns.
    """

    def __init__(self):
        self.rhos: list[float] = []
        self.items: list = []

    def add(self, rho: float, item) -> None:
        k = bisect_right(self.rhos, rho)
        self.rhos.insert(k, rho)
        self.items.insert(k, item)

    def near(self, rho: float) -> list:
        slack = 1.0 + 1e-12
        lo = rho * (1.0 - COUPLE_TOL) / slack
        hi = rho / (1.0 - COUPLE_TOL) * slack
        return self.items[bisect_left(self.rhos, lo) : bisect_right(self.rhos, hi)]


@dataclass(frozen=True)
class WeightedTerm:
    """One geometric term ``alpha * rho^i * sigma^j``."""

    rho: float
    sigma: float
    alpha: float = 1.0

    def value(self, i, j):
        return self.alpha * self.rho ** np.asarray(i) * self.sigma ** np.asarray(j)

    def transpose(self) -> "WeightedTerm":
        """The same term for the walk with its coordinates exchanged."""
        return WeightedTerm(self.sigma, self.rho, self.alpha)

    def to_dict(self) -> dict:
        return {"rho": self.rho, "sigma": self.sigma, "alpha": self.alpha}

    @classmethod
    def from_dict(cls, data: dict) -> "WeightedTerm":
        return cls(float(data["rho"]), float(data["sigma"]), float(data.get("alpha", 1.0)))


def _term_sum(terms: Sequence[WeightedTerm], i, j):
    """``sum_k alpha_k rho_k^i sigma_k^j`` on (arrays of) lattice points.

    Every term is evaluated in one broadcast; the rows are then added in
    term order, as repeated ``+=`` would add them (``np.sum`` would pair
    them and round differently).
    """
    i = np.asarray(i)
    j = np.asarray(j)
    shape = (-1,) + (1,) * max(i.ndim, j.ndim)
    alpha, rho, sigma = (
        np.array(v, dtype=float).reshape(shape)
        for v in zip(*((t.alpha, t.rho, t.sigma) for t in terms))
    )
    rows = alpha * rho**i * sigma**j
    total = np.zeros(rows.shape[1:])
    for row in rows:
        total += row
    return total


def _merge_terms(terms: Iterable[WeightedTerm]) -> list:
    """Terms with coordinates within ``COUPLE_TOL`` of an earlier term's
    folded into it, coefficients added, in order of first appearance.

    A term joins the earliest kept term whose rho and sigma are both close
    to its own; terms whose coefficients cancel exactly are dropped.
    """
    merged: list[WeightedTerm] = []
    index = _RhoIndex()
    for t in terms:
        hits = [
            k for k in index.near(t.rho)
            if _close(merged[k].rho, t.rho) and _close(merged[k].sigma, t.sigma)
        ]
        if hits:
            k = min(hits)
            seen = merged[k]
            merged[k] = WeightedTerm(seen.rho, seen.sigma, seen.alpha + t.alpha)
        else:
            index.add(t.rho, len(merged))
            merged.append(t)
    return [t for t in merged if t.alpha != 0.0]


@dataclass(frozen=True)
class GammaSet:
    """A finite collection of weighted terms.

    Coordinates must be positive, coefficients nonzero, and no two terms
    may agree in both coordinates to within ``COUPLE_TOL``.  The duplicate
    check bisects a rho-sorted index of the earlier terms instead of
    scanning them all, and rejects exactly the sets such a scan would, at
    the same term and with the same message.
    """

    terms: tuple[WeightedTerm, ...]

    def __init__(self, terms: Iterable[WeightedTerm]):
        terms = tuple(terms)
        if not terms:
            raise EmptyComponent("a term set needs at least one term")
        seen = _RhoIndex()
        for t in terms:
            if not (t.rho > 0.0 and t.sigma > 0.0):
                raise ValueError(f"nonpositive coordinates ({t.rho}, {t.sigma})")
            if t.alpha == 0.0:
                raise ValueError(f"zero coefficient at ({t.rho}, {t.sigma})")
            for r, s in seen.near(t.rho):
                if _close(t.rho, r) and _close(t.sigma, s):
                    raise ValueError(f"duplicate coordinates ({t.rho}, {t.sigma})")
            seen.add(t.rho, (t.rho, t.sigma))
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def value(self, i, j):
        """Evaluate the sum on (arrays of) lattice points; see ``_term_sum``."""
        total = _term_sum(self.terms, i, j)
        return total if total.shape else float(total)

    def norm(self) -> float:
        """Sum of absolute term masses over the quarter plane.

        Finite only when every coordinate is below 1; terms on or above 1
        contribute infinity.
        """
        total = 0.0
        for t in self.terms:
            if t.rho >= 1.0 or t.sigma >= 1.0:
                return float("inf")
            total += abs(t.alpha) / ((1.0 - t.rho) * (1.0 - t.sigma))
        return total

    def to_dict(self) -> dict:
        return {"terms": [t.to_dict() for t in self.terms]}

    @classmethod
    def from_dict(cls, data) -> "GammaSet":
        """A term set from ``{"terms": [...]}``, ignoring other keys, or
        from a bare list of terms."""
        items = data["terms"] if isinstance(data, dict) else data
        return cls(WeightedTerm.from_dict(d) for d in items)


@dataclass(frozen=True)
class PartitionResult:
    """Maximal groupings of a term set by shared coordinates."""

    h_groups: tuple[tuple[int, ...], ...]
    v_groups: tuple[tuple[int, ...], ...]
    g_groups: tuple[tuple[int, ...], ...]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.h_groups), len(self.v_groups), len(self.g_groups))

    def to_dict(self) -> dict:
        return {
            "h_groups": [list(g) for g in self.h_groups],
            "v_groups": [list(g) for g in self.v_groups],
            "g_groups": [list(g) for g in self.g_groups],
            "counts": list(self.counts),
        }


def _merge_classes(n: int, links) -> tuple[tuple[int, ...], ...]:
    """Partition {0..n-1} into the classes that the ``links`` pairs generate,
    each class ascending and the classes ordered by their least member."""
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in links:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for _, g in sorted(groups.items()))


def _neighbour_links(values: Sequence[float]) -> list[tuple[int, int]]:
    """Pairs of indexes adjacent in sorted order whose values are close.

    For positive a <= b <= c, ``_close(a, c)`` implies ``_close(a, b)`` and
    ``_close(b, c)``, so these pairs generate the same classes as all close
    pairs do.
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    return [(i, j) for i, j in zip(order, order[1:]) if _close(values[i], values[j])]


def maximal_partitions(g: GammaSet) -> PartitionResult:
    """Finest partitions of the terms by shared rho, shared sigma, and by
    the transitive closure of sharing either coordinate.

    Finest valid equals classes of the closure relation: equal coordinates
    force two terms into one part, so every valid partition coarsens the
    closure classes, and the classes themselves are valid.  Maximal part
    count therefore means exactly these classes.
    """
    n = len(g.terms)
    same_rho = _neighbour_links([t.rho for t in g.terms])
    same_sigma = _neighbour_links([t.sigma for t in g.terms])
    return PartitionResult(
        h_groups=_merge_classes(n, same_rho),
        v_groups=_merge_classes(n, same_sigma),
        g_groups=_merge_classes(n, same_rho + same_sigma),
    )


def _bh_terms(terms: Sequence[WeightedTerm], spec: WalkSpec) -> float:
    if not terms:
        raise MixedGroup("empty group")
    rho = terms[0].rho
    for t in terms[1:]:
        if not _close(t.rho, rho):
            raise MixedGroup(
                f"shared coordinates {rho} and {t.rho} differ beyond tolerance"
            )
    return float(sum(t.alpha * boundary_h(spec, t.rho, t.sigma) for t in terms))


def bh_sum(g: GammaSet, group: Sequence[int], spec: WalkSpec) -> float:
    """Horizontal boundary balance of a group sharing one rho.

    Each term contributes ``alpha * boundary_h(rho, sigma)``; a vanishing
    sum means the group jointly satisfies the horizontal-axis balance.

    Raises
    ------
    MixedGroup
        If the group members do not all share the same rho.
    """
    return _bh_terms([g.terms[i] for i in group], spec)


def bv_sum(g: GammaSet, group: Sequence[int], spec: WalkSpec) -> float:
    """Vertical boundary balance of a group sharing one sigma: bh_sum of
    the transposed terms in the transposed walk."""
    terms = [g.terms[i].transpose() for i in group]
    return _bh_terms(terms, spec.transpose())


@dataclass(frozen=True)
class OnCurveReport:
    residuals: tuple[float, ...]
    in_u: tuple[bool, ...]
    all_on_curve: bool
    all_in_u: bool


def check_on_curve(g: GammaSet, spec: WalkSpec) -> OnCurveReport:
    """Kernel residual and open-unit-square membership of every term; a
    term is on the curve when its scaled residual is at most ``ONCURVE_TOL``.

    Membership needs a safety margin only at the upper edge, where a
    coordinate within rounding of 1 would make the term non-normalizable;
    arbitrarily small positive coordinates are fine, series accumulate at
    the origin by design.
    """
    ker = kernel(spec)
    residuals = []
    in_u = []
    for t in g.terms:
        scaled = abs(ker.value(t.rho, t.sigma)) / ker.scale
        residuals.append(float(scaled))
        in_u.append(
            0.0 < t.rho < 1.0 - U_MARGIN and 0.0 < t.sigma < 1.0 - U_MARGIN
        )
    return OnCurveReport(
        tuple(residuals),
        tuple(in_u),
        all(r <= ONCURVE_TOL for r in residuals),
        all(in_u),
    )


def separating_exponent(
    g: GammaSet, i: int, bound: int = 64
) -> Optional[tuple[int, int]]:
    """Lexicographically smallest ``(w, v)`` with ``rho_i^w sigma_i^v``
    strictly largest among all terms, or None within the bound.

    A singleton set needs no separation, so (1, 1) works trivially.
    Products are compared in logs with a relative guard so ties are never
    resolved by rounding luck.
    """
    terms = g.terms
    target = terms[i]
    others = [t for k, t in enumerate(terms) if k != i]
    if not others:
        return (1, 1)
    lt = (np.log(target.rho), np.log(target.sigma))
    lo = [(np.log(t.rho), np.log(t.sigma)) for t in others]
    for w in range(1, bound + 1):
        for v in range(1, bound + 1):
            mine = w * lt[0] + v * lt[1]
            cut = max(abs(mine), 1.0) * COUPLE_TOL
            if all(mine > w * a + v * b + cut for a, b in lo):
                return (w, v)
    return None


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structural tests for an infinite-geometric measure."""

    on_curve: Optional[bool]
    in_u: Optional[bool]
    extendable: Optional[bool]
    trend: Optional[bool]
    witnesses: dict = field(default_factory=dict)

    @property
    def verdicts(self) -> dict:
        return {
            "on_curve": self.on_curve,
            "in_u": self.in_u,
            "extendable": self.extendable,
            "trend": self.trend,
        }

    @property
    def passed(self) -> Optional[bool]:
        vals = [v for v in self.verdicts.values() if v is not None]
        if not vals:
            return None
        return all(vals)

    def to_dict(self) -> dict:
        return {"verdicts": self.verdicts, "passed": self.passed, **self.witnesses}


def necessary_conditions(
    spec: WalkSpec, g: GammaSet, claims_infinite: bool = True
) -> ConditionReport:
    """Test the conditions a countably infinite sum of geometric terms
    must satisfy to be an invariant measure.

    Four verdicts, every one necessary:

    * ``on_curve``: each term lies on the kernel curve.
    * ``in_u``: each term lies in the open unit square.
    * ``extendable``: from each term the coupled companion construction
      can continue along at least one boundary, so the set cannot be a
      dead end of the compensation recursion.
    * ``trend``: coordinates approach the origin; the smallest term
      envelope is well below the largest, which a convergent infinite sum
      forces.

    With ``claims_infinite`` false only the first two apply; the others
    report None.
    """
    from .compensation import _companion_v  # compensation imports this module

    curve_report = check_on_curve(g, spec)
    witnesses: dict = {
        "residuals": list(curve_report.residuals),
        "in_u_flags": list(curve_report.in_u),
    }
    on_curve = curve_report.all_on_curve
    in_u = curve_report.all_in_u

    if not claims_infinite:
        return ConditionReport(on_curve, in_u, None, None, witnesses)

    extendable: Optional[bool] = None
    if on_curve and in_u:
        blocked = []
        ker = kernel(spec)
        ker_t = KernelPoly(ker.c.T)  # the kernel of the transposed walk
        for idx, t in enumerate(g.terms):
            # the H companion is the V companion on the transposed walk
            h_st = _companion_v(t.transpose(), ker_t)
            v_st = _companion_v(t, ker)
            if h_st.term is None and v_st.term is None:
                blocked.append({"index": idx, "h": h_st.status, "v": v_st.status})
        witnesses["blocked"] = blocked
        extendable = not blocked
    else:
        witnesses["blocked"] = None

    envelopes = [max(t.rho, t.sigma) for t in g.terms]
    trend = min(envelopes) <= 0.5 * max(envelopes) or len(g.terms) == 1
    witnesses["envelope_min"] = min(envelopes)
    witnesses["envelope_max"] = max(envelopes)

    return ConditionReport(on_curve, in_u, extendable, trend, witnesses)
