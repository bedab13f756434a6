"""Weighted geometric terms, grouping, and necessary conditions.

A candidate invariant measure is a finite or countable sum

    m(i, j) = sum_k alpha_k rho_k^i sigma_k^j.

Objects here carry such sums, partition them into groups sharing a
coordinate, evaluate the boundary balance of each group, and test the
structural conditions any genuinely infinite sum of geometrics must meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .curve import ONCURVE_TOL, U_MARGIN, _companion, boundary_h, kernel
from .errors import EmptyComponent, MixedGroup
from .model import WalkSpec

COUPLE_TOL = 1e-9  # relative tolerance for two coordinates counting as equal


def _close(a: float, b: float) -> bool:
    """Whether two coordinates count as one: the coupling rule of a term set.
    An infinite coordinate is close to nothing."""
    return abs(a - b) <= COUPLE_TOL * max(abs(a), abs(b)) < math.inf


@dataclass(frozen=True)
class WeightedTerm:
    """One geometric term ``alpha * rho^i * sigma^j``."""

    rho: float
    sigma: float
    alpha: float = 1.0

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

    Every term is evaluated in one broadcast, and one ``np.add.accumulate``
    adds the rows in term order, as repeated ``+=`` from zero would add
    them (``np.sum`` would pair them and round differently).  The final
    ``+ 0.0`` gives a sum of negative zeros the sign that a sum started at
    0.0 has, and changes no other value.  Pass a grid as the open pair
    ``idx[:, None], idx[None, :]``, not a meshgrid, so that each power is
    taken once per row or column rather than once per cell.
    """
    i = np.asarray(i)
    j = np.asarray(j)
    shape = (-1,) + (1,) * max(i.ndim, j.ndim)
    alpha, rho, sigma = (
        np.fromiter(map(attrgetter(name), terms), float, len(terms)).reshape(shape)
        for name in ("alpha", "rho", "sigma")
    )
    rows = alpha * rho**i * sigma**j
    return np.add.accumulate(rows)[-1] + 0.0


def _close_pairs(terms: Sequence[WeightedTerm]) -> list[tuple[int, int]]:
    """Ascending index pairs (i, j), i < j, of the terms whose rho and
    sigma are both ``_close``; the coordinates must be positive.

    Sorted by rho, the pairs d places apart are tested for d = 1, 2, ...
    until no such pair lies within twice ``COUPLE_TOL`` in rho.  For
    positive a <= b <= c, ``_close(a, c)`` puts b that near a, so no pair
    further apart is close in rho either.  Each test is ``_close`` on
    arrays, with the same roundings as on floats.
    """
    rho, sigma = np.array([[t.rho for t in terms], [t.sigma for t in terms]], dtype=float)
    order = np.argsort(rho, kind="stable")
    rho, sigma = rho[order], sigma[order]
    pairs = []
    for d in range(1, len(rho)):
        lo, hi = rho[:-d], rho[d:]
        near = np.flatnonzero(hi - lo <= 2.0 * COUPLE_TOL * hi)
        if not near.size:
            break
        lo, hi, s_lo, s_hi = lo[near], hi[near], sigma[near], sigma[near + d]
        both = near[(hi - lo <= COUPLE_TOL * hi) & (
            np.abs(s_hi - s_lo) <= COUPLE_TOL * np.maximum(s_lo, s_hi)
        )]
        ends = np.sort([order[both], order[both + d]], axis=0)
        pairs += zip(*ends.tolist())
    return sorted(pairs)


def _merge_terms(terms: Iterable[WeightedTerm]) -> list:
    """Terms with coordinates within ``COUPLE_TOL`` of an earlier term's
    folded into it, coefficients added, in order of first appearance.

    A term joins the earliest kept term among its ``_close_pairs``, and is
    kept when it has none; terms whose coefficients cancel exactly are
    dropped.  In ascending order the pairs (., i) come before (i, .), so
    whether term i is kept is settled when its own pairs come up.
    """
    terms = list(terms)
    joins: dict[int, int] = {}
    for i, j in _close_pairs(terms):
        if i not in joins:
            joins.setdefault(j, i)
    kept: dict[int, WeightedTerm] = {}
    for j, t in enumerate(terms):
        i = joins.get(j)
        if i is None:
            kept[j] = t
        else:
            seen = kept[i]
            kept[i] = WeightedTerm(seen.rho, seen.sigma, seen.alpha + t.alpha)
    return [t for t in kept.values() if t.alpha != 0.0]


@dataclass(frozen=True)
class GammaSet:
    """A finite collection of weighted terms.

    Coordinates and coefficients must be finite, coordinates positive,
    coefficients nonzero, and no two terms may agree in both coordinates
    to within ``COUPLE_TOL``.  A set is rejected at its first failing term,
    in term order: the first term with a problem of its own, unless a term
    before it duplicates an earlier one by ``_close_pairs``.
    """

    terms: tuple[WeightedTerm, ...]

    def __init__(self, terms: Iterable[WeightedTerm]):
        terms = tuple(terms)
        if not terms:
            raise EmptyComponent("a term set needs at least one term")
        problem = None
        for f, t in enumerate(terms):
            if not all(map(math.isfinite, (t.rho, t.sigma, t.alpha))):
                problem = f"non-finite term ({t.rho}, {t.sigma}, {t.alpha})"
            elif not (t.rho > 0.0 and t.sigma > 0.0):
                problem = f"nonpositive coordinates ({t.rho}, {t.sigma})"
            elif t.alpha == 0.0:
                problem = f"zero coefficient at ({t.rho}, {t.sigma})"
            if problem:
                break
        else:
            f = len(terms)
        duplicates = [j for _, j in _close_pairs(terms[:f])]
        if duplicates:
            t = terms[min(duplicates)]
            raise ValueError(f"duplicate coordinates ({t.rho}, {t.sigma})")
        if problem:
            raise ValueError(problem)
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def value(self, i, j):
        """Evaluate the sum on (arrays of) lattice points; see ``_term_sum``."""
        total = _term_sum(self.terms, i, j)
        return total if total.shape else float(total)

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
    # Neighbours in sorted order, as maximal_partitions chains its groups.
    rhos = sorted(t.rho for t in terms)
    for a, b in zip(rhos, rhos[1:]):
        if not _close(a, b):
            raise MixedGroup(f"shared coordinates {a} and {b} differ beyond tolerance")
    return float(sum(t.alpha * boundary_h(spec, t.rho, t.sigma) for t in terms))


def bh_sum(g: GammaSet, group: Sequence[int], spec: WalkSpec) -> float:
    """Horizontal boundary balance of a group sharing one rho.

    Each term contributes ``alpha * boundary_h(rho, sigma)``; a vanishing
    sum means the group jointly satisfies the horizontal-axis balance.

    Raises
    ------
    MixedGroup
        If the group's rhos, sorted, are not each close to the next.
    """
    return _bh_terms([g.terms[i] for i in group], spec)


def bv_sum(g: GammaSet, group: Sequence[int], spec: WalkSpec) -> float:
    """Vertical boundary balance of a group sharing one sigma: bh_sum of
    the transposed terms in the transposed walk."""
    terms = [g.terms[i].transpose() for i in group]
    return _bh_terms(terms, spec.transpose())


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structural tests for an infinite-geometric measure:
    one verdict per condition, True, False or None when not tested, and
    the evidence behind them."""

    verdicts: dict
    witnesses: dict

    @property
    def passed(self) -> Optional[bool]:
        vals = [v for v in self.verdicts.values() if v is not None]
        return all(vals) if vals else None

    def to_dict(self) -> dict:
        return {"verdicts": self.verdicts, "passed": self.passed, **self.witnesses}


def necessary_conditions(spec: WalkSpec, g: GammaSet) -> ConditionReport:
    """Test the conditions a countably infinite sum of geometric terms
    must satisfy to be an invariant measure.

    Two necessary verdicts, then two heuristics the paper does not state:

    * ``on_curve``: each term lies on the kernel curve, its scaled
      residual at most ``ONCURVE_TOL``.
    * ``in_u``: each term lies in the open unit square, with a margin
      ``U_MARGIN`` at the upper edge only: a coordinate within rounding of
      1 makes a term non-normalizable, while series accumulate at 0.
    * ``extendable``: from each term the coupled companion construction
      can continue along at least one boundary, so the set cannot be a
      dead end of the compensation recursion.  Judged when the first two
      hold; a term with neither companion is a ``blocked`` witness.
    * ``trend``: coordinates approach the origin; the smallest term
      envelope is well below the largest, which a convergent infinite sum
      forces.

    One pass over the terms reads each term's residual, its membership of
    the square and its V and H companions, the other root of the kernel
    quadratic in y on the walk and on its transposed twin.
    """
    ker, twin_ker = kernel(spec), kernel(spec.transpose())
    residuals, in_u, blocked, envelopes = [], [], [], []
    for index, t in enumerate(g.terms):
        residuals.append(float(abs(ker.value(t.rho, t.sigma)) / ker.scale))
        in_u.append(0.0 < t.rho < 1.0 - U_MARGIN and 0.0 < t.sigma < 1.0 - U_MARGIN)
        envelopes.append(max(t.rho, t.sigma))
        h = _companion(twin_ker, t.sigma, t.rho)[0]
        v = _companion(ker, t.rho, t.sigma)[0]
        if h != "ok" and v != "ok":
            blocked.append({"index": index, "h": h, "v": v})
    verdicts = {"on_curve": all(r <= ONCURVE_TOL for r in residuals), "in_u": all(in_u)}
    judged = verdicts["on_curve"] and verdicts["in_u"]
    verdicts["extendable"] = not blocked if judged else None
    verdicts["trend"] = min(envelopes) <= 0.5 * max(envelopes) or len(envelopes) == 1
    witnesses = {
        "residuals": residuals,
        "in_u_flags": in_u,
        "blocked": blocked if judged else None,
        "envelope_min": min(envelopes),
        "envelope_max": max(envelopes),
    }
    return ConditionReport(verdicts, witnesses)
