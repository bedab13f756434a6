"""Homogeneous quarter-plane walk representation, validation and classification.

A walk lives on the lattice ``{0,1,2,...}^2`` and takes nearest-neighbor
steps.  Three step distributions describe it completely: ``interior`` for
states with both coordinates positive, ``horizontal`` for states on the
horizontal axis and ``vertical`` for states on the vertical axis.  The
homogeneity convention ties the axes to the interior law: from the
horizontal axis the upward steps reuse the interior probabilities
``p[s][1]``, from the vertical axis the rightward steps reuse ``p[1][t]``,
and the origin combines ``h[1]``, ``v[1]`` and ``p[1][1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidRouting, InvalidWalk

# Absolute tolerance for the stochasticity sums; inputs are user decimals.
STOCH_TOL = 1e-12

OFFSETS = (-1, 0, 1)


@dataclass(frozen=True, init=False, eq=False)
class WalkSpec:
    """Transition law of a homogeneous quarter-plane random walk.

    Attributes
    ----------
    interior : ndarray, shape (3, 3)
        ``interior[s+1, t+1]`` is the probability of step ``(s, t)`` from an
        interior state, for ``s, t`` in ``{-1, 0, 1}``.
    horizontal : ndarray, shape (3,)
        ``horizontal[s+1]`` is the probability of step ``(s, 0)`` from a
        horizontal-axis state ``(i, 0)`` with ``i > 0``.
    vertical : ndarray, shape (3,)
        ``vertical[t+1]`` is the probability of step ``(0, t)`` from a
        vertical-axis state ``(0, j)`` with ``j > 0``.

    ``==`` and ``hash`` go by identity, as the per-walk results are kept;
    two walks have the same law when ``np.array_equal`` holds for each of
    the three arrays.
    """

    interior: np.ndarray
    horizontal: np.ndarray
    vertical: np.ndarray

    def __init__(self, interior, horizontal, vertical):
        interior = np.array(interior, dtype=float)
        horizontal = np.array(horizontal, dtype=float)
        vertical = np.array(vertical, dtype=float)
        if interior.shape != (3, 3):
            raise ValueError(f"interior must be 3x3, got {interior.shape}")
        if horizontal.shape != (3,) or vertical.shape != (3,):
            raise ValueError("axis step arrays must have length 3")
        for name, arr in (
            ("interior", interior), ("horizontal", horizontal), ("vertical", vertical)
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def p(self, s: int, t: int) -> float:
        """Interior step probability for step ``(s, t)``."""
        return float(self.interior[s + 1, t + 1])

    def h(self, s: int) -> float:
        """Horizontal-axis step probability for step ``(s, 0)``."""
        return float(self.horizontal[s + 1])

    def v(self, t: int) -> float:
        """Vertical-axis step probability for step ``(0, t)``."""
        return float(self.vertical[t + 1])

    def transpose(self) -> "WalkSpec":
        """Walk with the roles of the two coordinates exchanged.

        Every call returns the same twin, whose own transpose is this walk,
        so the two share whatever either has computed per walk.
        """
        return _per_walk(self, "_twin", _build_twin)

    def to_dict(self) -> dict:
        return {
            "interior": [[float(x) for x in row] for row in self.interior],
            "horizontal": [float(x) for x in self.horizontal],
            "vertical": [float(x) for x in self.vertical],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WalkSpec":
        """Build a walk from its file representation.

        The document either carries the three step arrays directly or a
        ``switch`` object with the six routing parameters, which overrides
        the arrays.
        """
        if "switch" in data:
            sw = data["switch"]
            return from_switch(
                sw["r1"], sw["r2"], sw["t11"], sw["t12"], sw["t21"], sw["t22"]
            )
        return cls(
            np.array(data["interior"], dtype=float),
            np.array(data["horizontal"], dtype=float),
            np.array(data["vertical"], dtype=float),
        )


def _per_walk(spec: WalkSpec, name: str, build):
    """``build(spec)``, computed once per walk and shared by every caller.

    The result is kept in the spec's own ``__dict__``, where
    ``functools.cached_property`` keeps its values.  A WalkSpec is frozen
    and its arrays are read-only, so the result cannot go stale.  An error
    that ``build`` raises is not kept: the next call raises it again.
    """
    kept = spec.__dict__
    if name not in kept:
        kept[name] = build(spec)
    return kept[name]


def _build_twin(spec: WalkSpec) -> WalkSpec:
    twin = WalkSpec(spec.interior.T.copy(), spec.vertical, spec.horizontal)
    twin.__dict__["_twin"] = spec
    return twin


@dataclass(frozen=True)
class Drift:
    """Mean step per unit time of the interior law."""

    mx: float
    my: float


@dataclass(frozen=True)
class ValidationIssue:
    """One violated walk invariant with its numeric residual."""

    code: str  # NonFinite | NonStochastic | NegativeProbability | Degenerate
    where: str
    residual: float
    message: str

    def __str__(self) -> str:
        return f"{self.code}({self.where}): {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "where": self.where,
            "residual": self.residual,
            "message": self.message,
        }


def validate(spec: WalkSpec) -> list[ValidationIssue]:
    """Check every walk invariant and return the violations.

    An empty list means the walk is valid.  Checked invariants: entries are
    finite and nonnegative, the interior law sums to one, each axis law
    plus the interior steps leaving that axis sums to one, and the stay
    probabilities of the interior and of each axis are strictly below one.
    """
    issues: list[ValidationIssue] = []
    regions = (
        ("interior", spec.interior.ravel(), [f"p[{s}][{t}]" for s in OFFSETS for t in OFFSETS]),
        ("horizontal", spec.horizontal, [f"h[{s}]" for s in OFFSETS]),
        ("vertical", spec.vertical, [f"v[{t}]" for t in OFFSETS]),
    )
    for _, values, names in regions:
        for name, value in zip(names, values):
            if not math.isfinite(value):
                issues.append(
                    ValidationIssue(
                        "NonFinite", name, float(value), f"{name} = {value} is not finite"
                    )
                )
            elif value < 0.0:
                issues.append(
                    ValidationIssue(
                        "NegativeProbability", name, float(value), f"{name} = {value} < 0"
                    )
                )

    sums = (
        ("interior", float(spec.interior.sum())),
        ("horizontal", float(spec.horizontal.sum() + spec.interior[:, 2].sum())),
        ("vertical", float(spec.vertical.sum() + spec.interior[2, :].sum())),
    )
    for region, total in sums:
        residual = abs(total - 1.0)
        if residual > STOCH_TOL:
            issues.append(
                ValidationIssue(
                    "NonStochastic", region, residual, f"{region} mass {total} != 1"
                )
            )

    # A stay of one makes its states absorbing: the interior, or every
    # state of an axis.
    for name, stay in (("p[0][0]", spec.p(0, 0)), ("h[0]", spec.h(0)), ("v[0]", spec.v(0))):
        if stay >= 1.0 - STOCH_TOL:
            issues.append(ValidationIssue("Degenerate", name, abs(1.0 - stay), f"{name} = 1"))
    return issues


def ensure_valid(spec: WalkSpec) -> WalkSpec:
    """Return the spec unchanged, raising :class:`InvalidWalk` on violations."""
    issues = validate(spec)
    if issues:
        raise InvalidWalk(issues)
    return spec


def eligible(spec: WalkSpec) -> bool:
    """Whether the walk admits the compensation construction at all.

    The construction needs the interior east, northeast and north
    probabilities to vanish; otherwise no countable sum of geometric
    terms can be invariant.
    """
    return spec.p(1, 0) == 0.0 and spec.p(1, 1) == 0.0 and spec.p(0, 1) == 0.0


def drift(spec: WalkSpec) -> Drift:
    """Mean horizontal and vertical drift of the interior law."""
    mx = float(spec.interior[2, :].sum() - spec.interior[0, :].sum())
    my = float(spec.interior[:, 2].sum() - spec.interior[:, 0].sum())
    return Drift(mx, my)


@dataclass(frozen=True)
class SingularClass:
    """Degeneracy classification of the kernel polynomial.

    A walk is singular when its kernel is reducible or has degree below two
    in one of the variables.  Detection combines a degree test on the
    coefficient rows and columns with a match against the five degenerate
    interior supports.
    """

    singular: bool
    pattern: Optional[str]  # "a".."e" when singular
    reason: str

    @property
    def tag(self) -> str:
        return f"SingularPattern({self.pattern})" if self.singular else "NonSingular"


# The five degenerate supports, tested on exact zeros of the interior law:
#   a: steps restricted to the (1,1)/(-1,-1) diagonal (self-loop allowed)
#   b: no step with s = -1 (kernel degree 1 in x)
#   c: no step with s = +1 (x divides the kernel)
#   d: no step with t = -1 (kernel degree 1 in y)
#   e: no step with t = +1 (y divides the kernel)
def singular_class(spec: WalkSpec) -> SingularClass:
    zero = spec.interior == 0.0
    off_diagonal = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    if all(zero[i, j] for i, j in off_diagonal):
        return SingularClass(True, "a", "support restricted to the diagonal steps")
    if zero[0, :].all():
        return SingularClass(True, "b", "no steps with s = -1: kernel degree 1 in x")
    if zero[2, :].all():
        return SingularClass(True, "c", "no steps with s = +1: x divides the kernel")
    if zero[:, 0].all():
        return SingularClass(True, "d", "no steps with t = -1: kernel degree 1 in y")
    if zero[:, 2].all():
        return SingularClass(True, "e", "no steps with t = +1: y divides the kernel")
    return SingularClass(False, None, "")


def from_switch(
    r1: float, r2: float, t11: float, t12: float, t21: float, t22: float
) -> WalkSpec:
    """Walk of the clocked two-server switch with Bernoulli arrivals.

    Stream ``i`` delivers a cell with probability ``r_i`` per slot and routes
    it to server 1 with probability ``t_i1`` and to server 2 with ``t_i2``.
    The joint queue-length process steps southeast (both arrivals routed to
    server 1), northwest (both to server 2), or towards the origin, so the
    resulting walk has no north, northeast or east interior transitions.

    Parameters
    ----------
    r1, r2 : float
        Arrival probabilities, in ``(0, 1]``.
    t11, t12, t21, t22 : float
        Routing probabilities; each row ``(t_i1, t_i2)`` must sum to one and
        be strictly positive.
    """
    params = {"r1": r1, "r2": r2, "t11": t11, "t12": t12, "t21": t21, "t22": t22}
    for name, value in params.items():
        if not math.isfinite(value):
            raise InvalidRouting(f"{name} = {value} is not finite")
    if not (0.0 < r1 <= 1.0 and 0.0 < r2 <= 1.0):
        raise InvalidRouting(f"arrival rates must lie in (0, 1]: r1={r1}, r2={r2}")
    if min(t11, t12, t21, t22) <= 0.0:
        raise InvalidRouting("routing probabilities must be strictly positive")
    for name, total in (("t1", t11 + t12), ("t2", t21 + t22)):
        if abs(total - 1.0) > STOCH_TOL:
            raise InvalidRouting(f"routing row {name} sums to {total}, expected 1")

    interior = np.zeros((3, 3))
    interior[2, 0] = r1 * r2 * t11 * t21               # p[1][-1], both to server 1
    interior[0, 2] = r1 * r2 * t12 * t22               # p[-1][1], both to server 2
    interior[1, 1] = r1 * r2 * (t11 * t22 + t12 * t21)  # p[0][0], one cell each
    interior[1, 0] = r1 * (1 - r2) * t11 + r2 * (1 - r1) * t21  # p[0][-1]
    interior[0, 1] = r1 * (1 - r2) * t12 + r2 * (1 - r1) * t22  # p[-1][0]
    interior[0, 0] = (1 - r1) * (1 - r2)               # p[-1][-1]

    # On an axis the empty queue cannot lose a cell, so the matching interior
    # step projects onto the axis.
    horizontal = interior[:, 1] + interior[:, 0]
    vertical = interior[1, :] + interior[0, :]
    return ensure_valid(WalkSpec(interior, horizontal, vertical))
