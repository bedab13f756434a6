"""Shared fixtures and random generators for the suite.

The generators keep every allowed probability bounded away from zero so
singular support patterns cannot sneak in by accident; walks that fail
validation or land in a singular class are simply redrawn.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import qpwalk as q
from qpwalk import presets as preset_store

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

PRESET_NAMES = ("fig2a", "fig2b", "fig2c", "fig2d", "switch_fig7")

# Walks one of whose axes never moves (stay 1), keyed by that stay: every
# state on the axis is absorbing.
_STILL = [[0.2, 0.2, 0.0], [0.2, 0.4, 0.0], [0.0, 0.0, 0.0]]
STILL_AXIS_WALKS = {
    "h[0]": {"interior": _STILL, "horizontal": [0.0, 1.0, 0.0], "vertical": [0.3, 0.4, 0.3]},
    "v[0]": {"interior": _STILL, "horizontal": [0.3, 0.4, 0.3], "vertical": [0.0, 1.0, 0.0]},
}

# Walks whose truncation to a box traps mass, keyed by name: dropping the
# moves that leave the box leaves states that never reach the origin.  The
# first is eligible, steps only NW and SE in the interior, and construct
# builds a balanced positive measure for it; the second is valid but not
# eligible, drifting up and right.
TRAPPING_WALKS = {
    "anti-diagonal": {"interior": [[0, 0, 0.2], [0, 0.5, 0], [0.3, 0, 0]],
                      "horizontal": [0.3, 0.3, 0.2], "vertical": [0.3, 0.3, 0.1]},
    "up-right": {"interior": [[0, 0, 0.2], [0, 0.2, 0.2], [0.2, 0.2, 0]],
                 "horizontal": [0.2, 0.2, 0.2], "vertical": [0.2, 0.2, 0.2]},
}

# Valid, eligible, nonsingular walks whose origin crossing fails the
# negative-Hessian test, keyed by their Hessian determinant: the exact
# anti-diagonal walk, and the same with 1e-13 moved from the stay to SW.
NODELESS_WALKS = {
    "det-0": {"interior": [[0, 0, 0.25], [0, 0.5, 0], [0.25, 0, 0]],
              "horizontal": [0.25, 0.25, 0.25], "vertical": [0.25, 0.25, 0.25]},
    "det-1e-13": {"interior": [[1e-13, 0, 0.25], [0, 0.4999999999999, 0], [0.25, 0, 0]],
                  "horizontal": [0.25, 0.25, 0.25], "vertical": [0.25, 0.25, 0.25]},
}


@pytest.fixture(scope="session")
def fig2a():
    return preset_store.load("fig2a")


@pytest.fixture(scope="session")
def fig2b():
    return preset_store.load("fig2b")


@pytest.fixture(scope="session")
def fig2c():
    return preset_store.load("fig2c")


@pytest.fixture(scope="session")
def fig2d():
    return preset_store.load("fig2d")


@pytest.fixture(scope="session")
def switch():
    return preset_store.load("switch_fig7")


@pytest.fixture(scope="session")
def switch_construct(switch):
    return q.construct(switch)


@pytest.fixture(scope="session")
def switch_seeds(switch_construct):
    return switch_construct[0]


@pytest.fixture(scope="session")
def switch_series(switch_construct):
    return tuple(switch_construct[1])


@pytest.fixture(scope="session")
def switch_measure(switch_construct):
    return switch_construct[3]


@pytest.fixture(scope="session")
def switch_oracle(switch):
    return q.truncated_stationary(switch, 80)


def random_walk(rng, forced=False, neg_drift=False, min_cell=0.05):
    """Validated nonsingular walk with allowed cells at least min_cell.

    forced zeroes the interior east, northeast and north steps, which is
    the class where an infinite geometric sum can exist at all.
    """
    while True:
        w = min_cell + rng.random((3, 3))
        if forced:
            w[2, 1] = 0.0
            w[2, 2] = 0.0
            w[1, 2] = 0.0
        w = w / w.sum()
        budget_h = 1.0 - w[:, 2].sum()
        budget_v = 1.0 - w[2, :].sum()
        if budget_h < 1e-6 or budget_v < 1e-6:
            continue
        hw = min_cell + rng.random(3)
        hw *= budget_h / hw.sum()
        vw = min_cell + rng.random(3)
        vw *= budget_v / vw.sum()
        spec = q.WalkSpec(w, hw, vw)
        if q.validate(spec) or q.singular_class(spec).singular:
            continue
        if neg_drift:
            d = q.drift(spec)
            if d.mx >= -1e-3 or d.my >= -1e-3:
                continue
        return spec


def product_form_walk(rng):
    """Walk whose coordinates evolve independently.

    Both components are reflected birth-death chains, so the stationary
    measure is exactly rho^i sigma^j with rho and sigma the one-step
    up/down ratios.  Returns (spec, rho, sigma).
    """
    while True:
        a = 0.05 + rng.random(3)
        a /= a.sum()
        b = 0.05 + rng.random(3)
        b /= b.sum()
        # need both ratios strictly below one
        if a[2] >= a[0] - 1e-3 or b[2] >= b[0] - 1e-3:
            continue
        spec = q.WalkSpec(np.outer(a, b), a * (b[0] + b[1]), b * (a[0] + a[1]))
        if q.validate(spec) or q.singular_class(spec).singular:
            continue
        return spec, a[2] / a[0], b[2] / b[0]


def random_gamma(rng, max_terms=8):
    """Term set with engineered shared coordinates.

    Coordinates are drawn from small pools most of the time so the
    partition logic sees genuine collisions, not just singletons.
    """
    n = int(rng.integers(1, max_terms + 1))
    pool_r = rng.uniform(0.05, 0.95, size=int(rng.integers(1, 5)))
    pool_s = rng.uniform(0.05, 0.95, size=int(rng.integers(1, 5)))
    terms, seen = [], set()
    while len(terms) < n:
        r = float(rng.choice(pool_r)) if rng.random() < 0.6 else float(rng.uniform(0.05, 0.95))
        s = float(rng.choice(pool_s)) if rng.random() < 0.6 else float(rng.uniform(0.05, 0.95))
        key = (round(r, 12), round(s, 12))
        if key in seen:
            continue
        seen.add(key)
        sign = 1.0 if rng.random() < 0.7 else -1.0
        terms.append(q.WeightedTerm(r, s, sign * float(rng.uniform(0.1, 2.0))))
    return q.GammaSet(terms)


def twelve_dot_set():
    """Grid of 3x3 fully chained terms plus three uncoupled singletons.

    Maximal partition counts are (6, 6, 4): three rho groups and three
    singletons horizontally, three sigma groups and three singletons
    vertically, and one big chained block plus the singletons overall.
    """
    terms = [
        q.WeightedTerm(r, s, 1.0)
        for r in (0.2, 0.4, 0.6)
        for s in (0.3, 0.5, 0.7)
    ]
    terms += [
        q.WeightedTerm(0.15, 0.85, 1.0),
        q.WeightedTerm(0.55, 0.15, 1.0),
        q.WeightedTerm(0.85, 0.45, 1.0),
    ]
    return q.GammaSet(terms)
