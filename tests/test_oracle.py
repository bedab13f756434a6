"""Truncated-chain oracle, residual reports and the convexity sampler."""

import numpy as np
import pytest

import qpwalk as q
from qpwalk import oracle as oracle_mod
from qpwalk.errors import NotConverged
from qpwalk.model import OFFSETS
from qpwalk.oracle import transition_matrix

from conftest import product_form_walk, random_walk


# --- transition matrix ---


def test_rows_are_stochastic():
    rng = np.random.default_rng(60)
    for n in (8, 13):
        spec = random_walk(rng)
        P = transition_matrix(spec, n)
        sums = np.asarray(P.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-14)


def test_truncation_redirects_to_self_loop():
    rng = np.random.default_rng(61)
    spec = random_walk(rng)
    n = 9
    P = transition_matrix(spec, n).tocsr()
    p = spec.p
    # steps that would leave {0..n} squared stay put
    leaving = {
        (n, n): p(1, -1) + p(1, 0) + p(1, 1) + p(0, 1) + p(-1, 1),
        (n, 4): p(1, -1) + p(1, 0) + p(1, 1),  # right edge
        (3, n): p(-1, 1) + p(0, 1) + p(1, 1),  # top edge
    }
    for (i, j), out in leaving.items():
        idx = i * (n + 1) + j
        assert P[idx, idx] == pytest.approx(p(0, 0) + out, abs=1e-15)


def _step_law(spec, i, j):
    """Steps from (i, j) as {(s, t): probability}: the interior law, or the
    axis laws that reuse the interior steps pointing away from the axis."""
    if i > 0 and j > 0:
        return {(s, t): spec.p(s, t) for s in OFFSETS for t in OFFSETS}
    if i > 0:
        return {**{(s, 0): spec.h(s) for s in OFFSETS},
                **{(s, 1): spec.p(s, 1) for s in OFFSETS}}
    if j > 0:
        return {**{(0, t): spec.v(t) for t in OFFSETS},
                **{(1, t): spec.p(1, t) for t in OFFSETS}}
    stay = 1.0 - spec.h(1) - spec.v(1) - spec.p(1, 1)
    return {(0, 0): stay, (1, 0): spec.h(1), (0, 1): spec.v(1), (1, 1): spec.p(1, 1)}


def _check_row(P, spec, n, i, j):
    row = P[i * (n + 1) + j].toarray().ravel()
    expected = np.zeros_like(row)
    for (s, t), pr in _step_law(spec, i, j).items():
        expected[(i + s) * (n + 1) + (j + t)] = pr
    assert row == pytest.approx(expected, abs=1e-15)


def test_interior_row_matches_steps():
    rng = np.random.default_rng(62)
    spec = random_walk(rng)
    n = 10
    P = transition_matrix(spec, n).tocsr()
    _check_row(P, spec, n, 4, 5)


@pytest.mark.parametrize("state", [(0, 0), (6, 0), (0, 3)], ids=["origin", "horizontal", "vertical"])
def test_axis_row_matches_steps(state):
    rng = np.random.default_rng(62)
    spec = random_walk(rng)
    n = 10
    _check_row(transition_matrix(spec, n).tocsr(), spec, n, *state)


# --- stationary solve ---


def test_minimum_truncation_order():
    rng = np.random.default_rng(63)
    with pytest.raises(ValueError):
        q.truncated_stationary(random_walk(rng), 7)


def test_direct_solve_is_stationary():
    rng = np.random.default_rng(64)
    spec = random_walk(rng, neg_drift=True)
    n = 30
    w = q.truncated_stationary(spec, n, method="direct")
    pi = w.values.ravel()
    P = transition_matrix(spec, n)
    assert np.abs(pi @ P - pi).max() <= 1e-13
    assert pi.min() >= 0.0
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_direct_and_power_agree():
    rng = np.random.default_rng(65)
    spec = random_walk(rng, neg_drift=True)
    a = q.truncated_stationary(spec, 25, method="direct")
    b = q.truncated_stationary(spec, 25, method="power")
    assert np.abs(a.values - b.values).max() <= 1e-10


def test_power_iteration_cap_raises(monkeypatch):
    rng = np.random.default_rng(66)
    spec = random_walk(rng, neg_drift=True)
    monkeypatch.setattr(oracle_mod, "POWER_CAP", 100)
    with pytest.raises(NotConverged) as err:
        q.truncated_stationary(spec, 20, method="power")
    assert err.value.iterations >= 100


def test_grid_is_read_only():
    rng = np.random.default_rng(67)
    w = q.truncated_stationary(random_walk(rng, neg_drift=True), 12)
    with pytest.raises(ValueError):
        w.values[0, 0] = 1.0


def test_core_renormalizes():
    rng = np.random.default_rng(68)
    w = q.truncated_stationary(random_walk(rng, neg_drift=True), 20)
    core = w.core(6)
    assert core.shape == (7, 7)
    assert core.sum() == pytest.approx(1.0, abs=1e-12)


def test_symmetric_walk_symmetric_distribution():
    rng = np.random.default_rng(69)
    while True:
        w = 0.05 + rng.random((3, 3))
        w = (w + w.T) / 2.0
        w /= w.sum()
        budget = 1.0 - w[:, 2].sum()
        if budget < 1e-6:
            continue
        hw = 0.05 + rng.random(3)
        hw *= budget / hw.sum()
        spec = q.WalkSpec(w, hw, hw)
        if q.validate(spec) or q.singular_class(spec).singular:
            continue
        d = q.drift(spec)
        if d.mx >= -1e-3:
            continue
        break
    grid = q.truncated_stationary(spec, 25).values
    assert np.abs(grid - grid.T).max() <= 1e-13


# --- residual reports ---


def test_product_form_residuals_vanish():
    rng = np.random.default_rng(70)
    for _ in range(10):
        spec, rho, sigma = product_form_walk(rng)
        g = q.GammaSet([q.WeightedTerm(rho, sigma, 1.0)])
        rep = q.balance_residuals(spec, g, window=10)
        assert rep.worst <= 1e-12


def test_report_fields(switch, switch_measure):
    rep = q.balance_residuals(switch, switch_measure.gamma, window=12)
    d = rep.to_dict()
    assert set(d) >= {
        "max_residual_interior",
        "max_residual_h",
        "max_residual_v",
        "max_residual_origin",
        "window",
        "worst",
    }
    assert rep.window == 12
    assert rep.worst == max(
        rep.max_residual_interior,
        rep.max_residual_h,
        rep.max_residual_v,
        rep.max_residual_origin,
    )


def test_perturbed_coefficient_raises_residuals(switch, switch_measure):
    base = q.balance_residuals(switch, switch_measure.gamma, window=10).worst
    worsts = [base]
    for bump in (1.01, 1.1):
        terms = list(switch_measure.gamma)
        t0 = terms[0]
        terms[0] = q.WeightedTerm(t0.rho, t0.sigma, t0.alpha * bump)
        rep = q.balance_residuals(switch, q.GammaSet(terms), window=10)
        worsts.append(rep.worst)
    assert worsts[0] < worsts[1] < worsts[2]


def test_truncated_grid_satisfies_balance():
    # the oracle is itself a measure away from the truncation boundary
    rng = np.random.default_rng(71)
    spec = random_walk(rng, neg_drift=True)
    w = q.truncated_stationary(spec, 40)
    rep = q.grid_residual_report(spec, w.values, window=20)
    assert rep.worst <= 1e-10


# --- comparison against the oracle ---


def test_compare_exact_measure_is_machine_zero():
    rng = np.random.default_rng(72)
    spec, rho, sigma = product_form_walk(rng)
    g = q.GammaSet([q.WeightedTerm(rho, sigma, 1.0)])
    oracle = q.truncated_stationary(spec, 40)
    assert q.compare(g, oracle, core=8) <= 1e-8


def test_compare_wrong_measure_reports_large_error(switch_oracle):
    g = q.GammaSet([q.WeightedTerm(0.5, 0.5, 1.0)])
    sup = q.compare(g, switch_oracle, core=8)
    assert sup > 0.1  # reported, not thrown


def test_compare_assembled_measure_close(switch_measure, switch_oracle):
    sup = q.compare(switch_measure.gamma, switch_oracle, core=8)
    assert sup <= 1e-10


def test_compare_requires_margin(switch_measure, switch_oracle):
    with pytest.raises(ValueError):
        q.compare(switch_measure.gamma, switch_oracle, core=75)


# --- convexity sampler ---


@pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c", "fig2d", "switch_fig7"])
def test_convexity_on_presets(name):
    rep = q.convexity_check(q.presets.load(name), samples=2000, seed=0)
    assert rep.passed
    assert rep.checked == rep.requested == 2000
    assert rep.violations == ()


def test_convexity_deterministic(fig2c):
    a = q.convexity_check(fig2c, samples=500, seed=7)
    b = q.convexity_check(fig2c, samples=500, seed=7)
    assert a.to_dict() == b.to_dict()


def test_convexity_report_dict(fig2a):
    d = q.convexity_check(fig2a, samples=200, seed=1).to_dict()
    assert set(d) == {"passed", "checked", "requested", "violations"}
