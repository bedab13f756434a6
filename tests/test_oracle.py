"""Truncated-chain oracle, residual reports and the convexity sampler."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import qpwalk as q
from qpwalk import oracle as oracle_mod
from qpwalk.cli import dumps
from qpwalk.model import OFFSETS
from qpwalk.oracle import transition_matrix

from conftest import PRESET_NAMES, TRAPPING_WALKS, product_form_walk, random_walk
import convexity_reference
from convexity_reference import convexity_check as reference_convexity
from keep_all_censored import keep_all_censored, loop_gth
from gauss_jordan_inverse import blocked_inverse
from loop_level_inverse import loop_level_inverse
from plain_reduction import plain_reduction
import power_reference
from power_reference import NotConverged, power_stationary


# --- transition matrix ---


def test_rows_are_stochastic():
    rng = np.random.default_rng(60)
    for n in (8, 13):
        spec = random_walk(rng)
        P = transition_matrix(spec, n)
        sums = np.asarray(P.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-14)


def test_transition_matrix_is_csr():
    rng = np.random.default_rng(60)
    assert isinstance(transition_matrix(random_walk(rng), 8), sp.csr_matrix)


def test_transition_matrix_needs_an_interior_level():
    # Every level's down and up blocks are the interior level's.
    rng = np.random.default_rng(60)
    with pytest.raises(ValueError):
        transition_matrix(random_walk(rng), 1)


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


# --- level blocks ---

# Its origin stay 1 - h(1) - v(1) - p(1, 1) is -0.5, a walk that validate
# accepts; the level blocks hold no stay, so none of it reaches the solve.
NEGATIVE_ORIGIN_STAY = q.WalkSpec(
    [[0.4, 0.0, 0.1], [0.0, 0.1, 0.0], [0.1, 0.0, 0.3]], [0.0, 0.0, 0.6], [0.0, 0.0, 0.6]
)


def test_level_blocks_hold_moves_only():
    for name, spec in _bit_identity_walks() + [("negative stay", NEGATIVE_ORIGIN_STAY)]:
        for n in (2, 3, 9):
            blocks = oracle_mod._level_blocks(spec, n)
            assert len(blocks) == 4, name
            assert all(b.shape == (n + 1, n + 1) and b.min() >= 0.0 for b in blocks), name
            W0, _, W, _ = blocks
            assert not W0.diagonal().any() and not W.diagonal().any(), (name, n)


def test_direct_solve_reads_no_within_block_diagonal(monkeypatch):
    shipped = oracle_mod._level_blocks

    def nan_diagonals(spec, n):
        W0, D, W, U = shipped(spec, n)
        np.fill_diagonal(W0, np.nan)
        np.fill_diagonal(W, np.nan)
        return W0, D, W, U

    cases = [(name, spec, n) for name, spec in _bit_identity_walks() for n in (8, 13, 30, 80, 160)]
    want = [oracle_mod._direct_censored(spec, n).tobytes() for _, spec, n in cases]
    monkeypatch.setattr(oracle_mod, "_level_blocks", nan_diagonals)
    for (name, spec, n), ref in zip(cases, want):
        assert oracle_mod._direct_censored(spec, n).tobytes() == ref, (name, n)


@pytest.mark.parametrize("n", [8, 9, 30])
def test_direct_solve_is_non_negative_with_a_negative_origin_stay(n):
    grid = oracle_mod._direct_censored(NEGATIVE_ORIGIN_STAY, n)
    assert np.isfinite(grid).all() and grid.min() >= 0.0
    assert grid.sum() == pytest.approx(1.0, abs=1e-12)


# --- stationary solve ---


def test_minimum_truncation_order():
    rng = np.random.default_rng(63)
    with pytest.raises(ValueError):
        q.truncated_stationary(random_walk(rng), 7)


def test_direct_solve_is_stationary():
    rng = np.random.default_rng(64)
    spec = random_walk(rng, neg_drift=True)
    n = 30
    w = q.truncated_stationary(spec, n)
    pi = w.values.ravel()
    P = transition_matrix(spec, n)
    assert np.abs(pi @ P - pi).max() <= 1e-13
    assert pi.min() >= 0.0
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_direct_and_power_agree():
    rng = np.random.default_rng(65)
    spec = random_walk(rng, neg_drift=True)
    a = q.truncated_stationary(spec, 25)
    b = power_stationary(spec, 25)
    assert np.abs(a.values - b).max() <= 1e-10


def _bit_identity_walks():
    rng = np.random.default_rng(73)
    walks = [(name, q.presets.load(name)) for name in PRESET_NAMES]
    return walks + [("forced", random_walk(rng, forced=True)), ("free", random_walk(rng))]


def _one_step_residual(spec, n, grid):
    """Largest componentwise |pi P - pi| / pi over cells above the floor."""
    pi = grid.ravel()
    flow = pi @ transition_matrix(spec, n)
    big = pi >= oracle_mod.MASS_FLOOR
    return float((np.abs(flow[big] - pi[big]) / pi[big]).max())


# The shipped solve carries the four level blocks and the top one through
# each stage; the plain reduction forms every level's own.  An even n keeps
# the top level at the first stage and an odd n (3, 9, 15) eliminates it there.  n = 2 and 3
# start from 3 and 4 levels, and n = 160 from 161.
@pytest.mark.parametrize("n", [2, 3, 8, 9, 15, 24, 30, 80, 100, 160])
def test_reduction_is_bit_identical_to_plain_reduction(n):
    for name, spec in _bit_identity_walks():
        got = oracle_mod._direct_censored(spec, n)
        want = plain_reduction(spec, n)
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("n", [8, 30, 80])
def test_reduction_agrees_with_rate_matrix_form(n):
    for name in PRESET_NAMES:
        spec = q.presets.load(name)
        got = oracle_mod._direct_censored(spec, n)
        want = keep_all_censored(spec, n)
        big = want >= oracle_mod.MASS_FLOOR
        assert (np.abs(got[big] - want[big]) / want[big]).max() <= 1e-12, name
        assert ((got == 0.0) == (want == 0.0)).all(), name
        assert got.min() >= 0.0, name


def _forced_draws(*indices):
    rng = np.random.default_rng(2024)
    draws = [random_walk(rng, forced=True) for _ in range(max(indices) + 1)]
    return [(f"forced {i}", draws[i]) for i in indices]


# At n = 160 each inversion runs three levels of the blocked recursion.
@pytest.mark.parametrize("n", [30, 80, 160])
def test_reduction_one_step_residual_is_componentwise(n):
    # keep_all_censored reads up to 2.8e-5 here (forced draw 16, n = 30).
    walks = [(name, q.presets.load(name)) for name in PRESET_NAMES]
    for name, spec in walks + _forced_draws(16, 20, 28, 30):
        grid = oracle_mod._direct_censored(spec, n)
        assert _one_step_residual(spec, n, grid) <= 1e-14, name


# The last level, censored onto one state, against state reduction on the
# whole block: measured up to 1.9e-15 on the random matrices and 8.6e-15 on
# the preset last levels, with numpy 2.4.
BLOCKED_GTH_AGREEMENT = 2e-14


def _assert_blocked_gth_agrees(W, label):
    got, want = oracle_mod._censored_stationary(W), loop_gth(W)
    assert got.min() >= 0.0 and ((got == 0.0) == (want == 0.0)).all(), label
    big = want > 0.0
    error = np.abs(got[big] - want[big]) / want[big]
    assert error.max() <= BLOCKED_GTH_AGREEMENT, label


def test_censored_stationary_matches_loop_gth_on_random_stochastic_matrices():
    leaf = oracle_mod._LEAF
    rng = np.random.default_rng(76)
    for m in (9, leaf - 1, leaf, leaf + 1, 2 * leaf + 1, 81, 161, 321):
        for _ in range(3):
            W = 10.0 ** rng.uniform(-30, 0, (m, m))
            W /= W.sum(axis=1, keepdims=True)
            _assert_blocked_gth_agrees(W, m)


@pytest.mark.parametrize("n", [80, 160])
def test_censored_stationary_matches_loop_gth_on_preset_last_levels(n, monkeypatch):
    # The last level of each solve.
    blocks = []
    shipped = oracle_mod._censored_stationary

    def record(W):
        blocks.append(W)
        return shipped(W)

    monkeypatch.setattr(oracle_mod, "_censored_stationary", record)
    for name in PRESET_NAMES:
        oracle_mod._direct_censored(q.presets.load(name), n)
    monkeypatch.undo()
    assert [W.shape for W in blocks] == [(n + 1, n + 1)] * len(PRESET_NAMES)
    for name, W in zip(PRESET_NAMES, blocks):
        _assert_blocked_gth_agrees(W, name)


# The blocked inverse against the column-by-column one: measured up to
# 6.1e-15 on the random blocks (30 generators) and 1.8e-14 on the preset
# blocks at n = 160 (fig2b), with numpy 2.4.
LEVEL_INVERSE_AGREEMENT = 5e-14


def _assert_inverse_agrees(D, W, U, label):
    escape = sum(b.sum(axis=1) for b in (D, U) if b is not None)
    inputs = W.tobytes(), escape.tobytes()
    got = oracle_mod._escape_inverse(W, escape)
    assert (W.tobytes(), escape.tobytes()) == inputs, label
    # Byte for byte at every size: above a leaf, a block returned in another
    # memory order sends the Schur products down another BLAS path.
    assert got.tobytes() == blocked_inverse(W, escape).tobytes(), label
    want = loop_level_inverse(D, W, U)
    assert got.min() >= 0.0 and ((got == 0.0) == (want == 0.0)).all(), label
    big = want > 0.0
    error = np.abs(got[big] - want[big]) / want[big]
    assert error.max() <= LEVEL_INVERSE_AGREEMENT, label


def _substochastic(D, W, U):
    total = (D.sum(axis=1) + W.sum(axis=1) + U.sum(axis=1))[:, None]
    return D / total, W / total, U / total


def test_level_inverse_matches_loop_on_random_blocks():
    leaf = oracle_mod._LEAF
    rng = np.random.default_rng(75)
    for m in (1, 2, leaf - 1, leaf, leaf + 1, 2 * leaf + 1, 161, 321, 2 * leaf):
        # Entries over 30 orders of magnitude, as in censored blocks; about
        # half the rows have no escape of their own.
        D, W, U = (10.0 ** rng.uniform(-30, 0, (m, m)) for _ in range(3))
        closed = rng.random(m) < 0.5
        closed[rng.integers(m)] = False
        D[closed] = U[closed] = 0.0
        _assert_inverse_agrees(*_substochastic(D, W, U), f"dense {m}")
        if m == 1:
            continue
        # A path whose only escape is at its last state, so every other row
        # reaches it through the rows between.
        W = np.diag(10.0 ** rng.uniform(-1, 0, m - 1), 1)
        W += np.diag(10.0 ** rng.uniform(-1, 0, m - 1), -1)
        D, U = np.zeros((m, m)), np.zeros((m, m))
        U[-1, -1] = 10.0 ** rng.uniform(-30, 0)
        _assert_inverse_agrees(*_substochastic(D, W, U), f"path {m}")


def test_level_inverse_matches_loop_on_preset_blocks(monkeypatch):
    # Every block the n = 160 solve inverts: the interior level's, then the
    # reduced ones of each stage.
    inverted = []
    shipped = oracle_mod._level_inverse

    def record(*triple):
        inverted.append(triple)
        return shipped(*triple)

    monkeypatch.setattr(oracle_mod, "_level_inverse", record)
    for name in PRESET_NAMES:
        oracle_mod._direct_censored(q.presets.load(name), 160)
    monkeypatch.undo()
    assert len(inverted) == 9 * len(PRESET_NAMES)
    for i, (D, W, U) in enumerate(inverted):
        _assert_inverse_agrees(D, W, U, f"{PRESET_NAMES[i // 9]} inversion {i % 9}")


def test_direct_solve_peak_memory_stays_below_10mb(switch):
    # Keeping all n rate matrices peaks at 36 MB here; cyclic reduction,
    # which keeps two or three products per halving, measured 5.8 MB (numpy 2.4).
    tracemalloc.start()
    try:
        q.truncated_stationary(switch, 160)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


def test_truncated_stationary_runs_direct_solve_at_every_n(switch, monkeypatch):
    solved = []

    def direct(spec, n):
        solved.append(n)
        return np.ones((n + 1, n + 1))

    monkeypatch.setattr(oracle_mod, "_direct_censored", direct)
    for n in (8, 120, 121, 400):
        q.truncated_stationary(switch, n)
    assert solved == [8, 120, 121, 400]


@pytest.mark.parametrize("n", [13, 30])
def test_truncated_stationary_solves_where_power_stalls(n):
    # The 29th forced draw of this generator (drift -0.52, -0.45): power
    # iteration raises NotConverged after 200,000 iterations at n = 13 and 30,
    # and the rate-matrix form's one-step residual reads 1.4e-10 at n = 30.
    [(_, spec)] = _forced_draws(28)
    grid = q.truncated_stationary(spec, n).values
    pi = grid.ravel()
    assert np.isfinite(pi).all() and pi.min() >= 0.0
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(pi @ transition_matrix(spec, n) - pi).max() <= 1e-13
    assert _one_step_residual(spec, n, grid) <= 1e-14


@pytest.mark.parametrize(
    "name, n", [("anti-diagonal", 8), ("anti-diagonal", 20), ("anti-diagonal", 80), ("up-right", 20)]
)
def test_truncation_that_traps_mass_raises(name, n):
    # The solve divides by a zero pivot on each of these, and its grid is
    # not finite: that must raise, without a numpy warning.
    spec = q.WalkSpec.from_dict(TRAPPING_WALKS[name])
    assert q.validate(spec) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"truncation size n = {n} traps mass"):
            q.truncated_stationary(spec, n)


def test_power_iteration_cap_raises(monkeypatch):
    rng = np.random.default_rng(66)
    spec = random_walk(rng, neg_drift=True)
    monkeypatch.setattr(power_reference, "POWER_CAP", 100)
    with pytest.raises(NotConverged) as err:
        power_stationary(spec, 20)
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


def test_core_rejects_a_size_outside_the_truncation():
    w = oracle_mod.LatticeWindow(10, np.full((11, 11), 1.0 / 121.0))
    assert w.core(0).shape == (1, 1) and w.core(10).shape == (11, 11)
    for size in (-2, -1, 11, 20):
        with pytest.raises(ValueError, match="outside the truncation 0..10"):
            w.core(size)


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


@pytest.mark.parametrize(
    "call, window",
    [("balance", 0), ("balance", -1), ("assemble", 0), ("assemble", -1)],
    ids=["balance-window-0", "balance-window-neg1", "assemble-window-0", "assemble-window-neg1"],
)
def test_window_below_one_is_value_error(switch, switch_series, switch_measure, call, window):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        with pytest.raises(ValueError, match=f"window {window} is too small"):
            if call == "balance":
                q.balance_residuals(switch, switch_measure.gamma, window=window)
            else:
                q.assemble_measure(switch_series, switch, window=window)


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


def test_compare_requires_a_core_beyond_the_origin(switch_oracle):
    # Normalized to unit mass, any two one-cell grids agree exactly.
    g = q.GammaSet([q.WeightedTerm(0.5, 0.5, 1.0)])
    with pytest.raises(ValueError, match="core 0"):
        q.compare(g, switch_oracle, core=0)


# --- convexity sampler ---


@pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c", "fig2d", "switch_fig7"])
def test_convexity_on_presets(name):
    rep = q.convexity_check(q.presets.load(name), samples=2000, seed=0)
    assert rep.passed
    assert rep.checked == rep.requested == 2000
    assert rep.violations == ()


@pytest.mark.parametrize("samples", [0, -5])
def test_convexity_rejects_samples_below_one(switch, samples):
    with pytest.raises(ValueError, match=f"samples = {samples} is too small"):
        q.convexity_check(switch, samples=samples)


def test_convexity_deterministic(fig2c):
    a = q.convexity_check(fig2c, samples=500, seed=7)
    b = q.convexity_check(fig2c, samples=500, seed=7)
    assert a.to_dict() == b.to_dict()


def test_convexity_report_dict(fig2a):
    d = q.convexity_check(fig2a, samples=200, seed=1).to_dict()
    assert set(d) == {"passed", "checked", "requested", "violations"}


def _feasible_share(spec, draws=20_000):
    """Share of the sampler's log box where Q < 0, from one uniform draw."""
    report = q.branch_points(spec)
    clamp = oracle_mod.LOG_CLAMP
    lo_u, lo_w = (max(math.log(v), clamp) if v > 0.0 else clamp for v in (report.x.low, report.y.low))
    hi_u, hi_w = (min(0.0, math.log(v)) for v in (report.x.high, report.y.high))
    rng = np.random.default_rng(0)
    u, w = rng.uniform(lo_u, hi_u, draws), rng.uniform(lo_w, hi_w, draws)
    return float(np.mean(q.kernel(spec).value(np.exp(u), np.exp(w)) < 0.0))


def test_convexity_matches_reference_sampler():
    # The presets and criterion 8's walks at their seeds and at seed 0.
    specs = [q.presets.load(name) for name in PRESET_NAMES]
    rng = np.random.default_rng(31)
    specs += [random_walk(rng, neg_drift=True) for _ in range(20)]
    # A thin region: at most 15% of the box is feasible, so the pool
    # carries points across at least five batches.
    rng = np.random.default_rng(31)
    thin = min((random_walk(rng, forced=True) for _ in range(40)), key=_feasible_share)
    assert _feasible_share(thin) <= 0.15
    specs.append(thin)
    for i, spec in enumerate(specs):
        for seed in (0, 1000 + i):
            got = q.convexity_check(spec, samples=10_000, seed=seed).to_dict()
            want = reference_convexity(spec, samples=10_000, seed=seed).to_dict()
            assert dumps(got) == dumps(want), (i, seed)
            assert got["checked"] == 10_000, (i, seed)
    # Odd sample counts leave points in the pool between batches.
    for samples in (1, 3, 257, 4099):
        for spec in specs[:5] + [thin]:
            got = q.convexity_check(spec, samples=samples, seed=samples)
            assert dumps(got.to_dict()) == dumps(reference_convexity(spec, samples, samples).to_dict())


def test_convexity_matches_reference_when_nothing_is_feasible(monkeypatch):
    # The second free walk of default_rng(31) drifts away from the origin,
    # up and right: no draw is feasible, so the reference stops at the
    # draw cap and the shipped sampler returns the same report unsampled.
    rng = np.random.default_rng(31)
    spec = [random_walk(rng) for _ in range(2)][-1]
    cases = [(spec, 2000, 5)]
    rng = np.random.default_rng(32)
    while len(cases) < 7:
        walk = random_walk(rng)
        d = q.drift(walk)
        if d.mx > 0.0 and d.my > 0.0:
            cases.append((walk, 200, len(cases)))
    want = [reference_convexity(*case).to_dict() for case in cases]

    def no_draws(*args, **kwargs):
        raise AssertionError("the sampler drew for a walk with no feasible point")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for case, ref in zip(cases, want):
        got = q.convexity_check(*case)
        assert got.checked == 0 and not got.passed
        assert dumps(got.to_dict()) == dumps(ref)


def test_convexity_matches_reference_on_a_nonconvex_set(monkeypatch, fig2c):
    # Q = 0.001 - (x - 1/2)^2 (y - 1/2)^2 is negative off a cross through
    # (1/2, 1/2), a set that is not convex, so both reports list violations
    # with the coordinates of each pair: the draws and their pairing match.
    px = np.array([0.25, -1.0, 1.0])
    c = -np.outer(px, px)
    c[0, 0] += 1e-3
    cross = q.KernelPoly(c)
    monkeypatch.setattr(oracle_mod, "kernel", lambda spec: cross)
    monkeypatch.setattr(convexity_reference, "kernel", lambda spec: cross)
    for samples, seed in ((10_000, 0), (257, 3), (4099, 11)):
        got = q.convexity_check(fig2c, samples=samples, seed=seed)
        assert not got.passed and len(got.violations) >= 5
        assert dumps(got.to_dict()) == dumps(reference_convexity(fig2c, samples, seed).to_dict())
