"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test is numbered and self-contained so a single pytest -v run shows
one line per criterion.  Tolerances are written inline and are not to be
loosened; a red line here means the release gate is not met.
"""

import math
import time

import numpy as np
import pytest

import qpwalk as q
from qpwalk.compensation import _t_of
from conftest import PRESET_NAMES, random_gamma, random_walk, twelve_dot_set
from partition_oracle import brute_force_partition
from power_reference import power_stationary


def test_criterion_1_switch_end_to_end(switch):
    t0 = time.perf_counter()

    seeds = q.curve_boundary_intersections(switch)
    series = [q.build_series(switch, s, tol=1e-12) for s in seeds]
    assert len(series) >= 2

    measure = q.assemble_measure(series, switch, window=12)
    oracle = q.truncated_stationary(switch, 80)
    sup_rel = q.compare(measure.gamma, oracle, core=8)

    elapsed = time.perf_counter() - t0
    assert sup_rel <= 1e-4
    assert measure.report.max_residual_interior <= 1e-8
    assert measure.report.window == 12
    assert elapsed < 30.0


def test_criterion_2_alternating_series_signs(switch, switch_series, switch_measure):
    alphas = [t.alpha for t in switch_measure.gamma.terms]
    assert min(alphas) < 0.0

    for series in switch_series:
        ratios = []
        for k, link in enumerate(series.links):
            pair, walk = series.terms[k : k + 2], switch
            if link == "V-coupled":
                pair, walk = [t.transpose() for t in pair], switch.transpose()
            t = _t_of(walk)
            ratios.append(t(pair[0].rho, pair[0].sigma) / t(pair[1].rho, pair[1].sigma))
        # Strict sign: every ratio of consecutive T values must be positive
        # from some index on, and that index must come early.
        bad = [k for k, r in enumerate(ratios) if not r > 0.0]
        first_clean = max(bad) + 1 if bad else 0
        assert first_clean <= 10


def test_criterion_3_branch_point_closed_forms(fig2c, fig2d):
    rep = q.branch_points(fig2c)
    x_l_exact = math.sqrt((27.0 - math.sqrt(645.0)) / 42.0)
    x_r_exact = math.sqrt((27.0 + math.sqrt(645.0)) / 42.0)
    assert abs(rep.x.low - x_l_exact) <= 1e-10
    assert abs(rep.x.high - x_r_exact) <= 1e-10

    coeffs = q.disc_y_coeffs(q.kernel(fig2d))
    expected = np.array([0.0, 0.0, 0.75, 0.0, -0.5])
    assert np.max(np.abs(coeffs - expected)) <= 1e-12


def test_criterion_4_origin_singularity_detection():
    rng = np.random.default_rng(2024)
    half = 0.5  # exact central differences for a biquadratic polynomial

    for i in range(1000):
        forced = i % 2 == 0
        spec = random_walk(rng, forced=forced)
        found = q.detect_singularity(spec)
        if forced:
            assert found == (0.0, 0.0)
        else:
            assert found is None

        # Independent numeric check: the curve has a double point at the
        # origin exactly when the kernel and both first derivatives vanish
        # there.  Central differences at step 0.5 are exact in degree two.
        ker = q.kernel(spec)
        value = ker.value(0.0, 0.0)
        dx = (ker.value(half, 0.0) - ker.value(-half, 0.0)) / (2.0 * half)
        dy = (ker.value(0.0, half) - ker.value(0.0, -half)) / (2.0 * half)
        numeric = max(abs(value), abs(dx), abs(dy)) <= 1e-12
        assert numeric == (found is not None)


def test_criterion_5_discriminant_root_split():
    rng = np.random.default_rng(713)
    checked = 0
    while checked < 1000:
        spec = random_walk(rng)
        if abs(q.drift(spec).my) <= 1e-3:
            continue
        checked += 1

        rep = q.branch_points(spec)
        assert len(rep.x.labels) == 4
        inside = [lab for lab in rep.x.labels if lab.modulus == "inside"]
        outside = [lab for lab in rep.x.labels if lab.modulus == "outside"]
        assert len(inside) == 2
        assert len(outside) == 2
        assert rep.x.consistent

        # Recompute both sign sub-cases from the raw probabilities and
        # check the labeled root pairs directly against them.
        for pair, p0, pm, pp, far in (
            (inside, spec.p(1, 0), spec.p(1, -1), spec.p(1, 1), "zero"),
            (outside, spec.p(-1, 0), spec.p(-1, -1), spec.p(-1, 1), "infinite"),
        ):
            gap = p0 - 2.0 * math.sqrt(pm * pp)
            signs = sorted(lab.sign for lab in pair)
            if abs(gap) <= 1e-8:
                assert far in signs
            elif gap > 0:
                assert signs == ["positive", "positive"]
            else:
                assert signs == ["negative", "positive"]


def _check_trace_geometry(spec):
    tr = q.trace_qplus(spec, 2048)
    pts = tr.points
    assert pts.shape[0] >= 2048

    xs, ys = pts[:, 0], pts[:, 1]
    # No axis crossing away from the origin: a point essentially on an
    # axis must be essentially the origin itself.
    assert xs.min() >= -1e-12
    assert ys.min() >= -1e-12
    near_axis = (xs <= 1e-9) | (ys <= 1e-9)
    if near_axis.any():
        assert np.maximum(xs, ys)[near_axis].max() <= 1e-6

    # Arc monotonicity along the traversal order of the loop.
    directions = {
        "Q00": (+1, -1),
        "Q10": (+1, +1),
        "Q11": (-1, +1),
        "Q01": (-1, -1),
    }
    for name, (sx, sy) in directions.items():
        seg = tr.arc_points(name)
        if seg.shape[0] < 2:
            continue
        assert np.min(sx * np.diff(seg[:, 0])) >= -1e-9
        assert np.min(sy * np.diff(seg[:, 1])) >= -1e-9

    # The point (1, 1) lies on the curve and on the traced loop.
    ker = q.kernel(spec)
    assert abs(ker.value(1.0, 1.0)) <= 1e-12 * ker.scale
    dist = np.hypot(xs - 1.0, ys - 1.0)
    assert dist.min() <= 1e-9

    # Single connected component: the ordered samples close into one loop
    # without a jump anywhere near the size of the loop itself.
    loop = np.vstack([pts, pts[:1]])
    gaps = np.hypot(np.diff(loop[:, 0]), np.diff(loop[:, 1]))
    span = max(float(np.ptp(xs)), float(np.ptp(ys)))
    assert gaps.max() <= 0.08 * span


def test_criterion_6_trace_geometry():
    rng = np.random.default_rng(88)
    from qpwalk import presets

    for name in PRESET_NAMES[:4]:
        _check_trace_geometry(presets.load(name))
    for _ in range(50):
        _check_trace_geometry(random_walk(rng))


def test_criterion_7_partition_exactness():
    rng = np.random.default_rng(55)
    for _ in range(500):
        g = random_gamma(rng)
        assert len(g.terms) <= 8
        a = q.maximal_partitions(g)
        b = brute_force_partition(g)
        assert (a.h_groups, a.v_groups, a.g_groups) == (
            b.h_groups,
            b.v_groups,
            b.g_groups,
        )

    fixture = twelve_dot_set()
    assert q.maximal_partitions(fixture).counts == (6, 6, 4)
    assert brute_force_partition(fixture).counts == (6, 6, 4)


def test_criterion_8_negative_set_convexity():
    from qpwalk import presets

    rng = np.random.default_rng(31)
    specs = [presets.load(name) for name in PRESET_NAMES[:4]]
    specs += [random_walk(rng, neg_drift=True) for _ in range(20)]

    for i, spec in enumerate(specs):
        rep = q.convexity_check(spec, samples=10_000, seed=1000 + i)
        assert rep.passed
        assert rep.checked == rep.requested == 10_000
        assert rep.violations == ()


def test_criterion_9_oracle_cross_validation(switch):
    for n in (40, 80):
        direct = q.truncated_stationary(switch, n)
        power = power_stationary(switch, n)
        assert np.max(np.abs(direct.values - power)) <= 1e-10

    w80 = q.truncated_stationary(switch, 80)
    w100 = q.truncated_stationary(switch, 100)
    a = w80.values[:9, :9]
    b = w100.values[:9, :9]
    rel = np.abs(a - b) / np.maximum(np.abs(b), 1e-300)
    assert rel.max() <= 1e-8
