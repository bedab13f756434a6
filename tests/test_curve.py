"""Kernel polynomial, discriminants, branch points and curve tracing."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpwalk as q
from qpwalk import curve
from qpwalk.cli import dumps
from qpwalk.curve import (
    boundary_h,
    disc_y_coeffs,
    quartic_real_roots,
    real_roots,
    y_quadratic,
)
from qpwalk.errors import ComplexRoots, EmptyComponent

from conftest import PRESET_NAMES, random_walk, product_form_walk
from loop_trace import loop_trace


# --- kernel polynomial ---


def test_kernel_coefficients_fig2a(fig2a):
    # Q(x,y) = (3/5) x^2 y^2 + (1/5) y + (1/5) x - x y
    ker = q.kernel(fig2a)
    c = ker.c
    assert c[2, 2] == pytest.approx(0.6, abs=1e-15)
    assert c[0, 1] == pytest.approx(0.2, abs=1e-15)
    assert c[1, 0] == pytest.approx(0.2, abs=1e-15)
    assert c[1, 1] == pytest.approx(-1.0, abs=1e-15)
    for idx in ((0, 0), (2, 0), (0, 2), (1, 2), (2, 1)):
        assert c[idx] == 0.0


def test_kernel_coefficients_fig2d(fig2d):
    # Q(x,y) = x^2/4 + y^2/4 + x^2 y^2 / 2 - x y
    ker = q.kernel(fig2d)
    c = ker.c
    assert c[2, 0] == pytest.approx(0.25, abs=1e-15)
    assert c[0, 2] == pytest.approx(0.25, abs=1e-15)
    assert c[2, 2] == pytest.approx(0.5, abs=1e-15)
    assert c[1, 1] == pytest.approx(-1.0, abs=1e-15)


def test_kernel_coefficient_layout():
    rng = np.random.default_rng(21)
    spec = random_walk(rng)
    c = q.kernel(spec).c
    for a in range(3):
        for b in range(3):
            if (a, b) == (1, 1):
                assert c[a, b] == spec.p(0, 0) - 1.0
            else:
                assert c[a, b] == spec.p(1 - a, 1 - b)


def test_kernel_vanishes_at_one_one():
    rng = np.random.default_rng(22)
    for _ in range(25):
        ker = q.kernel(random_walk(rng))
        assert abs(ker.value(1.0, 1.0)) <= 1e-14 * ker.scale


def test_kernel_value_broadcasts(fig2d):
    ker = q.kernel(fig2d)
    xs = np.array([0.2, 0.5, 1.0])
    vals = ker.value(xs, 0.5)
    assert vals.shape == (3,)
    assert vals[2] == pytest.approx(ker.value(1.0, 0.5))


# --- quadratic sections ---


def test_y_quadratic_fig2d_at_one(fig2d):
    A, B, C = y_quadratic(q.kernel(fig2d), 1.0)
    assert (A, B, C) == pytest.approx((0.75, -1.0, 0.25), abs=1e-15)


def test_y_quadratic_fig2a_at_zero(fig2a):
    A, B, C = y_quadratic(q.kernel(fig2a), 0.0)
    assert (A, B, C) == pytest.approx((0.0, 0.2, 0.0), abs=1e-15)


@given(x=st.floats(0.01, 1.5), y=st.floats(0.01, 1.5))
def test_quadratic_sections_reproduce_kernel(x, y):
    rng = np.random.default_rng(23)
    spec = random_walk(rng)
    ker = q.kernel(spec)
    A, B, C = y_quadratic(ker, x)
    direct = ker.value(x, y)
    assert A * y * y + B * y + C == pytest.approx(direct, abs=1e-13 * ker.scale)
    A2, B2, C2 = y_quadratic(q.kernel(spec.transpose()), y)
    assert A2 * x * x + B2 * x + C2 == pytest.approx(direct, abs=1e-13 * ker.scale)


def test_transposed_walk_kernel_is_transposed_kernel():
    # The vertical steps of build_series and necessary_conditions run on
    # the twin's own kernel, so it must be this kernel's transpose bit for
    # bit for the series to match the walk's H and V roles.
    rng = np.random.default_rng(24)
    specs = [q.presets.load(name) for name in PRESET_NAMES]
    specs += [random_walk(rng) for _ in range(20)]
    for spec in specs:
        assert np.array_equal(q.kernel(spec.transpose()).c, q.kernel(spec).c.T)


# --- discriminants ---


def test_disc_y_fig2d_exact(fig2d):
    # Delta_y(x) = x^2 (3/4 - x^2/2)
    coeffs = disc_y_coeffs(q.kernel(fig2d))
    assert np.allclose(coeffs, [0.0, 0.0, 0.75, 0.0, -0.5], atol=1e-15)


def test_disc_matches_pointwise_evaluation():
    rng = np.random.default_rng(25)
    spec = random_walk(rng)
    ker = q.kernel(spec)
    dy = disc_y_coeffs(ker)
    ker_t = q.kernel(spec.transpose())
    dx = disc_y_coeffs(ker_t)
    for z in np.linspace(0.05, 1.4, 7):
        A, B, C = y_quadratic(ker, z)
        assert np.polyval(dy[::-1], z) == pytest.approx(B * B - 4 * A * C, rel=1e-12, abs=1e-14)
        A, B, C = y_quadratic(ker_t, z)
        assert np.polyval(dx[::-1], z) == pytest.approx(B * B - 4 * A * C, rel=1e-12, abs=1e-14)


def test_disc_degree_at_most_four():
    rng = np.random.default_rng(26)
    for _ in range(5):
        assert len(disc_y_coeffs(q.kernel(random_walk(rng)))) == 5


# --- quartic root finder ---


def test_quartic_known_roots():
    # (x - 0.3)(x - 0.8)(x - 1.25)(x - 2.0), expanded
    roots = [0.3, 0.8, 1.25, 2.0]
    coeffs = np.poly(roots)[::-1]  # ascending order
    found, n_inf = quartic_real_roots(tuple(coeffs))
    assert n_inf == 0
    assert found == pytest.approx(sorted(roots), rel=1e-9)


def test_quartic_degree_drop_reports_roots_at_infinity():
    # cubic disguised as a quartic: leading coefficient zero
    roots = [0.2, 0.7, 1.5]
    coeffs = list(np.poly(roots)[::-1]) + [0.0]
    found, n_inf = quartic_real_roots(tuple(coeffs))
    assert n_inf == 1
    assert len(found) == 3
    assert found == pytest.approx(sorted(roots), rel=1e-9)


def test_quartic_rejects_complex_pairs():
    with pytest.raises(ComplexRoots):
        quartic_real_roots((1.0, 0.0, 0.0, 0.0, 1.0))  # x^4 + 1


def test_quartic_repeated_root():
    coeffs = np.poly([0.5, 0.5, 1.2, 2.0])[::-1]
    found, n_inf = quartic_real_roots(tuple(coeffs))
    assert n_inf == 0
    assert found[0] == pytest.approx(0.5, abs=1e-6)
    assert found[1] == pytest.approx(0.5, abs=1e-6)


def test_real_roots_skips_complex_pairs():
    # (x - 0.4)(x - 1.7)(x^2 + 1)(x^2 - 2x + 5): two real roots, two pairs
    coeffs = np.polymul(np.poly([0.4, 1.7]), np.polymul([1, 0, 1], [1, -2, 5]))
    found, n_inf = real_roots(coeffs[::-1])
    assert n_inf == 0
    assert found == pytest.approx([0.4, 1.7], rel=1e-12)


# --- branch points ---


def test_branch_points_fig2c_closed_form(fig2c):
    rep = q.branch_points(fig2c)
    x_l = math.sqrt((27.0 - math.sqrt(645.0)) / 42.0)
    x_r = math.sqrt((27.0 + math.sqrt(645.0)) / 42.0)
    assert rep.x.low == pytest.approx(x_l, abs=1e-12)
    assert rep.x.high == pytest.approx(x_r, abs=1e-12)


def test_branch_points_fig2d_report(fig2d):
    rep = q.branch_points(fig2d)
    assert rep.x.roots == pytest.approx((-math.sqrt(1.5), 0.0, 0.0, math.sqrt(1.5)), abs=1e-12)
    assert rep.x.low == pytest.approx(0.0, abs=1e-12)
    assert rep.x.high == pytest.approx(math.sqrt(1.5), abs=1e-12)
    assert rep.x.case_inner == "b"
    assert rep.x.case_outer == "c"
    assert rep.x.consistent and rep.y.consistent
    # corners: two at the origin crossing, two on the outer rim
    assert rep.corners[2][0] == pytest.approx(math.sqrt(1.5), abs=1e-12)
    assert rep.corners[2][1] == pytest.approx(math.sqrt(1.5) / 2.0, abs=1e-12)


def test_branch_points_fig2b_unit_root(fig2b):
    # zero vertical drift puts a discriminant root exactly at 1
    rep = q.branch_points(fig2b)
    roots = rep.x.roots
    assert roots[2] == pytest.approx(1.0, abs=1e-8)
    assert roots[0] == pytest.approx(0.15240294919944813, abs=1e-10)
    assert roots[1] == pytest.approx(0.41009705080055203, abs=1e-10)
    assert math.isinf(roots[3])
    assert rep.x.low == pytest.approx(roots[1], abs=1e-12)
    assert rep.x.high == pytest.approx(1.0, abs=1e-8)
    assert rep.x.consistent


def test_branch_points_interval_brackets_one():
    rng = np.random.default_rng(27)
    for _ in range(20):
        spec = random_walk(rng, neg_drift=True)
        rep = q.branch_points(spec)
        assert 0.0 <= rep.x.low < 1.0 < rep.x.high
        assert 0.0 <= rep.y.low < 1.0 < rep.y.high


def test_branch_point_labels_carry_modulus():
    rng = np.random.default_rng(28)
    rep = q.branch_points(random_walk(rng))
    for lab in rep.x.labels:
        d = lab.to_dict()
        assert set(d) >= {"value", "modulus", "sign"}


def test_report_to_dict_round_trips_floats(fig2c):
    d = q.branch_points(fig2c).to_dict()
    assert set(d) >= {"roots_x", "roots_y", "labels", "interval", "corners"}
    assert d["interval"]["x_l"] == pytest.approx(q.branch_points(fig2c).x.low)


# --- one geometry per walk ---


def _geometry_walks():
    walks = [q.presets.load(name) for name in PRESET_NAMES]
    rng = np.random.default_rng(29)
    walks += [random_walk(rng, forced=k % 2 == 0) for k in range(8)]
    return walks


def _same_axes(a, b):
    """Whether two branch-point reports hold the same two axis records."""
    return a.x is b.x and a.y is b.y


def test_geometry_is_computed_once_per_walk():
    for spec in _geometry_walks():
        report = q.branch_points(spec)
        assert _same_axes(q.branch_points(spec), report)
        assert q.kernel(spec) is q.kernel(spec)
        assert _same_axes(q.trace_qplus(spec, 128).report, report)


def test_kernel_is_built_once_per_orientation(monkeypatch):
    # Seeds, series, assembly and the battery of one walk, which all ask
    # for the kernels of the walk and of its transposed twin.
    built = []
    build = curve._build_kernel

    def counted(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(curve, "_build_kernel", counted)
    rng = np.random.default_rng(30)
    walks = [q.presets.load("switch_fig7"), q.presets.load("fig2d")]
    walks += [random_walk(rng, forced=True) for _ in range(6)]
    for spec in walks:
        built.clear()
        seeds = q.curve_boundary_intersections(spec)
        series = []
        for s in seeds:
            try:
                series.append(q.build_series(spec, (s.x, s.y)))
            except q.QpwalkError:
                pass
        if series:
            measure = q.assemble_measure(series, spec)
            q.necessary_conditions(spec, measure.gamma)
        assert seeds
        assert len(built) <= 2
        assert all(sum(b is w for b in built) <= 1 for w in (spec, spec.transpose()))


def test_each_axis_is_computed_once_per_orientation(monkeypatch):
    # A walk's y axis is its twin's x axis: the two reports share both.
    built = []
    build = curve._axis_branch_data

    def counted(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(curve, "_axis_branch_data", counted)
    for spec in _geometry_walks():
        report = q.branch_points(spec)
        mirror = q.branch_points(spec.transpose())
        assert built == [spec, spec.transpose()]
        assert mirror.x is report.y and mirror.y is report.x
        built.clear()


def test_fresh_spec_gives_an_equal_geometry():
    for spec in _geometry_walks():
        report, trace = q.branch_points(spec), q.trace_qplus(spec, 256)
        again = q.WalkSpec(spec.interior, spec.horizontal, spec.vertical)
        assert q.branch_points(again).x is not report.x
        assert dumps(q.branch_points(again).to_dict()) == dumps(report.to_dict())
        assert q.kernel(again).c.tobytes() == q.kernel(spec).c.tobytes()
        assert q.trace_qplus(again, 256).points.tobytes() == trace.points.tobytes()


def test_transpose_keeps_its_own_geometry():
    for spec in _geometry_walks():
        report = q.branch_points(spec)
        flipped = spec.transpose()
        own = q.branch_points(flipped)
        assert own is not report and _same_axes(q.branch_points(flipped), own)
        assert own.x.roots == report.y.roots and own.y.roots == report.x.roots
        assert q.kernel(flipped).c.tobytes() == q.kernel(spec).c.T.tobytes()
        assert _same_axes(q.branch_points(spec), report)


def test_singular_walk_raises_on_every_call():
    w = np.zeros((3, 3))
    w[2] = (0.2, 0.2, 0.1)
    w[1] = (0.2, 0.1, 0.2)
    spec = q.WalkSpec(w, w[:, 0] + w[:, 1], w[1] + w[0])
    calls = (q.kernel, q.branch_points, q.trace_qplus, q.detect_singularity,
             q.curve_boundary_intersections, q.convexity_check)
    for _ in range(2):
        for call in calls:
            with pytest.raises(q.errors.SingularWalk):
                call(spec)


# --- singularity detection ---


def test_singularity_on_switch(switch):
    assert q.detect_singularity(switch) == (0.0, 0.0)


def test_singularity_on_fig2d(fig2d):
    assert q.detect_singularity(fig2d) == (0.0, 0.0)


@pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c"])
def test_no_singularity_on_generic_presets(name):
    assert q.detect_singularity(q.presets.load(name)) is None


def test_tiny_north_step_has_no_singularity():
    # A north step of 1e-13 makes the walk not eligible, so the curve does
    # not cross itself, though Q and its partials at the origin are within
    # 1e-12 of zero.
    rng = np.random.default_rng(29)
    spec = random_walk(rng, forced=True)
    w = spec.interior.copy()
    w[1, 2] = 1e-13
    w[1, 1] -= 1e-13
    tweaked = q.WalkSpec(w, spec.horizontal, spec.vertical)
    assert q.validate(tweaked) == []
    assert q.detect_singularity(tweaked) is None


def test_forced_class_always_crosses_at_origin():
    rng = np.random.default_rng(30)
    for _ in range(50):
        spec = random_walk(rng, forced=True)
        assert q.detect_singularity(spec) == (0.0, 0.0)


# --- tracing ---


def test_trace_fig2a_structure(fig2a):
    tr = q.trace_qplus(fig2a, 2048)
    assert len(tr.points) >= 2048
    assert set(tr.arcs) == {"Q00", "Q10", "Q11", "Q01"}
    ker = q.kernel(fig2a)
    res = np.abs(ker.value(tr.points[:, 0], tr.points[:, 1])) / ker.scale
    assert res.max() <= 1e-10
    rep = tr.report
    assert tr.points[:, 0].min() == pytest.approx(rep.x.low, abs=1e-9)
    assert tr.points[:, 0].max() == pytest.approx(rep.x.high, abs=1e-9)


def test_trace_starts_at_left_corner_with_y_decreasing(fig2a):
    tr = q.trace_qplus(fig2a, 512)
    first = tr.arc_points("Q00")
    assert first[0, 0] == pytest.approx(tr.report.x.low, abs=1e-9)
    assert first[1, 1] <= first[0, 1] + 1e-12


def test_trace_touches_one_one(fig2b):
    tr = q.trace_qplus(fig2b, 512)
    d = np.hypot(tr.points[:, 0] - 1.0, tr.points[:, 1] - 1.0).min()
    assert d <= 1e-9


def test_trace_singular_walk_raises(fig2d):
    w = np.zeros((3, 3))
    w[2] = (0.2, 0.2, 0.1)
    w[1] = (0.2, 0.1, 0.2)
    spec = q.WalkSpec(w, w[:, 0] + w[:, 1], w[1] + w[0])
    with pytest.raises(q.errors.SingularWalk):
        q.trace_qplus(spec, 256)


def _trace_walks():
    walks = [(name, q.presets.load(name)) for name in PRESET_NAMES]
    rng = np.random.default_rng(33)
    for i in range(4):
        walks.append((f"eligible {i}", random_walk(rng, forced=True)))
        walks.append((f"non-eligible {i}", random_walk(rng)))
    return walks


# The trace fills its rows with array operations; the reference appends one
# point and one label per sample.
@pytest.mark.parametrize("n_points", [64, 512, 2048, 4096])
def test_trace_is_bit_identical_to_loop(n_points):
    for name, spec in _trace_walks():
        tr = q.trace_qplus(spec, n_points)
        points, arcs = loop_trace(spec, n_points)
        assert tr.points.dtype == np.float64 and tr.points.flags.c_contiguous, name
        assert tr.points.shape == points.shape, name
        assert tr.points.tobytes() == points.tobytes(), name
        assert tr.arcs == arcs, name
        assert all(type(a) is str for a in tr.arcs), name


def test_trace_raises_when_no_point_is_on_curve(fig2a, monkeypatch):
    monkeypatch.setattr(q.curve, "ONCURVE_TOL", -1.0)
    message = "all sampled points failed the on-curve residual"
    with pytest.raises(EmptyComponent, match=message):
        loop_trace(fig2a, 512)
    with pytest.raises(EmptyComponent, match=message):
        q.trace_qplus(fig2a, 512)


def test_trace_point_count_scales(fig2c):
    small = q.trace_qplus(fig2c, 256)
    big = q.trace_qplus(fig2c, 1024)
    assert len(big.points) > len(small.points)


# --- axis boundary polynomials and seeds ---


def test_boundary_polynomials_vanish_on_product_form():
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec, rho, sigma = product_form_walk(rng)
        assert abs(boundary_h(spec, rho, sigma)) <= 1e-14
        assert abs(boundary_h(spec.transpose(), sigma, rho)) <= 1e-14
        ker = q.kernel(spec)
        assert abs(ker.value(rho, sigma)) <= 1e-13 * ker.scale


def test_switch_seed_coordinates(switch_seeds):
    assert [s.which for s in switch_seeds] == ["H", "V"]
    h, v = switch_seeds
    assert h.x == pytest.approx(162.0 / 437.0, abs=1e-12)
    assert h.y == pytest.approx(0.1528279001512407, abs=1e-12)
    assert v.x == pytest.approx(0.21886727713323773, abs=1e-12)
    assert v.y == pytest.approx(63.0 / 88.0, abs=1e-12)


def test_seeds_lie_on_curve_and_named_boundary(switch, switch_seeds):
    ker = q.kernel(switch)
    for s in switch_seeds:
        assert abs(ker.value(s.x, s.y)) <= 1e-10 * ker.scale
        if s.which == "H":
            assert abs(boundary_h(switch, s.x, s.y)) <= 1e-10
        else:
            assert abs(boundary_h(switch.transpose(), s.y, s.x)) <= 1e-10
        assert 0.0 < s.x < 1.0 and 0.0 < s.y < 1.0


def test_seed_dicts_are_serializable(switch_seeds):
    d = switch_seeds[0].to_dict()
    assert d["which"] == "H"
    assert isinstance(d["x"], float)
