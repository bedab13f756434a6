"""Compensation series construction and superposition for eligible walks."""

import json
import math

import numpy as np
import pytest

import qpwalk as q
from qpwalk import cli, compensation, presets
from qpwalk.compensation import _ratio, _t_of
from qpwalk.curve import U_MARGIN, _companion, y_quadratic
from qpwalk.errors import (
    DegenerateT,
    Diverged,
    EmptyComponent,
    IllConditioned,
    MixedGroup,
    NotEligible,
    OffCurve,
    StalledAtBranchPoint,
)
from qpwalk.terms import _bh_terms, _close

from conftest import PRESET_NAMES, random_walk


# --- eligibility ---


def test_eligibility_of_presets(fig2a, fig2b, fig2c, fig2d, switch):
    assert q.eligible(switch)
    assert q.eligible(fig2d)
    assert not q.eligible(fig2a)
    assert not q.eligible(fig2b)
    assert not q.eligible(fig2c)


def test_forced_class_is_eligible():
    rng = np.random.default_rng(50)
    assert q.eligible(random_walk(rng, forced=True))


# --- balancing values ---


def test_t_value_at_one_one_is_vertical_drift():
    rng = np.random.default_rng(51)
    for _ in range(25):
        spec = random_walk(rng)
        d = q.drift(spec)
        assert _t_of(spec)(1.0, 1.0) == pytest.approx(d.my, abs=1e-15)
        assert _t_of(spec.transpose())(1.0, 1.0) == pytest.approx(d.mx, abs=1e-15)


def test_t_value_rejects_nonpositive_coordinates(switch):
    with pytest.raises(ValueError):
        _t_of(switch)(0.0, 0.5)
    with pytest.raises(ValueError):
        _t_of(switch.transpose())(-0.2, 0.5)


# --- companions ---


def test_companion_values_at_switch_seeds(switch, switch_seeds):
    h, v = switch_seeds
    status, value = _companion(q.kernel(switch.transpose()), h.y, h.x)
    assert status == "ok"
    assert value == pytest.approx(0.036842571570369596, rel=1e-10)
    status, value = _companion(q.kernel(switch), v.x, v.y)
    assert status == "ok"
    assert value == pytest.approx(0.08460066527608061, rel=1e-10)


def test_companion_exits_unit_square_at_h_seed(switch, switch_seeds):
    # the other root above the horizontal seed is exactly y = 1
    h = switch_seeds[0]
    assert _companion(q.kernel(switch), h.x, h.y)[0] == "exits-u"


def test_companion_within_u_margin_of_one_exits_u():
    # A nonsingular walk whose kernel at x = 1/2 is (y - 1/2)(y - b) with
    # b = 1 - 1e-10: the companion of (1/2, 1/2) is b, inside the U_MARGIN
    # band where the battery's in_u rejects a term, so a series must not
    # keep it.  Kernel row a = 0 is set so that A, B and C at x = 1/2 are
    # 1, -(1/2 + b) and b/2; the walk is p[s][t] = c[1-s][1-t] with one
    # added to p[0][0], and need not be stochastic.
    b = 1.0 - 1e-10
    c = np.full((3, 3), 0.1)
    rest = 0.1 * 0.5 + 0.1 * 0.25  # rows a = 1, 2 at x = 1/2
    c[0] = (0.5 * b - rest, -(0.5 + b) - rest, 1.0 - rest)
    spec = q.WalkSpec(np.flip(c) + np.diag([0.0, 1.0, 0.0]), np.zeros(3), np.zeros(3))
    assert not q.singular_class(spec).singular
    A, B, C = y_quadratic(q.kernel(spec), 0.5)
    assert (A, B, C) == pytest.approx((1.0, -(0.5 + b), 0.5 * b), abs=1e-15)
    status, value = _companion(q.kernel(spec), 0.5, 0.5)
    assert 1.0 - U_MARGIN < value < 1.0
    assert status == "exits-u"


def test_companion_double_root_at_corners(switch):
    rep = q.branch_points(switch)
    ker = q.kernel(switch)
    A, B, _ = y_quadratic(ker, rep.x.high)
    assert _companion(ker, rep.x.high, -B / (2 * A))[0] == "double-root"
    twin_ker = q.kernel(switch.transpose())
    A, B, _ = y_quadratic(twin_ker, rep.y.high)
    assert _companion(twin_ker, rep.y.high, -B / (2 * A))[0] == "double-root"


def test_companion_vieta_product(switch, switch_series):
    ker = q.kernel(switch)
    for term in switch_series[0].terms[:6]:
        status, value = _companion(ker, term.rho, term.sigma)
        if status != "ok":
            continue
        A, _, C = y_quadratic(ker, term.rho)
        assert term.sigma * value == pytest.approx(C / A, rel=1e-11)


def test_companion_involution(switch, switch_series):
    ker = q.kernel(switch)
    term = switch_series[0].terms[2]
    status, down = _companion(ker, term.rho, term.sigma)
    if status == "ok":
        status, back = _companion(ker, term.rho, down)
        assert status == "ok"
        assert back == pytest.approx(term.sigma, rel=1e-9)


# --- coefficient ratios ---


def test_ratio_requires_shared_coordinate(switch, switch_series):
    t1, t2 = switch_series[0].terms[0], switch_series[0].terms[1]
    # this pair shares sigma, not rho
    assert not _close(t1.rho, t2.rho)
    t = _t_of(switch.transpose())
    assert _ratio(t(t1.sigma, t1.rho), t(t2.sigma, t2.rho)) < 0


@pytest.mark.parametrize("rho2", [math.inf, -math.inf])
def test_ratio_with_an_infinite_rho_is_a_mixed_group(switch, rho2):
    # An infinite coordinate shares rho with no finite one, nor with itself.
    with pytest.raises(MixedGroup):
        _bh_terms([q.WeightedTerm(0.5, 0.3, 1.0), q.WeightedTerm(rho2, 0.2, 1.0)], switch)
    with pytest.raises(MixedGroup):
        _bh_terms([q.WeightedTerm(rho2, 0.3, 1.0), q.WeightedTerm(rho2, 0.2, 1.0)], switch)


def test_series_coefficients_follow_ratios(switch, switch_series):
    for ser in switch_series:
        for k, link in enumerate(ser.links):
            t1, t2 = ser.terms[k], ser.terms[k + 1]
            if link == "V-coupled":
                t1, t2, walk = t1.transpose(), t2.transpose(), switch.transpose()
            else:
                walk = switch
            t = _t_of(walk)
            ratio = _ratio(t(t1.rho, t1.sigma), t(t2.rho, t2.sigma))
            assert t2.alpha == pytest.approx(ratio * t1.alpha, rel=1e-12)


def test_ratio_at_a_vanishing_balancing_value_raises(switch, switch_seeds):
    # The H seed balances the horizontal axis alone, so its T is zero up
    # to rounding and cannot divide.
    h = switch_seeds[0]
    t = _t_of(switch)
    assert abs(t(h.x, h.y)) < compensation.T_DEGENERACY_TOL
    with pytest.raises(DegenerateT, match="vanishes at working precision"):
        _ratio(t(h.x, 0.5), t(h.x, h.y))


# --- series construction ---


def test_build_series_not_eligible(fig2a):
    with pytest.raises(NotEligible):
        q.build_series(fig2a, (0.5, 0.5))


def test_build_series_rejects_off_curve_seed(switch):
    with pytest.raises(OffCurve):
        q.build_series(switch, (0.5, 0.5))


def test_build_series_rejects_interior_curve_point(switch):
    # on the curve but on neither axis polynomial
    tr = q.trace_qplus(switch, 512)
    inside = [
        p
        for p in tr.points
        if 0.02 < p[0] < 0.98 and 0.02 < p[1] < 0.98
    ]
    pt = inside[len(inside) // 2]
    from qpwalk.curve import boundary_h

    res_v = boundary_h(switch.transpose(), pt[1], pt[0])
    if min(abs(boundary_h(switch, *pt)), abs(res_v)) > 1e-8:
        with pytest.raises(OffCurve):
            q.build_series(switch, tuple(pt))


def test_build_series_rejects_seed_outside_unit_square(switch):
    rep = q.branch_points(switch)
    ker = q.kernel(switch)
    A, B, _ = y_quadratic(ker, rep.x.high)
    with pytest.raises(OffCurve):
        q.build_series(switch, (rep.x.high, -B / (2 * A)))


def test_switch_series_shapes(switch_series):
    h, v = switch_series
    assert len(h.terms) == 26
    assert len(v.terms) == 27
    assert h.stopped == v.stopped == "converged"
    assert h.start.which == "H"
    assert v.start.which == "V"
    assert h.tail_bound <= 1e-12 and v.tail_bound <= 1e-12


def test_switch_series_links_alternate(switch_series):
    h, v = switch_series
    assert h.links[:4] == ("V-coupled", "H-coupled", "V-coupled", "H-coupled")
    assert v.links[:4] == ("H-coupled", "V-coupled", "H-coupled", "V-coupled")
    for ser in (h, v):
        for a, b in zip(ser.links, ser.links[1:]):
            assert a != b


def test_switch_series_terms_on_curve(switch, switch_series):
    ker = q.kernel(switch)
    for ser in switch_series:
        for t in ser.terms:
            assert abs(ker.value(t.rho, t.sigma)) <= 1e-12 * ker.scale
            assert 0.0 < t.rho < 1.0 and 0.0 < t.sigma < 1.0


def test_switch_series_signs_alternate(switch_series):
    for ser in switch_series:
        signs = [math.copysign(1.0, t.alpha) for t in ser.terms]
        assert signs[0] == 1.0
        for a, b in zip(signs, signs[1:]):
            assert a == -b


def test_coordinates_accumulate_at_origin(switch_series):
    # every second term shrinks strictly in both coordinates
    for ser in switch_series:
        rho = [t.rho for t in ser.terms]
        sigma = [t.sigma for t in ser.terms]
        for k in range(1, len(ser.terms) - 2):
            assert rho[k + 2] < rho[k]
            assert sigma[k + 2] < sigma[k]


def test_build_series_deterministic(switch, switch_seeds, switch_series):
    again = q.build_series(switch, switch_seeds[0], tol=1e-12)
    assert [t.rho for t in again.terms] == [t.rho for t in switch_series[0].terms]
    assert [t.alpha for t in again.terms] == [t.alpha for t in switch_series[0].terms]


@pytest.mark.parametrize("max_terms", [1, 0, -3])
def test_build_series_rejects_max_terms_below_2(switch, switch_seeds, max_terms):
    # A series of the seed alone balances one axis only.
    message = rf"^max_terms = {max_terms} is too small, need max_terms >= 2$"
    with pytest.raises(ValueError, match=message):
        q.build_series(switch, switch_seeds[0], max_terms=max_terms)
    assert len(q.build_series(switch, switch_seeds[0], max_terms=2).terms) == 2


def test_max_terms_cap_reports_tail(switch, switch_seeds, switch_series):
    full = switch_series[0]
    K = len(full.terms)
    for j in (1, 2, 3):
        cut = q.build_series(switch, switch_seeds[0], tol=1e-12, max_terms=K - j)
        assert cut.stopped == "max-terms"
        dropped = full.terms[K - j :]
        actual = sum(abs(t.alpha) * max(t.rho, t.sigma) for t in dropped)
        assert cut.tail_bound >= actual  # the reported bound is honest


def test_series_to_dict_contract(switch_series):
    d = switch_series[0].to_dict()
    assert set(d) >= {"terms", "links", "tail_bound", "seed", "stopped"}
    assert len(d["links"]) == len(d["terms"]) - 1
    assert d["seed"]["boundary"] == "H"


# --- mirror symmetry ---

SWAPPED = {"H": "V", "V": "H", "H-coupled": "V-coupled", "V-coupled": "H-coupled"}


@pytest.mark.parametrize("name", ["switch_fig7", "fig2d"])
def test_series_of_transposed_walk_is_the_mirror_image(name):
    spec = presets.load(name)
    for s in q.curve_boundary_intersections(spec):
        ser = q.build_series(spec, (s.x, s.y))
        mirror = q.build_series(spec.transpose(), (s.y, s.x))
        assert [(t.sigma, t.rho, t.alpha) for t in ser.terms] == [
            (t.rho, t.sigma, t.alpha) for t in mirror.terms
        ]
        assert [SWAPPED[link] for link in ser.links] == list(mirror.links)
        assert mirror.start.which == SWAPPED[ser.start.which]
        assert (mirror.start.x, mirror.start.y) == (s.y, s.x)
        assert (mirror.tail_bound, mirror.stopped) == (ser.tail_bound, ser.stopped)


@pytest.mark.parametrize("name, n_terms", [("switch_fig7", 53), ("fig2d", 48)])
def test_construct_of_transposed_walk_swaps_rho_and_sigma(name, n_terms):
    # The measure of the twin is the measure with its coordinates swapped:
    # one relative rounding (9.0e-16 and 1.0e-15) from the assembly's solve.
    spec = presets.load(name)
    measure = q.construct(spec)[3]
    mirror = q.construct(spec.transpose())[3]
    assert len(measure.gamma) == len(mirror.gamma) == n_terms
    got = sorted((t.rho, t.sigma, t.alpha) for t in measure.gamma)
    want = sorted((t.sigma, t.rho, t.alpha) for t in mirror.gamma)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_branch_points_of_transposed_walk_swap_axes(name):
    spec = presets.load(name)
    rep = q.branch_points(spec)
    mirror = q.branch_points(spec.transpose())
    assert mirror.x is rep.y and mirror.y is rep.x
    # left <-> bottom and right <-> top, coordinates swapped; nan marks an
    # infinite branch point and compares equal to itself here.
    left, bottom, right, top = (c[::-1] for c in rep.corners)
    np.testing.assert_array_equal(mirror.corners, (bottom, left, top, right))


# --- superposition ---


def test_assembled_switch_measure(switch_measure):
    assert switch_measure.weights == pytest.approx(
        (0.5331174541382403, 0.22191270535987392), rel=1e-9
    )
    assert switch_measure.condition < 100.0
    assert len(switch_measure.gamma) == 53
    assert switch_measure.report.worst <= 1e-8


def test_assembled_measure_normalized(switch_measure):
    mass = sum(
        t.alpha / ((1.0 - t.rho) * (1.0 - t.sigma)) for t in switch_measure.gamma
    )
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_assembled_measure_has_negative_coefficients(switch_measure):
    alphas = [t.alpha for t in switch_measure.gamma]
    assert min(alphas) < 0 < max(alphas)


def test_single_series_weight_is_pure_normalization(switch, switch_series):
    m = q.assemble_measure([switch_series[0]], switch)
    assert len(m.weights) == 1
    mass = sum(t.alpha / ((1.0 - t.rho) * (1.0 - t.sigma)) for t in m.gamma)
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_assemble_rejects_empty_input(switch):
    with pytest.raises(EmptyComponent):
        q.assemble_measure([], switch)


def test_assemble_duplicate_series_ill_conditioned(switch, switch_series):
    with pytest.raises(IllConditioned):
        q.assemble_measure([switch_series[0], switch_series[0]], switch)


def test_assembled_to_dict(switch_measure):
    d = switch_measure.to_dict()
    assert set(d) >= {"terms", "weights", "condition", "residual_summary", "window"}
    assert d["residual_summary"]["max_residual_interior"] <= 1e-10


# --- seeds beside the excluded root at coordinate 1 ---

# (generator seed, draw) of eligible walks with a second seed within 6e-4
# of a boundary root at coordinate exactly 1, which U_MARGIN excludes.
NEAR_UNIT_SEED_WALKS = [(95, 25), (204, 50), (242, 69), (279, 53), (11, 322)]


@pytest.mark.parametrize("seed,draw", NEAR_UNIT_SEED_WALKS)
def test_seed_beside_the_unit_root_is_found(seed, draw):
    rng = np.random.default_rng(seed)
    for _ in range(draw):
        spec = random_walk(rng, forced=True)
    seeds = q.curve_boundary_intersections(spec)
    assert sorted(s.which for s in seeds) == ["H", "V"]
    series = [q.build_series(spec, s, tol=1e-12) for s in seeds]
    measure = q.assemble_measure(series, spec, window=12)
    assert measure.report.worst <= 1e-10
    oracle = q.truncated_stationary(spec, 80)
    assert q.compare(measure.gamma, oracle, core=8) <= 1e-6


# --- series that stop short ---


def _stall_walk():
    """An ergodic eligible walk (draw 253 of generator seed 1, drift
    criterion margin 0.092) whose three H seeds end in three ways: one
    series converges, one stalls mid-way, and one seed has no companion."""
    rng = np.random.default_rng(1)
    for _ in range(253):
        spec = random_walk(rng, forced=True)
    return spec


def _h_seed(spec, x):
    return next(s for s in q.curve_boundary_intersections(spec)
                if s.which == "H" and abs(s.x - x) < 1e-4)


def test_seed_without_a_companion_stalls():
    # The seed balances the horizontal axis only, and the companion that
    # would repair the vertical one is the root 1.0511, outside the square.
    spec = _stall_walk()
    seed = _h_seed(spec, 0.51480)
    assert abs(q.boundary_h(spec.transpose(), seed.y, seed.x)) > 0.1
    with pytest.raises(StalledAtBranchPoint,
                       match=r"^the seed has no companion \(exits-u, raw root 1\.051"):
        q.build_series(spec, seed)


def test_series_stalls_mid_way_with_a_large_tail():
    spec = _stall_walk()
    with pytest.raises(StalledAtBranchPoint,
                       match=r"^companion unavailable \(exits-u, raw root 1\.058\d*\) "
                             r"with tail estimate 307\d\.\d+ > 1e-12$"):
        q.build_series(spec, _h_seed(spec, 0.17616))


def test_construct_leaves_out_a_seed_without_a_companion(tmp_path, capsys):
    # Kept as a one-term series, the seed without a companion balanced one
    # axis only and left the assembled measure 1.6e-2 off balance.
    walk, measure = tmp_path / "walk.json", tmp_path / "measure.json"
    walk.write_text(cli.dumps(_stall_walk().to_dict()))
    assert cli.main(["construct", str(walk), "-o", str(measure)]) == 0
    doc = json.loads(measure.read_text())
    assert [f["error"] for f in doc["failures"]] == ["StalledAtBranchPoint"] * 2
    assert len(doc["series"]) == 2
    assert doc["residual_summary"]["worst"] <= 1e-12
    assert cli.main(["verify", str(walk), str(measure), "--oracle-n", "80"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["sup_rel_error"] <= 1e-12


def test_growing_envelope_diverges(switch, switch_seeds, monkeypatch):
    # No walk met so far makes a series grow, so the companion step is
    # replaced by one that keeps the shared coordinate and moves the other
    # above the term's envelope; the curve check is switched off with it.
    def growing(ker, rho, sigma):
        return "ok", 1.05 * max(rho, sigma)

    monkeypatch.setattr(compensation, "_companion", growing)
    monkeypatch.setattr(compensation, "SERIES_RESIDUAL_TOL", math.inf)
    with pytest.raises(Diverged, match=r"^term envelope grew from \S+ to \S+ at step 5$"):
        q.build_series(switch, switch_seeds[0])
