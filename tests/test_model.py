"""Walk construction, validation, drift and singular-support classification."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpwalk as q
from qpwalk.errors import InvalidRouting, InvalidWalk, SingularWalk

from conftest import PRESET_NAMES, random_walk


def make_spec(interior, h=None, v=None):
    """Build a spec with projected boundary laws unless given explicitly."""
    w = np.asarray(interior, dtype=float)
    if h is None:
        h = w[:, 0] + w[:, 1]
    if v is None:
        v = w[0, :] + w[1, :]
    return q.WalkSpec(w, h, v)


# --- validation ---


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_validate(name):
    spec = q.presets.load(name)
    assert q.validate(spec) == []
    q.ensure_valid(spec)  # must not raise


def test_validate_flags_interior_sum():
    w = np.full((3, 3), 1.0 / 9.0)
    w[1, 1] += 0.5  # break interior stochasticity
    spec = make_spec(w)
    issues = q.validate(spec)
    assert issues
    assert any("interior" in i.where for i in issues)
    assert any(abs(i.residual) > 0.4 for i in issues if i.residual is not None)
    with pytest.raises(InvalidWalk):
        q.ensure_valid(spec)


def test_validate_flags_horizontal_budget():
    w = np.full((3, 3), 1.0 / 9.0)
    spec = make_spec(w, h=np.array([0.3, 0.3, 0.3]))  # sums to 0.9 + 1/3 != 1
    issues = q.validate(spec)
    assert any("horizontal" in i.where for i in issues)


def test_validate_flags_negative_entry():
    w = np.full((3, 3), 1.0 / 9.0)
    w[0, 0] = -1.0 / 9.0
    w[2, 2] = 3.0 / 9.0
    assert q.validate(make_spec(w))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_validate_flags_non_finite_entry(value, fig2d):
    w = np.array(fig2d.interior)
    w[1, 1] = value
    issues = q.validate(make_spec(w, fig2d.horizontal, fig2d.vertical))
    assert [(i.code, i.where) for i in issues if i.code == "NonFinite"] == [("NonFinite", "p[0][0]")]
    with pytest.raises(InvalidWalk):
        q.ensure_valid(make_spec(w, fig2d.horizontal, fig2d.vertical))


def test_validate_rejects_all_mass_on_stay():
    w = np.zeros((3, 3))
    w[1, 1] = 1.0
    issues = q.validate(make_spec(w))
    assert any("p[0][0]" in i.message or "stay" in i.message.lower() for i in issues)


def test_validation_issue_shape():
    w = np.full((3, 3), 1.0 / 9.0)
    w[1, 1] += 0.5
    issue = q.validate(make_spec(w))[0]
    d = issue.to_dict()
    assert set(d) >= {"code", "where", "message"}


# --- accessors and round trips ---


def test_p_accessor_indexing(fig2a):
    # p(s, t) with s, t in {-1, 0, 1}
    assert fig2a.p(1, 0) == 0.2
    assert fig2a.p(0, 1) == 0.2
    assert fig2a.p(-1, -1) == 0.6
    assert fig2a.p(1, 1) == 0.0


def test_to_dict_round_trip(fig2c):
    again = q.WalkSpec.from_dict(fig2c.to_dict())
    assert np.array_equal(again.interior, fig2c.interior)
    assert np.array_equal(again.horizontal, fig2c.horizontal)
    assert np.array_equal(again.vertical, fig2c.vertical)


def test_from_dict_switch_override(switch):
    params = dict(r1=0.8, r2=0.9, t11=0.3, t12=0.7, t21=0.6, t22=0.4)
    built = q.WalkSpec.from_dict({"switch": params})
    assert np.array_equal(built.interior, switch.interior)
    assert np.array_equal(built.horizontal, switch.horizontal)


def test_from_file_reads_json(tmp_path, fig2b):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(fig2b.to_dict()))
    spec = q.WalkSpec.from_file(path)
    assert np.array_equal(spec.interior, fig2b.interior)


def test_arrays_are_read_only(fig2a):
    with pytest.raises(ValueError):
        fig2a.interior[1, 1] = 0.5


def test_transpose_involution(fig2c):
    t = fig2c.transpose()
    assert np.array_equal(t.interior, fig2c.interior.T)
    assert np.array_equal(t.horizontal, fig2c.vertical)
    back = t.transpose()
    assert np.array_equal(back.interior, fig2c.interior)


def test_transpose_is_one_twin_per_walk():
    rng = np.random.default_rng(18)
    specs = [q.presets.load(name) for name in PRESET_NAMES]
    specs += [random_walk(rng) for _ in range(5)]
    for s in specs:
        assert s.transpose() is s.transpose()
        assert s.transpose().transpose() is s
        assert s.transpose() is not s


def test_array_holding_records_compare_by_identity():
    # Generated value equality over ndarray fields raises on == and hash.
    a, b = q.presets.load("fig2d"), q.presets.load("fig2d")
    pairs = [
        (a, b),
        (q.kernel(a), q.kernel(b)),
        (q.truncated_stationary(a, 8), q.truncated_stationary(b, 8)),
        (q.trace_qplus(a, 64), q.trace_qplus(b, 64)),
    ]
    for one, other in pairs:
        assert one == one and one != other
        assert len({one, other}) == 2
    assert all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("interior", "horizontal", "vertical"))


# --- drift ---


def test_drift_fig2c(fig2c):
    d = q.drift(fig2c)
    assert d.mx == pytest.approx(-10.0 / 31.0, abs=1e-15)
    assert d.my == pytest.approx(-10.0 / 31.0, abs=1e-15)


def test_drift_fig2d(fig2d):
    d = q.drift(fig2d)
    assert d.mx == pytest.approx(-0.5, abs=1e-15)
    assert d.my == pytest.approx(-0.5, abs=1e-15)


def test_drift_matches_componentwise_sum():
    rng = np.random.default_rng(100)
    for _ in range(20):
        spec = random_walk(rng)
        d = q.drift(spec)
        mx = sum(spec.p(1, t) - spec.p(-1, t) for t in (-1, 0, 1))
        my = sum(spec.p(s, 1) - spec.p(s, -1) for s in (-1, 0, 1))
        assert abs(d.mx - mx) <= 1e-14
        assert abs(d.my - my) <= 1e-14
        assert -1.0 <= d.mx <= 1.0 and -1.0 <= d.my <= 1.0


def test_drift_transpose_swaps_components():
    rng = np.random.default_rng(101)
    spec = random_walk(rng)
    d = q.drift(spec)
    dt = q.drift(spec.transpose())
    assert dt.mx == d.my and dt.my == d.mx


# --- singular classification ---


def _pattern_fixture(letter):
    w = np.zeros((3, 3))
    if letter == "a":
        w[2, 2] = 0.3
        w[0, 0] = 0.5
        w[1, 1] = 0.2
    elif letter == "b":  # no s = -1 steps
        w[1] = (0.2, 0.1, 0.2)
        w[2] = (0.2, 0.2, 0.1)
    elif letter == "c":  # no s = +1 steps
        w[0] = (0.2, 0.1, 0.2)
        w[1] = (0.2, 0.2, 0.1)
    elif letter == "d":  # no t = -1 steps
        w[:, 1] = (0.2, 0.1, 0.2)
        w[:, 2] = (0.2, 0.2, 0.1)
    elif letter == "e":  # no t = +1 steps
        w[:, 0] = (0.2, 0.1, 0.2)
        w[:, 1] = (0.2, 0.2, 0.1)
    return make_spec(w)


@pytest.mark.parametrize("letter", "abcde")
def test_singular_patterns_detected(letter):
    spec = _pattern_fixture(letter)
    cls = q.singular_class(spec)
    assert cls.singular
    assert cls.pattern == letter
    assert cls.tag == f"SingularPattern({letter})"
    with pytest.raises(SingularWalk):
        q.kernel(spec)


@pytest.mark.parametrize("letter,expected", [("a", "a"), ("b", "d"), ("c", "e"), ("d", "b"), ("e", "c")])
def test_singular_class_transpose_map(letter, expected):
    spec = _pattern_fixture(letter)
    assert q.singular_class(spec.transpose()).pattern == expected


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_nonsingular(name):
    cls = q.singular_class(q.presets.load(name))
    assert not cls.singular
    assert cls.tag == "NonSingular"


def test_nearly_zero_row_is_not_singular():
    # classification keys on exact zeros, not small values
    w = np.full((3, 3), 1.0 / 9.0)
    w[0] = 1e-13
    w = w / w.sum()
    assert not q.singular_class(make_spec(w)).singular


# --- the switch instantiation ---


def test_from_switch_example_values(switch):
    assert switch.p(1, -1) == pytest.approx(0.1296, abs=1e-15)
    assert switch.p(0, 0) == pytest.approx(0.3888, abs=1e-15)
    assert switch.p(-1, 1) == pytest.approx(0.2016, abs=1e-15)
    assert switch.p(0, -1) == pytest.approx(0.132, abs=1e-15)
    assert switch.p(-1, 0) == pytest.approx(0.128, abs=1e-15)
    assert switch.p(-1, -1) == pytest.approx(0.02, abs=1e-15)
    assert switch.interior.sum() == pytest.approx(1.0, abs=1e-15)


def test_from_switch_saturated_arrivals():
    spec = q.from_switch(1.0, 1.0, 0.3, 0.7, 0.6, 0.4)
    assert spec.p(-1, -1) == 0.0
    assert spec.p(0, -1) == 0.0
    assert spec.p(-1, 0) == 0.0
    survivors = {(1, -1), (0, 0), (-1, 1)}
    for s in (-1, 0, 1):
        for t in (-1, 0, 1):
            if (s, t) not in survivors:
                assert spec.p(s, t) == 0.0


def test_from_switch_never_steps_away_from_origin():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r1, r2 = rng.uniform(0.1, 1.0, size=2)
        t11, t21 = rng.uniform(0.05, 0.95, size=2)
        spec = q.from_switch(r1, r2, t11, 1 - t11, t21, 1 - t21)
        assert q.validate(spec) == []
        assert spec.p(1, 0) == 0.0 and spec.p(1, 1) == 0.0 and spec.p(0, 1) == 0.0


@given(
    r1=st.floats(0.05, 1.0),
    r2=st.floats(0.05, 1.0),
    t11=st.floats(0.01, 0.99),
    t21=st.floats(0.01, 0.99),
)
def test_from_switch_drift_two_ways(r1, r2, t11, t21):
    t12, t22 = 1.0 - t11, 1.0 - t21
    spec = q.from_switch(r1, r2, t11, t12, t21, t22)
    my = q.drift(spec).my
    formula = r1 * r2 * t12 * t22 - (spec.p(1, -1) + spec.p(0, -1) + spec.p(-1, -1))
    assert abs(my - formula) <= 1e-14


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 0.9, 0.3, 0.7, 0.6, 0.4),  # r1 out of range
        (0.8, 0.9, 0.3, 0.6, 0.6, 0.4),  # t1 row does not sum to 1
        (0.8, 0.9, 0.0, 1.0, 0.6, 0.4),  # zero routing probability
        (0.8, 0.9, float("nan"), 0.7, 0.6, 0.4),  # NaN passes every comparison
        (0.8, 0.9, 0.3, 0.7, 0.6, float("nan")),
    ],
)
def test_from_switch_rejects_bad_routing(args):
    with pytest.raises(InvalidRouting):
        q.from_switch(*args)


def test_switch_drift_negative(switch):
    d = q.drift(switch)
    assert d.mx < 0 and d.my < 0
