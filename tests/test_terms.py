"""Weighted geometric terms, uncoupled partitions and necessary conditions."""

import math

import numpy as np
import pytest

import qpwalk as q
from qpwalk.errors import EmptyComponent, MixedGroup
from qpwalk.terms import _close

from conftest import product_form_walk, random_gamma, twelve_dot_set
from partition_oracle import TooLarge, brute_force_partition


def terms_of(*pairs):
    return q.GammaSet([q.WeightedTerm(r, s, a) for r, s, a in pairs])


# --- WeightedTerm / GammaSet basics ---


def test_close_is_false_at_an_infinite_coordinate():
    # An infinite coordinate is close to no finite one, nor to itself.
    inf = math.inf
    for a, b in ((0.5, inf), (inf, inf), (-inf, -inf), (inf, -inf)):
        assert not _close(a, b), (a, b)
    assert _close(0.5, 0.5 * (1 + 1e-10))


def test_term_dict_round_trip():
    t = q.WeightedTerm(0.3, 0.7, -1.5)
    back = q.WeightedTerm.from_dict(t.to_dict())
    assert (back.rho, back.sigma, back.alpha) == (0.3, 0.7, -1.5)


def test_gamma_set_rejects_empty():
    with pytest.raises(EmptyComponent):
        q.GammaSet([])


def test_gamma_set_rejects_nonpositive_coordinates():
    with pytest.raises(ValueError):
        terms_of((0.0, 0.5, 1.0))
    with pytest.raises(ValueError):
        terms_of((0.5, -0.1, 1.0))


@pytest.mark.parametrize(
    "term", [(0.5, 0.5, float("nan")), (0.5, 0.5, float("inf")), (float("inf"), 0.5, 1.0),
             (0.5, float("nan"), 1.0)],
)
def test_gamma_set_rejects_non_finite_terms(term):
    with pytest.raises(ValueError, match="non-finite term"):
        terms_of(term)


def test_gamma_set_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        terms_of((0.5, 0.5, 0.0))


def test_gamma_set_rejects_duplicates_at_tolerance():
    with pytest.raises(ValueError):
        terms_of((0.5, 0.5, 1.0), (0.5 * (1 + 1e-12), 0.5, 1.0))
    # distinct beyond tolerance is fine
    g = terms_of((0.5, 0.5, 1.0), (0.5 * (1 + 1e-6), 0.5, 1.0))
    assert len(g) == 2


def test_gamma_set_value_superposes():
    g = terms_of((0.5, 0.5, 1.0), (0.25, 0.75, -0.5))
    expect = 0.5**2 * 0.5**3 - 0.5 * 0.25**2 * 0.75**3
    assert g.value(2, 3) == pytest.approx(expect, abs=1e-16)


def test_gamma_set_from_dict_accepts_both_shapes():
    g = terms_of((0.4, 0.6, 1.0), (0.2, 0.3, -1.0))
    assert list(g.to_dict()) == ["terms"]
    assert q.GammaSet.from_dict(g.to_dict()) == g
    bare = q.GammaSet.from_dict([{"rho": 0.4, "sigma": 0.6, "alpha": 1.0}])
    assert len(bare) == 1


def test_gamma_set_from_dict_ignores_tol_key():
    # Terms couple at COUPLE_TOL whatever "tol" the file carries.
    apart = [{"rho": 0.2, "sigma": 0.3}, {"rho": 0.25, "sigma": 0.3}]
    assert len(q.GammaSet.from_dict({"terms": apart, "tol": 0.5})) == 2
    close = [{"rho": 0.2, "sigma": 0.3}, {"rho": 0.2 * (1 + 1e-10), "sigma": 0.3}]
    with pytest.raises(ValueError, match="duplicate"):
        q.GammaSet.from_dict({"terms": close, "tol": 0.0})


# --- partitions ---


def test_singleton_partitions():
    g = terms_of((0.5, 0.5, 1.0))
    p = q.maximal_partitions(g)
    assert p.counts == (1, 1, 1)
    assert p.h_groups == ((0,),)


def test_staircase_counts():
    # six terms chained rho-sigma-rho-sigma: one full block
    g = terms_of(
        (0.2, 0.9, 1.0),
        (0.2, 0.7, 1.0),
        (0.4, 0.7, 1.0),
        (0.4, 0.5, 1.0),
        (0.6, 0.5, 1.0),
        (0.6, 0.3, 1.0),
    )
    p = q.maximal_partitions(g)
    assert p.counts == (3, 4, 1)
    assert p.h_groups == ((0, 1), (2, 3), (4, 5))
    assert p.g_groups == ((0, 1, 2, 3, 4, 5),)


def test_twelve_dot_fixture_counts():
    p = q.maximal_partitions(twelve_dot_set())
    assert p.counts == (6, 6, 4)


def test_partition_result_dict():
    d = q.maximal_partitions(twelve_dot_set()).to_dict()
    assert set(d) >= {"h_groups", "v_groups", "g_groups"}


def test_brute_force_matches_maximal_on_random_sets():
    rng = np.random.default_rng(40)
    for _ in range(150):
        g = random_gamma(rng)
        a = q.maximal_partitions(g)
        b = brute_force_partition(g)
        assert (a.h_groups, a.v_groups, a.g_groups) == (
            b.h_groups,
            b.v_groups,
            b.g_groups,
        )


def test_brute_force_runs_the_twelve_dot_set():
    a = q.maximal_partitions(twelve_dot_set())
    b = brute_force_partition(twelve_dot_set())
    assert a.counts == b.counts == (6, 6, 4)


def test_brute_force_size_cap():
    terms = [(0.05 + 0.07 * k, 0.9 - 0.06 * k, 1.0) for k in range(13)]
    with pytest.raises(TooLarge):
        brute_force_partition(terms_of(*terms))


def test_shared_coordinate_tolerance_groups():
    # rho values equal to within the set tolerance must land together
    g = q.GammaSet(
        [
            q.WeightedTerm(0.5, 0.3, 1.0),
            q.WeightedTerm(0.5 + 1e-12, 0.7, 1.0),
            q.WeightedTerm(0.8, 0.1, 1.0),
        ]
    )
    p = q.maximal_partitions(g)
    assert p.h_groups == ((0, 1), (2,))


# --- boundary balance sums ---


def test_bh_sum_mixed_group_raises(switch):
    g = terms_of((0.3, 0.5, 1.0), (0.4, 0.5, 1.0))
    with pytest.raises(MixedGroup):
        q.bh_sum(g, (0, 1), switch)
    # the same pair shares sigma, so the vertical sum is defined
    q.bv_sum(g, (0, 1), switch)


def test_bh_and_bv_sums_accept_a_chain_of_close_rhos(switch):
    # Each rho is within COUPLE_TOL of the next but the last is not of the
    # first: maximal_partitions groups such a chain, so the sums accept it.
    chain = [(0.5, 0.2, 1.0), (0.5 * (1 + 0.8e-9), 0.3, 2.0), (0.5 * (1 + 1.6e-9), 0.4, 3.0)]
    g = terms_of(*chain)
    assert q.maximal_partitions(g).h_groups == ((0, 1, 2),)
    want = sum(a * q.boundary_h(switch, r, s) for r, s, a in chain)
    assert q.bh_sum(g, (0, 1, 2), switch) == pytest.approx(want, rel=1e-15)
    # The same chain in sigma: the vertical balance is the twin's horizontal one.
    flipped = terms_of(*((s, r, a) for r, s, a in chain))
    assert q.maximal_partitions(flipped).v_groups == ((0, 1, 2),)
    want = sum(a * q.boundary_h(switch.transpose(), r, s) for r, s, a in chain)
    assert q.bv_sum(flipped, (0, 1, 2), switch) == pytest.approx(want, rel=1e-15)


def test_coupled_pair_balances_horizontal(switch, switch_series):
    # consecutive terms joined by an H link cancel in the horizontal sum
    ser = switch_series[1]  # V-seeded series starts with an H-coupled link
    assert ser.links[0] == "H-coupled"
    pair = q.GammaSet([ser.terms[0], ser.terms[1]])
    val = q.bh_sum(pair, (0, 1), switch)
    scale = sum(abs(t.alpha) for t in pair)
    assert abs(val) <= 1e-12 * scale


def test_coupled_pair_balances_vertical(switch, switch_series):
    ser = switch_series[0]  # H-seeded series starts with a V-coupled link
    assert ser.links[0] == "V-coupled"
    pair = q.GammaSet([ser.terms[0], ser.terms[1]])
    val = q.bv_sum(pair, (0, 1), switch)
    scale = sum(abs(t.alpha) for t in pair)
    assert abs(val) <= 1e-12 * scale


def test_product_form_term_balances_alone():
    rng = np.random.default_rng(41)
    spec, rho, sigma = product_form_walk(rng)
    g = terms_of((rho, sigma, 1.0))
    assert abs(q.bh_sum(g, (0,), spec)) <= 1e-14
    assert abs(q.bv_sum(g, (0,), spec)) <= 1e-14


# --- curve membership and the condition report ---


def test_check_on_curve_product_form():
    rng = np.random.default_rng(43)
    spec, rho, sigma = product_form_walk(rng)
    rep = q.necessary_conditions(spec, terms_of((rho, sigma, 1.0)))
    assert rep.verdicts["on_curve"] and rep.verdicts["in_u"]
    assert rep.witnesses["residuals"][0] <= 1e-12


def test_check_on_curve_flags_upper_edge(switch):
    g = terms_of((1.0 - 1e-12, 0.5, 1.0))
    rep = q.necessary_conditions(switch, g)
    assert not rep.verdicts["in_u"]


def test_check_on_curve_flags_off_curve(switch):
    g = terms_of((0.5, 0.5, 1.0))
    rep = q.necessary_conditions(switch, g)
    assert not rep.verdicts["on_curve"]


def test_necessary_conditions_on_assembled_switch(switch, switch_measure):
    rep = q.necessary_conditions(switch, switch_measure.gamma)
    assert rep.verdicts == {
        "on_curve": True,
        "in_u": True,
        "extendable": True,
        "trend": True,
    }
    assert rep.passed is True
    assert rep.witnesses["blocked"] == []


def test_necessary_conditions_rejects_off_curve_set(switch):
    g = terms_of((0.5, 0.5, 1.0), (0.25, 0.75, 1.0))
    rep = q.necessary_conditions(switch, g)
    assert rep.verdicts["on_curve"] is False
    assert rep.passed is False


def test_condition_report_to_dict(switch, switch_measure):
    d = q.necessary_conditions(switch, switch_measure.gamma).to_dict()
    assert set(d) >= {"verdicts", "passed"}
