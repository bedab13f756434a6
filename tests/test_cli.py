"""Command-line interface: verbs, formats, determinism, exit codes."""

import csv
import functools
import io
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qpwalk as q
from qpwalk.cli import dumps, main

from conftest import random_walk, twelve_dot_set


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- serialization format ---


def test_dumps_float_precision():
    assert dumps(1.0 / 3.0) == "0.33333333333333331"
    assert dumps(0.1528279001512407) == "0.1528279001512407"


def test_dumps_special_values():
    assert dumps(float("inf")) == '"inf"'
    assert dumps(float("-inf")) == '"-inf"'
    assert dumps(float("nan")) == '"nan"'
    assert dumps(True) == "true"
    assert dumps(None) == "null"
    assert dumps(np.float64(0.5)) == "0.5"


def test_dumps_round_trips_through_json():
    doc = {"a": [1.0 / 3.0, 2.0 ** -52], "b": {"c": 1e300}}
    parsed = json.loads(dumps(doc))
    assert parsed["a"][0] == 1.0 / 3.0
    assert parsed["a"][1] == 2.0 ** -52
    assert parsed["b"]["c"] == 1e300


# --- analyze ---


def test_analyze_preset_by_name(capsys):
    code, out, _ = run_cli(capsys, "analyze", "fig2a")
    assert code == 0
    doc = json.loads(out)
    assert doc["eligible"] is False
    assert doc["singularity"] is None
    assert doc["singular_class"]["singular"] is False
    assert doc["drift"]["mx"] < 0


def test_analyze_switch_reports_origin_singularity(capsys):
    code, out, _ = run_cli(capsys, "analyze", "switch_fig7")
    assert code == 0
    doc = json.loads(out)
    assert doc["eligible"] is True
    assert doc["singularity"] == [0.0, 0.0]


def test_analyze_reports_infinite_roots_as_strings(capsys):
    code, out, _ = run_cli(capsys, "analyze", "fig2b")
    assert code == 0
    assert '"inf"' in out
    doc = json.loads(out)
    assert "inf" in doc["branch_points"]["roots_x"]


def test_analyze_walk_file(capsys, tmp_path, fig2c):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(fig2c.to_dict()))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["eligible"] is False


def test_analyze_tiny_east_step_has_no_singularity(capsys, tmp_path, switch):
    # switch_fig7 with 1e-13 moved from the stay to the east step: a valid
    # walk that is not eligible, though Q, Qx and Qy at the origin are
    # within 1e-12 of zero.
    walk = switch.to_dict()
    walk["interior"][1][1] -= 1e-13
    walk["interior"][2][1] = 1e-13
    assert q.validate(q.WalkSpec.from_dict(walk)) == []
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(walk))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["eligible"] is False
    assert doc["singularity"] is None


def test_analyze_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "analyze", "fig2d", "-o", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["singularity"] == [0.0, 0.0]


# --- trace ---


def test_trace_json(capsys):
    code, out, _ = run_cli(capsys, "trace", "fig2a", "--points", "256")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) >= 256
    assert set(doc["arcs"]) == {"Q00", "Q10", "Q11", "Q01"}


def test_trace_csv(capsys):
    code, out, _ = run_cli(capsys, "trace", "fig2c", "--points", "256", "--format", "csv")
    assert code == 0
    assert "\r" not in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "y", "arc"]
    assert len(rows) >= 257
    xs = [float(r[0]) for r in rows[1:]]
    assert min(xs) >= 0.0
    assert rows[1][2] in {"Q00", "Q10", "Q11", "Q01"}


# --- construct ---


def test_construct_switch(capsys):
    code, out, _ = run_cli(capsys, "construct", "switch_fig7", "--tol", "1e-12")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["series"]) == 2
    assert doc["failures"] == []
    assert len(doc["weights"]) == 2
    assert doc["weights"][0] == pytest.approx(0.5331174541382403, rel=1e-9)
    assert doc["residual_summary"]["max_residual_interior"] <= 1e-8
    for ser in doc["series"]:
        assert ser["stopped"] == "converged"
        assert len(ser["links"]) == len(ser["terms"]) - 1


def test_construct_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "construct", "switch_fig7")
    _, second, _ = run_cli(capsys, "construct", "switch_fig7")
    assert first == second


def test_construct_rejects_ineligible_walk(capsys):
    code, _, err = run_cli(capsys, "construct", "fig2a")
    assert code == 1
    diag = json.loads(err)
    assert "error" in diag


@pytest.mark.parametrize(
    "argv, field",
    [(["--max-terms", "2"], "max_residual_origin")],
    ids=["max-terms-2"],
)
def test_construct_fails_when_measure_fails_balance(capsys, argv, field):
    # Two terms per series leave the measure far from balance.
    code, out, err = run_cli(capsys, "construct", "switch_fig7", *argv)
    assert code == 1
    summary = json.loads(out)["residual_summary"]
    assert summary["worst"] == summary[field] > 1.0
    message = json.loads(err)["error"]
    assert repr(summary["worst"]) in message and "1e-12" in message


@pytest.mark.parametrize("max_terms", ["1", "0", "-3"])
def test_construct_rejects_max_terms_below_2(capsys, max_terms):
    # A one-term series balances one axis only; the parent wrote a measure
    # 2.77 off balance and exited 1.
    code, out, err = run_cli(capsys, "construct", "switch_fig7", "--max-terms", max_terms)
    assert code == 2
    assert out == ""
    assert f"max_terms = {max_terms} is too small" in json.loads(err)["error"]


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_construct_rejects_non_positive_tol(capsys, tol):
    code, out, err = run_cli(capsys, "construct", "switch_fig7", "--tol", tol)
    assert code == 2
    assert out == ""
    assert f"tol = {float(tol)}" in json.loads(err)["error"]


# Ergodic walks whose series, stopped on their own unweighted norms, left
# the assembled measure 1.1e-12 to 1.2e-11 off balance, above the default
# gate: (generator seed, 0-based draw) of forced ``random_walk`` draws.
TRUNCATED_SERIES_WITNESSES = [
    (0, 52), (0, 77), (0, 84), (0, 87), (0, 134), (0, 160), (0, 187),
    (1, 56), (1, 76), (1, 142), (1, 177), (1, 226), (2, 120), (2, 205),
    (3, 179), (3, 192), (3, 225),
]


@functools.lru_cache(maxsize=None)
def _forced_draws(seed, count):
    rng = np.random.default_rng(seed)
    return tuple(random_walk(rng, forced=True) for _ in range(count))


@pytest.mark.parametrize("seed, draw", TRUNCATED_SERIES_WITNESSES)
def test_construct_series_follow_the_gate(capsys, tmp_path, seed, draw):
    count = 1 + max(k for s, k in TRUNCATED_SERIES_WITNESSES if s == seed)
    walk = tmp_path / "walk.json"
    walk.write_text(json.dumps(_forced_draws(seed, count)[draw].to_dict()))
    measure = tmp_path / "measure.json"
    code, _, err = run_cli(capsys, "construct", str(walk), "-o", str(measure))
    assert code == 0, err
    assert json.loads(measure.read_text())["residual_summary"]["worst"] <= 1e-12
    code, out, _ = run_cli(capsys, "verify", str(walk), str(measure))
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_library_construct_follows_the_gate():
    # Draw 142 of generator seed 1: stopped on their own norms its series
    # leave the measure 1.2e-11 off balance.
    seeds, series, failures, measure = q.construct(_forced_draws(1, 143)[142])
    assert (len(seeds), failures) == (2, [])
    assert [len(s.terms) for s in series] == [31, 26]
    assert measure.report.worst <= 1e-12


@pytest.mark.parametrize("name", ["switch_fig7", "fig2d"])
def test_construct_writes_the_library_result(capsys, name):
    seeds, series, failures, measure = q.construct(q.presets.load(name))
    doc = {
        "seeds": [inter.to_dict() for inter in seeds],
        "series": [s.to_dict() for s in series],
        "failures": failures, "tol": 1e-12, "max_terms": 200,
        **measure.to_dict(),
    }
    code, out, err = run_cli(capsys, "construct", name)
    assert (code, err) == (0, "")
    assert out == dumps(doc) + "\n"


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_verify_rejects_tol_not_positive_and_finite(capsys, tmp_path, tol):
    # --tol inf would pass any measure; nan, 0 and -1 would fail every one.
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps([{"rho": 0.5, "sigma": 0.5, "alpha": 1.0}]))
    code, out, err = run_cli(capsys, "verify", "switch_fig7", str(measure), "--tol", tol)
    assert code == 2
    assert out == ""
    assert f"tol = {float(tol)}" in json.loads(err)["error"]


def test_build_series_rejects_non_finite_tol(switch, switch_seeds):
    seed = (switch_seeds[0].x, switch_seeds[0].y)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            q.build_series(switch, seed, tol=tol)


# --- start-up: no scipy or numpy.polynomial on the CLI path ---


def _heavy_modules_after(code, *argv):
    """scipy and numpy.polynomial modules loaded once ``code`` has run in a
    fresh interpreter."""
    probe = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'"
        " or m.startswith('numpy.polynomial'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + probe, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _heavy_modules_after("import qpwalk") == []


def test_construct_and_verify_load_no_scipy(tmp_path):
    code = (
        "import sys\n"
        "from qpwalk.cli import main\n"
        "assert main(['construct', 'switch_fig7', '-o', sys.argv[1]]) == 0\n"
        "assert main(['verify', 'switch_fig7', sys.argv[1]]) == 0"
    )
    assert _heavy_modules_after(code, str(tmp_path / "measure.json")) == []


def test_transition_matrix_loads_scipy_sparse():
    # the probe above sees scipy when it is loaded
    code = "import qpwalk as q\nq.transition_matrix(q.presets.load('fig2a'), 8)"
    assert "scipy.sparse" in _heavy_modules_after(code)


def test_probe_sees_numpy_polynomial():
    assert "numpy.polynomial" in _heavy_modules_after("import numpy.polynomial")


# --- verify ---


def test_construct_verify_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "switch_fig7")
    assert code == 0
    doc = json.loads(out)
    measure = tmp_path / "measure.json"
    measure.write_text(out)

    code, vout, _ = run_cli(
        capsys, "verify", "switch_fig7", str(measure), "--oracle-n", "80"
    )
    assert code == 0
    vdoc = json.loads(vout)
    assert vdoc["verdict"] == "pass"
    rep = vdoc["report"]
    # parsing the emitted floats reproduces the residuals exactly
    for key in ("max_residual_interior", "max_residual_h", "max_residual_v"):
        assert abs(rep[key] - doc["residual_summary"][key]) <= 1e-14
    assert rep["sup_rel_error"] <= 1e-10


def test_verify_fails_on_tiny_threshold(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "construct", "switch_fig7")
    measure = tmp_path / "measure.json"
    measure.write_text(out)
    code, vout, _ = run_cli(
        capsys, "verify", "switch_fig7", str(measure), "--tol", "1e-20", "--oracle-n", "0"
    )
    assert code == 1
    assert json.loads(vout)["verdict"] == "fail"


def test_construct_file_verifies_and_partitions_at_any_tol(capsys, tmp_path):
    # The file's "tol" is construct's balance threshold, not a coupling rule.
    code, out, _ = run_cli(capsys, "construct", "switch_fig7", "--tol", "0.5")
    assert code == 0
    measure = tmp_path / "measure.json"
    measure.write_text(out)
    code, _, _ = run_cli(
        capsys, "verify", "switch_fig7", str(measure), "--tol", "1", "--oracle-n", "0"
    )
    assert code == 0
    code, _, _ = run_cli(capsys, "partition", str(measure))
    assert code == 0


@pytest.mark.parametrize("n", [-3, 1, 5, 8, 9, 10])
def test_verify_rejects_oracle_n_below_11(capsys, tmp_path, n):
    # At n = 10 the core was the origin alone, so any measure compared as 0.
    # The check runs before the solve, so one message names the flag, the
    # value given and the least value the verb accepts.
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps({"terms": [{"rho": 0.5, "sigma": 0.5}]}))
    code, out, err = run_cli(
        capsys, "verify", "switch_fig7", str(measure), "--oracle-n", str(n)
    )
    assert code == 2 and out == ""
    message = json.loads(err)["error"]
    assert "--oracle-n" in message
    assert re.search(rf"(?<![\w-]){n}\b", message)
    assert re.search(r"\b11\b", message)


def test_verify_accepts_oracle_n_11(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "construct", "switch_fig7")
    measure = tmp_path / "measure.json"
    measure.write_text(out)
    code, vout, err = run_cli(
        capsys, "verify", "switch_fig7", str(measure), "--oracle-n", "11", "--tol", "1"
    )
    assert code == 0 and err == ""
    assert json.loads(vout)["report"]["sup_rel_error"] >= 0.0


def test_verify_accepts_bare_term_list(capsys, tmp_path):
    rng = np.random.default_rng(80)
    from conftest import product_form_walk

    spec, rho, sigma = product_form_walk(rng)
    walk = tmp_path / "walk.json"
    walk.write_text(json.dumps(spec.to_dict()))
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps([{"rho": rho, "sigma": sigma, "alpha": 1.0}]))
    code, out, _ = run_cli(
        capsys, "verify", str(walk), str(measure), "--tol", "1e-10", "--oracle-n", "40"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


# --- partition ---


def test_partition_twelve_dot_file(capsys, tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps(twelve_dot_set().to_dict()))
    code, out, _ = run_cli(capsys, "partition", str(gamma))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["h_groups"]) == 6
    assert len(doc["v_groups"]) == 6
    assert len(doc["g_groups"]) == 4


# --- switch ---


def test_switch_verb_matches_library(capsys, switch):
    code, out, _ = run_cli(
        capsys, "switch", "0.8", "0.9", "0.3", "0.7", "0.6", "0.4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["switch"]["r1"] == 0.8
    assert np.allclose(doc["interior"], switch.interior)


def test_switch_verb_rejects_bad_routing(capsys):
    code, _, err = run_cli(capsys, "switch", "0.8", "0.9", "0.3", "0.6", "0.6", "0.4")
    assert code == 2
    assert "error" in json.loads(err)


# --- error paths ---


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "no_such_walk.json")
    assert code == 2
    assert "error" in json.loads(err)


def test_malformed_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2


def test_invalid_walk_reports_issues(capsys, tmp_path):
    doc = {
        "interior": [[0.2, 0.2, 0.2], [0.2, 0.5, 0.2], [0.2, 0.2, 0.2]],
        "horizontal": [0.1, 0.1, 0.1],
        "vertical": [0.1, 0.1, 0.1],
    }
    bad = tmp_path / "walk.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    diag = json.loads(err)
    assert diag["issues"]


def test_switch_verb_rejects_non_finite_routing(capsys):
    code, out, err = run_cli(capsys, "switch", "0.8", "0.9", "nan", "0.7", "0.6", "0.4")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "InvalidRouting: t11 = nan is not finite"}


@pytest.mark.parametrize("verb", ["analyze", "verify"])
def test_non_finite_walk_entry_is_input_error(capsys, tmp_path, fig2d, verb):
    doc = fig2d.to_dict()
    doc["interior"][1][1] = float("nan")
    walk = tmp_path / "walk.json"
    walk.write_text(json.dumps(doc))
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps([{"rho": 0.5, "sigma": 0.5, "alpha": 1.0}]))
    argv = [verb, str(walk)] + ([str(measure)] if verb == "verify" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    issues = json.loads(err)["issues"]
    assert [(i["code"], i["where"]) for i in issues] == [("NonFinite", "p[0][0]")]


TERM = {"rho": 0.5, "sigma": 0.5}
TWIN = {"rho": 0.5, "sigma": 0.50000000005}  # within 1e-9 relative of TERM
ZERO = {"rho": 0.3, "sigma": 0.4, "alpha": 0.0}


@pytest.mark.parametrize(
    "terms, message",
    [([{"rho": 0.5, "sigma": 0.5, "alpha": float("nan")}], "non-finite term (0.5, 0.5, nan)"),
     ([{"rho": 0.5, "sigma": 0.5, "alpha": float("inf")}], "non-finite term (0.5, 0.5, inf)"),
     ([{"rho": float("inf"), "sigma": 0.5, "alpha": 1.0}], "non-finite term (inf, 0.5, 1.0)"),
     ([TERM, TWIN], "duplicate coordinates (0.5, 0.50000000005)"),
     ([ZERO], "zero coefficient at (0.3, 0.4)"),
     ([TERM, {"rho": -0.3, "sigma": 0.4}], "nonpositive coordinates (-0.3, 0.4)"),
     # the second TERM duplicates too, but TWIN is the first duplicate
     ([TERM, TWIN, TERM, ZERO], "duplicate coordinates (0.5, 0.50000000005)"),
     ([TERM, ZERO, TWIN], "zero coefficient at (0.3, 0.4)")],
    ids=["alpha-nan", "alpha-inf", "rho-inf", "duplicate", "alpha-zero", "rho-negative",
         "duplicate-first", "duplicate-after"],
)
@pytest.mark.parametrize("verb", ["verify", "partition"])
def test_non_finite_measure_term_is_input_error(capsys, tmp_path, terms, message, verb):
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps({"terms": terms}))
    argv = ["verify", "switch_fig7"] if verb == "verify" else ["partition"]
    code, out, err = run_cli(capsys, *argv, str(measure))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"ValueError: {message}"


@pytest.mark.parametrize(
    "kind, text",
    [
        ("measure", '{"terms": 5}'),
        ("measure", "[1, 2]"),
        ("measure", '{"terms": [{"rho": null, "sigma": 0.5}]}'),
        ("measure", '{"terms": []}'),
        ("walk", "[1, 2]"),
        ("walk", '{"switch": 3}'),
    ],
    ids=["terms-5", "measure-list", "rho-null", "terms-empty", "walk-list", "switch-3"],
)
def test_malformed_file_is_input_error(capsys, tmp_path, kind, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if kind == "measure":
        argv = ["verify", "switch_fig7", str(bad)]
    else:
        argv = ["analyze", str(bad)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    message = json.loads(err)["error"]
    assert message.startswith("ValueError: ") and str(bad) in message


def test_singular_walk_trace_is_input_error(capsys, tmp_path):
    w = [[0.2, 0.1, 0.2], [0.2, 0.2, 0.1], [0.0, 0.0, 0.0]]
    doc = {
        "interior": w,
        "horizontal": [0.4, 0.3, 0.0],
        "vertical": [0.3, 0.25, 0.15],
    }
    bad = tmp_path / "walk.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "trace", str(bad))
    assert code == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["trace", "switch_fig7", "--points", "1"], "n_points = 1"),
        (["trace", "switch_fig7", "--points", "0"], "n_points = 0"),
        (["trace", "switch_fig7", "--points", "-3"], "n_points = -3"),
        (["construct", "switch_fig7", "--window", "0"], "window 0"),
        (["construct", "switch_fig7", "--window", "-1"], "window -1"),
        (["verify", "switch_fig7", "MEASURE", "--window", "0"], "window 0"),
        (["verify", "switch_fig7", "MEASURE", "--window", "-1"], "window -1"),
    ],
    ids=["points-1", "points-0", "points-neg3", "construct-window-0",
         "construct-window-neg1", "verify-window-0", "verify-window-neg1"],
)
def test_count_below_minimum_is_input_error(capsys, tmp_path, argv, named):
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps([{"rho": 0.5, "sigma": 0.5, "alpha": 1.0}]))
    argv = [str(measure) if a == "MEASURE" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert named in json.loads(err)["error"]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qpwalk.cli", "analyze", "fig2a"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["eligible"] is False
