"""The construct path on Python floats and sorted indexes gives the bytes of
the numpy and all-pairs forms kept in ``scalar_reference``."""

import json
import math

import numpy as np

import qpwalk as q
from qpwalk import cli, curve, terms
from qpwalk.cli import main
from qpwalk.compensation import _merge_terms
from qpwalk.terms import COUPLE_TOL, GammaSet, WeightedTerm, _close

import scalar_reference as ref
from conftest import PRESET_NAMES, random_gamma, random_walk, twelve_dot_set


def _bytes(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _walks():
    rng = np.random.default_rng(90)
    walks = [(name, q.presets.load(name)) for name in PRESET_NAMES]
    walks += [(f"forced {k}", random_walk(rng, forced=True)) for k in range(10)]
    walks += [(f"free {k}", random_walk(rng)) for k in range(10)]
    return walks


def _points(spec, rng):
    """On-curve points of the walk's trace and seeds, and off-curve draws."""
    pts = [(float(x), float(y)) for x, y in q.trace_qplus(spec, 64).points]
    pts += [(s.x, s.y) for s in q.curve_boundary_intersections(spec)]
    pts += [tuple(p) for p in rng.uniform(-2.0, 3.0, (20, 2)).tolist()]
    pts += [(0.0, 0.0), (1.0, 1.0), (-0.0, 0.5), (1e-300, 1e-160)]
    return pts


def test_kernel_value_matches_reference_on_scalars_and_arrays():
    rng = np.random.default_rng(91)
    for name, spec in _walks():
        ker = q.kernel(spec)
        pts = _points(spec, rng)
        for x, y in pts:
            got = ker.value(x, y)
            assert type(got) is float, name
            assert _bytes(got) == _bytes(ref.kernel_value(ker, x, y)), (name, x, y)
        xs, ys = np.array(pts).T
        assert _bytes(ker.value(xs, ys)) == _bytes(ref.kernel_value(ker, xs, ys)), name
        # One scalar call gives the bits of its entry in an array call.
        assert _bytes([ker.value(x, y) for x, y in pts]) == _bytes(ker.value(xs, ys)), name
        grid = ker.value(xs[:, None], ys[None, :])
        assert _bytes(grid) == _bytes(ref.kernel_value(ker, xs[:, None], ys[None, :])), name
        # Large arrays, float with array in both orders, an (n, 1) by (m,)
        # grid and 0-d arrays; the inputs are only read.
        big_x, big_y = np.exp(rng.uniform(np.log(1e-6), 0.5, (2, 20_000)))
        x0, y0 = np.array(pts[0][0]), np.array(pts[0][1])
        cases = [
            (big_x, big_y), (big_x, 0.37), (0.37, big_y), (float(xs[1]), ys), (xs, float(ys[1])),
            (xs[:, None], ys[:7]), (big_x[:40, None], big_y[:300]), (x0, y0), (x0, ys), (xs, y0),
        ]
        for x, y in cases:
            before = [np.array(v, copy=True) for v in (x, y)]
            got = ker.value(x, y)
            want = ref.kernel_value(ker, x, y)
            assert type(got) is type(want), name
            assert np.shape(got) == np.shape(want) and _bytes(got) == _bytes(want), name
            for v, old in zip((x, y), before):
                assert _bytes(v) == _bytes(old), name


def test_y_quadratic_matches_reference():
    rng = np.random.default_rng(92)
    for name, spec in _walks():
        for ker in (q.kernel(spec), curve.KernelPoly(q.kernel(spec).c.T)):
            xs = rng.uniform(-2.0, 3.0, 30)
            for x in xs.tolist() + [0.0, 1.0]:
                got = curve.y_quadratic(ker, x)
                assert _bytes(got) == _bytes(ref.y_quadratic(ker, x)), (name, x)
            assert _bytes(curve.y_quadratic(ker, xs)) == _bytes(ref.y_quadratic(ker, xs)), name


def test_polyval_matches_numpy_polyval():
    rng = np.random.default_rng(93)
    cases = [[1.0], [-0.0], [0.0, -0.0], [2.0, 0.0, -0.0], [1.0, -3.0, 3.0, -1.0]]
    for _ in range(200):
        deg = int(rng.integers(0, 7))
        cases.append((rng.normal(size=deg + 1) * 10.0 ** rng.uniform(-8, 8, deg + 1)).tolist())
    xs = [0.0, -0.0, 1.0, -1.0, 1.0 + 1e-6, 0.5, -2.5, 1e-200, 1e200, 7.25]
    xs += rng.normal(size=10).tolist()
    for coeffs in cases:
        for x in xs:
            got = curve._polyval(coeffs, x)
            assert type(got) is float
            with np.errstate(over="ignore", invalid="ignore"):
                want = ref.polyval(np.array(coeffs), x)
            assert _bytes(got) == _bytes(want), (coeffs, x)


def test_term_sums_match_one_term_at_a_time(switch_measure):
    rng = np.random.default_rng(94)
    idx = np.arange(14)
    I, J = np.meshgrid(idx, idx, indexing="ij")
    sets = [switch_measure.gamma] + [random_gamma(rng, max_terms=12) for _ in range(20)]
    for g in sets:
        for i, j in ((I, J), (idx[:, None], idx[None, :]), (idx, 3), (2, 5), (0, 0)):
            want = ref.term_sum(g.terms, i, j)
            assert _bytes(terms._term_sum(g.terms, i, j)) == _bytes(want)
            assert _bytes(g.value(i, j)) == _bytes(want)


def _edge(a: float, tol: float = COUPLE_TOL, ulps: int = 3) -> list[float]:
    """Values within a few ulps of each edge of the band where ``_close(a, .)``."""
    out = []
    for b in (a * (1.0 + tol), a * (1.0 - tol), a / (1.0 - tol)):
        for _ in range(ulps):
            b = float(np.nextafter(b, 0.0))
        for _ in range(2 * ulps + 1):
            out.append(b)
            b = float(np.nextafter(b, np.inf))
    return out


def _edge_cases(rng, count=40):
    """Coordinate pairs (a, b) on both sides of the 1e-9 edge."""
    for a in rng.uniform(1e-6, 0.999, count).tolist() + [2.0 ** -20, 0.5, 0.75]:
        for b in _edge(a):
            yield a, b


def test_edge_values_straddle_the_tolerance():
    rng = np.random.default_rng(95)
    verdicts = {_close(a, b) for a, b in _edge_cases(rng, 5)}
    assert verdicts == {True, False}


def _outcome(build):
    try:
        return "ok", build()
    except (ValueError, q.EmptyComponent) as exc:
        return type(exc).__name__, str(exc)


def _reference_gamma(items):
    g = object.__new__(GammaSet)
    ref.gamma_init(g, items)
    return g.terms


def test_duplicate_scan_matches_pairwise_near_the_edge():
    rng = np.random.default_rng(96)
    checked = {"ok": 0, "ValueError": 0}
    for a, b in _edge_cases(rng):
        s = float(rng.uniform(0.05, 0.95))
        for s2 in (s, float(rng.uniform(0.05, 0.95)), _edge(s)[int(rng.integers(0, 21))]):
            for items in (
                [WeightedTerm(a, s), WeightedTerm(b, s2)],
                [WeightedTerm(b, s2, -1.0), WeightedTerm(0.3, 0.3), WeightedTerm(a, s)],
            ):
                got = _outcome(lambda: GammaSet(items).terms)
                assert got == _outcome(lambda: _reference_gamma(items)), items
                checked[got[0]] += 1
    # Both verdicts occur at the edge.
    assert min(checked.values()) > 100


def test_duplicate_scan_keeps_its_error_order():
    bad = [WeightedTerm(0.5, 0.5), WeightedTerm(0.5, 0.5 * (1 + 1e-12)), WeightedTerm(-0.1, 0.2)]
    non_finite = [WeightedTerm(0.2, 0.2), WeightedTerm(math.inf, 0.3), WeightedTerm(0.5, 0.5, math.nan)]
    for items in (bad, bad[::-1], [WeightedTerm(0.2, 0.2), WeightedTerm(0.3, 0.3, 0.0)],
                  non_finite, non_finite[::-1]):
        assert _outcome(lambda: GammaSet(items).terms) == _outcome(lambda: _reference_gamma(items))
    assert _outcome(lambda: GammaSet([]).terms) == _outcome(lambda: _reference_gamma([]))


def _flat(ts) -> bytes:
    return _bytes([(t.rho, t.sigma, t.alpha) for t in ts])


def test_merge_matches_pairwise_near_the_edge(switch_series):
    rng = np.random.default_rng(97)
    sizes = set()
    for _ in range(150):
        pool = [(float(a), float(b)) for a, b in _edge_cases(rng, 2)]
        picks = rng.integers(0, len(pool), 30)
        items = []
        for k in picks.tolist():
            a, b = pool[k]
            rho = a if rng.random() < 0.5 else b
            sigma = pool[int(rng.integers(0, len(pool)))][int(rng.integers(0, 2))]
            alpha = float(rng.choice([1.0, -1.0, 0.5, float(rng.normal())]))
            items.append(WeightedTerm(rho, sigma, alpha))
        merged = _merge_terms(items)
        assert _flat(merged) == _flat(ref.merge_terms(items))
        sizes.add(len(merged))
    # Some sets merge down further than others.
    assert len(sizes) > 5
    # The assembly's own input: both preset series at their solved weights.
    for w in (1.0, -0.37):
        items = [WeightedTerm(t.rho, t.sigma, w * t.alpha) for s in switch_series for t in s.terms]
        items += items[::3]
        assert _flat(_merge_terms(items)) == _flat(ref.merge_terms(items))


def test_partitions_match_all_pairs(switch_measure):
    rng = np.random.default_rng(98)
    sets = [switch_measure.gamma, twelve_dot_set()]
    sets += [random_gamma(rng, max_terms=16) for _ in range(40)]
    for _ in range(60):
        # Chains along the edge: neighbours close, ends possibly not.
        a, s = (float(v) for v in rng.uniform(0.05, 0.9, 2))
        rhos = _edge(a, ulps=2) + [a, a * (1 + 0.6e-9), a * (1 + 1.2e-9)]
        sigmas = _edge(s, ulps=2) + rng.uniform(0.05, 0.95, 10).tolist()
        items = []
        for _ in range(int(rng.integers(2, 16))):
            t = WeightedTerm(float(rng.choice(rhos)), float(rng.choice(sigmas)))
            if not any(_close(t.rho, u.rho) and _close(t.sigma, u.sigma) for u in items):
                items.append(t)
        sets.append(GammaSet(items))
    for g in sets:
        assert q.maximal_partitions(g) == ref.maximal_partitions(g)


def test_construct_bytes_match_reference_bodies(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(99)
    walks = []
    for k in range(20):
        path = tmp_path / f"walk{k}.json"
        path.write_text(json.dumps(random_walk(rng, forced=True).to_dict()))
        walks.append(str(path))
    walks += ["switch_fig7", "fig2d"]

    def run_all():
        outs = []
        for walk in walks:
            code = main(["construct", walk])
            captured = capsys.readouterr()
            outs.append((code, captured.out, captured.err))
        return outs

    shipped = run_all()
    with monkeypatch.context() as m:
        ref.patch_all(m)
        assert curve.KernelPoly.value is ref.kernel_value
        # Each walk's geometry is computed under the patch, on a spec that
        # has none yet, so the reference bodies are the ones that run.
        loaded = []

        def load_walk(path):
            spec = load(path)
            assert not set(spec.__dict__) & {"_kernel", "_axis"}
            loaded.append(spec)
            return spec

        load = cli._load_walk
        m.setattr(cli, "_load_walk", load_walk)
        reference = run_all()
        assert len(loaded) == len(walks)
        assert all({"_kernel", "_axis"} <= set(s.__dict__) for s in loaded)
    assert shipped == reference
    assert sum(code == 0 for code, _, _ in shipped) >= 10


def test_real_roots_matches_reference_newton_steps(monkeypatch):
    # Every polynomial the walks' geometry solves, and polynomials with a
    # double or nearly double root, where Newton steps cycle between
    # neighbouring floats: the shipped cycle test must land where the
    # reference's remaining steps do.
    seen = []
    shipped = curve.real_roots

    def record(coeffs):
        seen.append(np.array(coeffs, dtype=float))
        return shipped(coeffs)

    monkeypatch.setattr(curve, "real_roots", record)
    walks = _walks()
    for _, spec in walks:
        q.curve_boundary_intersections(spec)
    monkeypatch.undo()
    assert len(seen) >= 2 * len(walks)
    rng = np.random.default_rng(94)
    for _ in range(400):
        roots = rng.uniform(-2.0, 2.0, rng.integers(2, 7))
        roots[1] = roots[0] * (1.0 + rng.choice([0.0, 1e-9, 1e-6]))
        seen.append(np.polynomial.polynomial.polyfromroots(roots) * rng.uniform(0.1, 10.0))
    steps = []
    for coeffs in seen:
        found, n_inf = curve.real_roots(coeffs)
        want, want_inf = ref.real_roots(coeffs, steps)
        assert _bytes(found) == _bytes(want) and n_inf == want_inf, coeffs.tolist()
    assert steps.count(60) >= 20
