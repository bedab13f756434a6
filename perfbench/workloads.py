"""The four workloads: inputs made at set-up, one round of operations each.

Every workload is a closed loop with one client: an operation starts when
the previous one has finished.  A run repeats the same round of
operations, so the share of failed operations is fixed by the round, not
by the seed or the run length.  Operations that fail because of a known
fault of the program use inputs that do not depend on the seed.

Each operation returns its raw result; ``judge`` then checks it apart from
the program (``checks``) and says ``ok``, ``fault`` (a failure caused by a
known fault, counted in ``failed``) or ``error`` (anything else; the run
is then not correct).

Set-up chooses its inputs without the program's output: ergodic walks by
the drift criterion with a margin to spare, never by whether ``construct``
succeeds on them.  Set-up is timed by a ``ProgramClock`` that counts only
the time spent inside qpwalk.  The checks of what set-up built, and the
cross-check of the drift labels, run once after the timed rounds, in
``Setup.check``; a problem found there makes the run not correct.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import qpwalk as q
from qpwalk import presets
from qpwalk.cli import dumps

import checks
import inputs
from inputs import Walk
from spans import NullTracer

OK, FAULT, ERROR = "ok", "fault", "error"
PRESETS = ("switch_fig7", "fig2d")
UNTRACED = NullTracer()  # set-up work is never traced
TOL = 1e-12              # series tolerance, the CLI default
DEEP_N = 160             # above the oracle's DIRECT_LIMIT of 120
CENSUS_N = 80            # the CLI's default --oracle-n
TRACE_POINTS = 2048
CONVEXITY_SAMPLES = 10_000
CLI_TIMEOUT = 120


@dataclass(eq=False)  # told apart by identity: run.py keys timings by operation
class Op:
    kind: str
    walk: Walk
    run: Callable           # run(tracer) -> result; a refusal may raise
    judge: Callable         # judge(result, tracer) -> (verdict, detail)
    primary: bool = True    # timed into op_s and ops_per_s

    def execute(self, tr, op_id):
        """Time the operation, then judge its result outside the timed region.

        Returns (seconds, verdict, detail).
        """
        t0 = time.perf_counter()
        try:
            with tr.span(f"op.{self.kind}", op=op_id):
                result = self.run(tr)
        except Exception as exc:  # a refusal, judged like any other result
            result = exc
        elapsed = time.perf_counter() - t0
        try:
            verdict, detail = self.judge(result, tr)
        except Exception as exc:  # a malformed result
            verdict, detail = ERROR, f"{type(exc).__name__}: {exc}"
        return elapsed, verdict, detail


def no_checks() -> list:
    return []


@dataclass
class Setup:
    every: list             # operations in every round
    walks: list             # every generated input, for the digest
    notes: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # set-up checks that failed
    pools: list = field(default_factory=list)     # lists of operations taken in turn
    per_round: int = 0      # operations each round takes from each pool
    check: Callable = no_checks  # run after the rounds; returns problems

    @property
    def cycle(self) -> int:
        """Rounds after which every pool is back at its start."""
        return math.lcm(*(len(p) // math.gcd(len(p), self.per_round) for p in self.pools if p))


class ProgramClock:
    """Adds up the time set-up spends inside qpwalk: that alone is ``setup_s``."""

    def __init__(self):
        self.seconds = 0.0

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0


def rounds(setup: Setup):
    """Each round: the next ``per_round`` operations of every pool, then ``every``."""
    pools = [pool for pool in setup.pools if pool]
    k = 0
    while True:
        yield [pool[(k + i) % len(pool)] for pool in pools
               for i in range(setup.per_round)] + setup.every
        k += setup.per_round


@dataclass
class Refusal:
    reason: str


def spec_of(clock: ProgramClock, walk: Walk) -> q.WalkSpec:
    return clock.call(q.WalkSpec, walk.w, walk.h, walk.v)


def preset(clock: ProgramClock, name: str) -> tuple:
    """A preset as the benchmark's ``Walk`` and as qpwalk's ``WalkSpec``."""
    spec = clock.call(presets.load, name)
    walk = Walk(np.array(spec.interior), np.array(spec.horizontal), np.array(spec.vertical), name)
    return walk, spec


def triples(gamma) -> list:
    return [(t.rho, t.sigma, t.alpha) for t in gamma.terms]


def slowest_rate(gamma) -> float:
    return max(max(t.rho, t.sigma) for t in gamma.terms)


def build(clock: ProgramClock, spec):
    """``construct`` at set-up, outside any span; a raised refusal becomes a Refusal."""
    try:
        return clock.call(construct, UNTRACED, spec)
    except q.QpwalkError as exc:
        return Refusal(f"{type(exc).__name__}: {exc}")


# Ergodic walks are kept only this far inside the ergodicity boundary (see
# ``inputs.margin``).  About 2% of ergodic recipe walks lie closer.  The
# construction fails on some of those: 4 of 11928 ergodic recipe walks got
# a measure that is negative on the window, all at margin 1.3e-4 or less,
# and none of the 11661 at margin 0.005 or more did.
MARGIN = 0.005
MAX_DRAWS = 2000         # per pool; running out is a set-up problem, not a hang


def ergodic_pool(rng, size: int, name: str) -> tuple:
    """The first ``size`` eligible recipe walks of ``rng`` that the drift
    criterion calls ergodic with ``MARGIN`` to spare.

    Returns (walks, note, problems).  The construction plays no part.
    """
    pool, drawn, near = [], 0, 0
    while len(pool) < size and drawn < MAX_DRAWS:
        drawn += 1
        walk = inputs.recipe_walk(rng, forced=True, label=f"{name} draw {drawn}")
        margin = inputs.margin(walk)
        if margin >= MARGIN:
            pool.append(walk)
        elif margin > 0.0:
            near += 1
    note = (f"{len(pool)} ergodic walks from {drawn} draws; left out as closer than "
            f"{MARGIN} to the ergodicity boundary: {near}")
    problems = [] if len(pool) == size else [f"{name}: {len(pool)} of {size} walks in {drawn} draws"]
    return pool, note, problems


def label_problems(walks, is_ergodic: bool) -> list:
    """Drift labels the benchmark's own lattice disagrees with."""
    return [p for p in (inputs.label_mismatch(w, is_ergodic) for w in walks) if p]


# ---------------------------------------------------------------- operations

def construct(tr, spec):
    """Seeds, one series per seed, assembly: the CLI's construct path."""
    seeds = tr.call("curve.seeds", q.curve_boundary_intersections, spec)
    tr.count("curve.seeds_found", len(seeds))
    series, failed = [], 0
    for s in seeds:
        try:
            built = tr.call("compensation.build_series", q.build_series, spec, (s.x, s.y), tol=TOL)
        except q.QpwalkError:
            failed += 1
            continue
        tr.count("compensation.terms_built", len(built.terms))
        series.append(built)
    tr.count("compensation.series_failed", failed)
    if not series:
        return Refusal("no seed" if not seeds else "every series failed")
    measure = tr.call("compensation.assemble", q.assemble_measure, series, spec, window=12)
    tr.count("compensation.assembled_terms", len(measure.gamma.terms))
    return seeds, series, measure


def verify(tr, spec, gamma, n):
    """Residuals, oracle grid at truncation n (default method), comparison."""
    report = tr.call("oracle.residuals", q.balance_residuals, spec, gamma, window=12)
    oracle = tr.call("oracle.stationary", q.truncated_stationary, spec, n)
    tr.count("oracle.cells_solved", oracle.values.size)
    err = tr.call("oracle.compare", q.compare, gamma, oracle, checks.CORE)
    return report, oracle, err


def inspect(tr, spec, candidate):
    """Analysis, trace and convexity of one walk; battery on its candidate."""
    with tr.span("model.classify"):
        issues = q.validate(spec)
        q.drift(spec)
        singular = q.singular_class(spec).singular
    tr.call("curve.branch_points", q.branch_points, spec)
    point = tr.call("curve.singularity", q.detect_singularity, spec)
    trace = tr.call("curve.trace", q.trace_qplus, spec, TRACE_POINTS)
    convex = tr.call("oracle.convexity", q.convexity_check, spec, CONVEXITY_SAMPLES)
    battery = conditions(tr, spec, candidate) if candidate is not None else None
    return issues, singular, point, trace, convex, battery


def conditions(tr, spec, gamma):
    parts = tr.call("terms.partition", q.maximal_partitions, gamma)
    report = tr.call("terms.conditions", q.necessary_conditions, spec, gamma)
    return parts, report


def partition_problems(gamma, parts) -> list:
    """Each grouping covers every term once; h and v groups share rho, sigma."""
    n = len(gamma.terms)
    problems = []
    for kind, groups in (("h", parts.h_groups), ("v", parts.v_groups), ("g", parts.g_groups)):
        if sorted(i for g in groups for i in g) != list(range(n)):
            problems.append(f"{kind} groups do not cover the terms once")
    for kind, groups, coord in (("h", parts.h_groups, 0), ("v", parts.v_groups, 1)):
        for g in groups:
            vals = [triples(gamma)[i][coord] for i in g]
            if max(vals) - min(vals) > 1e-9 * max(vals):
                problems.append(f"an {kind} group mixes coordinates")
    return problems


def verdict(problems) -> tuple:
    return (ERROR, "; ".join(problems)) if problems else (OK, "")


# ----------------------------------------------------------------- presets

def run_cli(args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "qpwalk.cli", *args], capture_output=True,
                          text=True, timeout=CLI_TIMEOUT, check=False)


IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import qpwalk; "
    "print(t0, time.perf_counter())"
)


def import_probe(tr):
    """Fresh-process ``import qpwalk``, recorded on the parent's clock."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, timeout=CLI_TIMEOUT, check=True)
    start, end = (float(x) for x in done.stdout.split())
    tr.record("cli.import", start, end)


def setup_presets(seed: int, out_dir: str, clock: ProgramClock) -> Setup:
    """``qpwalk construct`` then ``qpwalk verify`` per preset, each verb a
    fresh process; the seed only orders the presets within the round.

    The verbs start from nothing, so the only program work at set-up is
    loading the two presets.
    """
    order = [PRESETS[i] for i in np.random.default_rng(seed).permutation(len(PRESETS))]
    ops, walks = [], []
    for name in order:
        walk, _ = preset(clock, name)
        walks.append(walk)
        reference = inputs.stationary(walk, CENSUS_N)  # the benchmark's own oracle
        path = os.path.join(out_dir, f"{name}.measure.json")

        def run_construct(tr, name=name, path=path):
            return run_cli(["construct", name, "-o", path])

        def judge_construct(done, tr, walk=walk, path=path, reference=reference):
            if done.returncode != 0:
                return ERROR, f"construct exited {done.returncode}: {done.stderr.strip()[:200]}"
            with open(path, encoding="utf-8") as f:
                text = f.read()
            doc = json.loads(text)
            if tr.enabled:
                tr.count("cli.output_bytes", len(text.encode()))
                tr.call("cli.dumps", dumps, doc)
                import_probe(tr)
            terms = [(t["rho"], t["sigma"], t["alpha"]) for t in doc["terms"]]
            return verdict(checks.measure_problems(walk, terms)
                           + checks.agreement_problems(terms, reference))

        def run_verify(tr, name=name, path=path):
            return run_cli(["verify", name, path])

        def judge_verify(done, tr):
            if done.returncode != 0:
                return ERROR, f"verify exited {done.returncode}: {done.stderr.strip()[:200]}"
            report = json.loads(done.stdout)["report"]
            worst = max(report["max_residual_interior"], report["max_residual_h"],
                        report["max_residual_v"], report["max_residual_origin"],
                        report["sup_rel_error"])
            if worst > checks.AGREE_TOL:
                return ERROR, f"verify reports {worst:.3g} > {checks.AGREE_TOL:g}"
            return OK, ""

        ops.append(Op("cli.construct", walk, run_construct, judge_construct))
        ops.append(Op("cli.verify", walk, run_verify, judge_verify))

    return Setup(ops, walks, [f"presets in order {order}"],
                 check=lambda: label_problems(walks, True))


# ------------------------------------------------------------------- sweep

# The mean construction time of a pool of 48 seeded walks differed by 0.10
# of its median (quartile distance) from seed to seed; 128 walks cut that.
SWEEP_POOL = 128         # seeded ergodic eligible walks
SWEEP_PER_ROUND = 16
FIXED_SEED = 7           # generator seed of the inputs that fail on a known fault
SWEEP_FIXED = 4          # first non-ergodic draws of FIXED_SEED, all in every round


def sweep_op(walk: Walk, spec, is_ergodic: bool) -> Op:
    def judge(result, tr):
        refused = isinstance(result, (Refusal, Exception))
        if not is_ergodic:
            # Known fault: construct returns a measure for a walk that has
            # no stationary distribution instead of refusing it.
            return (OK, "refused") if refused else (FAULT, "measure for a non-ergodic walk")
        if refused:
            return ERROR, f"refused an ergodic walk: {result}"
        return verdict(checks.measure_problems(walk, triples(result[2].gamma)))

    return Op("construct", walk, lambda tr: construct(tr, spec), judge)


def setup_sweep(seed: int, out_dir: str, clock: ProgramClock) -> Setup:
    """Construction for a fixed-seed set of random eligible walks.

    The program work at set-up is making a ``WalkSpec`` of each walk.
    """
    pool, note, problems = ergodic_pool(np.random.default_rng(seed), SWEEP_POOL, f"seed {seed}")
    fixed, rng = [], np.random.default_rng(FIXED_SEED)
    while len(fixed) < SWEEP_FIXED:
        walk = inputs.recipe_walk(rng, forced=True, label=f"fixed non-ergodic {len(fixed)}")
        if not inputs.ergodic(walk):
            fixed.append(walk)
    notes = [note, f"{SWEEP_PER_ROUND} ergodic walks per round in turn, plus the "
                   f"{SWEEP_FIXED} fixed non-ergodic walks in every round"]

    def check():
        return label_problems(pool, True) + label_problems(fixed, False)

    return Setup([sweep_op(w, spec_of(clock, w), False) for w in fixed], pool + fixed,
                 notes, problems, pools=[[sweep_op(w, spec_of(clock, w), True) for w in pool]],
                 per_round=SWEEP_PER_ROUND, check=check)


# -------------------------------------------------------------------- deep

# Slow-decay bases: draws of the recipe (forced) from generator seed 3 whose
# assembled measures decay at rate 0.869 and 0.883, with drift margins 0.055
# and 0.053.  Power iteration time at n = 160 varies from 2 s to 25 s across
# freshly drawn walks of the band 0.85-0.97, so the seed perturbs these
# bases instead of drawing new walks.
DEEP_BASE_SEED = 3
DEEP_BASE_DRAWS = (48, 70)
DEEP_SCALE = 0.005
DEEP_BAND = (0.85, 0.90)


def deep_op(walk: Walk, spec, measure) -> Op:
    gamma = measure.gamma

    def judge(result, tr):
        _, oracle, _ = result
        if tr.enabled:
            # A separate call, to show the matrix-building share of the solve.
            tr.call("oracle.transition_matrix", q.transition_matrix, spec, DEEP_N)
        return verdict(checks.oracle_problems(walk, oracle.values)
                       + checks.agreement_problems(triples(gamma), oracle.values))

    return Op("verify", walk, lambda tr: verify(tr, spec, gamma, DEEP_N), judge)


def setup_deep(seed: int, out_dir: str, clock: ProgramClock) -> Setup:
    """Verification at n = 160 of the presets and two perturbed slow walks.

    The program work at set-up is loading the presets, making the specs of
    the perturbed walks and building all four measures.
    """
    problems = []
    entries = [preset(clock, name) for name in PRESETS]
    rng_base, bases, drawn = np.random.default_rng(DEEP_BASE_SEED), [], 0
    while len(bases) < len(DEEP_BASE_DRAWS):
        drawn += 1
        walk = inputs.recipe_walk(rng_base, forced=True)
        if drawn in DEEP_BASE_DRAWS:
            bases.append(walk)
    rng = np.random.default_rng(seed)
    for i, base in enumerate(bases):
        for attempt in range(100):
            walk = inputs.perturbed(base, rng, DEEP_SCALE, f"base {i} perturbed, try {attempt}")
            if inputs.margin(walk) >= MARGIN:
                entries.append((walk, spec_of(clock, walk)))
                break
        else:
            problems.append(f"no perturbation of base {i} stays ergodic")
    ops, measures, notes = [], [], []
    for walk, spec in entries:
        built = build(clock, spec)
        if isinstance(built, Refusal):
            problems.append(f"{walk.label}: construct refused an ergodic walk ({built.reason})")
            continue
        measures.append((walk, built[2]))
        ops.append(deep_op(walk, spec, built[2]))

    def check():
        found = label_problems([w for w, _ in entries], True)
        for walk, measure in measures:
            found += [f"{walk.label}: {p}" for p in checks.measure_problems(walk, triples(measure.gamma))]
            rate = slowest_rate(measure.gamma)
            notes.append(f"{walk.label}: slowest rate {rate:.4f}")
            if walk.label not in PRESETS and not DEEP_BAND[0] <= rate <= DEEP_BAND[1]:
                found.append(f"{walk.label}: slowest rate {rate:.4f} outside {DEEP_BAND}")
        return found

    return Setup(ops, [w for w, _ in entries], notes, problems, check=check)


# ----------------------------------------------------------------- inspect

# With pools of 16 the mean inspection time differed by 0.145 of its median
# from seed to seed, with 64 by 0.07.
INSPECT_POOL = 48        # seeded walks of each class
INSPECT_PER_ROUND = 6


def inspect_op(walk: Walk, spec, measure) -> Op:
    gamma = measure.gamma if measure is not None else None

    def judge(result, tr):
        issues, singular, point, trace, convex, battery = result
        problems = [str(i) for i in issues]
        if singular:
            problems.append("walk classified singular")
        problems += checks.singularity_problems(walk, point)
        problems += checks.trace_problems(trace.points, trace.arcs, walk.eligible)
        if not (convex.passed and convex.checked == convex.requested):
            problems.append(f"convexity: {len(convex.violations)} violations, "
                            f"{convex.checked} of {convex.requested} checked")
        if battery is not None:
            parts, report = battery
            problems += partition_problems(gamma, parts)
            if report.passed is not True:
                problems.append(f"battery rejects an invariant measure: {report.verdicts}")
        return verdict(problems)

    return Op("inspect", walk, lambda tr: inspect(tr, spec, gamma), judge)


def flipped_op(walk: Walk, spec, flipped) -> Op:
    def judge(result, tr):
        parts, report = result
        problems = partition_problems(flipped, parts)
        if problems:
            return verdict(problems)
        # Known fault: the battery checks only on_curve, in_u, extendable
        # and trend, none of which sees the sign of a coefficient.
        return (FAULT, "battery accepts a set that is not invariant") if report.passed else (OK, "")

    return Op("battery", walk, lambda tr: conditions(tr, spec, flipped), judge, primary=False)


def sign_flipped(gamma):
    terms = list(gamma.terms)
    terms[0] = q.WeightedTerm(terms[0].rho, terms[0].sigma, -terms[0].alpha)
    return q.GammaSet(terms)


def setup_inspect(seed: int, out_dir: str, clock: ProgramClock) -> Setup:
    """Inspection of seeded eligible and non-eligible walks; the battery on
    each eligible walk's measure and on sign-flipped preset measures.

    The program work at set-up is making the specs, loading the presets
    and building the measures of the eligible walks and the presets.
    """
    rng = np.random.default_rng(seed)
    eligible, note, problems = ergodic_pool(rng, INSPECT_POOL, f"seed {seed} eligible")
    other = [inputs.recipe_walk(rng, neg_drift=True, label=f"seed {seed} other {i}")
             for i in range(INSPECT_POOL)]
    built = []
    for walk in eligible:
        spec = spec_of(clock, walk)
        result = build(clock, spec)
        if isinstance(result, Refusal):
            problems.append(f"{walk.label}: construct refused an ergodic walk ({result.reason})")
        built.append((walk, spec, None if isinstance(result, Refusal) else result[2]))
    flips = []
    for name in PRESETS:
        walk, spec = preset(clock, name)
        result = build(clock, spec)
        if isinstance(result, Refusal):
            problems.append(f"{name}: construct refused the preset ({result.reason})")
            continue
        flips.append((walk, spec, sign_flipped(result[2].gamma)))

    def check():
        found = label_problems(eligible, True)
        for walk, _, measure in built:
            if measure is not None:
                found += [f"{walk.label}: {p}"
                          for p in checks.measure_problems(walk, triples(measure.gamma))]
        for walk, _, flipped in flips:
            if not checks.measure_problems(walk, triples(flipped)):
                found.append(f"{walk.label}: the sign-flipped measure still balances")
        return found

    pools = [[inspect_op(*b) for b in built],
             [inspect_op(w, spec_of(clock, w), None) for w in other]]
    walks = eligible + other + [w for w, _, _ in flips]
    other_ergodic = sum(inputs.ergodic(w) for w in other)
    notes = [note, f"{INSPECT_POOL} non-eligible walks, {other_ergodic} of them ergodic by "
                   f"the drift criterion; {INSPECT_PER_ROUND} of each kind per round in turn, "
                   f"plus the battery on sign-flipped {' and '.join(PRESETS)} measures in every round"]
    return Setup([flipped_op(*f) for f in flips], walks, notes, problems,
                 pools=pools, per_round=INSPECT_PER_ROUND, check=check)


# ------------------------------------------------------------------ census

def census(tr):
    """Every traced layer once per preset, in process, so a traced run can
    report the layers its own workload does not call."""
    import_probe(tr)
    for op, name in enumerate(PRESETS):
        spec = presets.load(name)
        with tr.span("census", op=op):
            seeds, series, measure = construct(tr, spec)
            doc = {
                "seeds": [s.to_dict() for s in seeds],
                "series": [s.to_dict() for s in series],
                "failures": [],
                "tol": TOL,
                "max_terms": 200,
            }
            doc.update(measure.to_dict())
            tr.count("cli.output_bytes", len(dumps(doc).encode()) + 1)
            tr.call("cli.dumps", dumps, doc)
            inspect(tr, spec, measure.gamma)
            verify(tr, spec, measure.gamma, CENSUS_N)
            tr.call("oracle.transition_matrix", q.transition_matrix, spec, CENSUS_N)


WORKLOADS = {
    "presets": setup_presets,
    "sweep": setup_sweep,
    "deep": setup_deep,
    "inspect": setup_inspect,
}
