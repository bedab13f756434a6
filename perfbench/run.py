"""qpwalk benchmark: one command, four closed-loop workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--workload all`` (the default) runs presets, sweep, deep and inspect one
after another, each in its own process.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs each round both untraced and
traced and prints the per-layer metrics with the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Fixed before numpy loads; CLI child processes inherit it.  With two
# OpenBLAS threads on a two-core machine the oracle's small dense solves
# run several times slower and far less steadily than with one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

WORKLOAD_NAMES = ("presets", "sweep", "deep", "inspect")
# Set-up runs SETUP_REPEATS times before the rounds.  A set-up that takes
# less than a tenth of a round runs once more after each round: on presets
# and sweep one set-up spends well under a millisecond inside qpwalk, and
# readings taken within a second or two moved with the host by up to half
# from run to run.  Spread over the run, they sample the host as op_s does.
SETUP_REPEATS = 3
SETUP_SHARE = 0.1
OUT_DIR = ".bench_out"

# What one operation is on each workload, for the log.
ALIASES = {
    "presets": "one qpwalk CLI process (construct or verify)",
    "sweep": "construct_s, from walk to assembled measure or refusal",
    "deep": "verify_s, from measure to oracle agreement at n=160",
    "inspect": "inspect_s, one walk",
}

LAYER_TIMES = (
    "cli.import", "cli.dumps", "model.classify", "curve.seeds", "curve.branch_points",
    "curve.singularity", "curve.trace", "compensation.build_series",
    "compensation.assemble", "terms.partition", "terms.conditions",
    "oracle.transition_matrix", "oracle.stationary", "oracle.residuals",
    "oracle.compare", "oracle.convexity",
)
LAYER_COUNTS = {  # name -> how the recorded values are reduced
    "cli.output_bytes": "mean", "curve.seeds_found": "mean",
    "compensation.terms_built": "mean", "compensation.series_failed": "sum",
    "compensation.assembled_terms": "mean", "oracle.cells_solved": "mean",
}


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def env_info() -> dict:
    import numpy
    import scipy

    info = {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    # The thread count OpenBLAS actually runs with, read from the library.
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["openblas_threads"] = getattr(lib, symbol)()
                break
    return info


def peak_rss_mb(workload: str) -> float:
    # The CLI workload's memory is that of its child processes.
    who = resource.RUSAGE_CHILDREN if workload == "presets" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import inputs
    import workloads as wl
    from spans import NullTracer, Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    make = wl.WORKLOADS[name]
    setup_times, setup_walls = [], []

    def set_up():
        clock, t0 = wl.ProgramClock(), time.perf_counter()
        made = make(seed, OUT_DIR, clock)
        setup_times.append(clock.seconds)
        setup_walls.append(time.perf_counter() - t0)
        return made

    for _ in range(SETUP_REPEATS):
        setup = set_up()

    print(f"env: {json.dumps(env_info())}")
    print(f"inputs: workload={name} seed={seed} walks={len(setup.walks)} "
          f"digest={inputs.digest(setup.walks)}")

    null, tracer = NullTracer(), Tracer()
    op_times = {False: [], True: []}  # (op, wall time) of primary ops, by traced pass
    attempted = failed = 0
    errors: list[str] = []
    faults: dict[str, int] = {}
    start = time.perf_counter()
    between = 0.0  # wall time of the set-ups run between rounds
    # A traced run does each round twice, untraced and traced, so the tracing
    # overhead compares the same operations; the order alternates by round.
    for r, ops in enumerate(wl.rounds(setup)):
        if not ops:
            fail(f"workload {name} has no operations to run: {'; '.join(setup.problems)}")
        passes = ((False, True) if r % 2 == 0 else (True, False)) if traced else (False,)
        round_start = time.perf_counter()
        for on in passes:
            tr = tracer if on else null
            for op in ops:
                attempted += 1
                elapsed, verdict, detail = op.execute(tr, attempted)
                if op.primary:
                    op_times[on].append((op, elapsed))
                if verdict != wl.OK:
                    failed += 1
                if verdict == wl.FAULT:
                    faults[detail] = faults.get(detail, 0) + 1
                elif verdict == wl.ERROR:
                    errors.append(f"{op.kind} {op.walk.label}: {detail}")
        if statistics.fmean(setup_walls) < SETUP_SHARE * (time.perf_counter() - round_start):
            t0 = time.perf_counter()
            set_up()
            between += time.perf_counter() - t0
        # A run ends on a whole cycle, so every pooled walk weighs the same.
        if (r + 1) % setup.cycle == 0 and time.perf_counter() - start >= seconds:
            break
    loop_s = time.perf_counter() - start - between
    # Read before the set-up checks run: their lattice solves are the
    # benchmark's, not the program's.
    peak_mb = peak_rss_mb(name)
    problems = setup.problems + setup.check()

    for note in setup.notes:
        print(f"inputs: {note}")
    for problem in problems:
        print(f"setup problem: {problem}")

    for detail, count in faults.items():
        print(f"known fault: {count} x {detail}")
    for error in errors[:20]:
        print(f"FAILED: {error}")
    print(f"ops: attempted={attempted} failed={failed} "
          f"(known faults {sum(faults.values())}, other {len(errors)})")

    correct = not errors and not problems
    if not traced:
        times = [t for _, t in op_times[False]]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s": (typical_op_s(op_times[False]), "s"),
            "ops_per_s": (len(times) / loop_s, "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        print(f"op_s on {name}: {ALIASES[name]}; mean per operation over cycles of "
              f"{setup.cycle} rounds, each operation's time the median of its repeats "
              f"({len(times)} operations)")
        print(f"setup_s: median of {len(setup_times)} set-ups, {SETUP_REPEATS} before the rounds")
        print(f"median per operation = {statistics.median(times):.5f} s")
        if name == "presets":
            for verb in ("construct", "verify"):
                verb_times = [t for op, t in op_times[False] if op.kind == f"cli.{verb}"]
                print(f"cli_{verb}_s = {statistics.median(verb_times):.4f} s "
                      f"({len(verb_times)} samples)")
        if name == "sweep" and len(times) >= 100:
            p90 = statistics.quantiles(times, n=10)[-1]
            print(f"construct_p90_s = {p90:.5f} s ({len(times)} samples)")
    else:
        census = Tracer()
        wl.census(census)
        metrics = layer_metrics(tracer, census)
        base = typical_op_s(op_times[False])
        with_spans = typical_op_s(op_times[True])
        metrics["trace.overhead_pct"] = (100.0 * (with_spans / base - 1.0), "%")
        print(f"tracing overhead: op_s {with_spans:.5f} s traced vs {base:.5f} s untraced")
        path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(path)
        census.write(path.replace(".jsonl", "-census.jsonl"))
        print(f"spans: {path}")
    for key, (value, unit) in metrics.items():
        print(f"metric {name}.{key} = {value:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def typical_op_s(samples) -> float:
    """Mean time per operation, each operation's time taken as the median
    of its repeats.

    A run repeats every operation of a cycle equally often, so the weights
    are those of one cycle.  A burst of host load that slows some cycles
    moves no operation's median far, and pooled walks of different cost
    weigh the same in every run.
    """
    by_op: dict = {}
    for op, t in samples:
        by_op.setdefault(op, []).append(t)
    return sum(len(ts) * statistics.median(ts) for ts in by_op.values()) / len(samples)


def layer_metrics(tracer, census) -> dict:
    """Median self time per call and reduced counts, from the workload's own
    spans where it made such calls and from the census otherwise."""
    own, other = tracer.self_times(), census.self_times()
    metrics = {}
    for name in LAYER_TIMES:
        values = own.get(name) or other.get(name)
        metrics[f"{name}_s"] = (statistics.median(values), "s")
    for name, how in LAYER_COUNTS.items():
        values = tracer.counts.get(name) or census.counts.get(name)
        value = sum(values) if how == "sum" else statistics.fmean(values)
        metrics[name] = (value, "count")
    return metrics


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            fail(f"workload {name} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}")
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "qpwalk", "__init__.py")):
        fail("run from the root of a qpwalk checkout: src/qpwalk is missing")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
