"""Command-line front end.

Verbs: analyze, trace, construct, verify, partition, switch.  Inputs are
JSON walk or measure files (bundled preset names also work); data goes to
stdout or --output, diagnostics to stderr.  Exit codes: 0 success, 1 a
verdict failed (threshold exceeded, construction impossible), 2 bad
input.

Outputs are byte-deterministic: stable key order, floats at 17
significant digits, infinities as the strings "inf"/"-inf".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Optional

import numpy as np

from . import presets
from .compensation import construct
from .curve import branch_points, detect_singularity, trace_qplus
from .errors import (
    EmptyComponent,
    InvalidRouting,
    InvalidWalk,
    QpwalkError,
    SingularWalk,
)
from .model import WalkSpec, drift, eligible, ensure_valid, from_switch, singular_class
from .oracle import balance_residuals, compare, truncated_stationary
from .terms import GammaSet, maximal_partitions

INPUT_ERRORS = (InvalidWalk, InvalidRouting, SingularWalk, ValueError,
                KeyError, OSError, json.JSONDecodeError)

# verify compares on the core min(8, n - 10), which must hold a cell
# beside the origin, so a nonzero --oracle-n must be at least 11.
ORACLE_N_MIN = 11


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON writer; see module docstring for the format."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        rows = [f"{inner}{dumps(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _fail(code: int, message: str, extra: Optional[dict] = None) -> int:
    doc = {"error": message}
    if extra:
        doc.update(extra)
    sys.stderr.write(dumps(doc) + "\n")
    return code


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        name = path[:-5] if path.endswith(".json") else path
        if name in presets.names():
            return json.loads(presets.text(name))
        raise


def _load_walk(path: str) -> WalkSpec:
    data = _load_json(path)
    try:
        spec = WalkSpec.from_dict(data)
    except TypeError as exc:
        raise ValueError(f"{path} is not a walk: {exc}") from exc
    return ensure_valid(spec)


def _load_gamma(path: str) -> GammaSet:
    data = _load_json(path)
    try:
        return GammaSet.from_dict(data)
    except (TypeError, EmptyComponent) as exc:
        raise ValueError(f"{path} is not a term set: {exc}") from exc


def _cmd_analyze(args) -> int:
    spec = _load_walk(args.walk)
    d = drift(spec)
    sc = singular_class(spec)
    report = {
        "walk": spec.to_dict(),
        "drift": {"mx": d.mx, "my": d.my},
        "singular_class": {
            "singular": sc.singular,
            "pattern": sc.tag,
            "reason": sc.reason,
        },
        "eligible": eligible(spec),
    }
    if sc.singular:
        report["branch_points"] = None
        report["singularity"] = None
    else:
        report["branch_points"] = branch_points(spec).to_dict()
        point = detect_singularity(spec)
        report["singularity"] = None if point is None else list(point)
    _emit(dumps(report) + "\n", args.output)
    return 0


def _cmd_trace(args) -> int:
    spec = _load_walk(args.walk)
    trace = trace_qplus(spec, n_points=args.points)
    if args.format == "csv":
        lines = ["x,y,arc"]
        for (x, y), arc in zip(trace.points, trace.arcs):
            lines.append(f"{x:.17g},{y:.17g},{arc}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        doc = {
            "points": trace.points.tolist(),
            "arcs": list(trace.arcs),
            "branch_points": trace.report.to_dict(),
        }
        _emit(dumps(doc) + "\n", args.output)
    return 0


def _cmd_construct(args) -> int:
    spec = _load_walk(args.walk)
    seeds, series, failures, assembled = construct(spec, args.tol, args.max_terms, args.window)
    if not seeds:
        return _fail(1, "no boundary seeds found on the positive curve component")
    if assembled is None:
        return _fail(1, "every seed failed", {"failures": failures})
    doc = {
        "seeds": [inter.to_dict() for inter in seeds],
        "series": [s.to_dict() for s in series],
        "failures": failures, "tol": args.tol, "max_terms": args.max_terms,
    }
    doc.update(assembled.to_dict())
    _emit(dumps(doc) + "\n", args.output)
    # The JSON is written either way, as verify writes its report on a fail.
    if assembled.report.worst > args.tol:
        return _fail(1, f"measure fails balance: worst residual "
                        f"{assembled.report.worst} is above tol {args.tol}")
    return 0


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"tolerance tol = {args.tol} must be positive and finite")
    if args.oracle_n != 0 and args.oracle_n < ORACLE_N_MIN:
        raise ValueError(
            f"--oracle-n {args.oracle_n} is too small: give 0 to skip the oracle "
            f"or at least {ORACLE_N_MIN}"
        )
    spec = _load_walk(args.walk)
    gamma = _load_gamma(args.measure)
    report = balance_residuals(spec, gamma, window=args.window)
    if args.oracle_n:
        oracle = truncated_stationary(spec, args.oracle_n)
        core = min(8, args.oracle_n - 10)
        report = dataclasses.replace(report, sup_rel_error=compare(gamma, oracle, core))
    passed = report.worst <= args.tol
    doc = {
        "report": report.to_dict(),
        "threshold": args.tol,
        "verdict": "pass" if passed else "fail",
    }
    _emit(dumps(doc) + "\n", args.output)
    return 0 if passed else 1


def _cmd_partition(args) -> int:
    gamma = _load_gamma(args.gamma)
    result = maximal_partitions(gamma)
    _emit(dumps(result.to_dict()) + "\n", args.output)
    return 0


def _cmd_switch(args) -> int:
    spec = from_switch(args.r1, args.r2, args.t11, args.t12, args.t21, args.t22)
    doc = {
        "switch": {
            "r1": args.r1, "r2": args.r2,
            "t11": args.t11, "t12": args.t12,
            "t21": args.t21, "t22": args.t22,
        },
    }
    doc.update(spec.to_dict())
    _emit(dumps(doc) + "\n", args.output)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpwalk",
        description="Quarter-plane random walk analysis and geometric-sum construction",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def out(p):
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("analyze", help="drift, singularity, branch points, eligibility")
    p.add_argument("walk", help="walk JSON file or preset name")
    out(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("trace", help="sample the positive kernel curve component")
    p.add_argument("walk")
    p.add_argument("--points", type=int, default=2048)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    out(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("construct", help="build and assemble compensation series")
    p.add_argument("walk")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-terms", type=int, default=200)
    p.add_argument("--window", type=int, default=12)
    out(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="balance residuals and oracle comparison")
    p.add_argument("walk")
    p.add_argument("measure", help="GammaSet JSON ({'terms': [...]} or a bare list)")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--window", type=int, default=12)
    p.add_argument("--oracle-n", type=int, default=80,
                   help="truncation size for the oracle comparison; 0 disables")
    out(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("partition", help="maximal shared-coordinate partitions")
    p.add_argument("gamma", help="GammaSet JSON file")
    out(p)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("switch", help="walk of a 2x2 clocked buffered switch")
    for name in ("r1", "r2", "t11", "t12", "t21", "t22"):
        p.add_argument(name, type=float)
    out(p)
    p.set_defaults(func=_cmd_switch)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        extra = None
        if isinstance(exc, InvalidWalk):
            extra = {"issues": [i.to_dict() for i in exc.issues]}
        return _fail(2, f"{type(exc).__name__}: {exc}", extra)
    except QpwalkError as exc:
        return _fail(1, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
