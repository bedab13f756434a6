"""The README's examples run as written and print what they promise."""

import ast
import contextlib
import inspect
import io
import json
import re
from pathlib import Path

import qpwalk as q

README = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")


def _block(lang, section):
    """First fenced ``lang`` block after the ``section`` heading."""
    start = README.index(section)
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, start)
    return match.group(1)


def test_quick_start_prints_what_its_comments_say():
    code = _block("python", "## Library quick start")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    promised = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert len(printed) == len(promised)
    for got, want in zip(printed, promised):
        if want.startswith("~"):
            # "~" promises the order of magnitude of a rounding-level figure.
            assert 0.1 <= float(got) / float(want[1:]) <= 10.0, (got, want)
        else:
            assert got == want


def test_walk_file_example_is_a_valid_walk():
    doc = json.loads(_block("json", "## Walk file format"))
    q.ensure_valid(q.WalkSpec.from_dict(doc))


def test_every_library_name_in_the_readme_exists():
    names = set(re.findall(r"\bq\.(\w+)", README))
    assert names
    assert sorted(n for n in names if not hasattr(q, n)) == []


def test_every_exported_function_is_used_or_in_the_readme():
    # A function the package never calls and the README never names is a
    # leftover, such as a hand-written vertical twin of a horizontal one.
    called = set()
    for path in Path(q.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    named = set(re.findall(r"\bq\.(\w+)", README))
    functions = {n for n in q.__all__ if inspect.isfunction(getattr(q, n))}
    assert sorted(functions - called - named) == []
