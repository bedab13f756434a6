"""The README's examples run as written and print what they promise."""

import ast
import contextlib
import inspect
import io
import json
import re
import shlex
from pathlib import Path

import qpwalk as q
from qpwalk import cli

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


def _promised(section):
    """The JSON block after ``section``, with its ``...`` elisions dropped."""
    return json.loads(_block("json", section).replace(", ...", ""))


def test_cli_examples_run_as_written_and_print_what_the_text_says(
    tmp_path, monkeypatch, capsys
):
    # Every qpwalk line of the sh blocks, in order, in one working
    # directory: later lines read the files that earlier ones write.
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```sh\n(.*?)```", README, re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines() if line.startswith("qpwalk ")]
    out = {}
    for argv in lines:
        assert cli.main(argv[1:]) == 0, argv
        out[argv[1]] = capsys.readouterr().out
    assert list(out) == ["analyze", "trace", "construct", "verify", "partition", "switch"]

    analyzed = json.loads(out["analyze"])
    for key, value in _promised("qpwalk analyze fig2d").items():
        assert analyzed[key] == value, key

    words = {"one": 1, "two": 2, "three": 3}
    n_series, n_terms = re.search(r"\((\w+) series, (\d+)\s+terms", README).groups()
    measure = json.loads((tmp_path / "measure.json").read_text("utf-8"))
    assert (len(measure["series"]), len(measure["terms"])) == (words[n_series], int(n_terms))

    verified, promised = json.loads(out["verify"]), _promised("qpwalk verify switch_fig7")
    assert (verified["verdict"], verified["threshold"]) == (promised["verdict"], promised["threshold"])
    for key, value in promised["report"].items():
        # Rounding-level figures: the order of magnitude is what is promised.
        assert 0.1 <= verified["report"][key] / value <= 10.0, key

    n, figure = re.search(r"`--oracle-n (\d+)` on\s+`switch_fig7` reads (\S+) and still passes",
                          README).groups()
    assert cli.main(["verify", "switch_fig7", "measure.json", "--oracle-n", n]) == 0
    coarse = json.loads(capsys.readouterr().out)
    assert coarse["verdict"] == "pass"
    assert f"{coarse['report']['sup_rel_error']:.1e}" == f"{float(figure):.1e}"


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
