"""The demos run as scripts and every public name of the package resolves."""
import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import blowup_series

SRC = Path(blowup_series.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_every_public_name_resolves():
    names = blowup_series.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(blowup_series, name)] == []


def test_every_public_name_is_imported_by_a_demo_or_named_in_the_readme():
    imported = set()
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "blowup_series":
                imported.update(alias.name for alias in node.names)
    readme = (SRC.parent / "README.md").read_text()
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`+([^`]+)`+", readme))))
    assert sorted(set(blowup_series.__all__) - imported - named) == []


def test_every_command_and_option_of_the_cli_is_in_the_readme():
    """The README's Command line section names each command of ``cli``'s
    option table and each argument, long option or positional, it takes."""
    from blowup_series import cli

    readme = (SRC.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[\w-]+|\w+", section))
    table = {*cli._COMMANDS, *(name for _, _, spec in cli._COMMANDS.values() for name in spec)}
    assert sorted(table - named) == []


def _references(tree: ast.AST) -> Counter:
    """Names a tree reads: every ``Name``, ``Attribute`` and import alias, and
    every string constant that is an identifier (``_member("_odd", i)``)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found[node.value] += 1
    return found


def _functions(module: ast.Module):
    """``(qualified name, node)`` of each module-level function and each
    method of a module-level class, dunders left out."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def test_every_module_level_function_is_referenced_outside_its_definition():
    """A function, or a method of a class, of the package that only tests call
    belongs in the tests."""
    root = SRC.parent
    package = sorted((SRC / "blowup_series").glob("*.py"))
    scripts = [*DEMOS, *sorted((root / "perfbench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in package + scripts}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    readme = (root / "README.md").read_text()
    used.update(re.findall(r"\w+", " ".join(re.findall(r"`+([^`]+)`+", readme))))
    unused = [
        f"{path.stem}.{name}"
        for path in package
        for name, node in _functions(trees[path])
        if used[node.name] <= _references(node)[node.name]
    ]
    assert unused == []


def _class_calls(tree: ast.AST) -> set:
    """The ``"Class.name"`` strings a tree reads: each ``Class.name`` attribute, and
    each ``cls.name`` inside a method of ``Class`` itself."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ClassDef):
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "cls"
                ):
                    found.add(f"{node.name}.{inner.attr}")
    return found


def test_every_classmethod_is_called_on_its_class():
    """A classmethod passes the bare-name check whenever another definition
    shares its name; this one asks for ``Class.name`` itself in the package,
    the demos or the benchmark scripts, or named in the README."""
    root = SRC.parent
    package = sorted((SRC / "blowup_series").glob("*.py"))
    scripts = [*DEMOS, *sorted((root / "perfbench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in package + scripts}
    used = set().union(*map(_class_calls, trees.values()))
    readme = (root / "README.md").read_text()
    used.update(re.findall(r"\w+\.\w+", " ".join(re.findall(r"`+([^`]+)`+", readme))))
    classmethods = [
        name
        for path in package
        for name, node in _functions(trees[path])
        if any(isinstance(d, ast.Name) and d.id == "classmethod" for d in node.decorator_list)
    ]
    assert classmethods
    assert sorted(set(classmethods) - used) == []


def test_the_demos_are_found():
    assert len(DEMOS) >= 4


def test_the_benchmark_tracer_installs_on_the_package(monkeypatch):
    """Every callable the benchmark tracer wraps still exists under the name it binds."""
    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    import tracing

    blowup = blowup_series.blowup
    originals = (blowup.series_set, blowup.build_series_set, blowup.derived_products)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert blowup.series_set is not originals[0]
    finally:
        tracer.uninstall()
    assert (blowup.series_set, blowup.build_series_set, blowup.derived_products) == originals
    blowup.series_set.cache_info()  # read when the tracer writes its file


def test_the_benchmark_tracer_runs_verify(tmp_path):
    """The traced CLI keeps what it binds: catalog reports, the ``jobs`` rerun,
    set sizes, and a span for each phase of the build, so that no layer of
    the build reads 0 wherever its construction lives."""
    trace = tmp_path / "trace.json"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable,
            str(SRC.parent / "perfbench" / "tracedcli.py"),
            str(trace),
            *("verify", "--order", "12", "--bivariate-order", "8"),
        ],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    data = json.loads(trace.read_text())
    assert len(data["reports"]) == 18 and data["jobs2_match"] is True
    assert data["size"]["max_coeff_bits"] > 0
    phases = ("derived_products", "exponential_pair", "odd_case_pair", "series_content_hash")
    traced = {name for name, *_ in data["spans"]}
    assert {f"blowup.{phase}" for phase in phases} <= traced


def test_every_eval_sweep_request_matches_its_benchmark_reference(monkeypatch, capsys, tmp_path):
    """The benchmark's eval batch, answered twice in one process, matches the
    references of ``perfbench/evalsweep.py``: closed forms computed with
    ``fractions`` and the series pinned in ``perfbench/data``, not the code
    under test."""
    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    import evalsweep

    from blowup_series import cli

    batch = evalsweep.make_batch(3, tmp_path)
    runs = []
    for _ in range(2):
        outputs = []
        for request in batch:
            code = cli.main(["eval", request["path"]])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            outputs.append(captured.out)
        runs.append(outputs)
    assert runs[0] == runs[1]
    for request, text in zip(batch, runs[1]):
        Path(request["out"]).write_text(text)
        assert evalsweep.output_matches(request), (request["order"], request["formula"])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
