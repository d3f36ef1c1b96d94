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
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: ast.Module):
    """``(qualified name, name, node)`` of each function and method of
    :func:`_functions`, and of each name a module-level assignment binds,
    dunders left out."""
    for qualified, node in _functions(module):
        yield qualified, node.name, node
    for node in module.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _dunder(name.id):
                        yield name.id, name.id, node


def test_every_module_level_function_is_referenced_outside_its_definition():
    """A function, a method of a class or a module-level name of the package
    that only tests read belongs in the tests."""
    root = SRC.parent
    package = sorted((SRC / "blowup_series").glob("*.py"))
    scripts = [*DEMOS, *sorted((root / "perfbench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in package + scripts}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    readme = (root / "README.md").read_text()
    used.update(re.findall(r"\w+", " ".join(re.findall(r"`+([^`]+)`+", readme))))
    unused = [
        f"{path.stem}.{qualified}"
        for path in package
        for qualified, name, node in _definitions(trees[path])
        if used[name] <= _references(node)[name]
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


def test_only_the_read_only_base_refuses_writes():
    """Assignment and deletion are refused in one place: only ``ReadOnly``
    defines ``__setattr__`` or ``__delattr__``, and every value type derives
    from it."""
    from blowup_series.algebra import BiSeries
    from blowup_series.pairing import EvalResult
    from blowup_series.series import ReadOnly
    from blowup_series.verify import IdentityDescriptor

    writes = ("__setattr__", "__delattr__")
    trees = [ast.parse(path.read_text()) for path in sorted((SRC / "blowup_series").glob("*.py"))]
    defined = [
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in writes
    ]
    owners = [
        cls.name
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name in writes
    ]
    assert sorted(defined) == sorted(writes) and owners == ["ReadOnly", "ReadOnly"]
    kinds = (blowup_series.TSeries, blowup_series.XPoly, BiSeries, blowup_series.BlowupSeriesSet)
    kinds += (IdentityDescriptor, blowup_series.MomentFunctional, EvalResult)
    assert all(issubclass(kind, ReadOnly) for kind in kinds)


#: each function of the package that opens or reads a file, and what it reads
_FILE_OPENERS = {
    "pairing._load_json": "every input file a user names: the eval request and its functionals",
    "blowup._golden_bytes": "the golden table, package data",
    "cli._write": "os.devnull, reopened over a standard stream that failed",
}


def _calls(node: ast.AST, owner: str = ""):
    """``(function, call, name)`` of each call under ``node``: its enclosing
    function and the name it calls, ``open`` for both ``open`` and ``os.open``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls(child, f"{owner}.{child.name}" if owner else child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            yield owner, child, func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        yield from _calls(child, owner)


def _file_opening_calls(node: ast.AST):
    """``(function, call)`` of each ``open``, ``os.open``, ``read_text`` or
    ``read_bytes`` call under ``node``, named by its enclosing function."""
    for owner, call, name in _calls(node):
        if name in ("open", "read_text", "read_bytes"):
            yield owner, ast.unparse(call.func)


def test_user_input_is_read_only_through_the_eval_reader():
    """Only ``pairing._load_json`` reads a file a user names, so each new
    reader of user input, such as ``verify`` over a pair of series files,
    goes through it and refuses a FIFO or a device alike.  The other
    functions that open a file read package data or reopen ``os.devnull``."""
    found = {
        (f"{path.stem}.{owner}", call)
        for path in sorted((SRC / "blowup_series").glob("*.py"))
        for owner, call in _file_opening_calls(ast.parse(path.read_text()))
    }
    assert {owner for owner, _ in found} == set(_FILE_OPENERS), sorted(found)
    assert ("pairing._load_json", "os.open") in found


def _hashlib_imports(node: ast.AST, owner: str = "", handled: bool = False):
    """``(function, inside an except clause)`` of each import of ``hashlib``
    or ``_hashlib`` under ``node``, and of each string that names one, named
    by its enclosing function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _hashlib_imports(child, f"{owner}.{child.name}" if owner else child.name, handled)
            continue
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        else:
            names = [child.value] if isinstance(child, ast.Constant) and isinstance(child.value, str) else []
        if any(name.split(".")[0] in ("hashlib", "_hashlib") for name in names):
            yield owner, handled
        yield from _hashlib_imports(child, owner, handled or isinstance(child, ast.ExceptHandler))


def test_hashlib_is_only_the_fallback_of_the_sha256_helper():
    """``hashlib`` loads OpenSSL, which costs a catalog command more than its
    one digest; the package names it once, as the fallback import inside
    ``derived.sha256_hex``, and never at module level."""
    found = [
        (f"{path.stem}.{owner}", handled)
        for path in sorted((SRC / "blowup_series").glob("*.py"))
        for owner, handled in _hashlib_imports(ast.parse(path.read_text()))
    ]
    assert found == [("derived.sha256_hex", True)]


def test_every_module_hook_comes_from_the_one_helper():
    """A package module that serves names on first access (PEP 562) has its
    ``__getattr__`` from ``series._lazy_names``, and ``blowup`` serves each
    group construction that its ``_GROUPS`` table names."""
    import importlib

    from blowup_series import blowup, series

    modules = [
        importlib.import_module("blowup_series" if path.stem == "__init__" else f"blowup_series.{path.stem}")
        for path in sorted((SRC / "blowup_series").glob("*.py"))
    ]
    hooks = [vars(module)["__getattr__"] for module in modules if "__getattr__" in vars(module)]
    assert hooks and {hook.__qualname__ for hook in hooks} == {
        f"{series._lazy_names.__qualname__}.<locals>.__getattr__"
    }
    assert set(blowup._GROUPS.values()) <= set(blowup._TRACER_NAMES)


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


@pytest.mark.parametrize(
    "parity, formula, second, traced",
    [
        ("even", "maina", "mu_ctau", "eval_even"),
        ("even", "main-prime", "nu_c", "eval_even_main_prime"),
        ("odd", "mainb", "nu_c", "eval_odd"),
    ],
)
def test_the_eval_handler_calls_the_names_the_tracer_wraps(
    monkeypatch, capsys, tmp_path, parity, formula, second, traced
):
    """``eval`` looks each formula up under its module name when it runs, so
    the benchmark tracer, which rebinds those names, times every request."""
    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    import tracing

    from blowup_series import cli

    moments = {"label": "m", "moments": ["1"] * 8}
    request = tmp_path / "request.json"
    request.write_text(
        json.dumps({"parity": parity, "order": 4, "formula": formula, "functionals": {"mu_c": moments, second: moments}})
    )
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main(["eval", str(request)])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    assert f"pairing.{traced}" in {name for name, *_ in tracer.spans}


def test_each_formula_is_stated_once_in_the_pairing_table():
    """Each provenance and request field ``pairing.py`` names, outside its
    docstrings, stands in its formula tables: a formula is one row there."""
    tree = ast.parse((SRC / "blowup_series" / "pairing.py").read_text())
    names = {"maina", "main-prime", "mainb", "corollary-even", "corollary-odd", "mu_ctau", "nu_c"}

    def named(node: ast.AST) -> Counter:
        return Counter(
            child.value for child in ast.walk(node) if isinstance(child, ast.Constant) and child.value in names
        )

    tables = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign) and {ast.unparse(t) for t in node.targets} & {"_FORMULAS", "_SIMPLE_TYPES"}
    ]
    stated = named(ast.Module(body=tables, type_ignores=[]))
    assert set(stated) == names and named(tree) == stated


def test_every_order_rule_is_stated_once_in_blowup():
    """Outside ``blowup.py``, a build is asked for at ``build_order(...)`` or at
    an order a caller already worked out, never at an order computed on the
    spot; ``MAX_ORDER`` and ``GOLDEN_ORDER`` are assigned in ``blowup.py``
    only, and ``max(..., 4)`` appears only in ``build_order``."""
    builds = {"series_set", "build_series_set", "generate_pair", "_set_split"}
    computed, floors, assigned = [], [], set()
    for path in sorted((SRC / "blowup_series").glob("*.py")):
        tree = ast.parse(path.read_text())
        for owner, call, name in _calls(tree):
            if name == "max" and any(isinstance(a, ast.Constant) and a.value == 4 for a in call.args):
                floors.append(f"{path.stem}.{owner}")
            order = call.args[0] if call.args else None
            asked = isinstance(order, ast.Name) or (
                isinstance(order, ast.Call) and getattr(order.func, "id", None) == "build_order"
            )
            if name in builds and path.stem != "blowup" and not asked:
                computed.append(f"{path.stem}.{owner}: {ast.unparse(call)}")
        assigned |= {
            (path.stem, target.id)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and target.id in ("MAX_ORDER", "GOLDEN_ORDER")
        }
    assert computed == []
    assert floors == ["blowup.build_order"]
    assert assigned == {("blowup", "MAX_ORDER"), ("blowup", "GOLDEN_ORDER")}


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


@pytest.mark.parametrize("seed", range(1, 6))
def test_every_eval_sweep_request_matches_its_benchmark_reference(monkeypatch, capsys, tmp_path, seed):
    """The benchmark's eval batch of each seed, 54 requests answered twice in
    one process, matches the references of ``perfbench/evalsweep.py``: closed
    forms computed with ``fractions`` and the series pinned in
    ``perfbench/data``, not the code under test."""
    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    import evalsweep

    from blowup_series import cli

    batch = evalsweep.make_batch(seed, tmp_path)
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
