"""Tests of the package as a whole: `curveobs/__init__`'s exports and
version, the annotations of every module, the README's imports, the
project configuration, and the layout of `tests/` itself: every module's
test files, and the named cross-module suites.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import curveobs

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve():
    missing = [name for name in curveobs.__all__
               if not hasattr(curveobs, name)]
    assert not missing, f"curveobs.__all__ names missing from the package: {missing}"


def test_version_has_one_home():
    # pyproject.toml reads the version from the package instead of repeating it
    tomllib = pytest.importorskip("tomllib")
    conf = tomllib.loads(
        (ROOT / "pyproject.toml").read_text())
    assert "version" not in conf["project"]
    assert "version" in conf["project"]["dynamic"]
    assert conf["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "curveobs.__version__"}


def test_no_exported_name_is_a_module():
    # a submodule shares its package's namespace: importing `curveobs.ell`
    # binds the module to the name `ell`, and only the later
    # `from .ell import ell` rebinds it to the exported function
    modules = [name for name in curveobs.__all__
               if inspect.ismodule(getattr(curveobs, name))]
    assert not modules, modules
    namespace = {}
    exec("from curveobs import *", namespace)
    del namespace["__builtins__"]
    assert not [name for name, obj in namespace.items()
                if inspect.ismodule(obj)]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        curveobs.no_such_name
    assert set(curveobs.__all__) <= set(dir(curveobs))


def functions_and_methods():
    """Every function and method defined in the package's modules."""
    modules = [curveobs] + [importlib.import_module(f"curveobs.{m.name}")
                            for m in pkgutil.iter_modules(curveobs.__path__)]
    for module in modules:
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr in vars(obj).values():
                    fn = attr.fget if isinstance(attr, property) else \
                        getattr(attr, "__func__", attr)
                    if inspect.isfunction(fn):
                        yield fn
            elif inspect.isfunction(obj):
                yield obj


def test_every_annotation_resolves():
    # the undefined-name check (pyflakes F821) for annotations, which
    # `from __future__ import annotations` leaves unevaluated until a
    # caller asks for them
    checked, unresolved = 0, []
    for fn in functions_and_methods():
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved.append(f"{fn.__module__}.{fn.__qualname__}: {exc}")
        checked += 1
    assert checked > 100
    assert not unresolved, unresolved


def readme_imports():
    """Every `from curveobs... import ...` statement in the README's Python
    code blocks, numbered by its README line."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        for node in ast.parse(block[1]).body:
            if (isinstance(node, ast.ImportFrom)
                    and node.module.split(".")[0] == "curveobs"):
                yield ast.increment_lineno(
                    node, text.count("\n", 0, block.start(1)))


def test_readme_imports_resolve():
    nodes = list(readme_imports())
    assert {"curveobs", "curveobs.reference"} <= {n.module for n in nodes}
    for node in nodes:
        exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), {})


# test files that check several modules together
SUITES = {"golden", "golden_twist_wide", "cli_fuzz", "parse_differential",
          "twist_symbolic", "mapping_class"}
# modules tested in files of other names; `test_wedge` and `test_tensor` keep
# the names of the modules whose code moved to `reference`, `expansion` and
# `homology`, so that the ids of their tests stay stable
HOMES = {"__init__": {"exports"}, "selftest": {"acceptance"},
         "reference": {"wedge", "tensor"}, "expansion": {"tensor"}}


def test_every_module_has_a_test_file():
    modules = {p.stem for p in (ROOT / "src" / "curveobs").glob("*.py")}
    homes = {m: HOMES.get(m, {m}) for m in modules}
    tests = {p.stem[len("test_"):] for p in (ROOT / "tests").glob("test_*.py")}
    missing = sorted(m for m, h in homes.items() if not h <= tests)
    stray = sorted(f"test_{t}.py" for t in tests - set().union(*homes.values())
                   - SUITES)
    assert not missing and not stray, (
        f"modules without their test files: {missing}; "
        f"test files of no module or suite: {stray}")


def test_a_failing_hypothesis_test_shows_its_example(tmp_path):
    # under the project's filterwarnings, a warning raised while the
    # Hypothesis plugin reports a failure would end the run in an
    # INTERNALERROR (exit 3) that hides the falsifying example
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_fails(n): assert n < 0\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
