import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import pytest

import curveobs


def test_all_names_resolve():
    missing = [name for name in curveobs.__all__
               if not hasattr(curveobs, name)]
    assert not missing, f"curveobs.__all__ names missing from the package: {missing}"


def test_version_has_one_home():
    # pyproject.toml reads the version from the package instead of repeating it
    tomllib = pytest.importorskip("tomllib")
    conf = tomllib.loads(
        (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
    assert "version" not in conf["project"]
    assert "version" in conf["project"]["dynamic"]
    assert conf["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "curveobs.__version__"}


def test_no_exported_name_is_a_module():
    # a submodule shares its package's namespace: `curveobs.wedge` is the
    # module, not the reference function of that name
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
