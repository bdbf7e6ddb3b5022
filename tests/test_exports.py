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


def test_lazy_names_are_looked_up_afresh(monkeypatch):
    # a caller that patches the defining module (a tracer, say) is seen
    # through the package: the package keeps no copy of a lazy name
    expansion = importlib.import_module("curveobs.expansion")
    reference = importlib.import_module("curveobs.reference")
    assert curveobs.theta0 is expansion.theta0
    monkeypatch.setattr(expansion, "theta0", len)
    monkeypatch.setattr(reference, "act2", abs)
    assert curveobs.theta0 is len and curveobs.act2 is abs
    assert "theta0" not in vars(curveobs) and "act2" not in vars(curveobs)


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
