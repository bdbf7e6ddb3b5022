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
