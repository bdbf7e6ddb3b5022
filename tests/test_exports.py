import curveobs


def test_all_names_resolve():
    missing = [name for name in curveobs.__all__
               if not hasattr(curveobs, name)]
    assert not missing, f"curveobs.__all__ names missing from the package: {missing}"
