"""The package re-exports exactly what its modules declare in ``__all__``."""

import importlib

import pytest

import tvstokes

MODULES = ("errors", "fields", "spectral", "smoothing", "reconstruction", "rof", "volume_io",
           "noise", "metrics", "pipeline")


def test_package_all_concatenates_module_lists():
    names = [n for m in MODULES for n in importlib.import_module(f"tvstokes.{m}").__all__]
    assert tvstokes.__all__ == names
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_are_the_module_objects(module):
    mod = importlib.import_module(f"tvstokes.{module}")
    for name in mod.__all__:
        assert getattr(tvstokes, name) is getattr(mod, name)


@pytest.mark.parametrize("module, name", [
    ("smoothing", "dual_step"),
    ("reconstruction", "dual_step"),
    ("reconstruction", "solve_shifted"),
    ("volume_io", "write_atomic"),
])
def test_module_level_helpers_stay_out_of_the_package(module, name):
    assert callable(getattr(importlib.import_module(f"tvstokes.{module}"), name))
    assert name not in tvstokes.__all__
    assert not hasattr(tvstokes, name)
