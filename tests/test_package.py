import importlib

import pytest

import cflat

LIBRARY_MODULES = ("numcore", "objective", "optim", "continual", "landscape", "metrics")


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_the_package_exports_each_module_name_as_that_object(module):
    mod = importlib.import_module(f"cflat.{module}")
    for name in mod.__all__:
        assert getattr(cflat, name) is getattr(mod, name), name
        assert name in cflat.__all__


def test_the_package_exports_no_name_twice():
    assert len(cflat.__all__) == len(set(cflat.__all__))
