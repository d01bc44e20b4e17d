import importlib
import pkgutil

import pytest

import lngd

MODULES = sorted(info.name for info in pkgutil.iter_modules(lngd.__path__))


def test_every_module_is_listed():
    assert {"cli", "theory", "training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # A deletion must take its name out of __all__ too.
    module = importlib.import_module(f"lngd.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"lngd.{name}.__all__ names {missing}, which lngd.{name} lacks"
