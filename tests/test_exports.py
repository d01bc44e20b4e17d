import importlib
import pathlib
import pkgutil
import re

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


ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_exported_name_is_read_outside_its_module():
    # Public API that nothing else names is deleted or dropped from __all__: each __all__
    # name must appear, as a whole word, in another lngd module, a test or the benchmark.
    texts = {path: path.read_text() for folder in ("src/lngd", "tests", "perfbench")
             for path in (ROOT / folder).glob("*.py")}
    unread = []
    for name in MODULES:
        own = ROOT / "src" / "lngd" / f"{name}.py"
        for attr in getattr(importlib.import_module(f"lngd.{name}"), "__all__", ()):
            word = re.compile(rf"\b{attr}\b")
            if not any(word.search(text) for path, text in texts.items() if path != own):
                unread.append(f"{name}.{attr}")
    assert not unread, f"exported but named nowhere else: {unread}"
