import importlib
import pkgutil

import pytest

import vectorgain

_MODULES = sorted(m.name for m in pkgutil.iter_modules(vectorgain.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_exists(name):
    # a deleted function must not stay behind in its module's __all__
    module = importlib.import_module(f"vectorgain.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
