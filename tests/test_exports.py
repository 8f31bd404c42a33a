"""Every name a module exports must exist.

`from occupal.<module> import *` fails on a name left in `__all__` after
its definition was deleted, and nothing else would notice.
"""

import importlib
import pkgutil

import pytest

import occupal

MODULES = ["occupal"] + [
    f"occupal.{info.name}" for info in pkgutil.iter_modules(occupal.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
