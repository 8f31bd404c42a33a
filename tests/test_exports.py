"""Every name a module exports must exist, and the README's code must run.

`from occupal.<module> import *` fails on a name left in `__all__` after
its definition was deleted, and nothing else would notice; neither would
a README that still calls a removed name.
"""

import importlib
import pathlib
import pkgutil
import re

import numpy as np
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


def test_readme_quick_start_runs():
    """The README's library quick start runs against the current API."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert np.isfinite(namespace["trace"].loss_total).all()
