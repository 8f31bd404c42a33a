"""Every name a module exports must exist, the README's code must run, and
the README's config key table must be the pipeline's.

`from occupal.<module> import *` fails on a name left in `__all__` after
its definition was deleted, and nothing else would notice; neither would
a README that still calls a removed name or lists a key the config no
longer reads.
"""

import importlib
import os
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import occupal
from occupal.cli import main
from occupal.pipeline import _REQUIRED, _SECTION_FIELDS, ARTIFACT_NAMES

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

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
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert np.isfinite(namespace["trace"].loss_total).all()


def test_readme_cli_quick_start_runs(tmp_path):
    """The README's config runs and writes the artifacts the README lists."""
    readme = README.read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    config_path = tmp_path / "config.json"
    config_path.write_text(blocks[0])
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(ARTIFACT_NAMES)
    sentence = re.search(r"writes nine artifacts \((.*?)\)", readme, flags=re.DOTALL)
    assert sorted(re.findall(r"`([^`]+)`", sentence.group(1))) == sorted(ARTIFACT_NAMES)


def test_readme_key_table_matches_the_config_table():
    """For each kind of each section, the README lists the keys that
    pipeline._SECTION_FIELDS states, with the same defaults; a key listed
    without a default is required."""
    header = "| section | kind | keys (default) |\n| --- | --- | --- |\n"
    rows = README.read_text().split(header)[1].split("\n\n")[0].splitlines()
    listed = {}
    for row in rows:
        section, kind, keys = (cell.strip() for cell in row.strip("|").split("|"))
        kind = None if kind == "no `kind` key" else kind.strip("`")
        listed[section.strip("`"), kind] = {
            key: float(default) if default else _REQUIRED
            for key, default in re.findall(r"`(\w+)`(?: \(([^)]*)\))?", keys)
        }
    stated = {
        (section, kind): {key: default for key, (_, default) in fields.items()}
        for section, kinds in _SECTION_FIELDS.items()
        for kind, fields in kinds.items()
    }
    assert listed == stated
