"""Every example and benchmark script imports cleanly.

Loading a script as a module runs its imports and top-level
definitions, but neither its ``__main__`` block nor its pytest
functions, so a script that names something the library no longer has
fails here instead of on its next manual run.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/*.py")])


def test_scripts_are_found():
    assert {path.parent.name for path in SCRIPTS} == {"examples",
                                                      "benchmarks"}


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_script_imports(path):
    name = f"_script_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
