"""Package-integrity tests: every module imports, every export resolves,
and no import path loads networkx."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _all_modules():
    names = ["repro"]
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(module_info.name)
    return sorted(names)


MODULES = _all_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", [
    name for name in MODULES
    if name.count(".") == 1 or name == "repro"
])
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), (
            f"{module_name}.__all__ lists {name!r} but it is not defined"
        )


def test_every_module_has_docstring():
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"


def test_package_count_sanity():
    # The repo-scale claim: a real subpackage per subsystem.
    subpackages = {
        name.split(".")[1] for name in MODULES if name.count(".") >= 1
    }
    assert {"orbits", "phy", "mac", "isl", "routing", "ground",
            "security", "core", "economics", "simulation",
            "experiments"} <= subpackages


def test_version_string():
    assert repro.__version__ == "1.0.0"


def test_no_module_loads_networkx():
    # A fresh interpreter: this test session has networkx loaded already
    # (the referees use it).  Snapshots expose networkx views for the
    # benchmark and the tests, and each view imports it on first read.
    script = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print('networkx' in sys.modules)\n"
    )
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
