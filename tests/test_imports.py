"""The package's public names resolve, and importing it needs numpy only."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import salemkit

SRC = os.path.dirname(list(salemkit.__path__)[0])
MODULES = sorted(m.name for m in pkgutil.iter_modules(salemkit.__path__))


def test_every_name_in_each_modules_all_resolves():
    assert {"patterns", "sampler", "expsum", "harness", "cli"} <= set(MODULES)
    for name in MODULES:
        mod = importlib.import_module(f"salemkit.{name}")
        public = getattr(mod, "__all__", [])
        assert len(set(public)) == len(public), name
        missing = [attr for attr in public if not hasattr(mod, attr)]
        assert not missing, f"salemkit.{name}.__all__ names {missing}"


def test_importing_the_package_loads_numpy_and_the_standard_library_only():
    # a fresh interpreter, since the test session may have loaded scipy;
    # it prints the top-level modules the imports added to its start-up set
    code = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module('salemkit.' + name)\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    third_party = {m for m in out if m not in sys.stdlib_module_names and not m.startswith("_")}
    assert "scipy" not in out
    assert third_party <= {"numpy", "salemkit"}


def test_pyproject_declares_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(SRC, os.pardir, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [d.split(">")[0].split("=")[0].strip() for d in deps] == ["numpy"]
