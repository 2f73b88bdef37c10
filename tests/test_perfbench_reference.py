"""The benchmark's seed-0 outputs match its stored reference.

``perfbench/run.py`` and ``perfbench/workloads.py`` are loaded from their
files as they stand.  Each workload runs its seed-0 body once at the full
size, and its outputs are compared with ``perfbench/reference.json`` by the
benchmark's own ``matches``: integers, strings and verdicts exactly, floats
to the benchmark's relative tolerance.  The benchmark's self-tests run
outside this suite, so a change that moves an output too far shows here.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    environ = dict(os.environ)
    try:
        # run.py pins the BLAS thread variables at import
        run = _load("perfbench_run", PERFBENCH / "run.py")
    finally:
        os.environ.clear()
        os.environ.update(environ)
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    reference = json.loads(run.REFERENCE.read_text())["full"]
    return run, workloads, reference


@pytest.mark.parametrize("workload", ["ap3-battery", "demos-1d", "certify-d2", "concentration"])
def test_seed_zero_outputs_match_the_reference(bench, workload):
    run, workloads, reference = bench
    setup, body = workloads.WORKLOADS[workload]
    outputs, units = body(setup(workloads.SIZES[workload]["full"], 0))
    assert [label for label, ok in units if not ok] == []
    assert run.matches(reference[workload], run.canonical(outputs)[0])
