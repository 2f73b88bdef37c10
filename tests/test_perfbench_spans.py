"""The benchmark's span recorder wraps salemkit functions by module and name.

``perfbench/spans.py`` is loaded from its file as it stands, so a renamed
or removed entry point shows up here and not only in the benchmark's own
self-tests, which run outside this suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _salemkit_names():
    """Identity of every module attribute and module-level dict value."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("salemkit"):
            continue
        for key, val in vars(mod).items():
            out[(mod_name, key)] = id(val)
            if type(val) is dict:
                for k2, v2 in val.items():
                    out[(mod_name, key, k2)] = id(v2)
    return out


def test_every_instrumented_function_resolves():
    spans = _load_spans()
    for _, mod_name, attr, _ in spans.INSTRUMENTED:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (
            f"{mod_name}.{attr}"
        )


def test_recorder_uninstall_restores_every_patched_name():
    spans = _load_spans()
    for _, mod_name, _, _ in spans.INSTRUMENTED:
        importlib.import_module(mod_name)
    clean = _salemkit_names()
    recorder = spans.Recorder()
    recorder.install()
    try:
        patched = _salemkit_names()
    finally:
        recorder.uninstall()
    for _, mod_name, attr, _ in spans.INSTRUMENTED:
        assert patched[(mod_name, attr)] != clean[(mod_name, attr)], f"{mod_name}.{attr}"
    assert _salemkit_names() == clean
