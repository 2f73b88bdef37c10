"""In-memory span recorder wrapped around salemkit's public entry points.

The traced run patches each instrumented function on every name a caller
looks it up by: the attribute of its defining module, every ``from ...
import`` copy in another salemkit module, and values of module-level
dicts (``harness._BUILDERS`` copies the builder functions at import, so
patching ``salemkit.sampler`` alone would miss ``run_experiment``'s
builds).  ``uninstall`` restores every patched name, so one process can
alternate untraced and traced iterations of the same body.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index
of the enclosing span or ``None`` at top level.  A call of a function from
inside its own span (``incidence_index_set`` recurses on a restricted
domain) is not a new span, so ``calls`` counts entries into a layer.
"""

import importlib
import sys
import time

import numpy as np


def _build_attrs(args, out):
    prov = out.provenance
    return {
        "M": int(prov["M"]),
        "removed": int(prov["n_removed"]),
        "capped": str(prov["tau_rule"]).startswith("budget-capped"),
    }


def _scan_attrs(args, out):
    return {"points": len(args[0]), "violations": len(out[0])}


def _sweep_attrs(args, out):
    freqs = sum(a.n_evaluated for a in out.annuli)
    return {
        "freqs": freqs,
        "terms": freqs * out.N,
        "sampled": sum(1 for a in out.annuli if a.sampled),
    }


def _calibrate_attrs(args, out):
    return {"pilots": len(out[1])}


def _exp_sum_attrs(args, out):
    return {"freqs": int(np.size(out))}


def _annulus_sups_attrs(args, out):
    return {"freqs": sum(n for _, n, _ in out.values())}


def _battery_attrs(args, out):
    trials = args[0].trials
    errors = sum(1 for r in out.rows if r.get("error"))
    return {"trial_errors": errors + trials - len(out.rows)}


# (span name, module, function, attrs_of): every public entry point the
# workloads reach, under the layer names the per-layer metrics use.
# ``attrs_of(args, result)`` returns the span's work counts.
INSTRUMENTED = [
    ("sampler.build", "salemkit.sampler", "build_translational", _build_attrs),
    ("sampler.build", "salemkit.sampler", "build_surface", _build_attrs),
    ("sampler.build", "salemkit.sampler", "build_rough", _build_attrs),
    ("sampler.incidence", "salemkit.sampler", "incidence_index_set", None),
    ("patterns.scan", "salemkit.patterns", "violation_scan", _scan_attrs),
    ("expsum.sweep", "salemkit.expsum", "sweep", _sweep_attrs),
    ("expsum.calibrate", "salemkit.expsum", "calibrate_constant", _calibrate_attrs),
    ("expsum.weighted_exp_sum", "salemkit.expsum", "weighted_exp_sum", _exp_sum_attrs),
    ("expsum.annulus_sups", "salemkit.expsum", "config_annulus_sups", _annulus_sups_attrs),
    ("dimension.box", "salemkit.dimension", "box_dimension", None),
    ("dimension.fourier", "salemkit.dimension", "fourier_dimension", None),
    ("measures.iterate", "salemkit.measures", "salem_iterate", None),
    ("measures.perturb", "salemkit.measures", "perturb", None),
    ("harness.battery", "salemkit.harness", "run_experiment", _battery_attrs),
    ("harness.split_sum", "salemkit.harness", "split_sum_check", None),
    ("harness.hoeffding", "salemkit.harness", "hoeffding_check", None),
    ("harness.linear_demo", "salemkit.harness", "demo_linear_equations", None),
    ("harness.isosceles_demo", "salemkit.harness", "demo_isosceles", None),
]


class Recorder:
    """Records spans while installed; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, attrs_of):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, {}])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if attrs_of is not None:
                spans[idx][4] = attrs_of(args, out)
            return out

        return traced

    def install(self):
        for _, mod_name, _, _ in INSTRUMENTED:
            importlib.import_module(mod_name)
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("salemkit")]
        for name, mod_name, attr, attrs_of in INSTRUMENTED:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, orig, attrs_of)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig, True))
                        setattr(mod, key, wrapper)
                    elif type(val) is dict:
                        for k2, v2 in val.items():
                            if v2 is orig:
                                self._patches.append((val, k2, orig, False))
                                val[k2] = wrapper

    def uninstall(self):
        for target, key, orig, is_module in reversed(self._patches):
            if is_module:
                setattr(target, key, orig)
            else:
                target[key] = orig
        self._patches.clear()


def _sum(spans, name, key=None):
    if key is None:
        return sum(s[2] - s[1] for s in spans if s[0] == name)
    return sum(s[4].get(key, 0) for s in spans if s[0] == name)


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced body iteration of ``wall`` seconds."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def self_s(name):
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name)

    def ratio(num, den):
        return num / den if den else 0.0

    builds = calls("sampler.build")
    sweep_s = _sum(spans, "expsum.sweep")
    sweep_terms = _sum(spans, "expsum.sweep", "terms")
    cal_s = _sum(spans, "expsum.calibrate")
    pilots = _sum(spans, "expsum.calibrate", "pilots")
    top = sum(s[2] - s[1] for s in spans if s[3] is None)
    return {
        "sampler.incidence.calls": calls("sampler.incidence"),
        "sampler.incidence.s": _sum(spans, "sampler.incidence"),
        "sampler.removed_frac": ratio(
            _sum(spans, "sampler.build", "removed"), _sum(spans, "sampler.build", "M")
        ),
        "sampler.build.calls": builds,
        "sampler.build.s": _sum(spans, "sampler.build"),
        "sampler.build.self_s": self_s("sampler.build"),
        "sampler.tau_capped_frac": ratio(_sum(spans, "sampler.build", "capped"), builds),
        "sampler.incidence_per_build": ratio(calls("sampler.incidence"), builds),
        "patterns.scan.calls": calls("patterns.scan"),
        "patterns.scan.s": _sum(spans, "patterns.scan"),
        "patterns.scan.points": _sum(spans, "patterns.scan", "points"),
        "patterns.scan.violations": _sum(spans, "patterns.scan", "violations"),
        "expsum.sweep.calls": calls("expsum.sweep"),
        "expsum.sweep.s": sweep_s,
        "expsum.sweep.freqs": _sum(spans, "expsum.sweep", "freqs"),
        "expsum.sweep.terms": sweep_terms,
        "expsum.sweep.terms_per_s": ratio(sweep_terms, sweep_s),
        "expsum.sweep.sampled_annuli": _sum(spans, "expsum.sweep", "sampled"),
        "expsum.calibrate.calls": calls("expsum.calibrate"),
        "expsum.calibrate.s": cal_s,
        "expsum.calibrate.pilots": pilots,
        "expsum.calibrate.s_per_pilot": ratio(cal_s, pilots),
        "expsum.weighted_exp_sum.calls": calls("expsum.weighted_exp_sum"),
        "expsum.weighted_exp_sum.s": _sum(spans, "expsum.weighted_exp_sum"),
        "expsum.annulus_sups.s": _sum(spans, "expsum.annulus_sups"),
        "expsum.annulus_sups.freqs": _sum(spans, "expsum.annulus_sups", "freqs"),
        "dimension.box.calls": calls("dimension.box"),
        "dimension.box.s": _sum(spans, "dimension.box"),
        "dimension.fourier.calls": calls("dimension.fourier"),
        "dimension.fourier.s": _sum(spans, "dimension.fourier"),
        "dimension.fourier.self_s": self_s("dimension.fourier"),
        "measures.iterate.s": _sum(spans, "measures.iterate"),
        "measures.iterate.self_s": self_s("measures.iterate"),
        "measures.perturb.calls": calls("measures.perturb"),
        "measures.perturb.s": _sum(spans, "measures.perturb"),
        "harness.battery.s": _sum(spans, "harness.battery"),
        "harness.battery.self_s": self_s("harness.battery"),
        "harness.battery.trial_errors": _sum(spans, "harness.battery", "trial_errors"),
        "harness.split_sum.s": _sum(spans, "harness.split_sum"),
        "harness.split_sum.self_s": self_s("harness.split_sum"),
        "harness.hoeffding.s": _sum(spans, "harness.hoeffding"),
        "harness.linear_demo.s": _sum(spans, "harness.linear_demo"),
        "harness.isosceles_demo.s": _sum(spans, "harness.isosceles_demo"),
        "harness.isosceles_demo.self_s": self_s("harness.isosceles_demo"),
        "trace.coverage": ratio(top, wall),
    }


def dump(spans, origin):
    """Spans as JSON-ready dicts, times in seconds from ``origin``."""
    return [
        {
            "name": name,
            "start": start - origin,
            "end": end - origin,
            "parent": parent,
            "attrs": attrs,
        }
        for name, start, end, parent, attrs in spans
    ]
