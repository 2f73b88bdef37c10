#!/usr/bin/env python3
"""salemkit benchmark: seeded closed-loop workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ap3-battery --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke              # tiny sizes, self-check
    python3 perfbench/run.py --write-reference    # refresh reference.json

One run sets the workload up, then repeats its body (same seed, same
inputs) until ``--seconds`` would be exceeded by one more body, running at
least one.  With ``--trace 0`` it prints the end-to-end metrics: medians of
the body's wall and CPU time over the iterations, the median set-up time of
``SETUP_PROBES`` fresh processes, the peak RSS of this process and the
share of units (trials, demos, stages, checks) that came out correct.
With ``--trace 1`` it alternates untraced and traced iterations and prints
the per-layer metrics of the traced ones (medians), the trace's coverage of
the body and its overhead against the untraced iterations; the spans go to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment record and the sample counts.  The exit code is 0
whenever a result was printed, 2 when the library source is missing.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: the library's own default is threads=1, and a 2-CPU host
# shared with other jobs gives steadier timings without BLAS threading.
# Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

SETUP_PROBES = 5
# relative tolerance for floats against the stored reference: room for a
# change in the last bits of a float, nothing more
REL_TOL = 1e-9
# top-level spans must cover the traced body's wall time to within this
COVERAGE_MIN = 0.97
SMOKE_SECONDS = 1

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "s_per_pilot"):
        return "s"
    if last == "terms_per_s":
        return "1/s"
    if last.endswith("_frac") or last in ("coverage", "incidence_per_build"):
        return "ratio"
    return "count"


def _plain(obj):
    """JSON fallback for numpy scalars and arrays."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def canonical(outputs):
    text = json.dumps(outputs, sort_keys=True, default=_plain)
    return json.loads(text), hashlib.sha256(text.encode()).hexdigest()


def matches(ref, got):
    """Integers, strings and verdicts exactly; floats to ``REL_TOL``."""
    if isinstance(ref, dict):
        return (
            isinstance(got, dict)
            and ref.keys() == got.keys()
            and all(matches(ref[k], got[k]) for k in ref)
        )
    if isinstance(ref, list):
        return (
            isinstance(got, list)
            and len(ref) == len(got)
            and all(matches(a, b) for a, b in zip(ref, got))
        )
    if isinstance(ref, float):
        return type(got) is float and math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=0.0)
    return type(got) is type(ref) and got == ref


def environment(seed):
    import numpy as np
    import scipy

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        rev = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the env setting."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def setup_times(args):
    """Wall time from spawning a fresh interpreter until the body could start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def run_workload(args):
    from workloads import SIZES, WORKLOADS

    import spans

    setup, body = WORKLOADS[args.workload]
    setup_s = setup_times(args)
    state = setup(SIZES[args.workload][args.size], args.seed)

    reference = None
    if args.seed == 0 and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(args.size, {}).get(args.workload)

    units = []
    walls = {False: [], True: []}
    cpus = []
    layers = []
    dumps = []
    first = None
    t_start = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        rec = spans.Recorder() if traced else None
        if rec:
            rec.install()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            outputs, body_units = body(state)
        except Exception:  # the run goes on and reports the failure
            traceback.print_exc()
            outputs, body_units = None, [("body raised", False)] * state["units"]
        finally:
            t1 = time.perf_counter()
            c1 = time.process_time()
            if rec:
                rec.uninstall()
        wall = t1 - t0
        walls[traced].append(wall)
        if not traced:
            cpus.append(c1 - c0)
        units += body_units
        if outputs is not None:
            plain, digest = canonical(outputs)
            if first is None:
                first = (plain, digest)
                if args.seed == 0:
                    units.append(("reference", reference is not None and matches(reference, plain)))
            else:
                units.append((f"iteration {i} repeats iteration 0", digest == first[1]))
        if rec:
            metrics = spans.layer_metrics(rec.spans, wall)
            cov = metrics["trace.coverage"]
            units.append((f"trace coverage {cov:.4f}", COVERAGE_MIN <= cov <= 1.0))
            layers.append(metrics)
            dumps.append({"iteration": i, "wall_s": wall, "spans": spans.dump(rec.spans, t0)})
        i += 1
        elapsed = time.perf_counter() - t_start
        all_walls = walls[False] + walls[True]
        need = args.trace and not (walls[False] and walls[True])
        if not need and elapsed + statistics.median(all_walls) > args.seconds:
            break

    failed = [label for label, ok in units if not ok]
    for label in failed:
        print(f"failed unit: {label}", file=sys.stderr)
    attempted = len(units)
    if args.trace:
        metrics = {
            name: statistics.median(m[name] for m in layers) for name in layers[0]
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        units_of = {name: layer_unit(name) for name in metrics}
        OUT.mkdir(exist_ok=True)
        out_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        out_file.write_text(json.dumps(dumps, default=_plain) + "\n")
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(failed) / attempted,
        }
        units_of = E2E_UNITS
    info = {
        "env": environment(args.seed),
        "workload": args.workload,
        "size": args.size,
        "iterations": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "wall_s_samples": walls[False],
        "traced_wall_s_samples": walls[True],
        "setup_s_samples": setup_s,
        "outputs_sha256": first[1] if first else None,
    }
    print(json.dumps({"info": info}, default=_plain))
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": units_of[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def setup_probe(args):
    from workloads import SIZES, WORKLOADS

    WORKLOADS[args.workload][0](SIZES[args.workload][args.size], args.seed)
    print("ready", flush=True)
    return 0


def write_reference():
    """Store the seed-0 outputs of every workload at both sizes."""
    from workloads import SIZES, WORKLOADS

    ref = {}
    for size in ("full", "tiny"):
        ref[size] = {}
        for name, (setup, body) in WORKLOADS.items():
            outputs, units = body(setup(SIZES[name][size], 0))
            bad = [label for label, ok in units if not ok]
            if bad:
                print(f"{name} ({size}): failed units {bad}; reference not written",
                      file=sys.stderr)
                return 1
            ref[size][name] = canonical(outputs)[0]
            print(f"{name} ({size}): stored", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def smoke():
    """Every workload at the tiny size: metric names and units, determinism."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        before = len(problems)
        digests = []
        for trace in (0, 0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "0", "--seconds", str(SMOKE_SECONDS), "--trace", str(trace),
                   "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: not correct\n{proc.stderr}")
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace={trace}: metrics/units {got} != {wanted}")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{name} trace={trace}: non-finite metric")
            digests.append(info["outputs_sha256"])
        if len(set(digests)) != 1 or None in digests:
            problems.append(f"{name}: outputs differ between runs at one seed: {digests}")
        print(f"smoke {name}: {'ok' if len(problems) == before else 'FAILED'}", file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    from workloads import WORKLOADS  # stdlib-only import: safe before the src check

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "salemkit" / "harness.py").is_file():
        print(f"perfbench: no salemkit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
