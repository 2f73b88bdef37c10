"""The four benchmark workloads, written against salemkit's public API.

Each workload is a ``setup(size, seed)`` that imports and lays out what the
body needs, and a ``body(state)`` that returns ``(outputs, units)``:
``outputs`` is a JSON-ready summary of everything the library computed
(compared across iterations, across runs and with the stored reference)
and ``units`` is a list of ``(label, ok)`` pairs, one per trial, demo,
stage or check.  ``state["units"]`` is the unit count of a body, so a body
that raises counts every unit as failed.

Library calls go through the module attribute (``harness.run_experiment``,
not a name bound at import) so that the traced run's wrappers see them.
Sizes were scaled down from the full batteries so that one body takes a
few seconds on a 2-CPU host and a run can take the median of several;
``NOTES.md`` records the scaling.
"""

import math

SIZES = {
    "ap3-battery": {
        "full": {"M": 2048, "trials": 2, "calibration_trials": 2},
        "tiny": {"M": 256, "trials": 1, "calibration_trials": 1},
    },
    "demos-1d": {
        "full": {"iso_M": 256, "lin_M": 256, "iter_M": 512, "G": 512},
        "tiny": {"iso_M": 64, "lin_M": 64, "iter_M": 64, "G": 128},
    },
    "certify-d2": {
        "full": {"M": 32, "pilots": 2},
        "tiny": {"M": 16, "pilots": 1},
    },
    "concentration": {
        # split_sum_check refuses fewer than 50 trials
        "full": {"M": 256, "trials": 50, "hoeffding_n": 512},
        "tiny": {"M": 64, "trials": 50, "hoeffding_n": 64},
    },
}


def _in_range(value, hi):
    return math.isfinite(value) and 0.0 <= value <= hi


# ------------------------------------------------------------ ap3-battery


def setup_ap3(size, seed):
    from salemkit import harness

    cfg = harness.ExperimentConfig(
        pattern={"id": "ap3", "m": 16},
        construction={"M": size["M"], "lam": 0.45, "seed": seed},
        trials=size["trials"],
        sweep={"calibration_trials": size["calibration_trials"]},
        do_scan=True,
        do_dims=False,
    )
    return {"harness": harness, "cfg": cfg, "M": size["M"], "units": size["trials"] + 1}


def body_ap3(st):
    report = st["harness"].run_experiment(st["cfg"])
    M = st["M"]
    rows = report.rows
    units = [
        (
            f"trial {r['trial']}",
            not r.get("error")
            and r.get("scan_violations") == 0
            and M - r["removed_count"] >= M / 2,
        )
        for r in rows
    ]
    # a battery that stops early leaves its remaining trials unrun
    units += [("trial not run", False)] * (st["cfg"].trials - len(rows))
    C = report.meta["calibrated_C"]
    units.append(("calibration", C is not None and math.isfinite(C)))
    return {"rows": rows, "calibrated_C": C}, units


# --------------------------------------------------------------- demos-1d


def setup_demos(size, seed):
    from salemkit import dimension, harness, measures
    from salemkit.sampler import ConstructionParams

    lam = 0.45
    params0 = ConstructionParams(M=size["iter_M"], lam=lam, seed=seed)
    schedule = measures.geometric_schedule(params0, stages=2, factor=4.0)
    return {
        "harness": harness,
        "measures": measures,
        "dimension": dimension,
        "size": size,
        "seed": seed,
        "lam": lam,
        "pattern": harness.ap3_pattern(m=16),
        "schedule": schedule,
        "units": 2 + len(schedule) + 1,
    }


def body_demos(st):
    harness, measures, dimension = st["harness"], st["measures"], st["dimension"]
    size, seed = st["size"], st["seed"]
    units = []

    iso = harness.demo_isosceles("surface", M=size["iso_M"], seed=seed).rows[0]
    units.append(("isosceles demo", bool(iso["gap_positive"]) and iso["min_functional_gap"] > 0))

    lin = harness.demo_linear_equations(M=size["lin_M"], seed=seed).rows[0]
    units.append(
        ("linear-equation demo", lin["scan_violations"] == 0 and lin["N"] >= size["lin_M"] / 2)
    )

    traj = measures.salem_iterate(st["pattern"], st["schedule"], G=size["G"], gamma=st["lam"])
    stages = []
    for rec, params in zip(traj, st["schedule"]):
        cfg = rec["config"]
        units.append(
            (
                f"stage {rec['stage']}",
                cfg.N >= params.M / 2 and bool(rec["perturb"]["triangle_chain_ok"]),
            )
        )
        stages.append(
            {
                "N": cfg.N,
                "radius": rec["radius"],
                "sweep_violations": rec["sweep"].n_violations,
                "sweep_sup": rec["sweep"].sup_overall,
                "seminorm_step": rec["seminorm_step"]["value"],
                "ratio_K": rec["perturb"]["ratio_K"],
            }
        )
    final = traj[-1]
    config = final["config"]
    r = config.radius_r
    box = dimension.box_dimension(config.points, scales=[16 * r, 8 * r, 4 * r, 2 * r, r], thicken=r)
    four_config = dimension.fourier_dimension(config)
    four_grid = dimension.fourier_dimension(final["measure"])
    dims = {"box": box.value, "fourier_config": four_config.value, "fourier_grid": four_grid.value}
    units.append(("dimensions", all(_in_range(v, 1.0) for v in dims.values())))
    outputs = {
        "isosceles": {k: iso[k] for k in ("N", "removed_count", "min_functional_gap")},
        "linear": {k: lin[k] for k in ("N", "removed_count", "tau_used", "scan_violations")},
        "stages": stages,
        "dimensions": dims,
    }
    return outputs, units


# ------------------------------------------------------------- certify-d2


def setup_d2(size, seed):
    import numpy as np
    from salemkit import dimension, expsum, sampler
    from salemkit.patterns import TranslationalPattern
    from salemkit.torus import Cube

    m = 8
    side = 1.0 / (4 * m)  # 1/(2 a m) with a = 2
    cubes = [Cube([c - side / 2, c - side / 2], side) for c in (1 / 6, 1 / 2, 5 / 6)]
    pattern = TranslationalPattern(
        d=2,
        n=3,
        a=2,
        period_m=m,
        T=lambda x: (-np.asarray(x))[..., None, :],
        lipschitz=1.0,
        cubes=cubes,
    )
    params = sampler.ConstructionParams(M=size["M"], lam=0.9, seed=seed)
    return {
        "sampler": sampler,
        "expsum": expsum,
        "dimension": dimension,
        "pattern": pattern,
        "params": params,
        "pilots": size["pilots"],
        "units": 4,
    }


def body_d2(st):
    sampler, expsum, dimension = st["sampler"], st["expsum"], st["dimension"]
    params = st["params"]
    M, lam = params.M, params.lam
    units = []

    config = sampler.build_translational(st["pattern"], params)
    removed = config.provenance["n_removed"]
    units.append(("build", M - removed >= M / 2))

    C, pilot_values = expsum.calibrate_constant(
        N=config.N,
        d=config.d,
        lam=lam,
        weights=config.weights,
        trials=st["pilots"],
        seed=params.seed,
    )
    units.append(("calibration", math.isfinite(C) and len(pilot_values) == st["pilots"]))

    report = expsum.sweep(config.points, config.weights, lam=lam, C=C)
    units.append(("sweep", report.N == config.N and all(a.n_evaluated > 0 for a in report.annuli)))

    r = config.radius_r
    box = dimension.box_dimension(config.points, scales=[16 * r, 8 * r, 4 * r, 2 * r, r], thicken=r)
    four = dimension.fourier_dimension(config)
    units.append(("dimensions", _in_range(box.value, 2.0) and _in_range(four.value, 2.0)))
    outputs = {
        "N": config.N,
        "removed": removed,
        "tau_used": config.provenance["tau_used"],
        "calibrated_C": C,
        "pilot_values": [float(v) for v in pilot_values],
        "sweep_passed": report.passed,
        "sweep_violations": report.n_violations,
        "sweep_sup": report.sup_overall,
        "box": box.value,
        "fourier": four.value,
    }
    return outputs, units


# ---------------------------------------------------------- concentration


def setup_concentration(size, seed):
    import numpy as np
    import scipy.stats  # noqa: F401  split_sum_check imports it lazily
    from salemkit import harness
    from salemkit.sampler import ConstructionParams

    return {
        "harness": harness,
        "bounds": np.ones(size["hoeffding_n"]),
        "pattern": harness.ap3_pattern(m=16),
        "params": ConstructionParams(M=size["M"], lam=0.45, seed=seed),
        "trials": size["trials"],
        "seed": seed,
        "units": 2,
    }


def body_concentration(st):
    harness = st["harness"]
    table = harness.hoeffding_check(st["bounds"], seed=st["seed"])
    split = harness.split_sum_check(
        st["pattern"], st["params"], trials=st["trials"], seed_xi=st["seed"]
    )
    units = [
        ("hoeffding", not any(row["exceeds"] for row in table)),
        ("split reconstruction", split["reconstruction_error"] <= 1e-10),
    ]
    outputs = {
        "hoeffding_empirical": [row["empirical"] for row in table],
        "split_xi": split["xi"],
        "split_mean_H": [[z.real, z.imag] for z in split["mean_H"]],
        "split_n_within_3sigma": split["n_within_3sigma"],
        "split_tail_pass_rate": split["tail_pass_rate"],
    }
    return outputs, units


WORKLOADS = {
    "ap3-battery": (setup_ap3, body_ap3),
    "demos-1d": (setup_demos, body_demos),
    "certify-d2": (setup_d2, body_d2),
    "concentration": (setup_concentration, body_concentration),
}
