"""Experiment orchestration: trial batteries, concentration checks, demos.

Everything here is deterministic given a configuration: trial seeds are
``seed + trial_index``, calibration uses its own fixed stream, and
aggregate reports are pure folds over the per-trial rows.
"""

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction

import numpy as np

from .dimension import box_dimension, fourier_dimension
from .errors import BudgetError, ConstructionFailure, DegenerateOverlapError, LayoutError
from .expsum import _phase_blocks, _phase_eps, calibrate_constant, sweep, weighted_exp_sum
from .patterns import (
    RoughPattern,
    SurfacePattern,
    TranslationalPattern,
    violation_scan,
)
from .sampler import (
    BUILDERS,
    ConstructionParams,
    _stream,
    build_rough,
    build_surface,
    derive_radius,
    incidence_index_set,
)
from .torus import Cube, _write_json, json_default

SCHEMA_VERSION = 1

__all__ = [
    "ExperimentConfig",
    "TrialReport",
    "ap3_pattern",
    "make_pattern",
    "run_experiment",
    "hoeffding_check",
    "split_sum_check",
    "demo_ap3",
    "demo_linear_equations",
    "demo_isosceles",
    "isosceles_functional",
]


# ---------------------------------------------------------------- patterns


def ap3_pattern(m=16):
    """Three-term arithmetic progression relation x3 - 2 x2 = -x1 (mod 1/m).

    The layout uses cubes of sidelength 1/(2 a m) = 1/(4m) centered at
    1/6, 1/2, 5/6 (an arithmetic progression of centers, so the relation
    is live across the cubes).
    """
    side = 1.0 / (4 * m)
    cubes = [Cube([c - side / 2], side) for c in (1 / 6, 1 / 2, 5 / 6)]
    return TranslationalPattern(
        d=1,
        n=3,
        a=2,
        period_m=m,
        T=lambda x: (-np.asarray(x))[..., None, :],
        lipschitz=1.0,
        cubes=cubes,
    )


def make_pattern(spec):
    """Build a pattern object from a JSON-friendly description."""
    spec = dict(spec)
    pid = spec.pop("id")
    if pid == "ap3":
        out = ap3_pattern(m=int(spec.pop("m", 16)))
    elif pid == "rough":
        out = RoughPattern(
            n=int(spec.pop("n")),
            d=int(spec.pop("d")),
            g=int(spec.pop("g")),
            cells=np.asarray(spec.pop("cells"), dtype=np.int64),
        )
    elif pid == "isosceles-parabola":
        out = isosceles_surface_pattern()
    else:
        raise ValueError(f"unknown pattern id {pid!r}")
    if spec:
        raise ValueError(f"unknown pattern fields: {sorted(spec)}")
    return out


# ------------------------------------------------------------------- config


@dataclass
class ExperimentConfig:
    pattern: dict
    construction: dict
    trials: int = 1
    sweep: dict = field(default_factory=dict)
    out_dir: str = None
    do_scan: bool = True
    do_dims: bool = False
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        unknown = set(self.sweep) - {"C", "percentile", "calibration_trials"}
        if unknown:
            raise ValueError(f"unknown sweep fields: {sorted(unknown)}")
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"config schema version {self.schema_version}; "
                f"this build reads version {SCHEMA_VERSION}"
            )

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path):
        _write_json(path, asdict(self))

    def params_for_trial(self, trial):
        c = dict(self.construction)
        c["seed"] = int(c.get("seed", 0)) + trial
        return ConstructionParams(**c)


# ------------------------------------------------------------------- report


_AGGREGATED = ("N", "removed_count", "P_hat", "sweep_sup_stat", "min_functional_gap")


def _aggregate(rows):
    ok = [r for r in rows if not r.get("error")]
    agg = {
        "trials": len(rows),
        "failed_trials": len(rows) - len(ok),
    }
    if ok:
        if all("sweep_pass" in r for r in ok):
            rate = sum(1 for r in ok if r["sweep_pass"]) / len(ok)
            agg["sweep_pass_rate"] = rate
        if all(r.get("scan_violations") is not None for r in ok):
            agg["scan_violations_total"] = int(
                sum(r["scan_violations"] for r in ok)
            )
        for key in _AGGREGATED:
            # an infinite value (the gap of fewer than three points) would
            # turn every interpolated quantile into NaN
            vals = [r.get(key) for r in ok]
            vals = [v for v in vals if v is not None and not math.isinf(v)]
            if vals:
                qs = np.quantile(vals, [0.0, 0.5, 0.9, 1.0])
                agg[key + "_quantiles"] = {
                    "min": float(qs[0]),
                    "median": float(qs[1]),
                    "q90": float(qs[2]),
                    "max": float(qs[3]),
                }
    return agg


@dataclass
class TrialReport:
    rows: list
    aggregate: dict
    meta: dict = field(default_factory=dict)

    def save(self, out_dir, stem="report"):
        _write_json(
            os.path.join(out_dir, stem + ".json"),
            {"meta": self.meta, "aggregate": self.aggregate, "rows": self.rows},
        )
        cols = sorted({k for r in self.rows for k in r})
        with open(os.path.join(out_dir, stem + ".csv"), "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols)
            w.writeheader()
            for r in self.rows:
                w.writerow({k: r.get(k, "") for k in cols})

    @classmethod
    def load(cls, out_dir, stem="report"):
        with open(os.path.join(out_dir, stem + ".json")) as fh:
            data = json.load(fh)
        rep = cls(rows=data["rows"], aggregate=data["aggregate"], meta=data["meta"])
        recomputed = _aggregate(rep.rows)
        if json.dumps(recomputed, sort_keys=True, default=json_default) != json.dumps(
            rep.aggregate, sort_keys=True, default=json_default
        ):
            raise ValueError("aggregate does not match its per-trial rows")
        return rep


# failures a trial may legitimately end in; anything else propagates
_TRIAL_ERRORS = (ConstructionFailure, BudgetError, DegenerateOverlapError, LayoutError)


def _run_trials(trials, trial_row, meta, out_dir, stem, errors=()):
    """The one trial loop behind the battery and the demos.

    Trial t starts the row ``{"trial": t}`` and ``trial_row(t, row)`` fills
    it in.  An exception listed in ``errors`` is recorded as
    ``row["error"]`` and the loop goes on until more than half the trials
    have failed; any other exception propagates.  Wall-clock time goes to
    ``meta["runtime_s_per_trial"]``, never to a row, so rows are
    rerun-identical.  The report is saved under ``stem`` when ``out_dir``
    is set.  Fewer than one trial raises ``ValueError``.
    """
    if trials < 1:
        raise ValueError("trial count must be >= 1")
    rows = []
    runtimes = []
    for trial in range(trials):
        row = {"trial": trial}
        t0 = time.monotonic()
        try:
            trial_row(trial, row)
        except errors as exc:  # recorded, the loop continues
            row["error"] = f"{type(exc).__name__}: {exc}"
        runtimes.append(round(time.monotonic() - t0, 4))
        rows.append(row)
        if sum(1 for r in rows if r.get("error")) > trials / 2:
            break
    meta["runtime_s_per_trial"] = runtimes
    report = TrialReport(rows=rows, aggregate=_aggregate(rows), meta=meta)
    if out_dir:
        report.save(out_dir, stem=stem)
    return report


def run_experiment(cfg):
    """Run the trial battery described by an :class:`ExperimentConfig`.

    Per trial: build the configuration, sweep its exponential sums against
    the calibrated bound, optionally run the exact violation scan and the
    dimension estimators.  Expected per-trial failures (a construction
    that misses its contract, an over-budget scan, a degenerate overlap, a
    bad layout) are recorded and the battery continues unless more than
    half the trials fail; any other exception is a bug and propagates.
    The sweep and its calibration take ``delta`` and ``kappa`` from the
    trial's :class:`ConstructionParams`.
    """
    pattern = make_pattern(cfg.pattern)
    builder = BUILDERS[pattern.kind]
    C = cfg.sweep.get("C")
    percentile = float(cfg.sweep.get("percentile", 95.0))
    cal_trials = int(cfg.sweep.get("calibration_trials", 50))
    meta = {
        "pattern": cfg.pattern,
        "construction": cfg.construction,
        "trials": cfg.trials,
        "calibrated_C": None,
        "schema_version": cfg.schema_version,
    }

    def trial_row(trial, row):
        params = cfg.params_for_trial(trial)
        row["seed"] = params.seed
        config = builder(pattern, params)
        row["N"] = config.N
        row["removed_count"] = config.provenance.get("n_removed")
        row["P_hat"] = config.provenance.get("P_hat")
        if C is None and meta["calibrated_C"] is None:
            # calibrate once against uniform points with the same
            # weight multiset; reused for every trial
            meta["calibrated_C"], _ = calibrate_constant(
                N=config.N,
                d=config.d,
                lam=params.lam,
                weights=config.weights,
                delta=params.delta,
                kappa=params.kappa,
                trials=cal_trials,
                percentile=percentile,
                seed=params.seed,
            )
        use_C = C if C is not None else meta["calibrated_C"]
        report = sweep(
            config.points,
            config.weights,
            lam=params.lam,
            C=use_C,
            delta=params.delta,
            kappa=params.kappa,
        )
        row["sweep_C"] = use_C
        row["sweep_violations"] = report.n_violations
        row["sweep_pass"] = report.passed
        row["sweep_sup_stat"] = report.sup_overall
        if cfg.do_scan:
            tuples, _ = violation_scan(
                config.points,
                pattern,
                margin=0.0,
                separation_s=params.separation_s,
            )
            row["scan_violations"] = len(tuples)
        if cfg.do_dims:
            r = config.radius_r
            box = box_dimension(
                config.points,
                scales=[16 * r, 8 * r, 4 * r, 2 * r, r],
                thicken=r,
            )
            four = fourier_dimension(config)
            row["box_dimension"] = box.value
            row["fourier_dimension"] = four.value

    return _run_trials(
        cfg.trials, trial_row, meta, cfg.out_dir, "report", errors=_TRIAL_ERRORS
    )


# -------------------------------------------------------------- hoeffding


def hoeffding_check(bounds, t_grid=None, n_samples=10_000, seed=0):
    """Empirical tails of |sum A_k e(theta_k) - E| against 4 exp(-t^2 / (2 sum A^2)).

    The summands are A_k e^{2 pi i theta_k} with independent uniform
    phases, so the expectation is 0 and both the real and the imaginary
    part satisfy the two-sided bound; the factor 4 covers the union.  The
    bound is a theorem: any empirical exceedance signals a bug.  ``bounds``
    must be a 1-D array of finite amplitudes A_k.  The sums are those of
    :func:`_hoeffding_sums`, which screens them in float32 and confirms
    every sample near a t exactly.
    """
    A = np.asarray(bounds, dtype=float)
    if A.ndim != 1 or not np.isfinite(A).all():
        raise ValueError("bounds must be a 1-D array of finite amplitudes")
    if n_samples < 200:
        raise ValueError("need at least 200 Monte Carlo samples")
    var2 = 2.0 * float((A**2).sum())
    if t_grid is None:
        scale = math.sqrt((A**2).sum()) if (A != 0).any() else 1.0
        t_grid = [scale * f for f in (0.5, 1.0, 2.0, 3.0, 4.0)]
    sums, _ = _hoeffding_sums(A, t_grid, n_samples, seed)
    table = []
    for t in t_grid:
        emp = float((sums >= t).mean())
        bound = 4.0 * math.exp(-(t**2) / var2) if var2 > 0 else (0.0 if t > 0 else 4.0)
        table.append(
            {
                "t": float(t),
                "empirical": emp,
                "bound": min(bound, 1.0),
                "exceeds": emp > min(bound, 1.0),
            }
        )
    return table


def _hoeffding_sums(A, t_grid, n_samples, seed):
    """|sum_k A_k e(theta_k)| for ``n_samples`` rows of Philox phases
    theta, each on the same side of every t in ``t_grid`` as the reference
    ``abs((A * exp(2j pi theta)).sum(axis=1))``, and the indices of the rows
    that hold the reference itself.

    Method.  The rows are drawn in row order, block by block, into
    :func:`expsum._phase_blocks`, which folds each theta exactly to
    theta - rint(theta), rounds 2 pi times it to float32, takes float32
    ``cos`` and ``sin`` and sums ``@ A`` in float64; the screened value is
    their hypot.  With eps below, a row whose screened value s has
    |s - t| <= tol = eps + 2^-50 (A + eps + |t|) for some t is recomputed
    with the reference expression.  Every other row lies strictly on the
    same side of every t as its reference value, so each count ``sums >= t``
    is the reference's.  The reference reduces each row on its own (a
    pairwise sum along the row, as in ``expsum._direct_sum``), so a
    recomputed row has the bits it has in one pass over all rows.

    Bound.  Let A = sum |A_k| and u = 2^-53.  Per unit of |A_k|, and since
    |e^(i s) - e^(i t)| <= |s - t|:

    - the screen's phase: the fold is exact, 2 pi (theta - rint(theta))
      in float64 is within 7 u of the real product (|theta - rint(theta)|
      <= 1/2), and float32 rounding adds at most pi 2^-24 (1 + 2 u);
    - float32 cos and sin: 2 ulp each, at most 2^-23 an ulp for values in
      [-1, 1], so 2 sqrt(2) 2^-23 for the complex term; the 2 ulp are
      numpy's own validation tolerance for these functions, assumed, not
      certified;
    - the screen's float64 sums: the N products by A_k and their sum in any
      order, sqrt(2) N u per unit of A, then the hypot, u;
    - the reference's rounding: its phase fl(fl(2 pi) theta), theta in
      [0, 1), is within 4 pi u (1 + u) < 12.6 u of 2 pi theta; ``cexp``
      adds 2 ulp a component, 2 sqrt(2) u, and the product by A_k
      sqrt(2) u, together under 24 u; its complex pairwise sum adds
      sqrt(2) (N - 1) u and the abs u.

    Their total is under pi 2^-24 + 2 sqrt(2) 2^-23 + (2.84 N + 40) u, and
    eps is twice it times A, the factor 2 covering the assumed cos/sin and
    libm constants: ``expsum._phase_eps(A, N)``, the phase screen's bound
    before its division by N.
    """
    ts = np.asarray(t_grid, dtype=float)
    total = float(np.abs(A).sum())
    eps = _phase_eps(total, len(A))
    tol = eps + 2.0**-50 * (total + eps + np.abs(ts))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    sums, confirmed = np.empty(n_samples), []

    def fill(i, theta):
        rng.random(out=theta)

    # blocks of 1M phases (8 MB of rows), not the phase screen's 2^18, which
    # would save about 20 ms: freeing an 8 MB buffer lifts glibc's dynamic
    # mmap threshold above the 4.8 MB pilot arrays of the builds that
    # split_sum_check runs next; below it each build faults in about 10 MB
    # of fresh pages (0.3 s over 50 builds)
    for i, theta, re, im in _phase_blocks(n_samples, A, fill, size=1_000_000):
        s = np.hypot(re, im, out=sums[i : i + len(theta)])
        near = np.flatnonzero((np.abs(s[:, None] - ts) <= tol).any(axis=1))
        s[near] = np.abs((A * np.exp(2j * math.pi * theta[near])).sum(axis=1))
        confirmed.append(i + near)
    return sums, np.concatenate(confirmed)


# -------------------------------------------------------------- split sums


def split_sum_check(pattern, params0, trials=50, n_xi=20, seed_xi=0):
    """Reconstruct and test the split F = G - H for a stratified battery.

    Per trial the raw (pre-normalization) weighted sums are taken from the
    build record the builder keeps with its configuration (the cube pools
    and the removed index set): G runs over all candidates, H over the
    removed set, and F over the emitted configuration; F = G - H must hold
    to 1e-10.  Across trials the mean of H(xi) at sampled xi != 0 is
    compared with 0 at 3 sigma, and the per-trial sup |H - mean H| is
    tested against sqrt(M) log^{1/2} M, returned as ``sup_dev_bound``.
    Next to it, ``sup_dev_max`` is the largest sup |H - mean H| of any
    trial, and ``sup_dev_reach`` = 2 max_t A_n n_removed_t the largest any
    trial could reach: |H| is at most A_n times the removed count, term by
    term, and |mean H| at most the largest |H|.
    """
    if trials < 50:
        raise ValueError("split-sum statistics need >= 50 trials")
    if pattern.kind not in ("surface", "translational"):
        raise ValueError("split sums apply to stratified constructions")
    if pattern.d != 1:
        raise ValueError(f"split sums are implemented for d = 1 only, not d = {pattern.d}")
    builder = BUILDERS[pattern.kind]
    M = params0.M
    n = pattern.n
    # sample test frequencies from the upper part of the sweep range: the
    # removed stratum lives in a cube of volume |Q_n|, so mean H carries an
    # O(1/(|xi| |Q_n|)) localization bias that only dies off at large |xi|
    xi_max = int(math.ceil(float(M) ** (1.0 + params0.kappa)))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed_xi)))
    xi = np.sort(rng.integers(max(2, xi_max // 4), xi_max, size=n_xi))
    xi = xi[:, None].astype(float)

    H_vals = np.zeros((trials, n_xi), dtype=complex)
    recon_err = h_reach = 0.0
    for t in range(trials):
        params = replace(params0, seed=params0.seed + t)
        config = builder(pattern, params)
        if config._build_record is None:
            raise ValueError("split sums need the build record of a fresh build")
        pools, removed = config._build_record
        raw_w = np.asarray(config.provenance["stratum_weights"], dtype=float)
        A_n = raw_w[-1]
        # H: removed part of the final stratum, raw weights, unnormalized
        H = A_n * _raw_sum(pools[n - 1][removed], xi)
        h_reach = max(h_reach, A_n * len(removed))
        # G: every candidate, including the removed ones
        G = A_n * _raw_sum(pools[n - 1], xi)
        for i in range(n - 1):
            G += raw_w[i + 1] * _raw_sum(pools[i], xi)
        G += raw_w[0] * _raw_sum(
            config.points[config.stratum_indices(config.strata[0][0])], xi
        )
        # F: the emitted configuration with raw weights
        scale = config.provenance["weight_scale"]
        F = np.zeros(n_xi, dtype=complex)
        for nm, a, b in config.strata:
            F += _raw_sum(config.points[a:b], xi) * (config.weights[a] / scale)
        recon_err = max(recon_err, float(np.abs(F - (G - H)).max()))
        H_vals[t] = H

    meanH = H_vals.mean(axis=0)
    stdH = H_vals.std(axis=0, ddof=1) / math.sqrt(trials)
    # componentwise 3-sigma band on real and imaginary parts
    se = np.maximum(stdH, 1e-300)
    within = np.abs(meanH) <= 3.0 * se * math.sqrt(2.0)
    bound = math.sqrt(M) * math.sqrt(math.log(M))
    sup_dev = np.abs(H_vals - meanH[None, :]).max(axis=1)
    pass_rate = float((sup_dev <= bound).mean())
    return {
        "trials": trials,
        "xi": [int(v) for v in xi[:, 0]],
        "reconstruction_error": recon_err,
        "reconstruction_ok": recon_err <= 1e-10,
        "mean_H": [complex(v) for v in meanH],
        "stderr_H": [float(v) for v in stdH],
        "within_3sigma": [bool(b) for b in within],
        "n_within_3sigma": int(within.sum()),
        "sup_dev_bound": bound,
        "sup_dev_max": float(sup_dev.max()),
        "sup_dev_reach": 2.0 * h_reach,
        "tail_pass_rate": pass_rate,
        "binomial_note": _binomial_note(int((sup_dev <= bound).sum()), trials),
    }


def _raw_sum(points, xi):
    """Unnormalized sum of e(xi . x) over the points, at each xi."""
    if len(points) == 0:
        return np.zeros(len(xi), dtype=complex)
    return weighted_exp_sum(points, np.ones(len(points)), xi) * len(points)


def _binomial_note(successes, trials, p=0.9):
    """One-sided binomial check of pass-rate >= p at 95% confidence.

    The p-value is the lower tail P(X <= successes) of X ~ Binomial(trials,
    p), summed exactly in rationals from the float p, so it is correctly
    rounded.
    """
    q = Fraction(p)
    tail = sum(
        math.comb(trials, k) * q**k * (1 - q) ** (trials - k)
        for k in range(successes + 1)
    )
    return {
        "successes": successes,
        "trials": trials,
        "target_rate": p,
        "p_value_below_target": float(tail),
    }


# -------------------------------------------------------------------- demos


def demo_ap3(M=2048, lam=0.45, trials=50, seed=0, out_dir=None):
    """The 3-term arithmetic progression battery (d=1, n=3, a=2, T(x) = {-x}),
    with the exact violation scan and without the dimension estimators."""
    cfg = ExperimentConfig(
        pattern={"id": "ap3", "m": 16},
        construction={"M": M, "lam": lam, "seed": seed},
        trials=trials,
        out_dir=out_dir,
        do_scan=True,
    )
    return run_experiment(cfg)


# ----- linear equations


def _normalized_coeff_vectors(n, coeff_bound):
    """Sign-normalized integer coefficient vectors with 0 < |m_i| <= bound."""
    from itertools import product as iproduct

    seen = set()
    out = []
    rng = range(-coeff_bound, coeff_bound + 1)
    for vec in iproduct(*[rng] * n):
        if any(v == 0 for v in vec):
            continue
        key = vec if vec[0] > 0 else tuple(-v for v in vec)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _linear_pattern(m, s):
    """m1 x1 + m2 x2 + m3 x3 = s (mod 1) as a translational relation.

    Dividing by m3 gives x3 - a x2 in t(x1) + Z/|m3| with a = -m2/m3 and
    t(x1) = (s - m1 x1)/m3, measured along x3: a margin eta on the
    equation is a threshold eta/|m3| on this pattern.
    """
    m1, m2, m3 = m
    return TranslationalPattern(
        d=1,
        n=3,
        a=Fraction(-m2, m3),
        period_m=abs(m3),
        T=lambda x: ((s - m1 * np.asarray(x)) / m3)[..., None, :],
        lipschitz=abs(m1 / m3),
    )


def demo_linear_equations(
    coeff_bound=2, s_set=(0.0,), M=1024, lam=0.45, seed=0, trials=1, out_dir=None
):
    """Avoid every equation m1 x1 + m2 x2 + m3 x3 = s with 0 < |m_i| <= bound.

    Uniform sampling, union removal across all sign-normalized coefficient
    vectors, each (vector, s) pair a translational pattern
    (:func:`_linear_pattern`); the final check rescans every covered
    equation at margin 0 with the exact scan.  For d = 1, n = 3 the
    avoidable range is lam < d/(n-1) = 1/2.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    n = 3
    vectors = _normalized_coeff_vectors(n, coeff_bound)
    patterns = [_linear_pattern(m, s) for m in vectors for s in s_set]

    def trial_row(trial, row):
        params = ConstructionParams(M=M, lam=lam, seed=seed + trial)
        r = derive_radius(M, lam)
        rng = _stream(params.seed, 0)
        x = rng.random(M)
        tau_theory = 2.0 * math.sqrt(n) * r
        # per-point removal load grows with M^2 * #vectors; cap the margin
        # so the expected removals stay near sqrt(M) (same rule as the
        # builders, with the density of solved targets known analytically:
        # each (vector, s, pair) contributes ~2 tau hits on average)
        budget = math.sqrt(M)
        load = float(M) ** (n - 1) * len(vectors) * len(s_set) * 2.0 * M
        tau = min(tau_theory, budget / load) if load > 0 else tau_theory
        removed = np.unique(
            np.concatenate(
                [incidence_index_set([x[:, None]], p, tau / p.period_m) for p in patterns]
            )
        )
        keep = np.setdiff1d(np.arange(M), removed)
        if len(keep) < M / 2:
            raise ConstructionFailure(
                f"linear-equation demo: only {len(keep)} of {M} points survive"
            )
        kept = x[keep][:, None]
        violations = sum(len(violation_scan(kept, p, 0.0)[0]) for p in patterns)
        row.update(
            seed=params.seed,
            N=len(keep),
            removed_count=len(removed),
            n_equations=len(patterns),
            tau_used=tau,
            tau_theory=tau_theory,
            scan_violations=violations,
        )

    meta = {
        "demo": "linear-equations",
        "coeff_bound": coeff_bound,
        "s_set": list(s_set),
        "M": M,
        "lam": lam,
    }
    return _run_trials(trials, trial_row, meta, out_dir, "linear-eq")


# ----- isosceles triples on a curve


_PARABOLA_C = math.sqrt(5.0)  # sup |gamma'| on [0, 1] for gamma(t) = (t, t^2)
ISO_EPSILON = 1.0 / (2.0 * _PARABOLA_C**3)


def _sq_chord(s, t, t_sq=None):
    """|gamma(s) - gamma(t)|^2 for gamma(t) = (t, t^2), given t_sq = t * t or not;
    bit-equal to ``((gamma(s) - gamma(t))**2).sum(-1)``, which adds x0 + x1."""
    dx = s - t
    dy = s * s - (t * t if t_sq is None else t_sq)
    return dx * dx + dy * dy


def isosceles_functional(t1, t2, t3):
    """F = |gamma(t1) - gamma(t2)|^2 - |gamma(t2) - gamma(t3)|^2 (apex t2)."""
    t1, t2, t3 = (np.asarray(t, dtype=float) for t in (t1, t2, t3))
    return _sq_chord(t1, t2) - _sq_chord(t3, t2)


# rows per block of :func:`_third_leg`: its temporaries stay near 3 MB on
# a pilot of 200k rows
_LEG_ROWS = 2**15


def _third_leg(t1, t2, top):
    """t3 >= t2 with |gamma(t3) - gamma(t2)| = |gamma(t1) - gamma(t2)|, per
    entry of the broadcast float arrays ``t1`` and ``t2``, for a scalar
    ``top`` the root may not reach.

    D = t3 - t2 solves D^2 (1 + (D + 2 t2)^2) = L, L the float leg
    ``_sq_chord(t1, t2)``, since t3^2 - t2^2 = D (D + 2 t2).  For t2 >= 0
    the left side is increasing and convex in D >= 0.  The closed-form
    start sqrt(L / (1 + (sqrt(L) + 2 t2)^2)) puts sqrt(L) >= D in place
    of D, so it lies below the root; the first Newton step lands above it
    and the later ones fall to it quadratically.  On the isosceles box
    [0, 3 eps]^2 the start is within a few percent, and three steps reach
    the float rounding floor: within about 2 ulps of the exact root.  A
    leg of 0 gives t2 itself.  Rows are taken ``_LEG_ROWS`` at a time.
    A row with t2 < 0 or fl(L - |gamma(top) - gamma(t2)|^2) >= 0 has no
    root in [t2, top) and raises ``RuntimeError``; a NaN gives NaN.
    """
    t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
    out = np.empty(t2.shape)
    t1, t2, flat = t1.reshape(-1), t2.reshape(-1), out.reshape(-1)
    for start in range(0, len(t2), _LEG_ROWS):
        rows = slice(start, start + _LEG_ROWS)
        x2 = t2[rows]
        x2_sq = x2 * x2
        leg = _sq_chord(t1[rows], x2, x2_sq)
        if np.any((x2 < 0.0) | (leg - _sq_chord(top, x2, x2_sq) >= 0.0)):
            raise RuntimeError("isosceles solver: root not bracketed on a probe")
        two = 2.0 * x2
        root = np.sqrt(leg)
        d = root / np.sqrt(1.0 + (root + two) ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 at a leg of 0
            for _ in range(3):
                w = d + two
                q = 1.0 + w * w
                d -= (d * d * q - leg) / (2.0 * d * (q + d * w))
        flat[rows] = x2 + np.where(leg == 0.0, 0.0, d)
    return out


def isosceles_surface_pattern():
    """Surface pattern t3 = f(t1, t2) for isosceles triples on the parabola.

    Works inside [0, epsilon] with epsilon = 1/(2 C^3); the cube centers
    are in near-arithmetic progression so the implicit surface actually
    meets the product of the cubes.
    """
    eps = ISO_EPSILON
    side = eps / 33.0  # 3 cubes with >= 10*side pairwise gaps fit in [0, eps]
    centers = [2 * side, eps / 2.0, eps - 2 * side]

    def f(prefix):
        prefix = np.asarray(prefix, dtype=float)
        t1 = prefix[..., 0]
        t2 = prefix[..., 1]
        return _third_leg(t1, t2, 3.0 * eps)[..., None]

    cubes = [Cube([c - side / 2], side) for c in centers]
    # |f'| along the surface: chord ratios on the short parabola arc stay
    # below ~2 on this layout; 4.0 is a safe declared bound
    return SurfacePattern(d=1, n=3, cubes=cubes, f=f, lipschitz=4.0)


def min_isosceles_gap(points):
    """min over apexes j and legs i != k of | |g_i - g_j|^2 - |g_k - g_j|^2 |.

    Sorted-row-gap trick: for each apex the minimum difference of squared
    leg lengths is attained between neighbors in sorted order, so the scan
    is O(N^2 log N) instead of O(N^3).  Apexes are taken in blocks of
    about 2^18 legs, one row each, with the apex's own entry set to +inf:
    it sorts last, and its gap of +inf never wins.
    """
    pts = np.asarray(points, dtype=float).reshape(-1)
    N = len(pts)
    best = math.inf
    rows = max(1, 2**18 // max(N, 1))
    for start in range(0, N, rows):
        apex = np.arange(start, min(start + rows, N))
        d2 = _sq_chord(pts[None, :], pts[apex, None])
        d2[np.arange(len(apex)), apex] = np.inf
        d2.sort(axis=1)
        best = min(best, float(np.diff(d2, axis=1).min(initial=math.inf)))
    return best


def demo_isosceles(
    route="surface", M=512, lam=4.0 / 9.0, seed=0, trials=1, out_dir=None
):
    """Isosceles-free point sets along the parabola arc.

    ``route='surface'`` runs the stratified graph construction at
    lam = 4/9; ``route='rough'`` covers the isosceles surface inside the
    working box [0, eps]^3 with grid cells and runs the uniform-cloud
    construction at lam = 2/5.
    """
    eps = ISO_EPSILON
    if route == "surface":
        pattern, build = isosceles_surface_pattern(), build_surface
    elif route == "rough":
        pattern, build = _isosceles_rough_pattern(g=1024), build_rough
    else:
        raise ValueError(f"unknown route {route!r}")

    def trial_row(trial, row):
        params = ConstructionParams(M=M, lam=lam, seed=seed + trial)
        config = build(pattern, params)
        in_work = config.points[:, 0] <= eps
        gap = min_isosceles_gap(config.points[in_work, 0])
        row.update(
            seed=params.seed,
            route=route,
            N=config.N,
            removed_count=config.provenance.get("n_removed"),
            n_on_arc=int(in_work.sum()),
            min_functional_gap=gap,
            gap_positive=gap > 0,
        )

    meta = {"demo": "isosceles-parabola", "route": route, "M": M, "lam": lam}
    return _run_trials(trials, trial_row, meta, out_dir, "isosceles")


def _isosceles_rough_pattern(g=1024):
    """Grid-cell cover of the isosceles surface inside [0, eps]^3.

    Marks every cell whose subsampled corners change the sign of the
    functional or bring it below a cell-diameter margin — a conservative
    cover, so exact zeros always land in occupied cells.
    """
    eps = ISO_EPSILON
    k = int(math.ceil(eps * g))
    cells = np.indices((k, k, k)).reshape(3, -1).T
    # F at the 8 corners of each cell
    v = np.array([isosceles_functional(*((cells + c) / g).T) for c in np.ndindex(2, 2, 2)])
    # |grad F| <= ~6 eps on the box; cell diagonal sqrt(3)/g
    margin = 6.0 * eps * math.sqrt(3.0) / g
    occupied = cells[((v > 0).any(0) & (v < 0).any(0)) | (np.abs(v) <= margin).any(0)]
    return RoughPattern(n=3, d=1, g=g, cells=occupied)
