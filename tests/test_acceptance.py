"""End-to-end acceptance battery.

One test per criterion; each prints a single PASS/FAIL verdict line with
the tolerance it checked, then asserts.  The 50-trial 3-AP battery
(M=2048, lam=0.45) is built once at module scope and shared by the
avoidance, sweep, perturbation, and dimension criteria.
"""

import math
import sys
import time

import numpy as np
import pytest

from salemkit.dimension import box_dimension, fourier_dimension
from salemkit.expsum import calibrate_constant, sweep
from salemkit.harness import (
    ap3_pattern,
    demo_isosceles,
    demo_linear_equations,
    hoeffding_check,
    split_sum_check,
)
from salemkit.measures import (
    GridMeasure,
    mollifier_density,
    perturb,
)
from salemkit.patterns import (
    RoughPattern,
    SurfacePattern,
    TranslationalPattern,
    violation_scan,
)
from salemkit.sampler import (
    ConstructionParams,
    build_translational,
    incidence_index_set,
)
from salemkit.torus import Cube, double_cube

from naive_patterns import support_distance, thickened_membership

M_BATTERY = 2048
LAM = 0.45
TRIALS = 50


_CAPMAN = None


@pytest.fixture(autouse=True)
def _verdict_passthrough(request):
    # remember the capture manager so verdict lines reach the real
    # terminal even under pytest's default fd-level capture
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _verdict(num, name, ok, detail):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} — {detail}"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    return ok


@pytest.fixture(scope="module")
def battery45():
    pat = ap3_pattern(16)
    t0 = time.monotonic()
    configs = [
        build_translational(pat, ConstructionParams(M=M_BATTERY, lam=LAM, seed=s))
        for s in range(TRIALS)
    ]
    return {"pattern": pat, "configs": configs, "build_s": time.monotonic() - t0}


@pytest.fixture(scope="module")
def battery30():
    pat = ap3_pattern(16)
    configs = [
        build_translational(pat, ConstructionParams(M=M_BATTERY, lam=0.3, seed=s))
        for s in range(TRIALS)
    ]
    return {"pattern": pat, "configs": configs}


def test_criterion_1_exact_avoidance(battery45):
    """50/50 trials: margin-0 scan empty, retained N >= M/2, <= 5 min total."""
    pat = battery45["pattern"]
    t0 = time.monotonic()
    n_empty = 0
    n_retained = 0
    for cfg in battery45["configs"]:
        tuples, _ = violation_scan(cfg.points, pat, margin=0.0)
        n_empty += len(tuples) == 0
        n_retained += cfg.N >= M_BATTERY / 2
    total_s = battery45["build_s"] + (time.monotonic() - t0)
    ok = n_empty == TRIALS and n_retained == TRIALS and total_s <= 300.0
    assert _verdict(
        1,
        "exact avoidance",
        ok,
        f"empty scans {n_empty}/{TRIALS}, retained>=M/2 {n_retained}/{TRIALS}, "
        f"build+scan {total_s:.0f}s (limit 300s)",
    )


def test_criterion_2_sqrt_cancellation(battery45):
    """Sweep to N^1.2 passes at the pilot-calibrated C in >= 45/50 trials."""
    cfg0 = battery45["configs"][0]
    C, _ = calibrate_constant(
        N=cfg0.N, d=1, lam=LAM, weights=cfg0.weights, trials=50, seed=0
    )
    passes = sum(
        sweep(c.points, c.weights, lam=LAM, C=C).passed
        for c in battery45["configs"]
    )
    ok = passes >= 45
    assert _verdict(
        2,
        "square-root cancellation",
        ok,
        f"sweep passes {passes}/{TRIALS} at calibrated C={C:.4f} (need >= 45)",
    )


def test_criterion_3_mollifier_decay():
    """sup |phi_r^(xi)| |xi|^T r^T over 2/r <= |xi| <= 8/r varies < 2x in r."""
    G = 16384
    worst = 0.0
    for T in (2, 4):
        sups = []
        for k in (4, 5, 6, 7):
            r = 2.0**-k
            phi = mollifier_density(r, G)
            lo, hi = int(np.ceil(2 / r)), int(np.floor(8 / r))
            xi = np.arange(lo, hi + 1, dtype=float)[:, None]
            mags = np.abs(phi.transform(xi))
            sups.append(float(np.max(mags * xi[:, 0] ** T)) * r**T)
        worst = max(worst, max(sups) / min(sups))
    ok = worst < 2.0
    assert _verdict(
        3,
        "mollifier decay normalization",
        ok,
        f"max variation {worst:.3f}x across r in 2^-4..2^-7, T in (2,4) (limit 2x)",
    )


def test_criterion_4_perturbation_pipeline(battery45):
    """20 runs at G=2048: K_d within 2x, support distance <= r_eff + 2/G."""
    G = 2048
    # smooth bump living inside the third construction cube's doubled
    # region (center 5/6, width 1/32), where the battery has dense points
    phi = mollifier_density(1.0 / 32.0, G)
    mu0 = GridMeasure(np.roll(phi.density, int(round(5 / 6 * G))))
    ratios = []
    dist_ok = 0
    for cfg in battery45["configs"][:20]:
        mu, diag = perturb(mu0, cfg, gamma=LAM)
        ratios.append(diag["ratio_K"])
        bound = diag["r_eff"] + 2.0 / G
        dist_ok += support_distance(mu, mu0, 1e-6) <= bound
    spread = max(ratios) / min(ratios)
    ok = spread <= 2.0 and dist_ok == 20
    assert _verdict(
        4,
        "perturbation pipeline",
        ok,
        f"K_d in [{min(ratios):.4f}, {max(ratios):.4f}] spread {spread:.3f}x "
        f"(limit 2x), support distance within bound {dist_ok}/20",
    )


def test_criterion_5_dimension_balance(battery45, battery30):
    """Box and Fourier dimension medians land in lam +/- 0.1 for both lam."""
    details = []
    ok = True
    for lam, battery in ((0.3, battery30), (LAM, battery45)):
        box_vals = []
        for cfg in battery["configs"]:
            r = cfg.radius_r
            est = box_dimension(
                cfg.points, scales=[16 * r, 8 * r, 4 * r, 2 * r, r], thicken=r
            )
            box_vals.append(est.value)
        four_vals = [fourier_dimension(c).value for c in battery["configs"][:9]]
        box_med = float(np.median(box_vals))
        four_med = float(np.median(four_vals))
        ok &= abs(box_med - lam) <= 0.1 and abs(four_med - lam) <= 0.1
        details.append(
            f"lam={lam}: box median {box_med:.3f}, fourier median {four_med:.3f}"
        )
    assert _verdict(
        5, "dimension balance", ok, "; ".join(details) + " (band lam +/- 0.1)"
    )


# ------------------------------------------------------------ criterion 6


def _naive_tuple_enumeration(pools, pattern, threshold, shared, eps=0.0):
    """Reference enumeration: all index tuples, vectorized residual test.

    ``eps`` mirrors the tolerance convention of the code under test: the
    scan contract admits residuals up to margin + 1e-15, the incidence
    contract is a plain <= threshold.
    """
    n = pattern.n
    pool_list = [pools[0]] * n if shared else pools
    grids = np.meshgrid(*[np.arange(len(p)) for p in pool_list], indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)
    if shared:
        keep = np.ones(len(idx), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                keep &= idx[:, i] != idx[:, j]
        idx = idx[keep]
    tuples = np.concatenate([pool_list[j][idx[:, j]] for j in range(n)], axis=1)
    if pattern.kind == "rough":
        hit = thickened_membership(pattern, tuples, threshold)
    else:
        hit = pattern.residual(tuples) <= threshold + eps
    return idx[hit]


def _random_rough(rng):
    g = int(rng.choice([6, 8, 12]))
    n_cells = int(rng.integers(1, 6))
    cells = rng.integers(0, g, size=(n_cells, 2))
    pat = RoughPattern(n=2, d=1, g=g, cells=cells)
    threshold = float(rng.uniform(0.0, 0.05))
    return pat, threshold


def _random_translational(rng):
    m = int(rng.choice([9, 12, 16]))
    side = 1.0 / (4 * m)
    cubes = [Cube([c - side / 2], side) for c in (1 / 6, 1 / 2, 5 / 6)]
    shift = float(rng.uniform(0, 1))
    pat = TranslationalPattern(
        d=1, n=3, a=2, period_m=m,
        T=lambda x: (shift - np.asarray(x))[..., None, :],
        lipschitz=1.0, cubes=cubes,
    )
    return pat, float(rng.uniform(0.0, 0.02))


def _random_surface(rng):
    n = int(rng.choice([2, 3]))
    alpha = float(rng.choice([0.5, 1.0, 2.0]))
    beta = float(rng.uniform(0, 1))
    f = lambda p: (alpha * np.asarray(p).sum(axis=-1, keepdims=True) + beta) % 1.0  # noqa: E731
    cubes = [Cube([c], 0.02) for c in (0.05, 0.35, 0.65)][:n]
    pat = SurfacePattern(d=1, n=n, cubes=cubes, f=f, lipschitz=alpha * (n - 1))
    return pat, float(rng.uniform(0.0, 0.02))


def test_criterion_6_oracle_equivalence():
    """incidence_index_set and violation_scan match naive enumeration exactly."""
    rng = np.random.default_rng(2024)
    checked = 0
    mismatches = 0
    for kind, make in (
        ("rough", _random_rough),
        ("translational", _random_translational),
        ("surface", _random_surface),
    ):
        for _ in range(100):
            pat, threshold = make(rng)
            M = int(rng.integers(8, 33))
            if kind == "rough":
                pools = [rng.random((M, 1))]
                shared = True
            else:
                # the cube-backed relations only count tuples inside their
                # doubled cubes, so seed half of each pool there to keep
                # the comparison from being trivially empty-vs-empty
                dbl = [double_cube(c) for c in pat.cubes]
                pools = [
                    np.concatenate([q.sample(rng, M // 2), rng.random((M - M // 2, 1))])
                    for q in dbl
                ]
                shared = False
            naive = _naive_tuple_enumeration(pools, pat, threshold, shared, eps=0.0)
            naive_I = np.unique(naive[:, -1]) if len(naive) else np.empty(0, int)
            got_I = incidence_index_set(pools, pat, threshold)
            mismatches += not np.array_equal(np.sort(got_I), naive_I)

            if kind == "rough":
                points = rng.random((M, 1))
            else:
                per = M // (pat.n + 1)
                parts = [q.sample(rng, per) for q in dbl]
                parts.append(rng.random((M - per * pat.n, 1)))
                points = np.concatenate(parts)
            naive_scan = _naive_tuple_enumeration(
                [points], pat, threshold, True, eps=1e-15
            )
            got_scan, _ = violation_scan(points, pat, margin=threshold)
            a = sorted(map(tuple, naive_scan))
            b = sorted(map(tuple, got_scan))
            mismatches += a != b
            checked += 1
    ok = mismatches == 0
    assert _verdict(
        6,
        "oracle equivalence",
        ok,
        f"{checked} random instances across 3 pattern kinds, "
        f"{mismatches} mismatches (need 0, exact)",
    )


def test_criterion_7_concentration_sanity(battery45):
    """Hoeffding tails never exceeded; split F = G - H to 1e-10; mean H ~ 0."""
    rows = hoeffding_check(np.ones(M_BATTERY), n_samples=10_000, seed=0)
    exceed = sum(r["exceeds"] for r in rows)
    res = split_sum_check(
        battery45["pattern"],
        ConstructionParams(M=M_BATTERY, lam=LAM, seed=0),
        trials=TRIALS,
    )
    ok = (
        exceed == 0
        and res["reconstruction_ok"]
        and res["n_within_3sigma"] == 20
    )
    assert _verdict(
        7,
        "concentration sanity",
        ok,
        f"hoeffding exceedances {exceed}/10k samples (need 0), split "
        f"|F-(G-H)| {'<=' if res['reconstruction_error'] <= 1e-10 else '>'} 1e-10, "
        f"mean H within 3 sigma at {res['n_within_3sigma']}/20 frequencies",
    )


def test_criterion_8_demos():
    """Isosceles (lam=4/9) and linear-equation (lam=0.45) demos: zero
    violations, each within 10 minutes."""
    t0 = time.monotonic()
    iso = demo_isosceles(route="surface", M=512, lam=4.0 / 9.0, seed=0, trials=3)
    iso_s = time.monotonic() - t0
    gaps_ok = all(r["gap_positive"] for r in iso.rows)

    t0 = time.monotonic()
    lin = demo_linear_equations(coeff_bound=2, M=1024, lam=0.45, seed=0, trials=5)
    lin_s = time.monotonic() - t0
    lin_viol = sum(r["scan_violations"] for r in lin.rows)

    ok = gaps_ok and lin_viol == 0 and iso_s <= 600.0 and lin_s <= 600.0
    assert _verdict(
        8,
        "worked-example demos",
        ok,
        f"isosceles gap positive {sum(r['gap_positive'] for r in iso.rows)}/3 "
        f"in {iso_s:.0f}s, linear-eq violations {lin_viol} in {lin_s:.0f}s "
        f"(limits: 0 violations, 600s each)",
    )


def test_criterion_9_performance():
    """N=4096 sweep to N^1.2 under 12 s: the 60 s limit over the 5x
    speed-up once asked of a parallel run, which a serial sweep cannot
    give."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(99)))
    points = rng.random((4096, 1))
    weights = np.ones(4096)
    t0 = time.monotonic()
    report = sweep(points, weights, lam=LAM, C=3.0)
    elapsed = time.monotonic() - t0
    ok = elapsed < 12.0
    assert _verdict(
        9,
        "performance",
        ok,
        f"N=4096 sweep to |xi| <= {report.xi_max} in {elapsed:.1f}s (limit 12s)",
    )
