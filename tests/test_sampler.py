"""Tests for the randomized avoiding constructions."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from salemkit.errors import BudgetError, ConstructionFailure, LayoutError
from salemkit.patterns import RoughPattern, SurfacePattern, TranslationalPattern
from salemkit.sampler import (
    ConstructionParams,
    WeightedConfiguration,
    build_rough,
    build_surface,
    build_translational,
    derive_radius,
)
from salemkit.torus import Cube, tdist, wrap

from naive_patterns import thickened_membership


def ap3_pattern(m=16):
    side = 1.0 / (2 * 2 * m)
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


def surface_pattern():
    f = lambda p: (p[..., :1] + p[..., 1:2]) % 1.0  # noqa: E731
    cubes = [Cube([0.05], 0.02), Cube([0.35], 0.02), Cube([0.65], 0.02)]
    return SurfacePattern(d=1, n=3, cubes=cubes, f=f, lipschitz=2.0)


# -------------------------------------------------------------- derive_radius


def test_derive_radius_bracketing():
    for M in (7, 64, 2048, 100_003):
        for lam in (0.25, 0.45, 0.9):
            r = derive_radius(M, lam)
            assert r ** (-lam) <= M <= r ** (-lam) + 1


def test_derive_radius_rejects_bad_input():
    with pytest.raises(ValueError):
        derive_radius(0, 0.5)


@pytest.mark.parametrize("name", ["filter_scale", "removal_budget"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, -1e-300])
def test_params_refuse_a_bad_scale_or_budget(name, value):
    with pytest.raises(ValueError, match=name):
        ConstructionParams(M=32, lam=0.9, **{name: value})


def test_zero_removal_budget_caps_at_the_floor():
    # a budget of 0.0 is a budget, not the default sqrt(M)
    from salemkit.harness import ap3_pattern as harness_ap3

    cells = np.array([[0, 0], [5, 17]])
    builds = [
        (build_translational, harness_ap3(16), dict(M=256, lam=0.45)),
        (build_rough, RoughPattern(n=2, d=1, g=32, cells=cells), dict(M=80, lam=0.5)),
    ]
    for build, pat, kw in builds:
        prov = build(pat, ConstructionParams(seed=0, removal_budget=0.0, **kw)).provenance
        assert prov["tau_rule"] == "budget-capped(floor)" and prov["tau_used"] == 0.0


# ---------------------------------------------------------------- invariants


def _check_config(cfg, d):
    assert cfg.points.shape == (cfg.N, d)
    assert np.all((cfg.points >= 0) & (cfg.points < 1))
    assert cfg.weights.sum() == pytest.approx(cfg.N, rel=1e-12)
    assert cfg.weights.sum() >= cfg.N / 2
    starts = [a for _, a, _ in cfg.strata]
    stops = [b for _, _, b in cfg.strata]
    assert starts[0] == 0 and stops[-1] == cfg.N
    assert all(b == a2 for b, a2 in zip(stops, starts[1:]))


def test_rough_build_invariants_and_avoidance():
    # a thin set of occupied pair-cells in T^2 = (T^1)^2
    cells = np.array([[0, 0], [5, 17]])
    pat = RoughPattern(n=2, d=1, g=32, cells=cells)
    params = ConstructionParams(M=80, lam=0.5, seed=3)
    cfg = build_rough(pat, params)
    _check_config(cfg, 1)
    assert np.all(cfg.weights == cfg.weights[0])  # uniform weights
    # no ordered pair of kept points lands in the thickened cells
    tau = cfg.provenance["tau_used"]
    x = cfg.points[:, 0]
    ii, jj = np.meshgrid(np.arange(cfg.N), np.arange(cfg.N), indexing="ij")
    mask = ii != jj
    pairs = np.stack([x[ii[mask]], x[jj[mask]]], axis=1)
    assert not thickened_membership(pat, pairs, tau).any()


def test_rough_removal_matches_naive_filter():
    # tiny M: compare kept set against a brute-force python filter
    rng_pat = np.random.default_rng(0)
    cells = rng_pat.integers(0, 6, size=(4, 2))
    pat = RoughPattern(n=2, d=1, g=6, cells=cells)
    params = ConstructionParams(M=24, lam=0.4, seed=11, filter_scale=1.0)
    cfg = build_rough(pat, params)
    # rebuild the raw cloud from the same stream
    from salemkit.sampler import _stream

    X = _stream(11, 0).random((24, 1))
    tau = cfg.provenance["tau_used"]
    removed = set()
    for j in range(24):
        for i in range(24):
            if i == j:
                continue
            if thickened_membership(pat, np.array([[X[i, 0], X[j, 0]]]), tau)[0]:
                removed.add(j)
    kept = np.array(sorted(set(range(24)) - removed))
    np.testing.assert_allclose(np.sort(cfg.points[:, 0]), np.sort(X[kept, 0]))


def test_rough_construction_failure_when_pattern_everywhere():
    # every cell occupied: any pair is a hit, nothing survives
    g = 3
    cells = np.stack(np.meshgrid(*[np.arange(g)] * 2, indexing="ij"), -1).reshape(-1, 2)
    pat = RoughPattern(n=2, d=1, g=g, cells=cells)
    with pytest.raises(ConstructionFailure):
        build_rough(pat, ConstructionParams(M=32, lam=0.4, seed=1, filter_scale=1.0))


def test_budget_capped_rough_build_keeps_the_nine_membership_rule():
    # the pilot takes one residual pass; recompute the 9-point rule from
    # nine thickened_membership calls on the same pilot tuples
    from salemkit.sampler import _stream

    pat = RoughPattern(n=2, d=1, g=64, cells=[[10, 40]])
    prov = build_rough(pat, ConstructionParams(M=128, lam=0.9, seed=1)).provenance
    assert prov["tau_rule"] == "budget-capped"
    tup = _stream(1, 10_000).random((200_000, 2))
    taus = np.linspace(0.0, prov["tau_theory"], 9)
    F = np.array([thickened_membership(pat, tup, t).mean() for t in taus])
    target = math.sqrt(128) / 128.0**2
    k = int(np.searchsorted(F, target))
    t0, t1, f0, f1 = taus[k - 1], taus[k], F[k - 1], F[k]
    assert 0 < k < 9 and f0 < f1
    assert prov["tau_used"] == t0 + (target - f0) * (t1 - t0) / (f1 - f0)


def test_rough_pilot_over_the_residual_budget_raises_at_once():
    # lam = 3 makes tau_theory about 0.9 at M = 32: a 119^2-offset window
    # over 200k pilot tuples, minutes of work, is refused before any pass
    rng = np.random.default_rng(0)
    pat = RoughPattern(n=2, d=1, g=64, cells=rng.integers(0, 64, size=(200, 2)))
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match="rough residual budget"):
        build_rough(pat, ConstructionParams(M=32, lam=3.0, seed=0))
    assert time.perf_counter() - t0 < 1.0


def test_rough_filter_admits_every_window_its_pilot_admitted(monkeypatch):
    # a 25-offset window fits the 200k-tuple pilot exactly under this
    # budget; the filter's 512^2 pairs must then go in chunks of at most
    # budget // 25 tuples, not BRUTE_CHUNK, and keep the same points
    from salemkit import patterns

    g = 2_000_000
    pat = RoughPattern(n=2, d=1, g=g, cells=[[1, 6], [g // 3, g // 2]])
    params = ConstructionParams(M=512, lam=0.4, seed=0)
    want = build_rough(pat, params)
    assert pat._window(want.provenance["tau_used"])[1] == 25
    monkeypatch.setattr(patterns, "ROUGH_RESIDUAL_BUDGET", 25 * 200_000)
    got = build_rough(pat, params)
    np.testing.assert_array_equal(got.points, want.points)
    assert got.provenance == want.provenance


def test_rough_build_caps_at_theory_when_the_pilot_cannot_certify_it():
    # the pilot removal rate at tau_theory is under the target, but by
    # less than the rule-of-three margin 3/B
    pat = RoughPattern(n=2, d=1, g=64, cells=[[10, 40]])
    prov = build_rough(pat, ConstructionParams(M=128, lam=0.7815, seed=0)).provenance
    assert prov["tau_rule"] == "budget-capped"
    assert prov["tau_used"] == prov["tau_theory"]


# ------------------------------------------------------------------- surface


def test_surface_build_invariants():
    pat = surface_pattern()
    cfg = build_surface(pat, ConstructionParams(M=64, lam=0.25, seed=5))
    _check_config(cfg, 1)
    assert len(cfg.strata) == 4  # residual + 3 cube strata
    # cube strata live inside the doubled cubes
    from salemkit.torus import double_cube

    for i, c in enumerate(pat.cubes):
        idx = cfg.stratum_indices(cfg.strata[i + 1][0])
        assert double_cube(c).contains(cfg.points[idx]).all()
    # stratum weights are constant within a stratum
    for nm, a, b in cfg.strata:
        assert np.ptp(cfg.weights[a:b]) == 0


def test_surface_filter_removes_graph_hits():
    # gentle scale: lam far below critical so the theory threshold applies
    pat = surface_pattern()
    params = ConstructionParams(M=64, lam=0.25, seed=7)
    cfg = build_surface(pat, params)
    assert cfg.provenance["tau_rule"] == "theory"
    tau = cfg.provenance["tau_used"]
    # no kept stratum-3 point is within tau of f(x1, x2) for stratum 1 x 2
    i1 = cfg.stratum_indices(cfg.strata[1][0])
    i2 = cfg.stratum_indices(cfg.strata[2][0])
    i3 = cfg.stratum_indices(cfg.strata[3][0])
    x1 = cfg.points[i1, 0]
    x2 = cfg.points[i2, 0]
    tgt = pat.f(
        np.stack(
            [np.repeat(x1, len(x2)), np.tile(x2, len(x1))], axis=1
        )
    ).reshape(-1)
    dmin = tdist(cfg.points[i3][:, None, :], tgt[None, :, None]).min()
    assert dmin > tau


def test_surface_partition_of_unity_weights():
    pat = surface_pattern()
    cfg = build_surface(pat, ConstructionParams(M=48, lam=0.25, seed=2))
    A = cfg.provenance["stratum_weights"]
    # integrals of the bumps plus the residual mass total 1
    assert sum(A) == pytest.approx(1.0, abs=1e-9)
    # bump mass sits between the plateau (1.5R) and support (2R) volumes
    for i, c in enumerate(pat.cubes):
        assert (1.5 * c.side) ** 1 < A[i + 1] < (2 * c.side) ** 1


def test_surface_rejects_covering_cubes():
    f = lambda p: p[..., :1]  # noqa: E731
    cubes = [Cube([0.0], 0.3)]
    with pytest.raises((LayoutError, ValueError)):
        pat = SurfacePattern(d=1, n=2, cubes=cubes, f=f, lipschitz=1.0)
        build_surface(pat, ConstructionParams(M=16, lam=0.3, seed=0))


# -------------------------------------------------------------- translational


def test_translational_build_invariants():
    pat = ap3_pattern(m=16)
    cfg = build_translational(pat, ConstructionParams(M=128, lam=0.3, seed=9))
    _check_config(cfg, 1)
    prov = cfg.provenance
    assert 0.0 <= prov["P_hat"] <= 0.5
    lo, hi = prov["P_hat_wilson95"]
    assert lo <= prov["P_hat"] <= hi
    # the unfiltered final cube stratum outweighs the filtered cube strata
    A = prov["stratum_weights"]
    assert A[-1] >= max(A[1:-1])


def test_translational_removal_matches_naive_filter():
    pat = ap3_pattern(m=16)
    params = ConstructionParams(M=20, lam=0.3, seed=13, filter_scale=0.02)
    cfg = build_translational(pat, params)
    from salemkit.sampler import _stream
    from salemkit.torus import double_cube

    doubled = [double_cube(c) for c in pat.cubes]
    strata = [doubled[i].sample(_stream(13, i + 1), 20) for i in range(3)]
    tau = cfg.provenance["tau_used"]
    removed = set()
    for k3 in range(20):
        for k1 in range(20):
            for k2 in range(20):
                tup = np.array(
                    [[strata[0][k1, 0], strata[1][k2, 0], strata[2][k3, 0]]]
                )
                if pat.residual(tup)[0] <= tau:
                    removed.add(k3)
    kept = np.array(sorted(set(range(20)) - removed))
    i3 = cfg.stratum_indices(cfg.strata[3][0])
    np.testing.assert_allclose(
        np.sort(cfg.points[i3, 0]), np.sort(strata[2][kept, 0])
    )


def test_translational_requires_cubes_and_correct_side():
    pat = TranslationalPattern(
        d=1, n=3, a=2, period_m=16,
        T=lambda x: (-np.asarray(x))[..., None, :], lipschitz=1.0,
    )
    with pytest.raises(LayoutError):
        build_translational(pat, ConstructionParams(M=16, lam=0.3, seed=0))
    bad_side = 0.9 / (2 * 2 * 16)
    cubes = [Cube([c], bad_side) for c in (1 / 6, 1 / 2, 5 / 6)]
    pat2 = TranslationalPattern(
        d=1, n=3, a=2, period_m=16,
        T=lambda x: (-np.asarray(x))[..., None, :], lipschitz=1.0, cubes=cubes,
    )
    with pytest.raises(LayoutError):
        build_translational(pat2, ConstructionParams(M=16, lam=0.3, seed=0))


def test_translational_fails_when_removal_probability_large():
    # threshold wide enough to hit everything -> P_hat > 1/2
    pat = ap3_pattern(m=16)
    params = ConstructionParams(M=64, lam=0.3, seed=4, filter_scale=1e6)
    with pytest.raises(ConstructionFailure):
        build_translational(pat, params)


def test_translational_degenerate_empty_targets():
    # T produces the empty set: nothing is ever removed, P_hat = 0 and the
    # low strata carry zero weight
    side = 1.0 / (2 * 2 * 16)
    cubes = [Cube([c - side / 2], side) for c in (1 / 6, 1 / 2, 5 / 6)]
    pat = TranslationalPattern(
        d=1, n=3, a=2, period_m=16,
        T=lambda x: np.empty(np.asarray(x).shape[:-1] + (0, 1)),
        lipschitz=0.0, cubes=cubes,
    )
    cfg = build_translational(pat, ConstructionParams(M=32, lam=0.3, seed=6))
    assert cfg.provenance["P_hat"] == 0.0
    i0 = cfg.stratum_indices("complement")
    assert np.all(cfg.weights[i0] == 0)
    _check_config(cfg, 1)


def naive_incidence(strata, pattern, threshold):
    """Oracle: python-loop enumeration of every admissible tuple."""
    import itertools

    n = pattern.n
    removed = set()
    if len(strata) == 1:
        pool = strata[0]
        for combo in itertools.permutations(range(len(pool)), n):
            tup = np.concatenate([pool[j] for j in combo])[None, :]
            hit = (
                thickened_membership(pattern, tup, threshold)[0]
                if pattern.kind == "rough"
                else pattern.residual(tup)[0] <= threshold
            )
            if hit:
                removed.add(combo[-1])
    else:
        for combo in itertools.product(*[range(len(s)) for s in strata]):
            tup = np.concatenate([strata[j][k] for j, k in enumerate(combo)])[None, :]
            hit = (
                thickened_membership(pattern, tup, threshold)[0]
                if pattern.kind == "rough"
                else pattern.residual(tup)[0] <= threshold
            )
            if hit:
                removed.add(combo[-1])
    return sorted(removed)


def test_incidence_index_set_matches_naive_enumeration():
    from salemkit.sampler import incidence_index_set

    pat_t = ap3_pattern(m=16)
    pat_s = surface_pattern()
    rng = np.random.default_rng(99)
    for trial in range(10):
        # translational: three pools, wide threshold to force hits
        pools = [rng.random((8, 1)) for _ in range(3)]
        for tau in (0.002, 0.02):
            got = incidence_index_set(pools, pat_t, tau)
            assert list(got) == naive_incidence(pools, pat_t, tau)
        # surface
        pools = [rng.random((8, 1)) for _ in range(3)]
        got = incidence_index_set(pools, pat_s, 0.05)
        assert list(got) == naive_incidence(pools, pat_s, 0.05)
        # rough, single shared pool
        cells = rng.integers(0, 5, size=(3, 2))
        pat_r = RoughPattern(n=2, d=1, g=5, cells=cells)
        pool = rng.random((10, 1))
        got = incidence_index_set([pool], pat_r, 0.03)
        assert list(got) == naive_incidence([pool], pat_r, 0.03)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("m,a", [(1, 2), (3, 1), (8, -1), (16, 2)])
def test_translational_incidence_1d_matches_brute(n, m, a, enumerated):
    from salemkit.sampler import incidence_index_set

    shifts = np.array([1 / 8, 3 / 8])[:, None]  # two raw targets

    def T(x):
        x = np.asarray(x)
        if n == 2:
            return np.broadcast_to(shifts, x.shape[:-1] + (2, 1))
        return (x[..., 0] - 2 * x[..., 1])[..., None, None] + shifts

    pat = TranslationalPattern(d=1, n=n, a=a, period_m=m, T=T, lipschitz=3.0)
    rng = np.random.default_rng(10 * n + m)
    size = 24 if n == 2 else 9
    for trial in range(4):
        pools = [rng.random((size, 1)) for _ in range(n)]
        if m in (1, 8, 16):
            # dyadic pools with planted exact occurrences: every float
            # operation of both paths is exact, so tau = 0 must find them
            pools = [np.floor(p * 64) / 64 for p in pools]
            prefix = np.concatenate([np.empty((3, 0))] + [p[:3] for p in pools[: n - 2]], axis=1)
            t = np.asarray(T(prefix))[:, trial % 2, :]
            pools[-1][:3] = wrap(a * pools[-2][:3] + t + (trial % m) / m)
        for tau in (0.0, 1e-3, 0.03):
            got = incidence_index_set(pools, pat, tau)  # the d = 1 window probe
            want = incidence_index_set(pools, enumerated(pat), tau)
            np.testing.assert_array_equal(got, want)
            if m != 3 and tau == 0.0:
                assert {0, 1, 2} <= set(got.tolist())


# -------------------------------------------------------------- determinism


def test_builds_are_deterministic_in_seed():
    pat = ap3_pattern(m=16)
    p = ConstructionParams(M=96, lam=0.3, seed=21)
    a = build_translational(pat, p)
    b = build_translational(pat, p)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.weights, b.weights)
    c = build_translational(pat, ConstructionParams(M=96, lam=0.3, seed=22))
    assert not np.array_equal(a.points, c.points)


def test_configuration_save_load_roundtrip(tmp_path):
    pat = ap3_pattern(m=16)
    cfg = build_translational(pat, ConstructionParams(M=64, lam=0.3, seed=1))
    path = tmp_path / "cfg.csv"
    cfg.save(path)
    back = WeightedConfiguration.load(path)
    np.testing.assert_array_equal(back.points, cfg.points)
    np.testing.assert_array_equal(back.weights, cfg.weights)
    assert back.radius_r == cfg.radius_r
    assert back.strata == cfg.strata
    assert back.provenance["kind"] == "translational"


def test_desk_scale_threshold_is_capped():
    # at the demo scale the theory threshold would remove nearly every
    # point; the builder must cap it and record the rule
    pat = ap3_pattern(m=16)
    cfg = build_translational(pat, ConstructionParams(M=512, lam=0.45, seed=0))
    prov = cfg.provenance
    assert prov["tau_rule"].startswith("budget-capped")
    assert prov["tau_used"] < prov["tau_theory"]
    # expected removals ~ sqrt(M): generous factor-10 sanity band
    assert prov["n_removed"] <= 10 * math.sqrt(512)


# ------------------------------------------------------ screened pilot


PILOT = 200_000


def _full_sort_threshold(pattern, params, r):
    """The pilot threshold as it was before the screen: every pilot
    residual, sorted, read by the budget rule (frozen reference)."""
    from salemkit.sampler import _stream
    from salemkit.torus import double_cube

    n, M = pattern.n, params.M
    tau_theory = 2.0 * math.sqrt(n) * (pattern.lipschitz + 1.0) * r
    if params.filter_scale is not None:
        return {"tau_theory": tau_theory, "tau_used": float(params.filter_scale * r),
                "tau_rule": "explicit"}
    prng = _stream(params.seed, 10_000)
    pilot = np.concatenate(
        [double_cube(c).sample(prng, PILOT) for c in pattern.cubes], axis=1
    )
    resid = np.sort(pattern.residual(pilot))
    B = len(resid)
    target_F = (params.removal_budget or math.sqrt(M)) / float(M) ** n
    n_below = int(np.searchsorted(resid, tau_theory, side="right"))
    if (n_below + 3.0) / B <= target_F:
        tau, rule = tau_theory, "theory"
    else:
        c0 = np.searchsorted(resid, 0.0, side="right") / B
        k = max(20, B // 1000)
        tau_c = resid[k - 1]
        if c0 >= target_F or tau_c <= 0:
            tau, rule = 0.0, "budget-capped(floor)"
        else:
            c1 = (k / B - c0) / tau_c
            tau = min((target_F - c0) / max(c1, 1e-300), tau_theory)
            rule = "budget-capped"
    return {"tau_theory": tau_theory, "tau_used": float(tau), "tau_rule": rule}


def _layout(a, m, centers=(1 / 6, 1 / 2, 5 / 6)):
    side = 1.0 / (2 * abs(float(a)) * m)
    return [Cube([c - side / 2], side) for c in centers]


def _pilot_case(name):
    from fractions import Fraction

    from salemkit.harness import ap3_pattern as harness_ap3

    ap3 = harness_ap3(16)
    if name.startswith("ap3-"):
        return ap3, dict(M=int(name[4:]), lam=0.45)
    if name.startswith("d2-"):
        return _d2_ap3_pattern(), dict(M=int(name[3:]), lam=0.9)
    if name == "two-targets":
        T = lambda x: np.stack([-x, 0.37 - x], axis=-2)  # noqa: E731
        return TranslationalPattern(d=1, n=3, a=2, period_m=16, T=T, lipschitz=1.0,
                                    cubes=_layout(2, 16)), dict(M=256, lam=0.45)
    if name == "n=2":
        T = lambda x: np.full(x.shape[:-1] + (1, 1), 0.1)  # noqa: E731
        return TranslationalPattern(d=1, n=2, a=3, period_m=4, T=T, lipschitz=0.0,
                                    cubes=_layout(3, 4, (0.2, 0.7))), dict(M=64, lam=0.9)
    if name == "a=3/2":
        T = lambda x: -x[..., None, :]  # noqa: E731
        return TranslationalPattern(d=1, n=3, a=Fraction(3, 2), period_m=16, T=T,
                                    lipschitz=1.0, cubes=_layout(1.5, 16)), dict(M=256, lam=0.45)
    if name == "kk=B":
        return ap3, dict(M=64, lam=0.45, removal_budget=64.0**3)
    if name == "kk=5001":
        return ap3, dict(M=64, lam=0.45, removal_budget=5000 / PILOT * 64.0**3)
    if name == "surface":
        return surface_pattern(), dict(M=64, lam=0.25)
    if name.startswith("iso-"):
        from salemkit.harness import isosceles_surface_pattern

        return isosceles_surface_pattern(), dict(M=int(name[4:]), lam=4 / 9)
    raise KeyError(name)


def _both_thresholds(pattern, params):
    from salemkit.sampler import _threshold

    r = derive_radius(params.M, params.lam)
    return _threshold(pattern, params, r), _full_sort_threshold(pattern, params, r)


def _count_residual_rows(monkeypatch, pattern):
    """Record the row count of every ``pattern.residual`` call."""
    rows, residual = [], pattern.residual

    def counted(tuples, upto=math.inf):
        rows.append(len(tuples))
        return residual(tuples, upto)

    monkeypatch.setattr(pattern, "residual", counted)
    return rows


def _edit_pilot(monkeypatch, n, edit):
    """Let ``edit(slots)`` change the n slots of every pilot in place."""
    place, drawn = Cube.place, []

    def patched(self, u):
        out = place(self, u)
        if len(out) == PILOT:
            drawn.append(out)
            if len(drawn) % n == 0:
                edit(drawn[-n:])
        return out

    monkeypatch.setattr(Cube, "place", patched)


@pytest.mark.parametrize(
    "case",
    ["ap3-64", "ap3-256", "ap3-2048", "d2-32", "d2-48", "two-targets", "n=2",
     "a=3/2", "kk=B", "kk=5001", "surface", "iso-64", "iso-256", "iso-512"],
)
def test_screened_pilot_matches_the_full_sort(case):
    # the screen reads the kk smallest exact residuals only; tau_used and
    # tau_rule must be the bits a sort of all 200k residuals gives
    pattern, kw = _pilot_case(case)
    for seed in range(3):
        got, want = _both_thresholds(pattern, ConstructionParams(seed=seed, **kw))
        assert got == want
        assert type(got["tau_used"]) is float


def test_screened_pilot_falls_back_when_a_tuple_outside_the_domain_hides(monkeypatch):
    # move the last slot of the tuple of least residual one period 1/m
    # along: its floor stays among the least, its residual becomes +inf
    from salemkit.sampler import _threshold

    pattern, kw = _pilot_case("ap3-256")
    residual = pattern.residual

    def hide(slots):
        i = np.argmin(residual(np.concatenate(slots, axis=1)))
        slots[-1][i] += 1.0 / pattern.period_m

    _edit_pilot(monkeypatch, pattern.n, hide)
    params = ConstructionParams(seed=0, **kw)
    r = derive_radius(params.M, params.lam)
    want = _full_sort_threshold(pattern, params, r)
    rows = _count_residual_rows(monkeypatch, pattern)
    assert _threshold(pattern, params, r) == want
    # fewer than kk screened rows were at most c, so every row was taken
    assert len(rows) == 2 and rows[0] < PILOT == rows[1]


class _DomainBlindSurface(SurfacePattern):
    """A surface whose floor is the distance to f(prefix) with the domain
    mask skipped, as a cheap floor may skip it."""

    def residual_floor(self, tuples):
        split = self.d * (self.n - 1)
        return tdist(tuples[:, split:], self.f(tuples[:, :split])), 0.0


def test_screened_surface_pilot_falls_back_when_a_tuple_outside_the_domain_hides(monkeypatch):
    # the graph x3 = x1 + x2 + 0.3 under a floor blind to the domain;
    # moving x1 up and x2 down by 0.1 keeps the floor of the tuple of least
    # residual and takes it out of Q1 x Q2
    from salemkit.sampler import _threshold

    f = lambda p: (p[..., :1] + p[..., 1:2] + 0.3) % 1.0  # noqa: E731
    cubes = [Cube([0.0], 0.01), Cube([0.3], 0.01), Cube([0.6], 0.01)]
    pattern = _DomainBlindSurface(d=1, n=3, cubes=cubes, f=f, lipschitz=2.0)
    residual = pattern.residual

    def hide(slots):
        i = np.argmin(residual(np.concatenate(slots, axis=1)))
        slots[0][i] += 0.1
        slots[1][i] -= 0.1

    _edit_pilot(monkeypatch, pattern.n, hide)
    params = ConstructionParams(M=256, lam=0.45, seed=0)
    r = derive_radius(params.M, params.lam)
    want = _full_sort_threshold(pattern, params, r)
    rows = _count_residual_rows(monkeypatch, pattern)
    assert _threshold(pattern, params, r) == want
    assert len(rows) == 2 and rows[0] < PILOT == rows[1]


def test_screened_pilot_matches_the_full_sort_on_residual_atoms(monkeypatch):
    # 2000 pilot tuples sit exactly on the relation (dyadic slots), more
    # than the kk = 200 smallest hold: the clipped count at 0 must still
    # take the floor branch
    def atoms(slots):
        for x, v in zip(slots, (5 / 32, 0.5, 27 / 32)):
            x[:2000] = v

    pattern, kw = _pilot_case("ap3-256")
    _edit_pilot(monkeypatch, pattern.n, atoms)
    got, want = _both_thresholds(pattern, ConstructionParams(seed=0, **kw))
    assert got == want and want["tau_rule"] == "budget-capped(floor)"


def test_explicit_filter_scale_draws_no_pilot(monkeypatch):
    pattern, kw = _pilot_case("ap3-256")
    rows = _count_residual_rows(monkeypatch, pattern)
    got, want = _both_thresholds(pattern, ConstructionParams(filter_scale=0.5, seed=0, **kw))
    assert got == want and want["tau_rule"] == "explicit" and rows == []


def test_pilot_takes_few_exact_residuals(monkeypatch):
    # the floor screen leaves the exact residual at most 2% of the 200k
    # pilot rows of the seed-0 ap3 build at M = 256 (the filter included)
    pattern, kw = _pilot_case("ap3-256")
    rows = _count_residual_rows(monkeypatch, pattern)
    build_translational(pattern, ConstructionParams(seed=0, **kw))
    assert 0 < sum(rows) <= 0.02 * PILOT


def test_isosceles_pilot_memory():
    # the third leg runs in row blocks: the seed-0 M = 256 isosceles
    # threshold peaked at 20.7 MB traced with an unblocked bisection
    from salemkit.sampler import _threshold

    pattern, kw = _pilot_case("iso-256")
    params = ConstructionParams(seed=0, **kw)
    r = derive_radius(params.M, params.lam)
    tracemalloc.start()
    try:
        _threshold(pattern, params, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20


# ------------------------------------------------------- refactoring oracle


def _config_digest(cfg):
    import hashlib
    import json

    from salemkit.torus import json_default

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(cfg.points).tobytes())
    h.update(np.ascontiguousarray(cfg.weights).tobytes())
    meta = {"strata": cfg.strata, "provenance": cfg.provenance}
    h.update(json.dumps(meta, sort_keys=True, default=json_default).encode())
    return h.hexdigest()


def _d2_ap3_pattern(m=8):
    side = 1.0 / (4 * m)
    cubes = [Cube([c - side / 2, c - side / 2], side) for c in (1 / 6, 1 / 2, 5 / 6)]
    return TranslationalPattern(
        d=2, n=3, a=2, period_m=m, T=lambda x: (-np.asarray(x))[..., None, :],
        lipschitz=1.0, cubes=cubes,
    )


# sha256 of points and weights bytes plus the sorted JSON of strata and
# provenance, recorded before the stratified builders were folded into
# one threshold, filter and assembly path; a seeded build must not move
ORACLE = {
    "ap3-0": "33b2e23848a1649a761a4cdcb73c6d42835e4c717803431a19488e9448c07c97",
    "ap3-1": "f92ea2198e27232435b9131458a46d3a634883b59cc6b492cdc84d1924792825",
    "ap3-2": "1f2b800aa8d2515e3a68916120dd8db45bf02d38dd2d6964740cced3d8d35873",
    "iso-0": "c5abbd5ece14c7e8a1180910a333c23a0452ca11f25057d96f59000cdcac055d",
    "iso-1": "600c1c42faee034a0a90f0375872dae812d25fe5ab45772d2e73e21583f4787e",
    "iso-2": "d932ce6e83da45b0a7d9ae469a9dd317fae805ff2db00a9404d044196bd19a62",
    "d2": "5d13a75b12c50cb13b64f7e89050a13d060e56e98bba5d30d86d6d2eb5a470be",
    "rough": "3f72e97cffe931f00eb66d0db9c21da111710e26958665aaa7d172bf142a3137",
}


def test_seeded_builds_match_recorded_digests():
    from salemkit.harness import ap3_pattern as harness_ap3, isosceles_surface_pattern

    got = {}
    for s in range(3):
        params = ConstructionParams(M=256, lam=0.45, seed=s)
        got[f"ap3-{s}"] = _config_digest(build_translational(harness_ap3(16), params))
    for s in range(3):
        params = ConstructionParams(M=128, lam=4 / 9, seed=s)
        got[f"iso-{s}"] = _config_digest(build_surface(isosceles_surface_pattern(), params))
    params = ConstructionParams(M=32, lam=0.9, seed=0)
    got["d2"] = _config_digest(build_translational(_d2_ap3_pattern(), params))
    rough = RoughPattern(n=2, d=1, g=16, cells=[[1, 6], [4, 4], [9, 13]])
    got["rough"] = _config_digest(build_rough(rough, ConstructionParams(M=128, lam=0.4, seed=5)))
    assert got == ORACLE


def test_build_record_holds_pools_and_removed_set(tmp_path):
    from salemkit.measures import GridMeasure, _restrict_to_support

    # a graph that meets the product of its doubled cubes, so removals occur
    f = lambda p: (p[..., :1] + p[..., 1:2] + 0.3) % 1.0  # noqa: E731
    cubes = [Cube([0.0], 0.01), Cube([0.3], 0.01), Cube([0.6], 0.01)]
    live_surface = SurfacePattern(d=1, n=3, cubes=cubes, f=f, lipschitz=2.0)
    for pat, build in ((ap3_pattern(m=16), build_translational), (live_surface, build_surface)):
        cfg = build(pat, ConstructionParams(M=96, lam=0.45, seed=3))
        pools, removed = cfg._build_record
        assert len(pools) == pat.n and len(removed) == cfg.provenance["n_removed"] > 0
        # the configuration's cube strata are the pools, the last one minus removed
        keep = np.setdiff1d(np.arange(96), removed)
        for (nm, a, b), pool in zip(cfg.strata[1:], pools[:-1] + [pools[-1][keep]]):
            np.testing.assert_array_equal(cfg.points[a:b], pool)
        # in memory only: neither a reload nor a support restriction has one
        cfg.save(tmp_path / "cfg.csv")
        assert WeightedConfiguration.load(tmp_path / "cfg.csv")._build_record is None
        mu = GridMeasure(np.ones(16))
        assert _restrict_to_support(cfg, mu)._build_record is None
    rough = RoughPattern(n=2, d=1, g=8, cells=[[1, 6]])
    assert build_rough(rough, ConstructionParams(M=32, lam=0.3, seed=0))._build_record is None
