"""Tests for the experiment harness, concentration checks, and demos."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from salemkit.harness import (
    ExperimentConfig,
    TrialReport,
    ap3_pattern,
    demo_isosceles,
    demo_linear_equations,
    hoeffding_check,
    isosceles_functional,
    make_pattern,
    min_isosceles_gap,
    run_experiment,
    split_sum_check,
    _normalized_coeff_vectors,
)
from salemkit import expsum
from salemkit import harness as hm
from salemkit import sampler
from salemkit.errors import ConstructionFailure
from salemkit.patterns import SCAN_TOL, violation_scan
from salemkit.sampler import ConstructionParams


# ------------------------------------------------------------------- config


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(
            {"pattern": {"id": "ap3"}, "construction": {"M": 64, "lam": 0.3},
             "mystery_knob": 7}
        )


def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(
        pattern={"id": "ap3", "m": 16},
        construction={"M": 64, "lam": 0.3, "seed": 5},
        trials=2,
    )
    path = tmp_path / "cfg.json"
    cfg.save(path)
    back = ExperimentConfig.load(path)
    assert back == cfg
    assert back.params_for_trial(1).seed == 6


def test_config_rejects_settings_with_another_home():
    # delta and kappa live in the construction; the grid size is an
    # iterate setting, not an experiment one
    base = {"pattern": {"id": "ap3"}, "construction": {"M": 64, "lam": 0.3}}
    with pytest.raises(ValueError, match="grid_G"):
        ExperimentConfig.from_dict({**base, "grid_G": 2048})
    for key in ("kappa", "delta"):
        with pytest.raises(ValueError, match=f"unknown sweep fields.*{key}"):
            ExperimentConfig.from_dict({**base, "sweep": {"C": 4.0, key: 0.1}})


def test_config_rejects_wrong_schema_version():
    with pytest.raises(ValueError):
        ExperimentConfig(
            pattern={"id": "ap3"},
            construction={"M": 64, "lam": 0.3},
            schema_version=99,
        )


def test_make_pattern_rejects_stray_fields():
    with pytest.raises(ValueError):
        make_pattern({"id": "ap3", "m": 16, "bogus": 1})


# ------------------------------------------------------------ run_experiment


def _empty_t(x):
    return np.empty(np.asarray(x).shape[:-1] + (0, 1))


def test_run_experiment_single_trial_empty_pattern(monkeypatch):
    # empty target set: the battery runs one trivially passing trial
    import salemkit.harness as hm

    pat = ap3_pattern(m=16)
    empty = type(pat).__new__(type(pat))
    empty.__dict__.update(pat.__dict__)
    empty.T = _empty_t
    monkeypatch.setattr(hm, "make_pattern", lambda spec: empty)
    cfg = ExperimentConfig(
        pattern={"id": "ap3"},
        construction={"M": 48, "lam": 0.3, "seed": 1},
        trials=1,
        sweep={"C": 5.0},
    )
    rep = run_experiment(cfg)
    assert rep.aggregate["trials"] == 1
    assert rep.aggregate["failed_trials"] == 0
    assert rep.rows[0]["scan_violations"] == 0
    assert rep.rows[0]["P_hat"] == 0.0


def test_run_experiment_deterministic_and_persisted(tmp_path):
    cfg = ExperimentConfig(
        pattern={"id": "ap3", "m": 16},
        construction={"M": 96, "lam": 0.3, "seed": 3},
        trials=2,
        sweep={"C": 4.0},
        do_scan=False,
        out_dir=str(tmp_path / "out"),
    )
    rep1 = run_experiment(cfg)
    csv1 = (tmp_path / "out" / "report.csv").read_bytes()
    rep2 = run_experiment(cfg)
    csv2 = (tmp_path / "out" / "report.csv").read_bytes()
    assert csv1 == csv2
    assert rep1.rows[0]["sweep_sup_stat"] == rep2.rows[0]["sweep_sup_stat"]
    # aggregate recomputable on load
    back = TrialReport.load(str(tmp_path / "out"))
    assert back.aggregate == rep1.aggregate


def test_run_experiment_with_dimension_estimates():
    cfg = ExperimentConfig(
        pattern={"id": "ap3", "m": 16},
        construction={"M": 256, "lam": 0.45, "seed": 0},
        trials=1,
        sweep={"C": 3.0},
        do_dims=True,
    )
    rows = run_experiment(cfg).rows
    for row in rows:
        assert 0.0 <= row["box_dimension"] <= 1.0
        assert 0.0 <= row["fourier_dimension"] <= 1.0
    assert run_experiment(cfg).rows == rows


def test_run_experiment_records_errors_per_trial():
    # lam far above the avoidable range: construction fails, row records it;
    # the battery stops once more than half of its 3 trials have failed
    cfg = ExperimentConfig(
        pattern={"id": "ap3", "m": 16},
        construction={"M": 64, "lam": 0.9, "seed": 0, "filter_scale": 1e9},
        trials=3,
        sweep={"C": 4.0},
    )
    rep = run_experiment(cfg)
    assert [r["trial"] for r in rep.rows] == [0, 1]
    assert rep.aggregate["failed_trials"] == 2
    assert all("ConstructionFailure" in r["error"] for r in rep.rows)
    assert len(rep.meta["runtime_s_per_trial"]) == 2


def test_calibrated_battery_saves_its_constant(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        pattern={"id": "ap3", "m": 16},
        construction={"M": 64, "lam": 0.3, "seed": 2},
        trials=2,
        sweep={"calibration_trials": 2},
        do_scan=False,
        out_dir=str(out),
    )
    rep = run_experiment(cfg)
    assert rep.meta["calibrated_C"] is not None
    assert all(r["sweep_C"] == rep.meta["calibrated_C"] for r in rep.rows)
    saved = json.loads((out / "report.json").read_text())
    assert saved["meta"]["calibrated_C"] == rep.meta["calibrated_C"]
    back = TrialReport.load(str(out))
    assert back.rows == rep.rows and back.meta == rep.meta


def test_battery_sweeps_and_calibrates_to_the_construction_kappa(monkeypatch):
    plan_tops = []
    plan = expsum._sweep_plan

    def recording_plan(d, xi_max):
        plan_tops.append(xi_max)
        return plan(d, xi_max)

    monkeypatch.setattr(expsum, "_sweep_plan", recording_plan)
    cfg = ExperimentConfig(
        pattern={"id": "ap3", "m": 16},
        construction={"M": 64, "lam": 0.3, "seed": 2, "kappa": 0.1},
        sweep={"calibration_trials": 2},
        do_scan=False,
    )
    rep = run_experiment(cfg)
    N = rep.rows[0]["N"]
    # one calibration, then one sweep, both to ceil(N^(1 + kappa))
    assert plan_tops == [math.ceil(N**1.1)] * 2


def test_run_experiment_propagates_programming_errors(monkeypatch):
    # only the expected failure types become row errors; a bug must surface
    def broken_builder(pattern, params):
        raise TypeError("bug in a builder")

    monkeypatch.setitem(sampler.BUILDERS, "translational", broken_builder)
    cfg = ExperimentConfig(
        pattern={"id": "ap3", "m": 16},
        construction={"M": 64, "lam": 0.3, "seed": 0},
        trials=2,
        sweep={"C": 4.0},
    )
    with pytest.raises(TypeError, match="bug in a builder"):
        run_experiment(cfg)


# ---------------------------------------------------------------- hoeffding


def test_hoeffding_bound_formula_transcription():
    A = np.array([0.5, 1.0, 2.0])
    table = hoeffding_check(A, t_grid=[1.0, 2.0], n_samples=200, seed=1)
    for row in table:
        expected = min(4.0 * math.exp(-(row["t"] ** 2) / (2 * float((A**2).sum()))), 1.0)
        assert row["bound"] == pytest.approx(expected, rel=1e-12)


def test_hoeffding_deterministic_summands():
    table = hoeffding_check(np.zeros(16), t_grid=[0.1, 1.0], n_samples=500)
    for row in table:
        assert row["empirical"] == 0.0
        assert not row["exceeds"]


def test_hoeffding_no_exceedances_uniform_phases():
    N = 1024
    table = hoeffding_check(np.ones(N), n_samples=2000, seed=7)
    assert not any(row["exceeds"] for row in table)
    # at t = 4 sqrt(N) the bound is ~1e-3 scale; observed 0
    big_t = [r for r in table if r["t"] >= 4 * math.sqrt(N) - 1e-9]
    assert big_t and big_t[0]["empirical"] == 0.0


def test_hoeffding_chunking_matches_one_pass():
    # 2000 summands -> 500-row chunks; the Philox stream is drawn row by row,
    # so the chunked sums equal one pass over the whole sample matrix
    A = np.linspace(0.5, 1.5, 2000)
    t_grid = [10.0, 30.0, 50.0]
    table = hoeffding_check(A, t_grid=t_grid, n_samples=1200, seed=4)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(4)))
    theta = rng.random((1200, len(A)))
    sums = np.abs((A[None, :] * np.exp(2j * math.pi * theta)).sum(axis=1))
    assert [row["empirical"] for row in table] == [
        float((sums >= t).mean()) for t in t_grid
    ]


def test_hoeffding_rejects_tiny_sample_count():
    with pytest.raises(ValueError):
        hoeffding_check(np.ones(4), n_samples=50)


def _naive_hoeffding_sums(A, n_samples, seed):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    theta = rng.random((n_samples, len(A)))
    return np.abs((A[None, :] * np.exp(2j * math.pi * theta)).sum(axis=1))


_HOEFFDING_AMPLITUDES = {
    "ones": np.ones,
    "linspace": lambda n: np.linspace(0.5, 1.5, n),
    "zeros-and-negatives": lambda n: np.where(np.arange(n) % 3 == 0, 0.0, -np.linspace(0.2, 2.0, n)),
}


@pytest.mark.parametrize("N", [0, 1, 2000])
@pytest.mark.parametrize("kind", sorted(_HOEFFDING_AMPLITUDES))
def test_hoeffding_confirmed_rows_match_one_pass_bit_for_bit(kind, N):
    # t on sampled sums forces their rows through the exact confirmation;
    # 1100 rows are not a multiple of a 2000-term block (500 rows)
    A = _HOEFFDING_AMPLITUDES[kind](N)
    naive = _naive_hoeffding_sums(A, 1100, seed=5)
    t_grid = [float(naive[k]) for k in (0, 499, 500, 1099)] + [float(naive.mean())]
    sums, confirmed = hm._hoeffding_sums(A, t_grid, 1100, seed=5)
    on_grid = np.flatnonzero(np.isin(naive, t_grid))
    assert set(on_grid) <= set(confirmed)
    assert (sums[confirmed].view(np.int64) == naive[confirmed].view(np.int64)).all()
    table = hoeffding_check(A, t_grid=t_grid, n_samples=1100, seed=5)
    assert [row["empirical"] for row in table] == [float((naive >= t).mean()) for t in t_grid]


def test_hoeffding_screen_stays_within_eps():
    A = np.linspace(-1.0, 2.0, 2048)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    blocks = expsum._phase_blocks(3000, A, lambda i, theta: rng.random(out=theta))
    screen = np.concatenate([np.hypot(re, im) for _, _, re, im in blocks])
    eps = expsum._phase_eps(float(np.abs(A).sum()), len(A))
    assert np.abs(screen - _naive_hoeffding_sums(A, 3000, seed=3)).max() <= eps


def test_hoeffding_confirms_few_rows_at_seed_0():
    N = 512
    t_grid = [math.sqrt(N) * f for f in (0.5, 1.0, 2.0, 3.0, 4.0)]
    _, confirmed = hm._hoeffding_sums(np.ones(N), t_grid, 10_000, seed=0)
    assert len(confirmed) == 2


@pytest.mark.parametrize(
    "bounds", [np.ones((4, 4)), np.array([1.0, np.nan]), np.array([1.0, np.inf]), 1.0]
)
def test_hoeffding_rejects_bad_amplitudes(bounds):
    with pytest.raises(ValueError, match="finite amplitudes"):
        hoeffding_check(bounds)


def test_hoeffding_default_grid_scales_negative_amplitudes():
    ts = [row["t"] for row in hoeffding_check(-np.ones(16), n_samples=200)]
    assert ts == [row["t"] for row in hoeffding_check(np.ones(16), n_samples=200)]
    assert ts[1] == 4.0


# ---------------------------------------------------------------- split sum


def test_split_sum_reconstruction_small_battery():
    pat = ap3_pattern(m=16)
    res = split_sum_check(
        pat, ConstructionParams(M=64, lam=0.3, seed=11), trials=50, n_xi=6
    )
    assert res["reconstruction_ok"]
    assert res["reconstruction_error"] <= 1e-10
    assert res["n_within_3sigma"] >= 4  # 3-sigma misses are rare, not impossible
    assert res["tail_pass_rate"] >= 0.9


def test_split_sum_empty_incidence_set():
    pat = ap3_pattern(m=16)
    empty = type(pat).__new__(type(pat))
    empty.__dict__.update(pat.__dict__)
    empty.T = _empty_t
    res = split_sum_check(
        empty, ConstructionParams(M=48, lam=0.3, seed=2), trials=50, n_xi=5
    )
    # H identically zero: F = G exactly and the mean is exactly 0
    assert res["reconstruction_ok"]
    assert all(abs(v) == 0.0 for v in res["mean_H"])
    assert res["tail_pass_rate"] == 1.0
    assert res["sup_dev_max"] == res["sup_dev_reach"] == 0.0


def test_split_sum_deviations_stay_below_their_reach():
    res = split_sum_check(
        ap3_pattern(m=16), ConstructionParams(M=96, lam=0.3, seed=5), trials=50, n_xi=4
    )
    assert 0.0 < res["sup_dev_max"] <= res["sup_dev_reach"]


def test_split_sum_builds_keep_every_construction_knob(monkeypatch):
    seen = []
    real = sampler.BUILDERS["translational"]

    def recording_builder(pattern, params):
        seen.append(params)
        return real(pattern, params)

    monkeypatch.setitem(sampler.BUILDERS, "translational", recording_builder)
    p0 = ConstructionParams(
        M=32, lam=0.3, seed=7, delta=0.5, kappa=0.1, filter_scale=0.01,
        removal_budget=3.0,
    )
    split_sum_check(ap3_pattern(m=16), p0, trials=50, n_xi=3)
    assert [p.seed for p in seen] == list(range(7, 57))
    for p in seen:
        assert (p.M, p.lam, p.delta, p.kappa, p.separation_s) == (32, 0.3, 0.5, 0.1, 0.0)
        assert p.filter_scale == 0.01 and p.removal_budget == 3.0


def test_split_sum_takes_pools_from_the_build_record(monkeypatch):
    # every incidence set and every construction draw happens inside a
    # build: split_sum_check itself reuses the builder's record
    counts = {"builds": 0, "incidence": 0, "outside": 0}
    inside = []
    real_build = sampler.BUILDERS["translational"]
    real_incidence = sampler.incidence_index_set
    real_stream = sampler._stream

    def build(pattern, params):
        counts["builds"] += 1
        inside.append(True)
        try:
            return real_build(pattern, params)
        finally:
            inside.pop()

    def incidence(*args, **kwargs):
        counts["incidence"] += 1
        counts["outside"] += not inside
        return real_incidence(*args, **kwargs)

    def stream(*args):
        counts["outside"] += not inside
        return real_stream(*args)

    monkeypatch.setitem(sampler.BUILDERS, "translational", build)
    for mod in (sampler, hm):
        # raising=False: also catch a copy imported by name into harness
        monkeypatch.setattr(mod, "incidence_index_set", incidence, raising=False)
        monkeypatch.setattr(mod, "_stream", stream, raising=False)
    params = ConstructionParams(M=64, lam=0.3, seed=11)
    res = split_sum_check(ap3_pattern(m=16), params, trials=50, n_xi=4)
    assert res["reconstruction_ok"]
    assert counts == {"builds": 50, "incidence": 50, "outside": 0}


def test_split_sum_refuses_a_configuration_without_build_record(monkeypatch):
    import dataclasses

    real = sampler.BUILDERS["translational"]
    # a copy keeps points, weights and provenance but not the build record
    monkeypatch.setitem(
        sampler.BUILDERS, "translational", lambda p, q: dataclasses.replace(real(p, q))
    )
    with pytest.raises(ValueError, match="build record"):
        split_sum_check(ap3_pattern(m=16), ConstructionParams(M=32, lam=0.3), trials=50, n_xi=3)


def test_split_sum_refuses_d2_before_any_build(monkeypatch):
    # the test frequencies are one-dimensional, so a d = 2 stratified
    # pattern is refused up front rather than on its first trial's sums
    from salemkit.patterns import TranslationalPattern
    from salemkit.torus import Cube

    def build(pattern, params):
        raise AssertionError("no build may start")

    monkeypatch.setitem(sampler.BUILDERS, "translational", build)
    side = 1.0 / 32
    pattern = TranslationalPattern(
        d=2, n=3, a=2, period_m=8, T=lambda x: (-np.asarray(x))[..., None, :],
        lipschitz=1.0, cubes=[Cube([c - side / 2] * 2, side) for c in (1 / 6, 1 / 2, 5 / 6)],
    )
    with pytest.raises(ValueError, match="d = 1 only"):
        split_sum_check(pattern, ConstructionParams(M=32, lam=0.3), trials=50)


def test_split_sum_requires_enough_trials():
    with pytest.raises(ValueError):
        split_sum_check(ap3_pattern(), ConstructionParams(M=32, lam=0.3), trials=10)


def test_binomial_note_is_the_exact_lower_tail():
    from fractions import Fraction

    # P(X <= 1) for X ~ Binomial(2, 0.9) is 1 - p^2, with p the float 0.9
    note = hm._binomial_note(1, 2)
    assert note["p_value_below_target"] == float(1 - Fraction(0.9) ** 2)
    assert hm._binomial_note(2, 2)["p_value_below_target"] == 1.0
    assert hm._binomial_note(0, 3, p=0.5)["p_value_below_target"] == 0.125


@pytest.mark.parametrize("trials", [20, 50, 100])
def test_binomial_note_matches_scipy(trials):
    stats = pytest.importorskip("scipy.stats")
    for s in range(trials + 1):
        want = stats.binomtest(s, trials, 0.9, alternative="less").pvalue
        got = hm._binomial_note(s, trials)["p_value_below_target"]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# -------------------------------------------------------------------- demos


def test_coefficient_vectors_sign_normalized():
    vecs = _normalized_coeff_vectors(3, 1)
    assert len(vecs) == 4  # (+1, ±1, ±1)
    assert all(v[0] > 0 for v in vecs)
    vecs2 = _normalized_coeff_vectors(3, 2)
    assert len(vecs2) == 32  # 4^3 / 2
    assert len(set(vecs2)) == len(vecs2)


def test_demo_linear_equations_small():
    rep = demo_linear_equations(coeff_bound=2, M=256, lam=0.45, seed=1)
    row = rep.rows[0]
    assert row["scan_violations"] == 0
    assert row["N"] >= 128
    assert row["n_equations"] == 32


def _linear_patterns(bound, s_set):
    return [
        hm._linear_pattern(m, s) for m in _normalized_coeff_vectors(3, bound) for s in s_set
    ]


def _linear_violations(x, bound, margin, s_set=(0.0,)):
    """The demo's recount: exact-scan violations summed over the equations."""
    return sum(
        len(violation_scan(x[:, None], p, margin / p.period_m)[0])
        for p in _linear_patterns(bound, s_set)
    )


def test_demo_linear_equations_planted_violation_is_caught():
    x = np.array([0.1, 0.2, 0.3, 0.41, 0.77])  # 0.1 - 2*0.2 + 0.3 = 0
    assert _linear_violations(x, 2, 0.0) > 0
    x2 = np.array([0.1137, 0.2371, 0.3893, 0.7117])
    assert _linear_violations(x2, 2, 1e-12) == 0


def test_linear_pattern_is_the_equation():
    # x3 - a x2 in t(x1) + Z/|m3| measures |m1 x1 + m2 x2 + m3 x3 - s| mod 1
    # along x3, so its residual is that distance over |m3|
    rng = np.random.default_rng(5)
    tup = rng.random((200, 3))
    for m in _normalized_coeff_vectors(3, 2):
        for s in (0.0, 0.25):
            e = (m[0] * tup[:, 0] + m[1] * tup[:, 1] + m[2] * tup[:, 2] - s) % 1.0
            want = np.minimum(e, 1.0 - e) / abs(m[2])
            got = hm._linear_pattern(m, s).residual(tup)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def _linear_oracle_points(N, seed):
    x = np.random.default_rng(seed).random(N)
    # dyadic solutions of 1*x1 - 2*x2 + 1*x3 = 0 and points at the fold
    x[:6] = [1 / 8, 2 / 8, 3 / 8, 0.0, float(np.nextafter(1.0, 0.0)), 7 / 8]
    # x[8] just off the x3 that x1 + x2 + x3 = 0 solves from (x[6], x[7])
    x[8] = (0.0 - x[6] - x[7]) % 1.0 + 2.0**-20
    return x


def _margin_for_edge(target):
    """The margin eta whose scan bound eta + SCAN_TOL rounds to ``target``."""
    eta = target - SCAN_TOL
    while eta + SCAN_TOL > target:
        eta = np.nextafter(eta, 0.0)
    while eta + SCAN_TOL < target:
        eta = np.nextafter(eta, 1.0)
    assert eta + SCAN_TOL == target
    return float(eta)


def _ordered_distinct_triples(N):
    idx = np.indices((N, N, N)).reshape(3, -1).T
    return idx[(idx[:, 0] != idx[:, 1]) & (idx[:, 0] != idx[:, 2]) & (idx[:, 1] != idx[:, 2])]


@pytest.mark.parametrize("edge", [None, "at", "below", "above"])
@pytest.mark.parametrize("N,bound,s_set", [(40, 1, (0.0, 0.25)), (14, 2, (0.0,))])
def test_linear_windows_match_naive_triple_loop(N, bound, s_set, edge):
    x = _linear_oracle_points(N, seed=N)
    triples = _ordered_distinct_triples(N)
    planted = hm._linear_pattern((1, 1, 1), 0.0)
    r0 = float(planted.residual(x[[6, 7, 8]]))
    assert 0 < r0 < 1e-5
    eta = 0.0
    if edge is not None:
        # the scan bound is exactly the planted triple's residual, the
        # float below it or the float above it
        target = {"at": r0, "below": np.nextafter(r0, 0.0), "above": np.nextafter(r0, 1.0)}
        eta = _margin_for_edge(target[edge])
    found = []
    for p in _linear_patterns(bound, s_set):
        # threshold eta on the pattern, i.e. margin eta * |m3| on the equation
        r = p.residual(x[triples])
        want = triples[r <= eta + SCAN_TOL]
        got, res = violation_scan(x[:, None], p, eta)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(res, p.residual(x[got]))
        removed = sampler.incidence_index_set([x[:, None]], p, eta)
        np.testing.assert_array_equal(removed, np.unique(want[:, 2]))
        found += [tuple(t) for t in got]
    assert ((6, 7, 8) in found) == (edge in ("at", "above"))
    if edge is None:
        # the planted dyadic progression is found at margin 0
        assert (0, 1, 2) in found


def test_linear_exact_count_on_dyadic_and_fold_points():
    # every float is a dyadic rational, so the margin-0 test
    # dist(m1 x1 + m2 x2 + m3 x3 - s, Z) / |m3| <= SCAN_TOL is decided
    # exactly in Fractions; the scan, whose fast path rounds, must agree
    N, bound = 14, 2
    x = _linear_oracle_points(N, seed=N)
    xf = [Fraction(float(v)) for v in x]
    tol = Fraction(SCAN_TOL)
    exact = 0
    for i, j, k in _ordered_distinct_triples(N):
        for m1, m2, m3 in _normalized_coeff_vectors(3, bound):
            e = (m1 * xf[i] + m2 * xf[j] + m3 * xf[k]) % 1
            exact += min(e, 1 - e) <= tol * abs(m3)
    assert exact == 432
    assert _linear_violations(x, bound, 0.0) == exact


def test_linear_subnormal_margin_raises_no_warning():
    x = _linear_oracle_points(14, seed=14)
    margin = 2.0**-1070  # subnormal, and still nonzero over |m3| = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in _linear_patterns(2, (0.0,)):
            assert margin / p.period_m > 0
            violation_scan(x[:, None], p, margin / p.period_m)
            sampler.incidence_index_set([x[:, None]], p, margin / p.period_m)


def test_demo_linear_equations_monotone_in_coeff_bound():
    removed = []
    for bound in (1, 2):
        rep = demo_linear_equations(coeff_bound=bound, M=256, lam=0.4, seed=3)
        removed.append(rep.rows[0]["removed_count"])
    assert removed[1] >= removed[0]


def test_isosceles_functional_and_solver():
    # symmetric triple on the parabola is isosceles in the chord metric
    assert isosceles_functional(0.01, 0.02, 0.03) != 0.0  # parabola bends
    from salemkit.harness import _solve_third_leg

    t3 = _solve_third_leg(np.array([0.01]), np.array([0.02]), 0.02, 0.1)[0]
    assert isosceles_functional(0.01, 0.02, t3) == pytest.approx(0.0, abs=1e-15)
    assert t3 > 0.02


def test_min_isosceles_gap_detects_exact_triple():
    from salemkit.harness import _solve_third_leg

    t1, t2 = 0.01, 0.02
    t3 = float(_solve_third_leg(np.array([t1]), np.array([t2]), t2, 0.1)[0])
    assert min_isosceles_gap([t1, t2, t3]) == pytest.approx(0.0, abs=1e-12)
    assert min_isosceles_gap([0.01, 0.024, 0.09]) > 0


def _third_leg_80_steps(t1, t2, lo, hi):
    # frozen copy of the solver before it stopped at the float fixed point:
    # a fixed 80-step bisection on the stacked-gamma functional
    def gamma(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t, t * t], axis=-1)

    def functional(t1, t2, t3):
        a = gamma(t1) - gamma(t2)
        b = gamma(t3) - gamma(t2)
        return (a**2).sum(axis=-1) - (b**2).sum(axis=-1)

    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    lo = np.full_like(t2, lo) if np.isscalar(lo) else np.asarray(lo, float)
    hi = np.full_like(t2, hi) if np.isscalar(hi) else np.asarray(hi, float)
    f_lo = functional(t1, t2, lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = functional(t1, t2, mid)
        neg = np.sign(f_mid) == np.sign(f_lo)
        lo = np.where(neg, mid, lo)
        f_lo = np.where(neg, f_mid, f_lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def _assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_third_leg_bit_equal_on_pilots(seed):
    # the first 20k tuples of the isosceles build's threshold pilot, solved
    # exactly as the surface pattern's f solves them
    from salemkit.harness import ISO_EPSILON, _solve_third_leg
    from salemkit.torus import double_cube

    cubes = hm.isosceles_surface_pattern().cubes
    prng = sampler._stream(seed, 10_000)
    pilot = np.concatenate(
        [double_cube(c).sample(prng, 200_000) for c in cubes], axis=1
    )[:20_000]
    t1, t2 = pilot[:, 0], pilot[:, 1]
    hi = 3.0 * ISO_EPSILON
    _assert_same_bits(
        _solve_third_leg(t1, t2, t2, hi), _third_leg_80_steps(t1, t2, t2, hi)
    )
    # an array hi gives the same bits as well
    hi_arr = np.full_like(t2, hi)
    _assert_same_bits(
        _solve_third_leg(t1, t2, t2, hi_arr), _third_leg_80_steps(t1, t2, t2, hi_arr)
    )


def test_solve_third_leg_bit_equal_on_edge_brackets():
    from salemkit.harness import _solve_third_leg

    cases = [
        # one-element bracket, scalar lo and hi
        (np.array([0.01]), np.array([0.02]), 0.02, 0.1),
        # a NaN t1 next to ordinary entries: its hi walks down to lo
        (np.array([np.nan, 0.01, 0.03]), np.array([0.02, 0.02, 0.04]),
         np.array([0.02, 0.02, 0.04]), 1.0),
        # a NaN t2 makes lo NaN: that entry never settles, the cap ends it
        (np.array([0.01, 0.01]), np.array([np.nan, 0.02]),
         np.array([np.nan, 0.02]), np.array([0.5, 0.5])),
        # a root 1e-30 inside [0, 1] is still open after 80 halvings
        (np.array([1e-30, 0.3]), np.array([0.0, 0.1]), 0.0, 1.0),
    ]
    for t1, t2, lo, hi in cases:
        _assert_same_bits(
            _solve_third_leg(t1, t2, lo, hi), _third_leg_80_steps(t1, t2, lo, hi)
        )
    with pytest.raises(RuntimeError, match="not bracketed"):
        _solve_third_leg(np.array([0.01, 0.01]), np.array([0.02, 0.02]), 0.5, 0.9)


def test_third_leg_brackets_nest_and_hold_the_solution():
    # the bracket of every step count 0..80 lies in the one before, and the
    # solver's value lies in every one
    from salemkit.harness import ISO_EPSILON, _solve_third_leg, _third_leg_bracket
    from salemkit.torus import double_cube

    cubes = hm.isosceles_surface_pattern().cubes
    prng = sampler._stream(0, 10_000)
    pilot = np.concatenate(
        [double_cube(c).sample(prng, 200_000) for c in cubes], axis=1
    )[:2_000]
    cases = [
        (pilot[:, 0], pilot[:, 1], pilot[:, 1], 3.0 * ISO_EPSILON),
        (np.array([0.01]), np.array([0.02]), 0.02, 0.1),
        # a root 1e-30 inside [0, 1] is still open after 80 halvings
        (np.array([1e-30, 0.3]), np.array([0.0, 0.1]), 0.0, 1.0),
    ]
    for t1, t2, lo, hi in cases:
        t3 = _solve_third_leg(t1, t2, lo, hi)
        prev_lo, prev_hi = np.broadcast_arrays(lo, hi, t3)[:2]
        for steps in range(81):
            b_lo, b_hi = _third_leg_bracket(t1, t2, lo, hi, steps)
            assert np.all(prev_lo <= b_lo) and np.all(b_lo <= b_hi) and np.all(b_hi <= prev_hi)
            assert np.all(b_lo <= t3) and np.all(t3 <= b_hi)
            prev_lo, prev_hi = b_lo, b_hi


def _iso_pilot(seed, rows=200_000):
    # the first rows of the isosceles build's threshold pilot
    from salemkit.torus import double_cube

    prng = sampler._stream(seed, 10_000)
    cubes = hm.isosceles_surface_pattern().cubes
    return np.concatenate([double_cube(c).sample(prng, 200_000) for c in cubes], axis=1)[:rows]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_newton_bracket_holds_the_solver_on_pilots(seed):
    # every pilot prefix gets a certified bracket under 1e-13 wide, and the
    # solver's value lies in it
    pat = hm.isosceles_surface_pattern()
    prefix = _iso_pilot(seed)[:, :2]
    lo, hi = pat.f.bracket(prefix)
    t3 = pat.f(prefix)
    assert np.all(lo <= t3) and np.all(t3 <= hi)
    assert np.all(lo < hi) and np.all(hi - lo < 1e-13)


def test_newton_bracket_on_edge_rows():
    # cube-edge prefixes are certified like any other; rows with t1 == t2
    # (a leg of 0), t2 = 0 or a NaN hold the solver's value too, and a row
    # the bracket does not certify gets exactly the solver's value
    from salemkit.torus import double_cube

    pat = hm.isosceles_surface_pattern()
    edges = []
    for cube in pat.cubes[:2]:
        q = double_cube(cube)
        lo, hi = q.corner[0], q.corner[0] + q.side
        edges.append([lo, float(np.nextafter(lo, 1.0)), float(np.nextafter(hi, 0.0)), hi])
    corners = np.array([[x1, x2] for x1 in edges[0] for x2 in edges[1]])
    nan = np.nan
    rows = np.array([[0.02, 0.02], [0.0, 0.0], [0.004, 0.0], [1e-30, 0.0], [0.02, 0.0],
                     [nan, 0.02], [0.004, nan], [nan, nan]])
    prefix = np.concatenate([corners, rows])
    lo, hi = pat.f.bracket(prefix)
    t3 = pat.f(prefix)
    kept = lo < hi
    assert np.all(kept[: len(corners)]) and not np.any(kept[len(corners):][[0, 1, 5, 6, 7]])
    assert np.all(lo[kept] <= t3[kept]) and np.all(t3[kept] <= hi[kept])
    _assert_same_bits(lo[~kept], t3[~kept])
    _assert_same_bits(hi[~kept], t3[~kept])
    # a root beyond the solver's range raises as the solver does
    with pytest.raises(RuntimeError, match="not bracketed"):
        pat.f.bracket(np.array([[0.004, 0.02], [0.0, 0.1]]))


@pytest.mark.parametrize("steps", [20, 40])
def test_newton_bracket_holds_the_solver_at_a_binding_cap(monkeypatch, steps):
    # the bracket's widening covers a bisection that the step cap stops
    # before it settles
    monkeypatch.setattr(hm, "_THIRD_LEG_STEPS", steps)
    pat = hm.isosceles_surface_pattern()
    prefix = _iso_pilot(0, 20_000)[:, :2]
    lo, hi = pat.f.bracket(prefix)
    t3 = pat.f(prefix)
    assert np.all(lo < hi) and np.all(lo <= t3) and np.all(t3 <= hi)


def test_demo_isosceles_surface_route():
    rep = demo_isosceles(route="surface", M=128, lam=4 / 9, seed=2)
    row = rep.rows[0]
    assert row["gap_positive"]
    assert row["N"] >= 4 * 128 / 2


def test_demo_rows_are_rerun_identical(tmp_path):
    # wall time goes to meta, so same-seed reruns give equal rows; the
    # saved report loads back under the demo's stem
    for stem, run in (
        ("linear-eq", lambda out: demo_linear_equations(
            coeff_bound=1, M=128, lam=0.45, seed=2, trials=2, out_dir=out)),
        ("isosceles", lambda out: demo_isosceles(
            route="surface", M=64, lam=4 / 9, seed=1, out_dir=out)),
    ):
        out = str(tmp_path / stem)
        a, b = run(None), run(out)
        assert a.rows == b.rows
        assert all("runtime_s" not in row for row in a.rows)
        assert len(a.meta["runtime_s_per_trial"]) == len(a.rows)
        back = TrialReport.load(out, stem)
        assert back.rows == b.rows and back.meta == b.meta


def test_demo_isosceles_build_failure_raises(monkeypatch):
    # the demos record no trial errors: a failed build surfaces
    def failing_build(pattern, params):
        raise ConstructionFailure("no points survive")

    monkeypatch.setattr(hm, "build_surface", failing_build)
    with pytest.raises(ConstructionFailure, match="no points survive"):
        demo_isosceles(route="surface", M=64, lam=4 / 9, seed=1)


@pytest.fixture(scope="module")
def rough_isosceles_report():
    return demo_isosceles(route="rough", M=96, lam=0.4, seed=4)


def test_demo_isosceles_rough_route(rough_isosceles_report):
    rep = rough_isosceles_report
    row = rep.rows[0]
    assert row["gap_positive"]
    assert row["N"] >= 48
    for key, qs in rep.aggregate.items():
        if key.endswith("_quantiles"):
            assert not any(math.isnan(q) for q in qs.values()), key


@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md FOUND: the rough route's removal step keeps no point "
    "on the arc [0, ISO_EPSILON], so its gap is inf and gap_positive holds "
    "with no triple tested",
)
def test_demo_isosceles_rough_route_tests_a_triple(rough_isosceles_report):
    assert rough_isosceles_report.rows[0]["n_on_arc"] >= 3
