"""Tests for grid measures, mollification, and the perturbation step."""

import math
import re
import struct

import numpy as np
import pytest

from salemkit.cli import main
from salemkit.errors import ConstructionFailure, DegenerateOverlapError
from salemkit.measures import (
    GridMeasure,
    geometric_schedule,
    mollifier_density,
    perturb,
    salem_iterate,
    seminorm_diff,
    uniform_measure,
)
from salemkit.sampler import ConstructionParams, WeightedConfiguration
from salemkit.torus import load_sidecar
from naive_patterns import support_distance


def direct_transform(mu, xi):
    """Slow reference: explicit sum over cell centers."""
    idx = np.argwhere(np.ones_like(mu.density, dtype=bool))
    centers = (idx + 0.5) / mu.G
    masses = mu.density.reshape(-1) * mu.cell_volume
    phases = np.exp(-2j * math.pi * centers @ np.asarray(xi, dtype=float))
    return np.sum(masses * phases)


def bump_measure(G, center, width, d=1):
    """Normalized smooth-ish bump used as a test mu0."""
    x = (np.arange(G) + 0.5) / G
    off = (x - center + 0.5) % 1.0 - 0.5
    dens = np.exp(-0.5 * (off / width) ** 2)
    if d == 2:
        dens = dens[:, None] * dens[None, :]
    return GridMeasure(dens / dens.mean())


def uniform_config(N, seed, radius=1 / 64, d=1):
    rng = np.random.default_rng(seed)
    return WeightedConfiguration(
        points=rng.random((N, d)),
        weights=np.ones(N),
        radius_r=radius,
        lam=0.5,
    )


# ------------------------------------------------------------------ transform


def test_transform_matches_direct_summation_1d():
    rng = np.random.default_rng(1)
    mu = GridMeasure(rng.random(32))
    for xi in rng.integers(-15, 16, size=(20, 1)):
        if xi[0] == 0:
            continue
        fast = mu.transform(xi)[0]
        slow = direct_transform(mu, xi)
        assert abs(fast - slow) < 1e-9


def test_transform_matches_direct_summation_2d():
    rng = np.random.default_rng(2)
    mu = GridMeasure(rng.random((16, 16)))
    for xi in rng.integers(-7, 8, size=(10, 2)):
        fast = mu.transform(xi)[0]
        slow = direct_transform(mu, xi)
        assert abs(fast - slow) < 1e-9


def test_transform_at_zero_is_mass():
    mu = bump_measure(64, 0.3, 0.05)
    assert mu.transform([[0]])[0] == pytest.approx(mu.mass, abs=1e-12)


# ------------------------------------------------------------------- seminorm


def test_seminorm_of_uniform_density_is_zero():
    mu = uniform_measure(64)
    assert mu.seminorm(0.5, 16).value == pytest.approx(0.0, abs=1e-12)


def test_seminorm_one_cell_spike():
    dens = np.zeros(64)
    dens[10] = 64.0  # single cell of mass 1
    mu = GridMeasure(dens)
    sv = mu.seminorm(0.0, 16)
    assert sv.value == pytest.approx(1.0, abs=1e-12)


def test_seminorm_monotone_in_xi_max_and_nyquist_guard():
    rng = np.random.default_rng(3)
    mu = GridMeasure(rng.random(128))
    vals = [mu.seminorm(0.7, m).value for m in (4, 16, 64)]
    assert vals[0] <= vals[1] <= vals[2]
    with pytest.raises(ValueError):
        mu.seminorm(0.7, 65)


def test_seminorm_matches_oracle_scan():
    rng = np.random.default_rng(4)
    mu = GridMeasure(rng.random(32))
    best, arg = -1.0, None
    for k in range(-10, 11):
        if k == 0:
            continue
        v = abs(direct_transform(mu, [k])) * abs(k) ** 0.25
        if v > best:
            best, arg = v, k
    sv = mu.seminorm(0.5, 10)
    assert sv.value == pytest.approx(best, abs=1e-9)
    assert abs(sv.argmax[0]) == abs(arg)


def test_seminorm_diff_is_zero_for_identical_measures():
    mu = bump_measure(64, 0.5, 0.07)
    assert seminorm_diff(mu, mu, 0.5, 16).value == 0.0


def test_seminorm_diff_checks_the_box_like_seminorm():
    mu = bump_measure(64, 0.5, 0.07)
    for scan in (lambda m: mu.seminorm(0.5, m), lambda m: seminorm_diff(mu, mu, 0.5, m)):
        with pytest.raises(ValueError, match="xi_max must be >= 1"):
            scan(0)
        with pytest.raises(ValueError, match="Nyquist"):
            scan(33)


# ------------------------------------------------------------------ mollifier


def test_mollifier_mass_and_zero_frequency():
    phi = mollifier_density(1 / 16, 1024)
    assert phi.mass == pytest.approx(1.0, abs=1e-12)
    assert phi.transform([[0]])[0] == pytest.approx(1.0, abs=1e-12)


def test_mollifier_support_within_radius():
    r = 1 / 16
    phi = mollifier_density(r, 2048)
    x = (np.arange(2048) + 0.5) / 2048
    dist = np.minimum(x, 1 - x)
    # phi(x) = 0 for |x| >= 2r/5 < r
    assert np.all(phi.density[dist >= r] == 0)


def test_mollifier_under_resolved_rejected():
    with pytest.raises(ValueError):
        mollifier_density(1 / 64, 64)


def test_mollifier_decay_normalization_stable():
    # sup |phi_r^(xi)| |xi|^T r^T over 2/r <= xi <= 8/r varies < 2x in r
    G = 16384
    for T in (2, 4):
        sups = []
        for k in (4, 5, 6, 7):
            r = 2.0**-k
            phi = mollifier_density(r, G)
            lo, hi = int(np.ceil(2 / r)), int(np.floor(8 / r))
            xi = np.arange(lo, hi + 1)[:, None]
            mags = np.abs(phi.transform(xi))
            sups.append(np.max(mags * xi[:, 0].astype(float) ** T) * r**T)
        assert max(sups) / min(sups) < 2.0


def test_mollifier_2d_mass():
    phi = mollifier_density(1 / 8, 128, d=2)
    assert phi.mass == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- file format


def test_sfgm_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    mu = GridMeasure(rng.random((16, 16)))
    path = tmp_path / "m.sfgm"
    mu.save(path, provenance={"note": "test"})
    back = GridMeasure.load(path)
    np.testing.assert_array_equal(back.density, mu.density)
    assert back.d == 2 and back.G == 16
    side = load_sidecar(path)
    assert side["mass"] == pytest.approx(mu.mass)
    assert side["provenance"]["note"] == "test"


def test_sfgm_header_layout(tmp_path):
    mu = uniform_measure(8)
    path = tmp_path / "m.sfgm"
    mu.save(path)
    raw = path.read_bytes()
    assert raw[:4] == b"SFGM"
    assert np.frombuffer(raw[4:12], dtype="<i4").tolist() == [1, 8]
    assert len(raw) == 12 + 8 * 8


@pytest.mark.parametrize(
    "raw, named",
    [
        (b"NOPE" + struct.pack("<ii", 1, 8) + bytes(64), "bad magic"),
        (b"SFGM" + struct.pack("<ii", 40, 2) + bytes(64), "d=40, G=2"),
        (b"SFGM" + struct.pack("<ii", -1, 2) + bytes(64), "d=-1, G=2"),
        (b"SFGM" + struct.pack("<ii", 1, 0) + bytes(64), "d=1, G=0"),
        (b"SFGM" + struct.pack("<ii", 1, 16) + bytes(64), "d=1, G=16"),
        (b"SFGM" + struct.pack("<i", 1), "truncated header"),
    ],
    ids=["magic", "d40", "d-1", "G0", "truncated", "short-header"],
)
def test_sfgm_bad_magic(tmp_path, capsys, raw, named):
    # refused from the file's size, before anything of G^d cells is
    # allocated, with the header named; the CLI reads it as an input error
    path = tmp_path / "bad.sfgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=re.escape(named)):
        GridMeasure.load(path)
    assert main(["estimate-dim", "--config", str(path)]) == 2
    assert named in capsys.readouterr().err


# -------------------------------------------------------------------- perturb


def test_perturb_single_point_bump():
    G = 512
    mu0 = bump_measure(G, 0.5, 0.1)
    peak = (np.argmax(mu0.density) + 0.5) / G
    cfg = WeightedConfiguration(
        points=[[peak]], weights=[1.0], radius_r=1 / 32, lam=0.5
    )
    mu, diag = perturb(mu0, cfg, gamma=0.5)
    assert mu.mass == pytest.approx(1.0, abs=1e-9)
    # support is the localized product: within r_eff + one cell of the point
    x = (np.arange(G) + 0.5) / G
    dist = np.abs((x - peak + 0.5) % 1.0 - 0.5)
    assert np.all(mu.density[dist > diag["r_eff"] + 1.0 / G] == 0)
    assert diag["triangle_chain_ok"]


def test_perturb_deviation_decreases_with_density_of_points():
    mu0 = uniform_measure(1024)
    devs = []
    for N in (256, 1024, 4096):
        cfg = uniform_config(N, seed=100 + N)
        _, diag = perturb(mu0, cfg, gamma=0.5, xi_max=256)
        devs.append(diag["mu_deviation"]["value"])
    assert devs[0] > devs[1] > devs[2]


def test_perturb_bound_ratio_logged_and_finite():
    mu0 = bump_measure(1024, 0.4, 0.08)
    cfg = uniform_config(512, seed=7)
    _, diag = perturb(mu0, cfg, gamma=0.5, xi_max=256)
    assert np.isfinite(diag["ratio_K"]) and diag["ratio_K"] > 0


def test_perturb_degenerate_overlap():
    G = 512
    dens = np.zeros(G)
    dens[:16] = G / 16.0  # mu0 lives in [0, 1/32)
    mu0 = GridMeasure(dens)
    cfg = WeightedConfiguration(
        points=[[0.5]], weights=[1.0], radius_r=1 / 64, lam=0.5
    )
    with pytest.raises(DegenerateOverlapError):
        perturb(mu0, cfg, gamma=0.5)


def test_perturb_support_contained_in_mu0_support():
    G = 1024
    mu0 = bump_measure(G, 0.3, 0.05)
    cfg = uniform_config(256, seed=11, radius=1 / 64)
    mu, _ = perturb(mu0, cfg, gamma=0.5, xi_max=128)
    assert np.all(mu.density[mu0.density == 0] == 0)


# ----------------------------------------------------------- support distance


def test_support_distance_identity_and_errors():
    mu = bump_measure(512, 0.5, 0.05)
    assert support_distance(mu, mu, 0.5) == 0.0
    with pytest.raises(ValueError):
        support_distance(mu, mu, -1.0)
    empty_at_threshold = uniform_measure(64)
    with pytest.raises(ValueError):
        # uniform density never exceeds 2x its own mean
        support_distance(empty_at_threshold, mu, 2.0)


def test_support_distance_disjoint_bumps():
    G = 2048
    a = bump_measure(G, 0.2, 0.01)
    b = bump_measure(G, 0.5, 0.01)
    dist = support_distance(a, b, 1.0)
    assert dist == pytest.approx(0.3, abs=0.02)


# -------------------------------------------------------------- salem_iterate


def _empty_pattern():
    from salemkit.patterns import TranslationalPattern
    from salemkit.torus import Cube

    side = 1.0 / (2 * 2 * 16)
    cubes = [Cube([c - side / 2], side) for c in (1 / 6, 1 / 2, 5 / 6)]
    return TranslationalPattern(
        d=1, n=3, a=2, period_m=16,
        T=lambda x: np.empty(np.asarray(x).shape[:-1] + (0, 1)),
        lipschitz=0.0, cubes=cubes,
    )


def test_geometric_schedule_radii_decay():
    from salemkit.sampler import derive_radius

    p0 = ConstructionParams(M=128, lam=0.5, seed=1)
    sched = geometric_schedule(p0, 3, factor=8.0)
    radii = [derive_radius(p.M, p.lam) for p in sched]
    assert radii[0] > radii[1] > radii[2]
    assert radii[0] / radii[1] == pytest.approx(8.0, rel=0.1)


def test_geometric_schedule_keeps_construction_knobs():
    p0 = ConstructionParams(
        M=64, lam=0.5, seed=3, delta=0.5, kappa=0.1, separation_s=1e-4,
        filter_scale=0.02, removal_budget=5.0,
    )
    sched = geometric_schedule(p0, 3, factor=4.0)
    assert [p.seed for p in sched] == [3, 4, 5]
    assert sched[0].M == 64 and sched[1].M > 64
    for p in sched:
        assert (p.lam, p.delta, p.kappa, p.separation_s) == (0.5, 0.5, 0.1, 1e-4)
        assert p.filter_scale == 0.02 and p.removal_budget == 5.0


def test_salem_iterate_empty_pattern_two_stages():
    pat = _empty_pattern()
    sched = geometric_schedule(
        ConstructionParams(M=96, lam=0.5, seed=5), 2, factor=8.0
    )
    traj = salem_iterate(pat, sched, G=512, gamma=0.5)
    assert len(traj) == 2
    for rec in traj:
        assert rec["measure"].mass == pytest.approx(1.0, abs=1e-9)
        assert np.all(rec["measure"].density >= 0)
    assert traj[1]["radius"] < traj[0]["radius"]


def test_salem_iterate_rejects_nondecreasing_radii():
    pat = _empty_pattern()
    p = ConstructionParams(M=96, lam=0.5, seed=5)
    with pytest.raises(ValueError):
        salem_iterate(pat, [p, p], G=256, gamma=0.5)
