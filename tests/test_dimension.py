"""Tests for the box-counting and Fourier-decay dimension estimators."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from salemkit.dimension import box_dimension, fourier_dimension
from salemkit.measures import GridMeasure, mollifier_density, uniform_measure
from salemkit.sampler import WeightedConfiguration


def oracle_box_count(points, scale, thicken=0.0):
    """Brute-force reference count of occupied boxes."""
    g = int(round(1.0 / scale))
    hit = set()
    for c in np.ndindex(*(g,) * points.shape[1]):
        lo = np.array(c) / g
        hi = (np.array(c) + 1) / g
        for p in points:
            gap2 = 0.0
            for j in range(points.shape[1]):
                best = math.inf
                for shift in (-1.0, 0.0, 1.0):
                    a = lo[j] + shift - p[j]
                    b = p[j] - (hi[j] + shift)
                    best = min(best, max(a, b, 0.0))
                gap2 += best * best
            if math.sqrt(gap2) <= thicken * (1 + 1e-9):
                hit.add(c)
                break
    return len(hit)


# ------------------------------------------------------------------ box oracle


def test_box_counts_match_oracle():
    rng = np.random.default_rng(0)
    pts = rng.random((9, 2))
    from salemkit.dimension import _count_boxes

    for scale in (1 / 3, 1 / 5, 1 / 8):
        for thicken in (0.0, 0.07):
            assert _count_boxes(pts, scale, thicken) == oracle_box_count(
                pts, scale, thicken
            )


# --------------------------------------------------------------- box examples


def test_box_dimension_single_point():
    est = box_dimension([[0.3, 0.7]], scales=[1 / 4, 1 / 8, 1 / 16, 1 / 32])
    assert est.value == pytest.approx(0.0, abs=0.05)
    assert est.residual == pytest.approx(0.0, abs=1e-12)


def test_box_dimension_full_cube():
    g = 64
    xs = (np.arange(g) + 0.5) / g
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
    est = box_dimension(pts, scales=[1 / 4, 1 / 8, 1 / 16, 1 / 32])
    assert est.value == pytest.approx(2.0, abs=0.05)


def test_box_dimension_rasterized_hyperplane():
    # {x1 - 2 x2 + x3 = 0} in T^3, parametrized over (x2, x3)
    g = 256
    u = (np.arange(g) + 0.5) / g
    x2, x3 = np.meshgrid(u, u, indexing="ij")
    x1 = (2 * x2 - x3) % 1.0
    pts = np.stack([x1.ravel(), x2.ravel(), x3.ravel()], axis=1)
    est = box_dimension(pts, scales=[1 / 4, 1 / 8, 1 / 16, 1 / 32])
    assert est.value == pytest.approx(2.0, abs=0.15)


def test_box_dimension_translation_invariance():
    rng = np.random.default_rng(7)
    pts = rng.random((200, 1)) * 0.1  # clustered set
    scales = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    a = box_dimension(pts, scales)
    # 0.375 is a multiple of every scale: counts must match exactly
    b = box_dimension((pts + 0.375) % 1.0, scales)
    assert [r["count"] for r in a.table] == [r["count"] for r in b.table]
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_box_dimension_input_validation():
    with pytest.raises(ValueError):
        box_dimension([[0.5]], scales=[1 / 4, 1 / 8, 1 / 16])  # too few
    with pytest.raises(ValueError):
        box_dimension([[0.5]], scales=[1 / 8, 1 / 4, 1 / 16, 1 / 32])  # not decreasing


def test_estimators_refuse_inputs_with_nothing_to_measure():
    with pytest.raises(ValueError, match="empty point set"):
        box_dimension(np.zeros((0, 1)), scales=[1 / 4, 1 / 8, 1 / 16, 1 / 32])
    empty = WeightedConfiguration(np.zeros((0, 1)), np.zeros(0), radius_r=1e-3, lam=0.45)
    with pytest.raises(ValueError, match="no points"):
        fourier_dimension(empty)
    with pytest.raises(ValueError, match="G=1"):
        fourier_dimension(GridMeasure(np.ones(1)))


def test_box_dimension_refuses_scales_past_int64():
    # 1/scale = 1e20 boxes per axis cannot be indexed in int64: a clean
    # ValueError naming the scale, before any cast can warn or overflow
    r = 1e-20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="scale"):
            box_dimension([[0.25], [0.5]], scales=[16 * r, 8 * r, 4 * r, 2 * r, r], thicken=r)


def test_box_dimension_thickened_count_saturates_below_radius():
    # below the ball radius the union stops revealing new structure:
    # counts grow like the boundary, not like isolated points
    rng = np.random.default_rng(3)
    pts = rng.random((32, 1))
    r = 1 / 16
    fine = box_dimension(pts, scales=[1 / 8, 1 / 16, 1 / 32, 1 / 64], thicken=r)
    assert fine.value == pytest.approx(1.0, abs=0.1)  # balls cover the circle


def test_box_count_slack_stays_below_a_tiny_radius():
    # r = M^(-1/lam) = 9.0e-14 at lam = 0.3, M = 8192: an absolute slack of
    # 1e-12 would grow each ball to about 12 r and read a dimension of 0.05
    from salemkit.dimension import _count_boxes

    M, lam = 8192, 0.3
    r = M ** (-1 / lam)
    assert r < 1e-13
    assert _count_boxes(np.array([[0.5]]), r, r) <= 3
    pts = np.random.default_rng(0).random((M, 1))
    box = box_dimension(pts, scales=[16 * r, 8 * r, 4 * r, 2 * r, r], thicken=r)
    # a ball of radius r meets about 1 + 2/k boxes of side k r
    assert box.table[-1]["count"] <= 3 * M
    assert box.value == pytest.approx(math.log(8 / 3) / math.log(16), abs=0.01)


# ------------------------------------------------------------------ fourier


def test_fourier_dimension_one_atom():
    cfg = WeightedConfiguration(
        points=[[0.312]], weights=[1.0], radius_r=2.0**-12, lam=0.5
    )
    est = fourier_dimension(cfg)
    assert est.value == pytest.approx(0.0, abs=0.05)


def test_fourier_dimension_uniform_density_convention():
    est = fourier_dimension(uniform_measure(256))
    assert est.value == 1.0
    assert "convention" in est.notes


def test_fourier_dimension_mollified_uniform_config():
    # N = 4096 uniform points at lambda = 0.5: flat N^{-1/2} plateau
    rng = np.random.default_rng(42)
    N = 4096
    cfg = WeightedConfiguration(
        points=rng.random((N, 1)),
        weights=np.ones(N),
        radius_r=float(N) ** (-1 / 0.5),
        lam=0.5,
    )
    est = fourier_dimension(cfg)
    assert 0.4 <= est.value <= 0.6


def test_fourier_dimension_grid_bump_profile():
    # smooth bump: superpolynomial decay makes the per-annulus exponents
    # strictly increase across the window, so the minimum sits at its
    # low edge where the bump has not started decaying yet
    phi = mollifier_density(1 / 8, 2048)
    est = fourier_dimension(phi)
    exps = [row["s_j"] for row in est.table if row["j"] in est.notes["window"]]
    assert all(a < b for a, b in zip(exps, exps[1:]))
    assert est.value == pytest.approx(exps[0], abs=1e-12)


def test_fourier_dimension_table_and_window_reported():
    rng = np.random.default_rng(9)
    cfg = WeightedConfiguration(
        points=rng.random((1024, 1)),
        weights=np.ones(1024),
        radius_r=2.0**-14,
        lam=0.5,
    )
    est = fourier_dimension(cfg)
    assert est.kind == "fourier"
    assert len(est.notes["window"]) >= 4
    js = [row["j"] for row in est.table]
    assert js == sorted(js)
    d = est.to_dict()
    assert d["value"] == est.value


def test_fourier_dimension_stops_at_the_last_exact_annulus():
    # below r = 2^-52 the plan would reach |xi| >= 2^53, where integers are
    # no longer exact floats; the table stops at j = 52 and says so
    rng = np.random.default_rng(10)
    cfg = WeightedConfiguration(
        points=rng.random((64, 1)), weights=np.ones(64), radius_r=2.0**-70, lam=0.5
    )
    t0 = time.perf_counter()
    est = fourier_dimension(cfg)
    assert time.perf_counter() - t0 < 30
    assert est.table[-1]["j"] == 52 and est.notes["j_cap"] == 52
    cfg.radius_r = 2.0**-52
    assert "j_cap" not in fourier_dimension(cfg).notes


def test_fourier_dimension_of_a_config_has_bounded_memory():
    # N = 4096, r = 2^-23: fifteen sampled annuli of 256 frequencies.  The
    # ones below 2^17 share one NUFFT over 1..2^17 (a 2 MiB grid), the sums
    # above 2^17 are phase-screened in chunks of 2^18 pairs (6 MiB of
    # buffers; chunks of 2^20 pairs broke this bound), and the direct sums
    # that confirm the maxima take cache-sized chunks (12.7 MiB peak).
    # Direct sums alone, in chunks of 4M pairs, peaked at 40 MiB
    rng = np.random.default_rng(12)
    cfg = WeightedConfiguration(
        points=rng.random((4096, 1)), weights=rng.random(4096) + 0.5, radius_r=2.0**-23, lam=0.5
    )
    tracemalloc.start()
    try:
        est = fourier_dimension(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.table[-1]["j"] == 23 and est.table[-1]["sampled"]
    assert peak < 20 * 2**20


def test_fourier_below_box_ordering():
    # fordim <= box-dim (up to estimator tolerance) on a random config
    rng = np.random.default_rng(11)
    N = 2048
    pts = rng.random((N, 1))
    r = 2.0**-11
    cfg = WeightedConfiguration(
        points=pts, weights=np.ones(N), radius_r=r, lam=0.5
    )
    beta = fourier_dimension(cfg).value
    alpha = box_dimension(pts, scales=[16 * r, 8 * r, 4 * r, 2 * r, r], thicken=r).value
    assert beta <= alpha + 0.1


@pytest.mark.parametrize("d,G", [(2, 32), (3, 12)])
def test_fourier_grid_sups_equal_the_full_box(d, G):
    # reference: every nonzero xi of the (2 nyquist + 1)^d box with
    # |xi| <= nyquist, both signs; the plan takes one of each +-xi pair
    mu = GridMeasure(np.random.default_rng(d).random((G,) * d))
    nyq = mu.nyquist
    ax = np.arange(-nyq, nyq + 1)
    box = np.stack(np.meshgrid(*[ax] * d, indexing="ij"), axis=-1).reshape(-1, d)
    norm2 = (box**2).sum(axis=1)
    keep = (norm2 > 0) & (norm2 <= nyq * nyq)
    box, norm2 = box[keep], norm2[keep]
    mags = np.abs(mu.transform(box))
    est = fourier_dimension(mu)
    assert [row["j"] for row in est.table] == list(range(int(math.log2(nyq)) + 1))
    for row in est.table:
        j = row["j"]
        sel = (norm2 >= 4**j) & (norm2 < 4 ** (j + 1))
        assert 2 * row["n_evaluated"] == sel.sum() and not row["sampled"]
        assert row["sup"] == pytest.approx(mags[sel].max(), rel=1e-12)
