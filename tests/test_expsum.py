import cmath
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from salemkit import expsum
from salemkit.expsum import (
    _SUPS_CAP,
    _SUPS_SAMPLES,
    _canonical_lattice_shell,
    _decay,
    _direct_sum,
    _phase_screen_1d,
    _prefix_groups,
    _screen_1d,
    _separable_sum,
    _subsample_annulus,
    _sweep_plan,
    calibrate_constant,
    config_annulus_sups,
    frequency_plan,
    plan_magnitudes,
    sweep,
    weighted_exp_sum,
)


def oracle_exp_sum(points, weights, xi):
    """Compensated-summation reference via math.fsum."""
    points = np.atleast_2d(points)
    N = len(points)
    re = math.fsum(
        w * math.cos(2 * math.pi * float(np.dot(xi, p)))
        for p, w in zip(points, weights)
    )
    im = math.fsum(
        w * math.sin(2 * math.pi * float(np.dot(xi, p)))
        for p, w in zip(points, weights)
    )
    return complex(re, im) / N


def loop_exp_sum(points, weights, xi):
    """Reference: one complex exponential per point, accumulated point by point."""
    points = np.atleast_2d(points)
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    weights = np.ones(len(points)) if weights is None else weights
    acc = np.zeros(len(xi), dtype=complex)
    for p, w in zip(points, weights):
        acc += w * np.exp(2j * np.pi * ((xi @ p) % 1.0))
    return acc / len(points)


def test_exp_sum_matches_fsum_oracle():
    rng = np.random.default_rng(1)
    for d in (1, 2):
        pts = rng.random((257, d))
        ws = rng.random(257) + 0.5
        xi = rng.integers(-50, 50, size=(20, d))
        xi = xi[np.any(xi != 0, axis=1)]
        got = weighted_exp_sum(pts, ws, xi)
        want = [oracle_exp_sum(pts, ws, v) for v in xi]
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_exp_sum_zero_frequency_is_mean_weight():
    rng = np.random.default_rng(2)
    pts = rng.random((100, 1))
    ws = rng.random(100)
    got = weighted_exp_sum(pts, ws, np.array([0]))
    assert got == pytest.approx(ws.mean(), abs=1e-14)


def test_exp_sum_conjugate_symmetry():
    rng = np.random.default_rng(3)
    pts = rng.random((64, 2))
    ws = rng.random(64)
    xi = rng.integers(-30, 30, size=(10, 2))
    s_pos = weighted_exp_sum(pts, ws, xi)
    s_neg = weighted_exp_sum(pts, ws, -xi)
    np.testing.assert_allclose(s_neg, np.conj(s_pos), atol=1e-12)


def test_exp_sum_single_atom():
    # one point of weight N at x: |S(xi)| = 1 for every xi
    pts = np.full((8, 1), 0.3125)
    s = weighted_exp_sum(pts, None, np.arange(1, 40)[:, None])
    np.testing.assert_allclose(np.abs(s), 1.0, atol=1e-12)


def _mags(points, weights, freqs):
    """|weighted_exp_sum| at the integers ``freqs`` (d = 1)."""
    x = np.asarray(points, dtype=float).reshape(-1, 1)
    return np.abs(weighted_exp_sum(x, weights, np.asarray(freqs).reshape(-1, 1)))


def _full_direct(points, weights, K):
    """|S(xi)| for xi = 1..K (d = 1), every entry a direct sum."""
    return _mags(points, weights, np.arange(1, K + 1))


@pytest.mark.parametrize("N", [7, 300, 8144])
def test_direct_sums_have_the_same_bits_in_any_batch(N, monkeypatch):
    # a confirmed frequency must get the bits of the full 1..K evaluation
    # whether it is evaluated alone, with a few others or in any order;
    # so must a frequency of an annulus far beyond any sweep range.  A d = 1
    # chunk holds _TABLE_ENTRIES // 64 (xi, point) pairs: each phase is one
    # rounded product, so the chunk moves no bit either, from one pair a
    # chunk to every frequency in one chunk.
    rng = np.random.default_rng(N)
    x, a = rng.random(N), rng.random(N) + 0.5
    K = 2000
    for freqs in (np.arange(1, K + 1), _subsample_annulus(1, 2.0**29, 2.0**30, 256)[:, 0]):
        full = _mags(x, a, freqs)
        for i in rng.integers(0, len(freqs), size=20):
            assert _mags(x, a, freqs[i : i + 1])[0] == full[i], freqs[i]
        for size in (2, 3, 17, 200):
            sub = rng.choice(len(freqs), size=size, replace=False)
            assert np.array_equal(_mags(x, a, freqs[sub]), full[sub]), size
        for entries in (1, 7, 2**16, 10**8):
            monkeypatch.setattr(expsum, "_TABLE_ENTRIES", 64 * entries)
            assert np.array_equal(_mags(x, a, freqs[:500]), full[:500]), entries
        monkeypatch.undo()
    # and they are the compensated sums, to rounding
    xi = rng.integers(1, K + 1, size=5)
    want = [abs(oracle_exp_sum(x[:, None], a, [k])) for k in xi]
    np.testing.assert_allclose(_mags(x, a, xi), want, rtol=0, atol=1e-12)


def test_sweep_report_structure_and_pass():
    rng = np.random.default_rng(6)
    pts = rng.random((512, 1))
    rep = sweep(pts, None, lam=0.45, C=2.0, delta=1.0)
    assert rep.N == 512 and rep.d == 1
    assert rep.xi_max == int(math.ceil(512**1.2))
    assert rep.passed and rep.n_violations == 0
    # annuli tile 1..xi_max dyadically
    assert rep.annuli[0].lo == 1.0 and rep.annuli[0].n_evaluated == 1
    total = sum(a.n_evaluated for a in rep.annuli)
    assert total == rep.xi_max
    assert not any(a.sampled for a in rep.annuli)


def test_sweep_detects_atomic_failure():
    # all mass at one point: no cancellation at all, every annulus fails
    pts = np.full((256, 1), 0.5)
    rep = sweep(pts, None, lam=0.45, C=2.0, delta=1.0)
    assert not rep.passed
    assert rep.n_violations > 0
    assert rep.sup_overall == pytest.approx(1.0, abs=1e-9)


def test_sweep_verdict_monotone_in_C():
    rng = np.random.default_rng(7)
    pts = rng.random((256, 1))
    viol = [
        sweep(pts, None, lam=0.45, C=c, delta=0.0).n_violations
        for c in (0.1, 0.5, 1.0, 3.0)
    ]
    assert viol == sorted(viol, reverse=True)


def _bounding_box_shell(d, lo, hi):
    """The shell as first written: mask the full (2r+1)^d box."""
    r = int(math.ceil(hi))
    axes = [np.arange(-r, r + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    norm2 = (grid.astype(float) ** 2).sum(axis=1)
    grid = grid[(norm2 >= lo * lo) & (norm2 < hi * hi)]
    first_nonzero = np.zeros(len(grid), dtype=bool)
    canon = np.zeros(len(grid), dtype=bool)
    for j in range(d):
        col = grid[:, j]
        canon |= ~first_nonzero & (col > 0)
        first_nonzero |= col != 0
    return grid[canon]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_canonical_shell_equals_bounding_box_enumeration(d):
    pairs = [
        (0.0, 1.0), (0.0, 3.5), (1.0, 2.0), (2.0, 4.0), (3.7, 9.2),
        (5.0, 5.0), (6.0, 4.0), (0.5, 0.9), (16.0, 32.0), (31.9, 40.3),
        (math.sqrt(50), math.sqrt(51)),
    ]
    if d < 3:
        pairs += [(128.0, 256.0), (256.0, 335.0)]
    for lo, hi in pairs:
        got = _canonical_lattice_shell(d, lo, hi)
        want = _bounding_box_shell(d, lo, hi)
        assert got.dtype == want.dtype and got.shape == want.shape, (lo, hi)
        assert np.array_equal(got, want), (lo, hi)


@pytest.mark.parametrize("d,lo,hi", [(3, 6.0, 11.0), (4, 3.0, 5.5)])
def test_prefix_groups_equal_lexicographic_row_grouping(d, lo, hi):
    shell = _canonical_lattice_shell(d, lo, hi)
    rng = np.random.default_rng(d)
    for xi in (shell, -shell, shell[rng.permutation(len(shell))], shell[::3]):
        want, want_of = np.unique(xi[:, :-1], axis=0, return_inverse=True)
        got, got_of = _prefix_groups(xi[:, :-1])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_of, want_of.reshape(-1))


def test_canonical_shell_counts_and_symmetry():
    # d=2, annulus 2 <= |xi| < 4: count against a plain double loop
    shell = _canonical_lattice_shell(2, 2.0, 4.0)
    want = []
    for p in range(-4, 5):
        for q in range(-4, 5):
            if 4 <= p * p + q * q < 16 and (p > 0 or (p == 0 and q > 0)):
                want.append((p, q))
    assert {tuple(v) for v in shell} == set(want)


def test_d2_sweep_exhaustive_agreement_with_subsample_off():
    rng = np.random.default_rng(8)
    pts = rng.random((64, 2))
    ws = rng.random(64)
    # a plan without a cap holds every shell in full; its evaluator must
    # agree with a point-by-point evaluation of the whole shell
    plan = frequency_plan(2, range(3, 6), math.inf)
    seen = []
    for j, lo, hi, xi, sampled, mags in plan_magnitudes(plan, pts, ws)[1]:
        shell = _canonical_lattice_shell(2, float(2**j), float(2 ** (j + 1)))
        assert not sampled and np.array_equal(xi, shell)
        brute = float(np.abs(loop_exp_sum(pts, ws, xi)).max())
        assert float(mags.max()) == pytest.approx(brute, abs=1e-12)
        seen.append(j)
    assert seen == [3, 4, 5]


def test_plan_refuses_annuli_beyond_2_53():
    # beyond 2^53 integers are no longer exact floats, and the shell's
    # integer root search would not settle
    with pytest.raises(ValueError, match="2\\^53"):
        list(frequency_plan(1, [53], math.inf, _SUPS_CAP, _SUPS_SAMPLES))
    ((j, lo, hi, xi, sampled),) = frequency_plan(1, [52], math.inf, _SUPS_CAP, _SUPS_SAMPLES)
    assert (j, lo, hi, sampled) == (52, 2.0**52, 2.0**53, True)
    assert len(xi) == _SUPS_SAMPLES


@pytest.mark.parametrize("d", [2, 3, 4])
def test_shell_cap_refuses_exactly_the_shells_over_it(d):
    # the shell is refused at its first coordinate stage over the cap; for
    # dyadic annuli, whole or clipped to width 1, no earlier stage may
    # refuse a shell that fits
    pairs = [(1, 2), (2, 4), (4, 8), (8, 9), (8, 16), (16, 17), (16, 19)]
    if d < 4:
        pairs += [(32, 33), (32, 64)]
    for lo, hi in pairs:
        full = _canonical_lattice_shell(d, float(lo), float(hi))
        for cap in (len(full) - 1, len(full)):
            got = _canonical_lattice_shell(d, float(lo), float(hi), cap)
            if len(full) > cap:
                assert got is None, (lo, hi, cap)
            else:
                assert np.array_equal(got, full), (lo, hi, cap)


@pytest.mark.parametrize("d,full_through", [(1, 8), (2, 3), (3, 1), (4, 0)])
def test_configuration_plan_keeps_the_box_rule_decisions(d, full_through):
    # the cap reproduces the rule the configuration sups used before the
    # plan: full while the (2 hi + 1)^d box held at most 2048 points (d >= 2),
    # or while the annulus held at most 256 integers (d = 1)
    plan = frequency_plan(d, range(12), math.inf, _SUPS_CAP, _SUPS_SAMPLES)
    for j, lo, hi, xi, sampled in plan:
        assert sampled == (j > full_through), j
        if sampled:
            assert np.array_equal(xi, _subsample_annulus(d, lo, hi, _SUPS_SAMPLES, salt=j))
        else:
            assert np.array_equal(xi, _canonical_lattice_shell(d, lo, hi))


def test_d2_sweep_plan_memory_is_bounded():
    # the j = 12 shell alone holds 79M canonical frequencies (1.26 GB as
    # int64); the plan refuses it from its count and subsamples instead
    tracemalloc.start()
    try:
        plan = list(_sweep_plan(2, 2**13))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert [j for j, *_ in plan] == list(range(14))
    # the top annulus 8192 <= |xi| < 8193 is thin enough (25784
    # frequencies) to be enumerated in full
    assert [s for *_, s in plan] == [False] * 8 + [True] * 5 + [False]
    assert all(len(xi) <= 2**16 for *_, xi, s in plan if s)


def test_calibration_uses_the_sweep_statistic():
    # d = 2, N = 200: xi_max = 578 and the j = 8 shell (309k frequencies) is
    # over the sweep's cap, so the pilot statistic must come from the same
    # subsample the sweep evaluates
    N, lam = 200, 0.9
    _, values = calibrate_constant(N, 2, lam=lam, trials=8, seed=0)
    for t, value in enumerate(values):
        pts = np.random.default_rng(np.random.Philox(key=t)).random((N, 2))
        rep = sweep(pts, None, lam=lam, C=0.0)
        assert rep.xi_max == 578 and rep.annuli[8].sampled
        stat = max(a.worst_excess for a in rep.annuli)
        assert stat > 0  # worst_excess is clipped at zero
        assert value == stat * (math.sqrt(N) / math.log(N)), t


def test_sweep_records_the_binding_term():
    rng = np.random.default_rng(14)
    pts = rng.random((512, 1))
    mags = _full_direct(pts, None, int(math.ceil(512**1.2)))
    for C in (-0.3656, 0.5, 2.0):
        rep = sweep(pts, None, lam=0.45, C=C)
        constant = C * 512**-0.5 * math.log(512)
        for a in rep.annuli:
            xi = np.arange(int(a.lo), int(a.hi))
            decay = xi.astype(float) ** (-0.45 / 2.0)
            w = int(np.argmax(mags[xi - 1] - (constant + decay)))
            assert a.binding == ("constant" if constant > decay[w] else "decay")
        assert ("binding" in rep.notes) == (C <= 0)
    # at C = 2 the constant term takes over from the decay term at j = 4
    bindings = [a.binding for a in sweep(pts, None, lam=0.45, C=2.0).annuli]
    assert bindings == ["decay"] * 4 + ["constant"] * (len(bindings) - 4)


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _parent_fields(report):
    """A sweep report as the reference digests saw it: without the
    per-annulus ``binding`` key and the ``evaluation`` note, which those
    reports did not carry yet."""
    for a in report["annuli"]:
        del a["binding"]
    del report["notes"]["evaluation"]
    return report


# sha256 of the JSON (sorted keys) of each result, taken before the sweep,
# calibration and dimension paths shared one frequency plan; the plan must
# reproduce every one of them bit for bit.  The "d1 sweep" and "d1 calibration"
# digests were retaken when the direct sum replaced the phase recurrence as
# the exact reference, and the "d1 sweep" and "d1 config fourier" digests
# when every direct sum came to be reduced row by row: only their floats
# moved, in the last bits.  "d1 config fourier, sampled" was taken while
# every sampled d = 1 annulus still took direct sums alone.  The "d1 sweep"
# and "d2 sweep" digests were retaken once more when the reports' constant
# ``threads`` note went: the JSON lost that key and nothing else.
ORACLE = {
    "d1 sweep": "ca7b396bfc88082a9350f168a0f9d601eaf80157e22717f3618441b8bdb62e5b",
    "d1 calibration": "3175c6f6e305f7c21f2e5345cf17737ec4794b1d231066e5e073348c7cb7a6d4",
    "d1 config fourier": "9c704654808e5894222a6cf69f52cbe8d17978cf1398f7db3c3d6354b3a0f280",
    "d1 grid fourier": "f04962f52c98e99aab3bdd3a802226e0358eafe63d6d49f4546f4f2c969eac1d",
    "d2 config fourier": "c48e91b056759a04164c8e04f75bc3b421d7f285c39ef54d258d1e33f1120b54",
    "d2 sweep": "b6515ab2d7e64f04d6f41651cccc571a80a14bc0abcd79aa718f29569cf25843",
    "d1 config fourier, sampled": "eb899a1a42360b1a27870c599565fff5f341ef9447393f50fbf839489676a676",
}


def test_refactoring_oracle():
    from salemkit.dimension import fourier_dimension
    from salemkit.measures import GridMeasure
    from salemkit.sampler import WeightedConfiguration

    rng = np.random.default_rng(2024)
    got = {}
    pts1 = rng.random((300, 1))
    ws1 = rng.random(300) + 0.5
    got["d1 sweep"] = _parent_fields(sweep(pts1, ws1, lam=0.45, C=1.5, xi_max=9000).to_dict())
    C, vals = calibrate_constant(128, 1, lam=0.45, weights=ws1[:128], trials=3, seed=5)
    got["d1 calibration"] = [C] + [float(v) for v in vals]
    cfg1 = WeightedConfiguration(
        points=rng.random((1024, 1)),
        weights=rng.random(1024) + 0.5,
        radius_r=2.0**-12,
        lam=0.5,
    )
    got["d1 config fourier"] = fourier_dimension(cfg1).to_dict()
    got["d1 grid fourier"] = fourier_dimension(GridMeasure(rng.random(512))).to_dict()
    cfg2 = WeightedConfiguration(
        points=rng.random((200, 2)),
        weights=rng.random(200) + 0.5,
        radius_r=2.0**-7,
        lam=0.9,
    )
    got["d2 config fourier"] = fourier_dimension(cfg2).to_dict()
    # N = 120: xi_max = 312, every d = 2 shell within the sweep's cap
    pts2 = rng.random((120, 2))
    ws2 = rng.random(120) * 2
    got["d2 sweep"] = _parent_fields(sweep(pts2, ws2, lam=0.9, C=1.0).to_dict())
    # r = 2^-23: the annuli j = 9..23 are sampled, on both sides of the
    # d = 1 screen's top 2^17
    cfg3 = WeightedConfiguration(
        points=rng.random((4096, 1)),
        weights=rng.random(4096) + 0.5,
        radius_r=2.0**-23,
        lam=0.5,
    )
    got["d1 config fourier, sampled"] = fourier_dimension(cfg3).to_dict()
    assert {k: _digest(v) for k, v in got.items()} == ORACLE


def _frequency_cases():
    shell2 = _canonical_lattice_shell(2, 16.0, 32.0)
    return {
        "d2 dense shell": (2, shell2),
        "d2 strided shell": (2, shell2[::3]),
        "d2 negative last coordinates": (2, -shell2[shell2[:, 1] > 0]),
        "d3 shell": (3, _canonical_lattice_shell(3, 4.0, 8.0)),
        "d2 single frequency": (2, np.array([[5, -7]])),
        "d2 subsample": (2, _subsample_annulus(2, 4096.0, 8192.0, 512, salt=12)),
    }


@pytest.mark.parametrize("case", list(_frequency_cases()))
@pytest.mark.parametrize("weighted", [True, False])
def test_exp_sum_matches_point_loop(case, weighted):
    d, xi = _frequency_cases()[case]
    rng = np.random.default_rng(10)
    pts = rng.random((97, d))
    ws = rng.random(97) + 0.5 if weighted else None
    got = weighted_exp_sum(pts, ws, xi)
    np.testing.assert_allclose(got, loop_exp_sum(pts, ws, xi), rtol=0, atol=1e-12)
    w = np.ones(97) if ws is None else ws
    if case == "d2 subsample":
        # too sparse for the phase tables: stays on the direct path
        assert _separable_sum(pts, w, xi.astype(float)) is None
        assert np.array_equal(got, _direct_sum(pts, w, xi.astype(float)) / 97)
    else:
        assert _separable_sum(pts, w, xi.astype(float)) is not None


def test_weights_of_the_wrong_length_raise():
    # one weight for 500 points would broadcast, and the sweep's screen
    # would take its error bound eps from that one weight
    pts = np.random.default_rng(14).random((500, 1))
    for ws in ([1.0], np.ones(499), np.ones((500, 1))):
        shape = re.escape(str(np.shape(ws)))
        with pytest.raises(ValueError, match=shape + r".*\(500, 1\)"):
            weighted_exp_sum(pts, ws, np.arange(1, 5)[:, None])
        with pytest.raises(ValueError, match=shape + r".*\(500, 1\)"):
            sweep(pts, ws, lam=0.45, C=1.0)
    with pytest.raises(ValueError, match=r"\(1,\).*\(40, 2\)"):
        sweep(pts[:80].reshape(40, 2), [1.0], lam=0.9, C=1.0, xi_max=20)


def test_exp_sum_blocks_agree_with_point_loop(monkeypatch):
    # tables of at most 600 entries force several prefix and last-coordinate
    # blocks, some of them empty
    monkeypatch.setattr(expsum, "_TABLE_ENTRIES", 600)
    rng = np.random.default_rng(11)
    for d, lo, hi in ((2, 20.0, 40.0), (3, 5.0, 9.0)):
        pts = rng.random((50, d))
        ws = rng.random(50)
        xi = _canonical_lattice_shell(d, lo, hi)
        got = weighted_exp_sum(pts, ws, xi)
        np.testing.assert_allclose(got, loop_exp_sum(pts, ws, xi), rtol=0, atol=1e-12)


def test_exp_sum_d2_shell_memory_is_blocked():
    # d=2 shell 256 <= |xi| < 512 (309k frequencies) at N=1024.  One
    # unblocked N x K phase table would take 1024 * 309k * 16 B = 5 GB; the
    # direct sum in 4M-entry chunks peaks at about 160 MB, the phase tables
    # (A: N x 512, E: N x 1023, S: 512 x 1023) with their temporaries at
    # about 65 MB.
    rng = np.random.default_rng(12)
    pts = rng.random((1024, 2))
    ws = rng.random(1024)
    xi = _canonical_lattice_shell(2, 256.0, 512.0)
    tracemalloc.start()
    try:
        weighted_exp_sum(pts, ws, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_d2_sweep_is_deterministic_across_reruns():
    rng = np.random.default_rng(13)
    pts = rng.random((120, 2))
    ws = rng.random(120) * 2
    runs = [sweep(pts, ws, lam=0.9, C=1.0).to_dict() for _ in range(2)]
    assert runs[0] == runs[1]


def test_uniform_points_show_sqrt_cancellation():
    rng = np.random.default_rng(9)
    N = 2048
    pts = rng.random((N, 1))
    mags = _full_direct(pts, None, 4096)
    # sup over the range should be a small multiple of N^-1/2
    ratio = mags.max() * math.sqrt(N)
    assert 1.0 < ratio < 8.0


def test_calibrate_constant_reasonable_and_deterministic():
    C1, vals1 = calibrate_constant(256, 1, lam=0.45, trials=8, seed=3)
    C2, vals2 = calibrate_constant(256, 1, lam=0.45, trials=8, seed=3)
    assert C1 == C2 and np.array_equal(vals1, vals2)
    # can be negative when the delta-term alone covers the sup
    assert -10.0 < C1 < 10.0
    # with delta=0 the statistic is the raw sup scaled: strictly larger,
    # and necessarily positive
    C3, _ = calibrate_constant(256, 1, lam=0.45, delta=0.0, trials=8, seed=3)
    assert C3 > max(C1, 0.0)


def test_prefix_groups_refuse_keys_beyond_int64():
    # two prefix columns spanning 2**40 each need an 81-bit key: the
    # caller falls back to the direct sum
    head = np.array([[0.0, 0.0], [2.0**40, 2.0**40]])
    assert _prefix_groups(head) is None
    xi = np.concatenate([head, [[1.0], [2.0]]], axis=1)
    assert _separable_sum(np.zeros((2, 3)), np.ones(2), xi) is None


def _screen_cases():
    """(x, a) inputs for the d = 1 screen, N up to 8192."""
    rng = np.random.default_rng(15)
    x = rng.random(8192)
    ends = x[:1000].copy()
    ends[:3] = 0.0
    ends[3:6] = 1.0 - 2.0**-53
    signed = rng.standard_normal(3000)
    signed[::7] = 0.0
    return {
        "unit weights": (x, np.ones(8192)),
        "random weights": (x[:3000], rng.random(3000) + 0.5),
        "zero weights": (x[:500], np.zeros(500)),
        "negative and zero weights": (x[:3000], signed),
        "points at 0 and 1 - 2^-53": (ends, rng.random(1000)),
        "all points equal": (np.full(700, 0.3125), rng.random(700)),
        "lattice k/64": ((np.arange(2000) % 64) / 64.0, np.ones(2000)),
    }


@pytest.mark.parametrize("K", [1, 1000, 12411])
@pytest.mark.parametrize("case", list(_screen_cases()))
def test_screen_honours_its_bound(case, K):
    # the screen is within eps of the direct sum at every frequency
    x, a = _screen_cases()[case]
    mags, eps = _screen_1d(x, a, K)
    want = _full_direct(x, a, K)
    assert mags.shape == want.shape
    assert np.abs(mags - want).max() <= eps
    # and the bound is tight enough to screen with
    assert eps <= 1e-9 * np.abs(a).sum() / len(x)


@pytest.mark.parametrize("j", [17, 22, 40, 52])
@pytest.mark.parametrize("case", list(_screen_cases()))
def test_phase_screen_honours_its_bound(case, j):
    # on sampled annuli up to the last whose integers are exact floats, the
    # phase screen is within eps of the direct sum at every frequency
    x, a = _screen_cases()[case]
    ((_, _, _, xi, sampled),) = frequency_plan(1, [j], math.inf, _SUPS_CAP, _SUPS_SAMPLES)
    mags, eps = _phase_screen_1d(x, a, xi[:, 0].astype(float))
    want = np.abs(weighted_exp_sum(x[:, None], a, xi))
    assert sampled and mags.shape == want.shape
    assert np.abs(mags - want).max() <= eps
    # and the bound is tight enough to screen with
    assert eps <= 2e-6 * np.abs(a).sum() / len(x)


def _reference_sweep(points, weights, lam, C, xi_max, delta=1.0):
    """The per-annulus statistics of a d = 1 sweep, from direct sums over
    every annulus of its plan."""
    N = len(points)
    constant = C * N**-0.5 * math.log(N)
    annuli = []
    for j, lo, hi, xi, sampled in _sweep_plan(1, xi_max):
        mags = _mags(points, weights, xi)
        decay = _decay(xi, lam, delta)
        bounds = constant + decay
        excess = mags - bounds
        k, w = int(np.argmax(mags)), int(np.argmax(excess))
        annuli.append(
            {
                "j": j,
                "lo": lo,
                "hi": hi,
                "n_evaluated": len(xi),
                "sup": float(mags[k]),
                "argmax_xi": [int(xi[k, 0])],
                "sampled": sampled,
                "n_violations": int((mags > bounds).sum()),
                "worst_excess": max(0.0, float(excess[w])),
                "binding": "constant" if constant > decay[w] else "decay",
            }
        )
    return annuli


def _sweep_inputs():
    rng = np.random.default_rng(16)
    return {
        "random": (rng.random((1500, 1)), rng.random(1500) + 0.5),
        "atomic": (np.full((256, 1), 0.5), None),
        "lattice": ((np.arange(1200) % 64 / 64.0).reshape(-1, 1), rng.random(1200)),
    }


@pytest.mark.parametrize("case", list(_sweep_inputs()))
def test_sweep_matches_direct_sums_bit_for_bit(case):
    pts, ws = _sweep_inputs()[case]
    xi_max = 9193
    # at C = 0 and lam = 0 the bound is delta at every frequency.  A delta
    # equal to the exact magnitude of a frequency the screen overestimates
    # puts that frequency on the bound, where only its exact value shows
    # that it is no violation.
    mags = _full_direct(pts, ws, xi_max)
    screened, _ = _screen_1d(pts[:, 0], np.ones(len(pts)) if ws is None else ws, xi_max)
    over = np.flatnonzero(screened > mags)
    on_bound = float(mags[over[len(over) // 2]] if len(over) else np.median(mags))
    for C, lam, delta in ((-0.4, 0.45, 1.0), (0.5, 0.45, 1.0), (2.0, 0.45, 1.0), (0.0, 0.0, on_bound)):
        rep = sweep(pts, ws, lam=lam, C=C, delta=delta, xi_max=xi_max)
        want = _reference_sweep(pts, ws, lam, C, xi_max, delta)
        assert rep.to_dict()["annuli"] == want, (case, C)
        assert rep.n_violations == sum(a["n_violations"] for a in want)
        assert rep.sup_overall == max(a["sup"] for a in want)
        ev = rep.notes["evaluation"]
        assert ev["evaluator"] == "nufft-screen+direct"
        assert 0 < ev["eps"] < 1e-8 and 0 < ev["reevaluated"] <= xi_max
    if case == "atomic":
        # |S| = 1 at every frequency: nothing to screen out
        assert ev["reevaluated"] == xi_max
    elif case == "random":
        assert ev["reevaluated"] < 100


def test_sweep_beyond_the_screen_top_screens_its_whole_range():
    # 2^17 < xi_max < 2^19: every annulus is a full shell, and the screen
    # runs once over all of 1..xi_max, with that range's eps
    rng = np.random.default_rng(20)
    pts, ws = rng.random((200, 1)), rng.random(200) + 0.5
    ev = sweep(pts, ws, lam=0.45, C=1.0, xi_max=150000).notes["evaluation"]
    assert ev["evaluator"] == "nufft-screen+direct"
    assert ev["eps"] == _screen_1d(pts[:, 0], ws, 150000)[1]


def test_sweep_past_2_19_screens_its_full_annuli():
    # xi_max = 800000: j = 19 is sampled, so the plan does not tile
    # 1..xi_max; its full annuli j <= 18 are screened over 1..2^19 - 1
    # and the sampled one by the phase screen, whose eps is the larger
    rng = np.random.default_rng(21)
    pts, ws = rng.random((40, 1)), rng.random(40) + 0.5
    xi_max = 800000
    verdicts = []
    for C in (0.5, 2.0):
        rep = sweep(pts, ws, lam=0.45, C=C, xi_max=xi_max)
        verdicts.append(rep.passed)
        assert [a.sampled for a in rep.annuli] == [False] * 19 + [True]
        assert rep.to_dict()["annuli"] == _reference_sweep(pts, ws, 0.45, C, xi_max), C
        ev = rep.notes["evaluation"]
        assert ev["evaluator"] == "nufft-screen+direct"
        assert ev["eps"] == _phase_screen_1d(pts[:, 0], ws, np.zeros(0))[1]
        assert ev["eps"] > _screen_1d(pts[:, 0], ws, 2**19 - 1)[1]
        assert ev["phase_screened"] == 1
    # C = 0.5 counts violations in the screened annuli and the sampled one
    assert verdicts == [False, True]


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("N", [7, 300, 4096])
def test_config_sups_are_direct_sups_bit_for_bit(N, weighted):
    # j = 9..52 are sampled: j <= 16 lie below the NUFFT screen's top 2^17
    # and are screened by it, j >= 17 by the phase screen, up to the last
    # annulus whose integers are exact floats
    rng = np.random.default_rng(22 + N)
    pts = rng.random((N, 1))
    ws = rng.random(N) + 0.5 if weighted else None
    sups = config_annulus_sups(pts, ws, range(53))
    plan = list(frequency_plan(1, range(53), math.inf, _SUPS_CAP, _SUPS_SAMPLES))
    assert [j for j, *_ in plan] == sorted(sups) == list(range(53))
    for j, _, _, xi, sampled in plan:
        assert sups[j] == (float(np.abs(weighted_exp_sum(pts, ws, xi)).max()), len(xi), sampled)
    ev = plan_magnitudes(plan, pts, ws)[0]
    assert ev["evaluator"] == "nufft-screen+direct" and ev["phase_screened"] == 36
    # a plan whose annuli all start above the NUFFT's top is phase-screened
    # alone, with the phase screen's eps
    high = list(frequency_plan(1, range(17, 21), math.inf, _SUPS_CAP, _SUPS_SAMPLES))
    ev, rows = plan_magnitudes(high, pts, ws)
    a = np.ones(N) if ws is None else ws
    assert ev == {
        "evaluator": "phase-screen+direct",
        "eps": _phase_screen_1d(pts[:, 0], a, np.zeros(0))[1],
        "reevaluated": ev["reevaluated"],
        "phase_screened": 4,
    }
    assert ev["reevaluated"] >= 4
    assert {j: float(mags.max()) for j, *_, mags in rows} == {j: sups[j][0] for j in range(17, 21)}


@pytest.mark.parametrize("trials", [1, 4])
@pytest.mark.parametrize("case", ["random", "atomic"])
def test_calibration_matches_direct_sums_bit_for_bit(case, trials):
    # N = 2000: xi_max = 9139.  Atomic weights put all the mass on one
    # point, so |S| is 1 up to rounding everywhere.  One trial makes C that
    # trial's statistic; four make it an interpolated percentile.
    rng = np.random.default_rng(17)
    N, lam, seed = 2000, 0.45, 2
    if case == "random":
        ws = rng.random(N) + 0.5
    else:
        ws = np.zeros(N)
        ws[0] = N
    xi_max = int(math.ceil(N**1.2))
    C, values = calibrate_constant(N, 1, lam=lam, weights=ws, trials=trials, seed=seed)
    want = np.empty(trials)
    for t in range(trials):
        pts = np.random.default_rng(np.random.Philox(key=(seed << 16) + t)).random((N, 1))
        mags = _full_direct(pts, ws, xi_max)
        want[t] = max(
            float((mags[xi[:, 0] - 1] - _decay(xi, lam, 1.0)).max())
            for _, _, _, xi, _ in _sweep_plan(1, xi_max)
        ) * (math.sqrt(N) / math.log(N))
    assert np.array_equal(values, want)
    assert C == float(np.percentile(want, 95.0))


def test_sweep_records_its_evaluator():
    rng = np.random.default_rng(18)
    rep = sweep(rng.random((300, 1)), None, lam=0.45, C=1.0)
    ev = rep.notes["evaluation"]
    assert ev["evaluator"] == "nufft-screen+direct"
    assert 0 < ev["eps"] < 1e-9 and 0 < ev["reevaluated"] < rep.xi_max
    # a plan without phase-screened annuli keeps its record's keys
    assert list(ev) == ["evaluator", "eps", "reevaluated"]
    rep2 = sweep(rng.random((60, 2)), None, lam=0.9, C=1.0)
    assert rep2.notes["evaluation"] == {"evaluator": "direct/phase-table", "eps": 0.0, "reevaluated": 0}
    # a non-finite weight leaves the screen without a bound: every
    # frequency takes the direct sum
    ws = np.ones(300)
    ws[7] = np.nan
    rep3 = sweep(rng.random((300, 1)), ws, lam=0.45, C=1.0)
    assert rep3.notes["evaluation"] == {"evaluator": "direct/phase-table", "eps": 0.0, "reevaluated": 0}


def test_calibrate_refuses_degenerate_arguments():
    with pytest.raises(ValueError, match="N must"):
        calibrate_constant(1, 1, lam=0.45, trials=2)
    with pytest.raises(ValueError, match="trials must"):
        calibrate_constant(64, 1, lam=0.45, trials=0)


def test_screen_memory_is_bounded():
    # N = 2^17 points in four spreading chunks onto the grid of the largest
    # range a sweep screens (xi_max < 2^19, beyond which its top annulus is
    # subsampled): Mr = 2^21 nodes, 16 MiB per real grid.  The grid, one
    # chunk's bincount, the transform (8 MiB complex of the half spectrum
    # per 16 MiB grid) and the chunk temporaries (24 nodes x 2^15 points)
    # stay under 80 MiB; one unchunked N x 24 spread would add 100 MiB.
    rng = np.random.default_rng(19)
    N = 2**17
    x, a = rng.random(N), rng.random(N)
    tracemalloc.start()
    try:
        mags, eps = _screen_1d(x, a, 2**19 - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20
    assert len(mags) == 2**19 - 1 and eps < 1e-8
