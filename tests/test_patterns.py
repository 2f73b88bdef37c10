import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salemkit.errors import BudgetError, LayoutError
from salemkit.patterns import (
    SCAN_TOL,
    RoughPattern,
    SurfacePattern,
    TranslationalPattern,
    violation_scan,
)
from salemkit.sampler import incidence_index_set
from salemkit.torus import Cube, double_cube, tdist, wrap

from naive_patterns import periodize, periodized_targets, thickened_membership


# ---------------------------------------------------------------- helpers


def oracle_scan(points, pattern, margin, separation_s=0.0):
    """Reference violation scan: plain loops over all ordered tuples."""
    points = np.atleast_2d(points)
    N, d = points.shape
    n = pattern.n
    out = []
    for idx in product(range(N), repeat=n):
        if len(set(idx)) != n:
            continue
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if separation_s > 0 and tdist(points[idx[i]], points[idx[j]]) < separation_s:
                    ok = False
        if not ok:
            continue
        flat = points[list(idx)].reshape(1, n * d)
        if pattern.kind == "rough":
            if thickened_membership(pattern, flat, margin)[0]:
                out.append(idx)
        else:
            if float(pattern.residual(flat)[0]) <= margin + 1e-15:
                out.append(idx)
    return sorted(out)


def ap3_pattern(m=16, with_cubes=True, a=2):
    """d=1 three-term pattern x3 - a*x2 in periodized {-x1} (a = 2 for
    the cube layout)."""
    cubes = None
    if with_cubes:
        side = 1.0 / (2 * 2 * m)
        cubes = [Cube([c - side / 2], side) for c in (1 / 6, 1 / 2, 5 / 6)]
    return TranslationalPattern(
        d=1,
        n=3,
        a=a,
        period_m=m,
        T=lambda x: (-np.asarray(x))[..., None, :],
        lipschitz=1.0,
        cubes=cubes,
    )


# ---------------------------------------------------------------- periodize


def test_periodize_trivial_example():
    out = periodize(np.array([[0.1]])[None, :, :], m=2)
    got = sorted(out.reshape(-1).tolist())
    assert got == pytest.approx([0.1, 0.6])


def test_periodize_identity_when_m1():
    t = np.random.default_rng(0).random((3, 2, 2))
    np.testing.assert_allclose(periodize(t, 1), t % 1.0)


def test_periodize_counts_and_idempotence():
    rng = np.random.default_rng(1)
    t = rng.random((5, 3, 2))
    out = periodize(t, 2)
    assert out.shape == (5, 3 * 4, 2)
    # closing again under the same grid adds nothing new (as a set)
    again = periodize(out, 2)
    for b in range(5):
        s1 = {tuple(np.round(p, 9)) for p in out[b]}
        s2 = {tuple(np.round(p, 9)) for p in again[b]}
        assert s2 == s1


# ---------------------------------------------------------------- rough


def test_rough_membership_exact_and_thickened():
    # two occupied cells in T^2 (n=2, d=1) at resolution 1/8
    pat = RoughPattern(n=2, d=1, g=8, cells=[[0, 0], [3, 5]])
    inside = np.array([[0.05, 0.05], [0.44, 0.69]])
    outside = np.array([[0.30, 0.30], [0.95, 0.95]])
    assert thickened_membership(pat, inside, 0.0).all()
    assert not thickened_membership(pat, outside, 0.0).any()
    # a point just outside cell [0,0]: distance to the cell is ~0.01*sqrt(2)
    p = np.array([[0.135, 0.135]])
    assert not thickened_membership(pat, p, 0.0)[0]
    assert thickened_membership(pat, p, 0.02)[0]


def box_distance(pat, pts):
    """Oracle: torus distance from each point to the union of the cells,
    each taken as the closed box [c/g, (c+1)/g] per coordinate."""
    delta = (pts[:, None, :] - pat.cells[None, :, :] / pat.g) % 1.0
    gap = np.where(delta <= 1 / pat.g, 0.0, np.minimum(delta - 1 / pat.g, 1.0 - delta))
    return np.sqrt(np.sum(gap * gap, axis=2)).min(axis=1)


def test_rough_membership_matches_bruteforce_distance():
    rng = np.random.default_rng(5)
    g = 6
    cells = rng.integers(0, g, size=(7, 2))
    pat = RoughPattern(n=2, d=1, g=g, cells=cells)
    pts = rng.random((200, 2))
    want = box_distance(pat, pts)
    for thr in (0.0, 0.03, 0.09):
        got = thickened_membership(pat, pts, thr)
        np.testing.assert_array_equal(got, want <= thr + 1e-15)


def test_rough_residual_is_the_box_distance_within_its_reach():
    rng = np.random.default_rng(8)
    g = 24
    pat = RoughPattern(n=2, d=1, g=g, cells=rng.integers(0, g, size=(9, 2)))
    pts = rng.random((400, 2))
    want = box_distance(pat, pts)
    for upto in (0.0, 0.03, 0.09):
        got = pat.residual(pts, upto)
        near = want < upto + 1 / g
        assert near.any() and not near.all()
        np.testing.assert_allclose(got[near], want[near], rtol=0, atol=1e-12)
        assert (got[~near] > upto).all()
    with pytest.raises(BudgetError):
        pat.residual(pts, math.inf)


def test_rough_validation():
    with pytest.raises(ValueError):
        RoughPattern(n=2, d=1, g=4, cells=[[0, 9]])
    with pytest.raises(ValueError):
        RoughPattern(n=2, d=1, g=4, cells=[[0, 1, 2]])


# ---------------------------------------------------------------- surface


def test_surface_layout_rejected_when_too_close():
    f = lambda p: p[..., :1]  # noqa: E731
    good = [Cube([0.0], 0.01), Cube([0.2], 0.01), Cube([0.4], 0.01)]
    SurfacePattern(d=1, n=3, cubes=good, f=f, lipschitz=1.0)
    bad = [Cube([0.0], 0.01), Cube([0.015], 0.01), Cube([0.4], 0.01)]
    with pytest.raises(LayoutError):
        SurfacePattern(d=1, n=3, cubes=bad, f=f, lipschitz=1.0)


def test_surface_residual_is_torus_distance_to_graph():
    # x3 = x1 + x2 + 0.3 mod 1; cubes chosen so the graph meets Q1 x Q2 x Q3
    f = lambda p: (p[..., :1] + p[..., 1:2] + 0.3) % 1.0  # noqa: E731
    cubes = [Cube([0.0], 0.02), Cube([0.3], 0.02), Cube([0.6], 0.02)]
    pat = SurfacePattern(d=1, n=3, cubes=cubes, f=f, lipschitz=2.0)
    tup = np.array([[0.01, 0.30, 0.62], [0.015, 0.305, 0.62]])
    np.testing.assert_allclose(pat.residual(tup), [0.01, 0.0], atol=1e-12)


def test_surface_residual_inf_outside_domain_cubes():
    # the relation is only defined on the doubled construction cubes;
    # an algebraically exact tuple elsewhere is not an occurrence
    f = lambda p: (p[..., :1] + p[..., 1:2]) % 1.0  # noqa: E731
    cubes = [Cube([0.0], 0.02), Cube([0.3], 0.02), Cube([0.6], 0.02)]
    pat = SurfacePattern(d=1, n=3, cubes=cubes, f=f, lipschitz=2.0)
    tup = np.array([[0.1, 0.2, 0.3]])  # exact x3 = x1 + x2, wrong cubes
    assert np.isinf(pat.residual(tup)[0])


# ---------------------------------------------------------------- translational


def test_translational_residual_simple():
    pat = ap3_pattern(m=1, with_cubes=False)
    # x3 - 2*x2 + x1 = 0 exactly
    tup = np.array([[0.1, 0.2, 0.3]])
    assert pat.residual(tup)[0] == pytest.approx(0.0, abs=1e-12)
    tup = np.array([[0.1, 0.2, 0.34]])
    assert pat.residual(tup)[0] == pytest.approx(0.04, abs=1e-12)


def test_translational_residual_respects_periodization():
    pat = ap3_pattern(m=16, with_cubes=False)
    # off by exactly 3/16 from the m=1 target -> still a hit
    tup = np.array([[0.1, 0.2, (0.3 + 3 / 16) % 1.0]])
    assert pat.residual(tup)[0] == pytest.approx(0.0, abs=1e-12)


def test_translational_rejects_zero_a():
    with pytest.raises(ValueError):
        TranslationalPattern(
            d=1, n=3, a=0, period_m=1, T=lambda x: x[..., None, :], lipschitz=1.0
        )


def periodized_reference(pattern, tuples):
    """Residual from the materialized K*m^d targets: min tdist, then the domain."""
    d, n = pattern.d, pattern.n
    dp = d * (n - 2)
    v = wrap(tuples[:, dp + d :] - pattern.a_float * tuples[:, dp : dp + d])
    tgt = periodized_targets(pattern, tuples[:, :dp])
    if tgt.shape[-2] == 0:
        return np.full(len(tuples), np.inf)
    res = tdist(v[:, None, :], tgt).min(axis=-1)
    if pattern.cubes is not None:
        for i, c in enumerate(pattern.cubes):
            inside = double_cube(c).contains(tuples[:, i * d : (i + 1) * d])
            res = np.where(inside, res, np.inf)
    return res


@st.composite
def translational_case(draw):
    d = draw(st.sampled_from([1, 2]))
    m = draw(st.sampled_from([1, 2, 3, 8, 9, 12, 16]))
    K = draw(st.sampled_from([0, 1, 3]))
    a = draw(
        st.one_of(
            st.sampled_from([1, 2, -1, -3]),
            st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(-5, 3)]),
        )
    )
    shifts = np.array(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=K * d, max_size=K * d))
    ).reshape(K, d)
    # coordinates: generic, on the 1/(4m) lattice, or at the 0/1 wrap edges
    coord = st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(0, 4 * m - 1).map(lambda j: j / (4 * m)),
        st.sampled_from([0.0, 2.0**-60, 1e-17, 0.5, 1.0 - 2.0**-53, 1.0 - 1e-12]),
    )
    rows = draw(st.lists(st.lists(coord, min_size=3 * d, max_size=3 * d), min_size=1, max_size=8))
    tuples = np.array(rows, dtype=float)
    # plant near-occurrences x3 = a*x2 + t + b/m (+ a float-edge offset)
    if K and draw(st.booleans()):
        b = np.array(draw(st.lists(st.integers(0, m - 1), min_size=d, max_size=d)))
        eps = draw(st.sampled_from([0.0, 1e-17, -1e-16, 1e-12, 0.5 / m]))
        t = -tuples[:, :d] + shifts[0]
        tuples[:, 2 * d :] = wrap(float(a) * tuples[:, d : 2 * d] + t + b / m + eps)
    with_cubes = draw(st.booleans())
    return d, m, a, shifts, tuples, with_cubes


def _case_pattern(d, m, a, shifts, with_cubes):
    cubes = None
    if with_cubes:
        # small separated cubes; most random tuples fall outside Q_1 x Q_2 x Q_3
        cubes = [Cube([c] * d, 0.02) for c in (0.05, 0.4, 0.75)]
    return TranslationalPattern(
        d=d, n=3, a=a, period_m=m,
        T=lambda x: (-np.asarray(x))[..., None, :] + shifts,
        lipschitz=1.0, cubes=cubes,
    )


@settings(max_examples=300, deadline=None)
@given(translational_case())
def test_translational_residual_matches_periodized_targets(case):
    d, m, a, shifts, tuples, with_cubes = case
    pat = _case_pattern(d, m, a, shifts, with_cubes)
    got = pat.residual(tuples)
    want = periodized_reference(pat, tuples)
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= 1e-15)


@settings(max_examples=300, deadline=None)
@given(translational_case())
def test_translational_residual_floor_brackets_the_residual(case):
    # residual >= floor - slack everywhere, <= floor + slack in the domain
    d, m, a, shifts, tuples, with_cubes = case
    pat = _case_pattern(d, m, a, shifts, with_cubes)
    floor, slack = pat.residual_floor(tuples)
    got = pat.residual(tuples)
    assert floor.shape == got.shape and 0.0 <= slack < 1e-12
    assert np.all(got >= floor - slack)
    fin = np.isfinite(got)
    assert np.all(got[fin] <= floor[fin] + slack)


def _near(lo, hi):
    # generic points of [lo, hi), its ends and the floats just inside them
    return st.one_of(
        st.floats(lo, hi, exclude_max=True),
        st.sampled_from([lo, float(np.nextafter(lo, 1.0)), float(np.nextafter(hi, 0.0))]),
    )


_WRAP_EDGES = [0.0, 2.0**-60, 1e-17, 1.0 - 2.0**-53, 1.0 - 1e-12]


@st.composite
def surface_floor_case(draw):
    """``(kind, tuples)``: isosceles tuples with the last slot at or beside
    the pattern's own target, or tuples of a shifted-sum surface."""
    from salemkit.harness import isosceles_surface_pattern

    kind = draw(st.sampled_from(["isosceles", "shifted-sum"]))
    rows = []
    if kind == "isosceles":
        pat = isosceles_surface_pattern()
        q1, q2, q3 = (double_cube(c) for c in pat.cubes)
        for _ in range(draw(st.integers(1, 8))):
            x1 = draw(_near(q1.corner[0], q1.corner[0] + q1.side))
            x2 = draw(_near(q2.corner[0], q2.corner[0] + q2.side))
            v = float(pat.f(np.array([[x1, x2]]))[0, 0])
            delta = draw(st.sampled_from([0.0, 1e-17, 1e-12]))
            x3 = draw(st.one_of(
                _near(q3.corner[0], q3.corner[0] + q3.side),
                st.sampled_from([v - delta, v + delta]),
                st.sampled_from(_WRAP_EDGES),
            ))
            rows.append([x1, x2, x3])
    else:
        # graph x3 = x1 + x2 + 0.3 mod 1, which meets Q1 x Q2 x Q3
        for _ in range(draw(st.integers(1, 8))):
            x1 = draw(_near(0.0, 0.03))
            x2 = draw(_near(0.29, 0.33))
            v = (x1 + x2 + 0.3) % 1.0
            j = draw(st.integers(-4, 4))
            x3 = draw(st.one_of(
                st.just(v + j * float(np.spacing(v))),
                _near(0.59, 0.63),
                st.sampled_from(_WRAP_EDGES),
            ))
            rows.append([x1, x2, x3])
    return kind, np.array(rows, dtype=float)


@settings(max_examples=300, deadline=None)
@given(surface_floor_case())
def test_surface_residual_floor_brackets_the_residual(case):
    # a surface floor is the exact residual, with slack 0
    from salemkit.harness import isosceles_surface_pattern

    kind, tuples = case
    if kind == "isosceles":
        pat = isosceles_surface_pattern()
    else:
        f = lambda p: (p[..., :1] + p[..., 1:2] + 0.3) % 1.0  # noqa: E731
        cubes = [Cube([0.0], 0.02), Cube([0.3], 0.02), Cube([0.6], 0.02)]
        pat = SurfacePattern(d=1, n=3, cubes=cubes, f=f, lipschitz=2.0)
    floor, slack = pat.residual_floor(tuples)
    assert slack == 0.0 and np.array_equal(floor, pat.residual(tuples))


def test_translational_residual_memory_is_per_raw_target():
    # materializing 256 shifted targets for 20k d=2 tuples would take one
    # 20k x 256 x 2 float64 temporary: 82 MB
    m = 16
    pat = TranslationalPattern(
        d=2, n=3, a=2, period_m=m,
        T=lambda x: (-np.asarray(x))[..., None, :], lipschitz=1.0,
    )
    tuples = np.random.default_rng(3).random((20_000, 6))
    tracemalloc.start()
    try:
        pat.residual(tuples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _naive_d2_hits(pattern, pools, margin):
    """All slot-ordered index triples with residual <= margin, by enumeration."""
    sizes = [len(p) for p in pools]
    idx = np.array(list(product(*[range(s) for s in sizes])), dtype=np.int64)
    flat = np.concatenate([pools[j][idx[:, j]] for j in range(3)], axis=1)
    return idx[periodized_reference(pattern, flat) <= margin]


@pytest.mark.parametrize("with_cubes", [False, True])
def test_d2_scan_and_incidence_match_naive_enumeration(with_cubes):
    m = 8
    side = 1.0 / (4 * m)
    centers = [np.array([c, c]) for c in (1 / 6, 1 / 2, 5 / 6)]
    cubes = [Cube(c - side / 2, side) for c in centers] if with_cubes else None
    pat = TranslationalPattern(
        d=2, n=3, a=2, period_m=m,
        T=lambda x: (-np.asarray(x))[..., None, :], lipschitz=1.0, cubes=cubes,
    )
    rng = np.random.default_rng(8)
    # pools inside the doubled cubes, with near-central prefixes so that
    # planted third points land in Q_3 too
    pools = [c - side + 2 * side * rng.random((6, 2)) for c in centers]
    pools[0][:3] = centers[0] + 0.004 * rng.standard_normal((3, 2))
    pools[1][:3] = centers[1] + 0.004 * rng.standard_normal((3, 2))
    # exact occurrences; without cubes one is shifted by a grid vector b/m
    pools[2][0] = wrap(2 * pools[1][0] - pools[0][0])
    pools[2][1] = wrap(2 * pools[1][1] - pools[0][2] + (0.0 if with_cubes else 3 / m))
    pools[2][2] = wrap(2 * pools[1][2] - pools[0][1] + 1e-3)
    points = np.concatenate(pools)
    for margin in (0.0, 1e-3, 2e-3):
        # scan: every ordered triple of distinct points, one shared pool
        want = sorted(
            tuple(int(v) for v in t)
            for t in _naive_d2_hits(pat, [points] * 3, margin + 1e-15)
            if len(set(t)) == 3
        )
        tuples, _ = violation_scan(points, pat, margin=margin)
        assert sorted(tuple(t) for t in tuples) == want
        assert {(0, 6, 12), (2, 7, 13)} <= set(want)
        assert ((1, 8, 14) in want) == (margin >= 2e-3)
        # incidence: one pool per slot, last-slot indices of near-incidences
        naive = np.unique(_naive_d2_hits(pat, pools, margin)[:, -1])
        np.testing.assert_array_equal(incidence_index_set(pools, pat, margin), naive)


def test_d2_scan_budget_counts_the_cube_cut_product():
    m = 8
    side = 1.0 / (4 * m)
    centers = [np.array([c, c]) for c in (1 / 6, 1 / 2, 5 / 6)]
    cubes = [Cube(c - side / 2, side) for c in centers]
    pat = TranslationalPattern(
        d=2, n=3, a=2, period_m=m,
        T=lambda x: (-np.asarray(x))[..., None, :], lipschitz=1.0, cubes=cubes,
    )
    rng = np.random.default_rng(12)
    pools = [c - side + 2 * side * rng.random((5, 2)) for c in centers]
    pools[0][:2] = centers[0] + 0.004 * rng.standard_normal((2, 2))
    pools[1][:2] = centers[1] + 0.004 * rng.standard_normal((2, 2))
    pools[2][0] = wrap(2 * pools[1][0] - pools[0][0])
    pools[2][1] = wrap(2 * pools[1][1] - pools[0][1] + 1e-3)
    # 12 points off every doubled cube: 27^3 tuples, 5^3 of them in Q1 x Q2 x Q3
    outside = rng.random((100, 2))
    for q in pat._domain:
        outside = outside[~q.contains(outside)]
    points = np.concatenate(pools + [outside[:12]])
    assert len(points) ** 3 > 1000
    want = sorted(
        tuple(int(v) for v in t)
        for t in _naive_d2_hits(pat, [points] * 3, 2e-3 + 1e-15)
        if len(set(t)) == 3
    )
    tuples, _ = violation_scan(points, pat, margin=2e-3, budget=1000)
    assert [tuple(t) for t in tuples.tolist()] == want
    assert {(0, 5, 10), (1, 6, 11)} <= set(want)


def test_tuple_search_does_not_depend_on_chunk_size(monkeypatch):
    # BRUTE_CHUNK sizes the product enumeration's chunks and the d = 1
    # probe's query chunks and recheck batches alike
    from salemkit import patterns
    from salemkit.harness import _linear_pattern, isosceles_surface_pattern
    from salemkit.sampler import ConstructionParams, build_surface

    d2 = TranslationalPattern(
        d=2, n=3, a=2, period_m=8,
        T=lambda x: (-np.asarray(x))[..., None, :], lipschitz=1.0,
    )
    rng = np.random.default_rng(9)
    points = rng.random((24, 2))
    pools = [rng.random((11, 2)) for _ in range(3)]
    iso = isosceles_surface_pattern()
    iso_points = build_surface(iso, ConstructionParams(M=16, lam=4 / 9, seed=0)).points
    ap3 = ap3_pattern(m=3, with_cubes=False)
    ap3_points = rng.random((40, 1))
    # 2 x1 - x2 + 3 x3 = 0.25: a = 1/3 and period 1/3
    linear = _linear_pattern((2, -1, 3), 0.25)
    cases = [
        (d2, points, pools, 0.03),
        (ap3, ap3_points, [rng.random((15, 1)) for _ in range(3)], 2e-3),
        (linear, rng.random((40, 1)), [rng.random((15, 1)) for _ in range(3)], 2e-3),
        (iso, iso_points, [iso_points] * 3, 1e-3),
    ]
    for pat, points, pools, margin in cases:
        runs = []
        for chunk in (1, 7, 1000, 10**6):
            monkeypatch.setattr(patterns, "BRUTE_CHUNK", chunk)
            tuples, resid = violation_scan(points, pat, margin=margin)
            hits = incidence_index_set(pools, pat, margin, 10**9)
            runs.append((tuples, resid, hits))
        assert len(runs[0][0]) > 10 and len(runs[0][2]) > 0
        for tuples, resid, hits in runs[1:]:
            assert np.array_equal(tuples, runs[0][0])
            assert np.array_equal(resid, runs[0][1])
            assert np.array_equal(hits, runs[0][2])


def test_d1_probe_budget_counts_prefixes_times_queries():
    # a translational probe makes one query per x1, x2 (and raw target), a
    # surface probe one per x1, x2; the cube cut comes first
    rng = np.random.default_rng(5)
    ap3 = ap3_pattern(m=1, with_cubes=False)
    f = lambda p: (p[..., :1] + p[..., 1:2] + 0.3) % 1.0  # noqa: E731
    cubes = [Cube([0.0], 0.02), Cube([0.3], 0.02), Cube([0.6], 0.02)]
    surface = SurfacePattern(d=1, n=3, cubes=cubes, f=f, lipschitz=2.0)
    in_cubes = np.concatenate([c.corner + c.side * rng.random((10, 1)) for c in cubes])
    cases = ((ap3, rng.random((30, 1)), 30 * 30), (surface, wrap(in_cubes), 10 * 10))
    for pat, points, work in cases:
        violation_scan(points, pat, margin=0.01, budget=work)
        with pytest.raises(BudgetError, match=f"{pat.kind} search"):
            violation_scan(points, pat, margin=0.01, budget=work - 1)


def test_d1_scan_memory_is_bounded():
    # the margin-0 scan of the seed-0 M=2048 3-AP build makes 4M window
    # queries; they come BRUTE_CHUNK at a time
    from salemkit.harness import ap3_pattern as harness_ap3
    from salemkit.sampler import ConstructionParams, build_translational

    pat = harness_ap3(16)
    cfg = build_translational(pat, ConstructionParams(M=2048, lam=0.45, seed=0))
    assert cfg.N == 8144
    tracemalloc.start()
    try:
        tuples, _ = violation_scan(cfg.points, pat, margin=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tuples) == 0
    # per-chunk temporaries of the 4M queries would push this past 8 MB
    assert peak < 8e6


# ---------------------------------------------------------------- scans


def test_scan_finds_planted_ap3():
    rng = np.random.default_rng(42)
    pts = rng.random((30, 1))
    # plant an exact 3-term progression x1 - 2x2 + x3 = 0
    pts[10, 0], pts[11, 0], pts[12, 0] = 0.1, 0.25, 0.4
    pat = ap3_pattern(m=1, with_cubes=False)
    tuples, resid = violation_scan(pts, pat, margin=1e-12)
    assert (10, 11, 12) in {tuple(t) for t in tuples}
    assert resid.min() <= 1e-12
    assert {tuple(t) for t in tuples} == set(
        tuple(t) for t in oracle_scan(pts, pat, 1e-12)
    )


def test_scan_margin_monotone():
    rng = np.random.default_rng(9)
    pts = rng.random((25, 1))
    pat = ap3_pattern(m=1, with_cubes=False)
    prev = set()
    for margin in (0.0, 1e-4, 1e-3, 1e-2):
        cur = {tuple(t) for t in violation_scan(pts, pat, margin)[0]}
        assert prev <= cur
        prev = cur


def test_scan_separation_filters_close_pairs():
    pts = np.array([[0.1], [0.25], [0.4], [0.2501]])
    pat = ap3_pattern(m=1, with_cubes=False)
    hits = {tuple(t) for t in violation_scan(pts, pat, 1e-6, separation_s=0.0)[0]}
    assert (0, 1, 2) in hits
    # with separation above |x2 - x4| the near-duplicate tuple is kept out
    hits_s = {
        tuple(t) for t in violation_scan(pts, pat, 1e-6, separation_s=0.01)[0]
    }
    assert hits_s <= hits
    assert sorted(hits_s) == oracle_scan(pts, pat, 1e-6, separation_s=0.01)
    # |x1 - x2| = 0.15 keeps (0, 1, 2) out at separation 0.2
    far = {tuple(t) for t in violation_scan(pts, pat, 1e-6, separation_s=0.2)[0]}
    assert (0, 1, 2) not in far
    assert sorted(far) == oracle_scan(pts, pat, 1e-6, separation_s=0.2)


def test_scan_fast_path_matches_bruteforce(enumerated):
    rng = np.random.default_rng(77)
    pts = rng.random((40, 1))
    pts[3, 0], pts[17, 0], pts[31, 0] = 0.12, 0.3, (2 * 0.3 - 0.12 + 5 / 16) % 1.0
    pat = ap3_pattern(m=16, with_cubes=False)
    brute = violation_scan(pts, enumerated(pat), 1e-9, 0.0, 10**9)
    fast = violation_scan(pts, pat, margin=1e-9)  # dispatches to the fold path
    np.testing.assert_array_equal(fast[0], brute[0])
    np.testing.assert_array_equal(fast[1], brute[1])
    assert (3, 17, 31) in {tuple(t) for t in fast[0]}


def test_scan_surface_fast_path_matches_bruteforce(enumerated):
    rng = np.random.default_rng(15)
    pts = rng.random((35, 1))
    f = lambda p: (p[..., :1] + p[..., 1:2] + 0.3) % 1.0  # noqa: E731
    cubes = [Cube([0.0], 0.01), Cube([0.3], 0.01), Cube([0.6], 0.01)]
    pat = SurfacePattern(d=1, n=3, cubes=cubes, f=f, lipschitz=2.0)
    # planted occurrence inside the doubled cubes: 0.005 + 0.3 + 0.3 = 0.605
    pts[5, 0], pts[6, 0], pts[7, 0] = 0.005, 0.3, 0.605
    brute = violation_scan(pts, enumerated(pat), 1e-9, 0.0, 10**9)
    fast = violation_scan(pts, pat, margin=1e-9)
    np.testing.assert_array_equal(fast[0], brute[0])
    np.testing.assert_array_equal(fast[1], brute[1])
    assert (5, 6, 7) in {tuple(t) for t in fast[0]}


def test_scan_rough_matches_oracle():
    rng = np.random.default_rng(21)
    g = 8
    pat = RoughPattern(n=2, d=1, g=g, cells=[[1, 6], [4, 4]])
    pts = rng.random((20, 1))
    pts[0, 0], pts[1, 0] = 0.15, 0.8  # lands in cell (1, 6)
    tuples, _ = violation_scan(pts, pat, margin=0.0)
    assert {tuple(t) for t in tuples} == set(
        tuple(t) for t in oracle_scan(pts, pat, 0.0)
    )
    assert (0, 1) in {tuple(t) for t in tuples}


def test_scan_rough_reports_box_distances():
    rng = np.random.default_rng(22)
    pat = RoughPattern(n=2, d=1, g=8, cells=[[1, 6], [4, 4]])
    pts = rng.random((30, 1))
    tuples, resid = violation_scan(pts, pat, margin=0.05)
    want = box_distance(pat, pts[tuples, 0])
    assert (want > 0).any()
    np.testing.assert_allclose(resid, want, rtol=0, atol=1e-12)


def test_scan_budget_error():
    pts = np.random.default_rng(2).random((200, 2))
    pat = RoughPattern(n=3, d=2, g=4, cells=[[0] * 6])
    with pytest.raises(BudgetError):
        violation_scan(pts, pat, margin=0.0, budget=1000)


def test_scan_symmetric_pattern_reports_all_orderings():
    # For symmetric relations every permutation that satisfies the relation
    # is reported; the ap3 relation is symmetric under swapping x1 and x3.
    pts = np.array([[0.1], [0.25], [0.4], [0.77]])
    pat = ap3_pattern(m=1, with_cubes=False)
    hits = {tuple(t) for t in violation_scan(pts, pat, 1e-12)[0]}
    assert (0, 1, 2) in hits and (2, 1, 0) in hits
    for perm in permutations((0, 1, 2)):
        checked = perm in hits
        # only the two arithmetic-progression orderings qualify
        assert checked == (perm in {(0, 1, 2), (2, 1, 0)})


# ------------------------------------------------------------ window probe


def unfiltered_probe(xs, q, tau, period):
    """The three shifted searchsorted lookups over every query, no filter."""
    parts = []
    for shift in (0.0, -period, period):
        lo = np.searchsorted(xs, q + shift - tau, side="left")
        hi = np.searchsorted(xs, q + shift + tau, side="right")
        hit = np.flatnonzero(hi > lo)
        parts.append((hit, lo[hit], hi[hit]))
    return tuple(np.concatenate(p) for p in zip(*parts))


@st.composite
def fold_probe_case(draw):
    """``(a, m, t, xprev, xs, eps, tol)`` for the d = 1 window probe:
    raw targets t (B, K), x_{n-1} and folded last-slot points, with keys on
    and one ulp beside bucket edges and queries that fold to the period's
    ends.  a = 0 is a surface relation x2 = f(x1): K = 1, m = 1 and
    x_{n-1} = 0."""
    from salemkit.patterns import _FoldProbe, _fold_slack

    kind = draw(st.sampled_from(["linear", "dilation", "surface"]))
    if kind == "linear":
        # a and period of the equation m1 x1 + m2 x2 + m3 x3 = s, as in
        # harness._linear_pattern: -m2/m3 and 1/|m3|
        m2, m3 = draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), draw(st.sampled_from([-3, -2, 2, 3]))
        a, m = Fraction(-m2, m3), abs(m3)
    elif kind == "dilation":
        a = draw(st.sampled_from([1, -1, 2, -3, 8, -8, Fraction(1, 2), Fraction(-5, 3),
                                  Fraction(15, 2)]))
        m = draw(st.sampled_from([1, 2, 3, 5, 16]))
    else:
        a, m = 0, 1
    period, af = 1.0 / m, float(a)
    K = draw(st.sampled_from([1, 2])) if a else 1
    ulps = st.sampled_from([-1, 0, 1])

    def nudge(v, k):
        return float(np.nextafter(v, math.copysign(math.inf, k))) if k else float(v)

    unit = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                     st.sampled_from([0.0, 2.0**-60, 0.5, 1.0 - 2.0**-53]))
    xprev = draw(st.lists(unit, min_size=1, max_size=4)) if a else [0.0]
    p0 = af * xprev[0]
    # generic targets, and targets whose query p0 + t folds to 0 exactly, to
    # just below 0 (the wrap gives 1.0) or onto a grid multiple
    t = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
    t += draw(st.lists(st.sampled_from([-p0, -p0 - 2.0**-60, -p0 - 1e-17, 3 * period - p0]),
                       max_size=2))
    tmax = max(abs(v) for v in t)
    eps = draw(st.sampled_from([0.0, 5e-324, 1e-15, 1e-12, 1e-6, 1e-3, period / 7]))
    tol = draw(st.sampled_from([0.0, SCAN_TOL]))
    tau = eps + tol + _fold_slack(1.0 + abs(af) + tmax)
    xs = [wrap(v) % period for v in draw(st.lists(unit, max_size=6))]
    n_edge, n_window = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    sizing = _FoldProbe(np.zeros(len(xs) + n_edge + n_window), np.zeros(1), period, 0)
    sizing._occupancy(tau)
    s = sizing.s
    # keys on and one ulp beside bucket edges: of fl(a x_{n-1}) s, t s and x s
    bucket = st.integers(-int(tmax * s), int(tmax * s))
    for _ in range(draw(st.integers(0, 3)) if a else 0):
        v = nudge(draw(bucket) / s / af, draw(ulps))
        if 0.0 <= v < 1.0:
            xprev.append(v)
    for _ in range(draw(st.integers(0, 3))):
        v = nudge(draw(bucket) / s, draw(ulps))
        if abs(v) <= tmax:
            t.append(v)
    for _ in range(n_edge):
        v = nudge(draw(st.integers(0, sizing.nb)) / s, draw(ulps))
        xs.append(v if 0.0 <= v < period else 0.0)
    # points at the window ends of queries, one ulp either side, and across
    # the fold
    ax = af * np.array(xprev)
    for _ in range(n_window):
        q = wrap(ax[draw(st.integers(0, len(ax) - 1))] + draw(st.sampled_from(t))) % period
        v = q + draw(st.sampled_from([0.0, -period, period])) + draw(st.sampled_from([-tau, tau]))
        v = nudge(v, draw(ulps))
        xs.append(v if 0.0 <= v < period else q)
    t += t[: (-len(t)) % K]
    return a, m, np.array(t).reshape(-1, K), np.array(xprev), np.sort(xs), eps, tol


_BELOW_16TH, _BELOW_1 = float(np.nextafter(1 / 16, 0.0)), float(np.nextafter(1.0, 0.0))


@settings(max_examples=400, deadline=None)
@given(fold_probe_case())
# a query that folds to 0 from just below it meets the point just below the
# period through the +period shift, for a dilation and for a surface
@example((1, 16, np.array([[-1e-17]]), np.array([0.0]), np.array([0.0, 1 / 32, _BELOW_16TH]),
          1e-12, 0.0))
@example((0, 1, np.array([[-1e-17]]), np.array([0.0]), np.array([0.0, 0.5, _BELOW_1]),
          1e-12, 0.0))
# a margin of one subnormal, as margin / |m3| gives for a tiny margin
@example((0, 1, np.array([[0.0], [0.25], [0.3], [1.0], [0.5]]), np.array([0.0]),
          np.array([0.0, 0.25, 0.25, 0.5, _BELOW_1]), 5e-324, 0.0))
def test_fold_prefilter_keeps_every_window_and_the_search_is_exact(enumerated, case):
    from salemkit.patterns import _FoldProbe, _fold_slack, _tuple_hits

    a, m, t, xprev, xs, eps, tol = case
    period, ax = 1.0 / m, float(a) * xprev
    tau = eps + tol + _fold_slack(1.0 + abs(float(a)) + float(np.abs(t).max()))
    # the prefilter keeps every query the unfiltered lookup finds a window for
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _FoldProbe(xs, ax, period, t.size * len(ax)).windows(t, tau)
    q = wrap(ax[None, :, None] + t[:, None, :]) % period
    want = unfiltered_probe(xs, q.reshape(-1), tau, period)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    # the tuple search equals enumeration, for a pattern whose prefix x1 =
    # c + i / 1024 has the raw targets t[i]
    B = len(t)

    def table(x, c):
        return t[np.rint((np.asarray(x)[..., 0] - c) * 1024).astype(np.int64) % B]

    if a:
        pat = TranslationalPattern(d=1, n=3, a=a, period_m=m, lipschitz=1.0,
                                   T=lambda x: table(x, 0.0)[..., None])
        pools = [(np.arange(B) / 1024)[:, None], xprev[:, None], xs[:, None]]
    else:
        # x2 = f(x1) on the doubled cubes around 1/2 and around 0, where the
        # fold's wrap-around lies
        side = 1 / 24
        cubes = [Cube([0.5 - side / 2], side), Cube([-side / 2], side)]
        pat = SurfacePattern(d=1, n=2, cubes=cubes, f=lambda x: table(x, 0.5), lipschitz=1.0)
        pools = [(0.5 + np.arange(B) / 1024)[:, None], xs[:, None]]
    idx, pts = _all_tuples(pools, distinct=False)
    resid = pat.residual(pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hits = list(_tuple_hits(pools, pat, eps, tol, 10**9))
    n = pat.n
    found = np.concatenate([np.empty((0, n), dtype=np.int64)] + [h for h, _ in hits])
    found_r = np.concatenate([np.empty(0)] + [r for _, r in hits])
    found, first = np.unique(found, axis=0, return_index=True)
    np.testing.assert_array_equal(found, idx[resid <= eps + tol])
    np.testing.assert_array_equal(found_r[first], resid[resid <= eps + tol])
    # the removal and the scan take the probe's tuples: the enumeration's
    np.testing.assert_array_equal(incidence_index_set(pools, pat, eps),
                                  incidence_index_set(pools, enumerated(pat), eps))
    points = np.concatenate(pools)
    scan = violation_scan(points, enumerated(pat), eps)
    for got_part, want_part in zip(violation_scan(points, pat, eps), scan):
        np.testing.assert_array_equal(got_part, want_part)


@pytest.mark.parametrize("kind", ["surface", "translational"])
def test_probe_refuses_a_non_finite_target(kind):
    # a NaN target would match no window and hide every tuple of its prefix
    side = 1 / 24
    cubes = [Cube([c - side / 2], side) for c in (0.0, 0.5)]
    if kind == "surface":
        pat = SurfacePattern(d=1, n=2, cubes=cubes, f=lambda x: x * np.nan, lipschitz=1.0)
    else:
        pat = TranslationalPattern(d=1, n=2, a=1, period_m=1, lipschitz=1.0,
                                   T=lambda x: np.full(x.shape[:-1] + (1, 1), np.inf))
    with pytest.raises(ValueError, match="non-finite target"):
        violation_scan(np.array([[0.0], [0.5]]), pat, 1e-3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_isosceles_probe_equals_enumeration_on_builds(enumerated, seed):
    # the removal of an M = 64 build and the scan of an M = 32 build take
    # the probe's tuples at f(prefix): the enumeration's
    from salemkit.harness import isosceles_surface_pattern
    from salemkit.sampler import ConstructionParams, build_surface

    iso = isosceles_surface_pattern()
    cfg = build_surface(iso, ConstructionParams(M=64, lam=4 / 9, seed=seed))
    pools, tau = cfg._build_record[0], cfg.provenance["tau_used"]
    for threshold in (tau, 16 * tau):
        got = incidence_index_set(pools, iso, threshold)
        assert len(got) > 0
        np.testing.assert_array_equal(got, incidence_index_set(pools, enumerated(iso), threshold))
    points = build_surface(iso, ConstructionParams(M=32, lam=4 / 9, seed=seed)).points
    for margin in (1e-5, 1e-3):
        got = violation_scan(points, iso, margin)
        assert len(got[0]) > 0
        for got_part, want_part in zip(got, violation_scan(points, enumerated(iso), margin)):
            np.testing.assert_array_equal(got_part, want_part)


def _nan_margin_case(kind):
    # a pattern, points and slot pools with violations at margin 0.05
    from salemkit.harness import isosceles_surface_pattern

    rng = np.random.default_rng(5)
    if kind == "rough":
        pat = RoughPattern(n=2, d=1, g=8, cells=[[1, 6], [4, 4]])
        return pat, rng.random((30, 1)), [rng.random((30, 1))]
    if kind == "surface":
        pat = isosceles_surface_pattern()
    elif kind == "translational":
        pat = ap3_pattern(m=16)
    else:
        # the d = 2 3-AP layout: cubes of side 1/(4m) on the diagonal
        side = 1.0 / 32
        cubes = [Cube([c - side / 2] * 2, side) for c in (1 / 6, 1 / 2, 5 / 6)]
        pat = TranslationalPattern(d=2, n=3, a=2, period_m=8, lipschitz=1.0, cubes=cubes,
                                   T=lambda x: (-np.asarray(x))[..., None, :])
    pools = [double_cube(c).sample(rng, 20) for c in pat.cubes]
    return pat, np.concatenate(pools), pools


@pytest.mark.parametrize("kind", ["rough", "surface", "translational", "translational-d2"])
def test_nan_margin_and_threshold_are_refused(kind):
    # a NaN compares false with every residual, so it would find no tuple
    pat, points, pools = _nan_margin_case(kind)
    assert len(violation_scan(points, pat, 0.05)[0]) > 0
    assert len(incidence_index_set(pools, pat, 0.05)) > 0
    with pytest.raises(ValueError, match="margin"):
        violation_scan(points, pat, math.nan)
    with pytest.raises(ValueError, match="threshold"):
        incidence_index_set(pools, pat, math.nan)


# ------------------------------------------------- batched 1-D scan recheck


def test_scan_recheck_matches_bruteforce_on_builds(enumerated):
    from salemkit.harness import ap3_pattern as harness_ap3, isosceles_surface_pattern
    from salemkit.sampler import ConstructionParams, build_surface, build_translational

    iso = isosceles_surface_pattern()
    cfg = build_surface(iso, ConstructionParams(M=16, lam=4 / 9, seed=0))
    ap3 = harness_ap3(16)
    cfg3 = build_translational(ap3, ConstructionParams(M=12, lam=0.45, seed=1))
    for pts, pat, margin in ((cfg.points, iso, 1e-3), (cfg3.points, ap3, 0.02)):
        fast = violation_scan(pts, pat, margin=margin)
        brute = violation_scan(pts, enumerated(pat), margin, 0.0, 10**9)
        assert len(fast[0]) > 10
        np.testing.assert_array_equal(fast[0], brute[0])
        np.testing.assert_array_equal(fast[1], brute[1])


# ------------------------------------- incidence and scan at float edges


def _all_tuples(pools, distinct):
    """Every index tuple of the product of the pools (one shared pool when
    ``distinct``: ordered tuples of distinct indices) and its points."""
    idx = np.array(list(product(*[range(len(p)) for p in pools])), dtype=np.int64)
    idx = idx.reshape(-1, len(pools))
    if distinct:
        idx = idx[[len(set(t)) == len(t) for t in idx.tolist()]]
    pts = np.stack([p[idx[:, j], 0] for j, p in enumerate(pools)], axis=1)
    return idx, pts


@st.composite
def planted_case(draw):
    """Three d = 1 pools and a pattern with a planted near-occurrence
    (pools[0][0], pools[1][0], pools[2][0])."""
    kind = draw(st.sampled_from(["torus", "cubes", "surface"]))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    if kind == "surface":
        f = lambda p: (p[..., :1] + p[..., 1:2] + 0.3) % 1.0  # noqa: E731
        cubes = [Cube([0.0], 0.01), Cube([0.3], 0.01), Cube([0.6], 0.01)]
        pat = SurfacePattern(d=1, n=3, cubes=cubes, f=f, lipschitz=2.0)
    elif kind == "cubes":
        pat = ap3_pattern(m=16)
    else:
        a = draw(st.sampled_from([2, Fraction(1, 2), Fraction(3, 2), Fraction(-5, 3)]))
        pat = ap3_pattern(m=draw(st.sampled_from([1, 3, 16])), with_cubes=False, a=a)
    pools = []
    for j in range(3):
        size = draw(st.integers(1, 5))
        u = np.array(draw(st.lists(unit, min_size=size, max_size=size)))
        if pat._domain is not None:
            q = pat._domain[j]
            u = wrap(q.corner + u * q.side)
        pools.append(u[:, None])
    # planted head near the cube centres keeps the planted last slot in
    # its doubled cube
    if pat._domain is not None:
        for j in range(2):
            c = pat._domain[j].center[0]
            pools[j][0, 0] = wrap(c + draw(st.floats(-1 / 512, 1 / 512)))
    x1, x2 = pools[0][0, 0], pools[1][0, 0]
    if kind == "surface":
        target = float(pat.f(np.array([x1, x2]))[0])
    else:
        # any grid shift on the torus; in the cube layout 2*x2 - x1 itself
        # lies in the third doubled cube
        shift = 0 if kind == "cubes" else draw(st.integers(0, pat.period_m - 1))
        target = pat.a_float * x2 - x1 + shift / pat.period_m
    delta = draw(
        st.one_of(
            st.just(0.0),
            st.floats(-1e-3, 1e-3),
            st.integers(-17, -4).map(lambda e: 10.0**e),
        )
    )
    pools[2][0, 0] = wrap(target + delta)
    return pat, pools


@settings(max_examples=150, deadline=None)
@given(planted_case())
def test_incidence_and_scan_match_enumeration_at_float_edges(case):
    pat, pools = case
    planted = np.array([[p[0, 0] for p in pools]])
    rho = float(pat.residual(planted)[0])
    assert np.isfinite(rho)
    idx, pts = _all_tuples(pools, distinct=False)
    resid = pat.residual(pts)
    points = np.concatenate(pools)
    sidx, spts = _all_tuples([points] * 3, distinct=True)
    sresid = pat.residual(spts)
    for tau in (float(np.nextafter(rho, -1.0)), rho, float(np.nextafter(rho, 2.0))):
        if tau < 0:
            continue
        # incidence contract: residual <= tau
        want = np.unique(idx[resid <= tau, -1])
        np.testing.assert_array_equal(incidence_index_set(pools, pat, tau), want)
        # scan contract: residual <= margin + SCAN_TOL, so also probe the
        # margin that puts that bound on the planted residual
        for margin in {tau, max(0.0, tau - SCAN_TOL)}:
            hit = sresid <= margin + SCAN_TOL
            got, got_r = violation_scan(points, pat, margin=margin)
            np.testing.assert_array_equal(got, sidx[hit])
            np.testing.assert_array_equal(got_r, sresid[hit])
