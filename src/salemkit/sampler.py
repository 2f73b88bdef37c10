"""Randomized avoiding constructions.

Each builder samples stratified point clouds on T^d, removes the indices
whose tuples come too close to the pattern (the incidence index set), and
returns a weighted configuration with provenance.

Scale note.  The incidence threshold from the asymptotic analysis is
``2*sqrt(n)*(L+1)*r``; at desk scale (M in the thousands) that threshold
can remove essentially every point for lambda near the critical exponent.
Builders therefore cap the threshold so the *expected* number of removals
stays at the removal budget the analysis actually allots (~ sqrt(M)),
using a pilot estimate of the residual distribution.  Whenever the theory
threshold already fits the budget it is used unchanged.  Both values and
the rule applied are recorded in the provenance.

The stratified pilot holds 200k tuples, but the cap reads only three order
statistics of their residuals, all fixed by the kk smallest (kk is about
max(200, target_F * 200k)).  So the pilot first takes each pattern's cheap
residual floor, a lower bound with a stated float slack, and computes the
exact residual only for the tuples whose floor can reach the kk smallest;
the threshold keeps every bit of a full sort.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionFailure, LayoutError
from .patterns import (
    SCAN_TOL,
    RoughPattern,
    SurfacePattern,
    TranslationalPattern,
    _tuple_hits,
    violation_scan,
)
from .torus import double_cube, load_points, load_sidecar, save_points, save_sidecar

__all__ = [
    "ConstructionParams",
    "WeightedConfiguration",
    "derive_radius",
    "incidence_index_set",
    "build_rough",
    "build_surface",
    "build_translational",
    "BUILDERS",
]

INCIDENCE_BUDGET = 300_000_000


@dataclass
class ConstructionParams:
    """Knobs shared by all three builders."""

    M: int
    lam: float
    seed: int = 0
    delta: float = 1.0
    kappa: float = 0.2
    separation_s: float = 0.0
    # None -> min(theory threshold, budget-capped threshold)
    filter_scale: float | None = None
    # target expected removals for the cap; None -> sqrt(M)
    removal_budget: float | None = None

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("M must be >= 2")
        if not 0.0 < self.lam:
            raise ValueError("lambda must be positive")
        for name in ("filter_scale", "removal_budget"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be None or finite and >= 0, got {value}")


def derive_radius(M, lam):
    """Radius r with r**(-lam) <= M <= r**(-lam) + 1."""
    if M < 1:
        raise ValueError("M must be >= 1")
    r = float(M) ** (-1.0 / lam)
    # nudge so the invariant holds despite rounding
    while r ** (-lam) > M:
        r = np.nextafter(r, 1.0)
    return r


def _stream(seed, stratum):
    """Deterministic counter-based RNG stream per (seed, stratum)."""
    key = np.array([np.uint64(seed), np.uint64(stratum)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class WeightedConfiguration:
    """Weighted point configuration S with per-point weights a_k.

    Invariants: weights are nonnegative; their sum is normalized to N (the
    Lemma hypothesis sum a >= N/2 then holds with room to spare); radius_r
    satisfies the derive_radius bracketing.
    """

    points: np.ndarray
    weights: np.ndarray
    radius_r: float
    lam: float
    strata: list = field(default_factory=list)  # (name, start, stop)
    provenance: dict = field(default_factory=dict)
    # (cube pools, removed indices into the last pool) of a stratified
    # build; kept in memory only, so None after load() and on copies
    _build_record: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.weights) != len(self.points):
            raise ValueError("one weight per point required")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")

    @property
    def N(self):
        return len(self.points)

    @property
    def d(self):
        return self.points.shape[1]

    def stratum_indices(self, name):
        for nm, start, stop in self.strata:
            if nm == name:
                return np.arange(start, stop)
        raise KeyError(name)

    def save(self, path):
        save_points(path, self.points, self.weights)
        save_sidecar(
            path,
            {
                "radius_r": self.radius_r,
                "lam": self.lam,
                "d": self.d,
                "N": self.N,
                "strata": [[nm, int(a), int(b)] for nm, a, b in self.strata],
                "provenance": self.provenance,
            },
        )

    @classmethod
    def load(cls, path):
        pts, ws = load_points(path)
        side = load_sidecar(path)
        if not side:
            raise ValueError(f"{path}: missing JSON sidecar")
        return cls(
            points=pts,
            weights=ws,
            radius_r=float(side["radius_r"]),
            lam=float(side["lam"]),
            strata=[(nm, int(a), int(b)) for nm, a, b in side.get("strata", [])],
            provenance=side.get("provenance", {}),
        )


def _normalize_weights(raw_weights):
    """Rescale weights so they sum to N; returns (weights, scale)."""
    total = float(raw_weights.sum())
    N = len(raw_weights)
    if total <= 0:
        raise ConstructionFailure("all stratum weights vanished")
    scale = N / total
    return raw_weights * scale, scale


def _cap_rule(B, M, n, removal_budget):
    """``(target_F, k, kk)`` of the cap over B pilot residuals: the target
    removal probability, the rank k = max(20, B // 1000) of the slope
    quantile, and kk = min(B, max(k, floor(target_F B) + 1)), how many of
    the smallest residuals :func:`_cap_threshold` reads."""
    target_F = removal_budget / float(M) ** n
    k = max(20, B // 1000)
    return target_F, k, min(B, max(k, math.floor(min(target_F * B, B)) + 1))


def _cap_threshold(tau_theory, smallest, B, M, n, removal_budget):
    """Budget-capped incidence threshold.

    ``smallest`` holds, sorted, the kk smallest of B pilot residuals from
    random independent tuples (:func:`_cap_rule`).  The cap solves
    E[#removed] ~ M^n * F(tau) = removal_budget through a linear model
    F(tau) ~ c0 + c1*tau fitted to the lower tail of the pilot.

    The rule reads three order statistics of the whole pilot: the counts
    at tau_theory and at 0 and the k-th smallest, and the kk smallest fix
    each of them.  A count taken in ``smallest`` is min(count, kk), and
    kk = B leaves it whole.  Else kk > fl(target_F B), so kk > target_F B
    in real numbers (rounding cannot pass the integer kk).  A count of at
    least kk then fails the theory test, since (kk + 3)/B exceeds target_F
    by more than 3/B, far beyond a rounding, and passes the atoms test,
    since fl(kk/B) >= target_F: the clipped count takes the branch the
    whole one takes.  Past both tests the count at 0 is below kk, so
    exact, and k <= kk.
    """
    target_F, k, _ = _cap_rule(B, M, n, removal_budget)
    # accept the theory threshold only when the pilot can actually certify
    # F(tau_theory) <= target_F: a raw count of zero just means F < 1/B,
    # so use the rule-of-three Poisson upper bound instead of the count
    n_below = int(np.searchsorted(smallest, tau_theory, side="right"))
    if (n_below + 3.0) / B <= target_F:
        return tau_theory, "theory"
    c0 = np.searchsorted(smallest, 0.0, side="right") / B
    if c0 >= target_F:
        # atoms alone exceed the budget; cap as low as possible
        return 0.0, "budget-capped(floor)"
    # slope from a low quantile of the pilot
    tau_c = smallest[k - 1]
    if tau_c <= 0:
        return 0.0, "budget-capped(floor)"
    c1 = (k / B - c0) / tau_c
    tau = (target_F - c0) / max(c1, 1e-300)
    return min(tau, tau_theory), "budget-capped"


def _wilson_interval(successes, total, z=1.96):
    if total == 0:
        return (0.0, 1.0)
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def incidence_index_set(strata, pattern, threshold, budget=INCIDENCE_BUDGET):
    """Indices into the last slot's pool taking part in a near-incidence.

    ``strata`` is either a single point array (one shared pool, tuples use
    distinct indices, as in the rough construction; this form is the last
    column of :func:`violation_scan` at margin ``threshold``) or one pool
    per tuple slot (stratified constructions, distinctness is automatic),
    where a tuple is a near-incidence when its residual is <= threshold.
    Returns the index set I as a sorted integer array; exact — fast paths
    must agree with full enumeration.
    """
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    strata = [np.atleast_2d(np.asarray(s, dtype=float)) for s in strata]
    if len(strata) == 1:
        tuples, _ = violation_scan(strata[0], pattern, threshold, 0.0, budget)
        return np.unique(tuples[:, -1])
    if len(strata) != pattern.n:
        raise ValueError(f"need 1 or {pattern.n} strata pools, got {len(strata)}")
    hits = [idx[:, -1] for idx, _ in _tuple_hits(strata, pattern, threshold, 0.0, budget)]
    return np.unique(np.concatenate([np.empty(0, dtype=np.int64)] + hits))


# ------------------------------------------------------------------ rough


def build_rough(pattern, params):
    """Uniform cloud on T^d minus the incidence index set of a rough pattern.

    Samples M i.i.d. uniform points, removes every index that ends a tuple
    lying within the threshold of the occupied cells, keeps unit weights.
    """
    if not isinstance(pattern, RoughPattern):
        raise TypeError("build_rough needs a RoughPattern")
    M, lam = params.M, params.lam
    r = derive_radius(M, lam)
    n, d = pattern.n, pattern.d
    X = _stream(params.seed, 0).random((M, d))
    tau_theory = 2.0 * math.sqrt(n) * r
    if params.filter_scale is not None:
        tau, rule = params.filter_scale * r, "explicit"
    else:
        budget = math.sqrt(M) if params.removal_budget is None else params.removal_budget
        B = 200_000
        tup = _stream(params.seed, 10_000).random((B, n * d))
        # the residual is exact only below tau_theory + 1/g, so fit the removal
        # probability on a grid of 9 thresholds t (dist <= t + SCAN_TOL), not a CDF
        taus = np.linspace(0.0, tau_theory, 9)
        dist = pattern.residual(tup, tau_theory)
        F = np.array([(dist <= t + SCAN_TOL).mean() for t in taus])
        target_F = budget / float(M) ** n
        # same rule-of-three guard as _cap_threshold: a zero pilot count
        # cannot certify F below 1/B
        if F[-1] + 3.0 / B <= target_F:
            tau, rule = tau_theory, "theory"
        elif F[0] >= target_F:
            tau, rule = 0.0, "budget-capped(floor)"
        elif F[-1] < target_F:
            # under the target at tau_theory, but not certifiably
            tau, rule = tau_theory, "budget-capped"
        else:
            k = int(np.searchsorted(F, target_F))
            # linear interpolation between bracketing thresholds
            t0, t1, f0, f1 = taus[k - 1], taus[k], F[k - 1], F[k]
            tau = t0 if f1 == f0 else t0 + (target_F - f0) * (t1 - t0) / (f1 - f0)
            rule = "budget-capped"
    removed = _filter([X], pattern, tau, M)
    keep = np.setdiff1d(np.arange(M), removed)
    return WeightedConfiguration(
        points=X[keep],
        weights=np.ones(len(keep)),
        radius_r=r,
        lam=lam,
        strata=[("uniform", 0, len(keep))],
        provenance={
            "kind": "rough",
            "M": M,
            "seed": params.seed,
            "n": n,
            "d": d,
            "tau_theory": tau_theory,
            "tau_used": float(tau),
            "tau_rule": rule,
            "n_removed": int(len(removed)),
        },
    )


# ------------------------------------------------------------- stratified


def _smallest_residuals(pattern, pilot, kk):
    """The kk smallest residuals of the ``pilot`` tuples, sorted.

    With the pattern's floor f and slack s (``residual_floor``; s a number
    or one per tuple), let c be the kk-th smallest f + s.  A tuple with
    f - s > c has a residual above c, and each of the kk tuples of least
    f + s has one of at most c unless it lies outside the domain.  Both
    hold in floats too, as rounding is monotone and a residual is a float:
    fl(f - s) > c gives f - s > c, and a residual r <= f + s gives
    r <= fl(f + s); the rounding allowance lives in s.  So the exact
    residual is taken only where f - s <= c; when at least kk of those are
    at most c, they hold the kk smallest of the pilot.  Otherwise (a tuple
    outside the domain hid below c) every tuple gets its exact residual.
    """
    floor, slack = pattern.residual_floor(pilot)
    c = np.partition(floor + slack, kk - 1)[kk - 1]
    resid = pattern.residual(pilot[floor - slack <= c])
    if np.count_nonzero(resid <= c) < kk:
        resid = pattern.residual(pilot)
    return np.sort(resid)[:kk]


def _threshold(pattern, params, r):
    """Provenance of the incidence threshold of a stratified build.

    The theory value is 2 sqrt(n) (L+1) r.  An explicit ``filter_scale``
    wins; otherwise a pilot of B = 200k tuples, drawn slot by slot from the
    doubled cubes on the pilot stream, caps it (:func:`_cap_threshold`).
    The cap reads only the kk smallest pilot residuals (:func:`_cap_rule`),
    so the pilot screens its tuples with the pattern's residual floor and
    takes the exact residual only where it can reach them
    (:func:`_smallest_residuals`); the threshold is the one a full sort of
    every residual gives, bit for bit.
    """
    n, M = pattern.n, params.M
    tau_theory = 2.0 * math.sqrt(n) * (pattern.lipschitz + 1.0) * r
    if params.filter_scale is not None:
        tau, rule = params.filter_scale * r, "explicit"
    else:
        B = 200_000
        # one (n, B, d) draw holds the numbers of n slot draws; placing each
        # slot in place spares a copy per slot, and freeing the block before
        # any residual runs keeps the peak at the rows and their residuals
        u = _stream(params.seed, 10_000).random((n, B, pattern.d))
        pilot = np.concatenate([double_cube(c).place(x) for c, x in zip(pattern.cubes, u)], axis=1)
        del u
        budget = math.sqrt(M) if params.removal_budget is None else params.removal_budget
        smallest = _smallest_residuals(pattern, pilot, _cap_rule(B, M, n, budget)[2])
        tau, rule = _cap_threshold(tau_theory, smallest, B, M, n, budget)
    return {"tau_theory": tau_theory, "tau_used": float(tau), "tau_rule": rule}


def _filter(pools, pattern, tau, M):
    """Incidence index set of the last pool of M candidates; removing more
    than half of them is a :class:`ConstructionFailure`."""
    removed = incidence_index_set(pools, pattern, tau)
    if len(removed) > M / 2:
        raise ConstructionFailure(
            f"{len(removed)} of {M} candidate points removed "
            f"(removal probability {len(removed) / M:.3f} > 1/2)"
        )
    return removed


def _assemble(pattern, params, r, stratum0, pools, removed, stratum_weights, provenance):
    """Weighted configuration of a stratified build.

    Strata: ``stratum0`` (a name and its points), the first n-1 pools and
    the kept part of the last, weighted by ``stratum_weights`` and
    normalized to total N.  The pools and ``removed`` become the build
    record.
    """
    M, n = params.M, pattern.n
    keep = np.setdiff1d(np.arange(M), removed)
    blocks = [stratum0[1]] + pools[: n - 1] + [pools[n - 1][keep]]
    names = [stratum0[0]] + [f"cube{i}" for i in range(1, n)] + [f"cube{n}(kept)"]
    weights, scale = _normalize_weights(
        np.concatenate([np.full(len(b), w) for b, w in zip(blocks, stratum_weights)])
    )
    strata = []
    pos = 0
    for nm, b in zip(names, blocks):
        strata.append((nm, pos, pos + len(b)))
        pos += len(b)
    config = WeightedConfiguration(
        points=np.concatenate(blocks, axis=0),
        weights=weights,
        radius_r=r,
        lam=params.lam,
        strata=strata,
        provenance={
            "kind": pattern.kind,
            "M": M,
            "seed": params.seed,
            "n": n,
            "d": pattern.d,
            **provenance,
            "n_removed": int(len(removed)),
            "stratum_weights": stratum_weights,
            "weight_scale": scale,
        },
    )
    config._build_record = (pools, removed)
    return config


# ------------------------------------------------------------------ surface


def _bump_ramp(v):
    """C-infinity ramp: 0 for v <= 0, 1 for v >= 1."""
    v = np.clip(v, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        b0 = np.where(v > 0, np.exp(-1.0 / np.maximum(v, 1e-300)), 0.0)
        b1 = np.where(v < 1, np.exp(-1.0 / np.maximum(1.0 - v, 1e-300)), 0.0)
    return b0 / (b0 + b1)


def _psi_axis(offset, side):
    """1-D bump profile: 1 within the 1.5-cube, 0 outside the doubled cube.

    ``offset`` is the wrapped signed distance to the cube center; the
    plateau half-width is 0.75*side, the support half-width is side.
    """
    t = np.abs(offset)
    return _bump_ramp((side - t) / (0.25 * side))


def _psi_cube(points, cube):
    """Product bump for one cube: 1 on 1.5*R, 0 off Q = 2*R."""
    pts = np.atleast_2d(points)
    center = cube.center
    off = (pts - center[None, :] + 0.5) % 1.0 - 0.5
    vals = _psi_axis(off, cube.side)
    return vals.prod(axis=1)


def _psi_integral(cube, d):
    """Integral of the product bump over T^d (one-axis quadrature, product)."""
    t = np.linspace(-cube.side, cube.side, 8193)
    w = _psi_axis(t, cube.side)
    axis = np.trapezoid(w, t)
    return axis**d


def _fill(count, d, propose):
    """``count`` points of T^d from batches of ``propose(need)``, which
    draws a batch sized for ``need`` more points and returns those it keeps."""
    out = np.empty((count, d))
    have = 0
    while have < count:
        acc = propose(count - have)
        take = min(len(acc), count - have)
        out[have : have + take] = acc[:take]
        have += take
    return out


def _sample_psi(rng, cube, count):
    """Draw ``count`` points with density psi_i / A_i by rejection."""
    Q = double_cube(cube)

    def propose(need):
        cand = Q.sample(rng, 2 * need + 16)
        return cand[rng.random(len(cand)) < _psi_cube(cand, cube)]

    return _fill(count, cube.d, propose)


def _sample_psi0(rng, cubes, count, d):
    """Draw from the residual bump psi_0 = 1 - sum_i psi_i by rejection."""

    def propose(need):
        cand = rng.random((4 * need + 16, d))
        density = np.ones(len(cand))
        for c in cubes:
            density -= _psi_cube(cand, c)
        return cand[rng.random(len(cand)) < density]

    return _fill(count, d, propose)


def build_surface(pattern, params):
    """Stratified construction avoiding a smooth graph x_n = f(x_1..x_{n-1}).

    One stratum per cube plus a residual stratum, sampled from a smooth
    partition of unity; the final stratum is filtered against f.
    """
    if not isinstance(pattern, SurfacePattern):
        raise TypeError("build_surface needs a SurfacePattern")
    M, d = params.M, pattern.d
    r = derive_radius(M, params.lam)
    cubes = pattern.cubes
    A = [_psi_integral(c, d) for c in cubes]
    A0 = 1.0 - sum(A)
    if A0 <= 0:
        raise LayoutError("cubes cover the torus; residual stratum is empty")
    pools = [_sample_psi(_stream(params.seed, i + 1), c, M) for i, c in enumerate(cubes)]
    pts0 = _sample_psi0(_stream(params.seed, 0), cubes, M, d)
    tau = _threshold(pattern, params, r)
    removed = _filter(pools, pattern, tau["tau_used"], M)
    return _assemble(
        pattern, params, r, ("residual", pts0), pools, removed,
        [A0] + list(A), {"lipschitz": pattern.lipschitz, **tau},
    )


# ------------------------------------------------------------ translational


def _complement_sample(rng, cubes, count, d):
    """Uniform sample on T^d minus the union of doubled cubes."""
    doubled = [double_cube(c) for c in cubes]

    def propose(need):
        cand = rng.random((2 * need + 16, d))
        mask = np.ones(len(cand), dtype=bool)
        for q in doubled:
            mask &= ~q.contains(cand)
        return cand[mask]

    return _fill(count, d, propose)


def build_translational(pattern, params):
    """Stratified construction avoiding x_n - a*x_{n-1} in periodized T.

    Requires the pattern to carry its cube layout (sidelength 1/(2am)).
    Stratum 0 is uniform on the complement of the doubled cubes; strata
    1..n are uniform on the doubled cubes; stratum n is filtered against
    the periodized targets.  Weights follow the removal probability P_hat.
    """
    if not isinstance(pattern, TranslationalPattern):
        raise TypeError("build_translational needs a TranslationalPattern")
    if pattern.cubes is None:
        raise LayoutError("translational construction requires pattern cubes")
    M, n = params.M, pattern.n
    r = derive_radius(M, params.lam)
    cubes = pattern.cubes
    side_expected = 1.0 / (2.0 * abs(pattern.a_float) * pattern.period_m)
    if abs(cubes[0].side - side_expected) > 1e-9:
        raise LayoutError(
            f"cube sidelength {cubes[0].side} != 1/(2|a|m) = {side_expected}"
        )
    pts0 = _complement_sample(_stream(params.seed, 0), cubes, M, pattern.d)
    pools = [double_cube(c).sample(_stream(params.seed, i + 1), M) for i, c in enumerate(cubes)]
    tau = _threshold(pattern, params, r)
    removed = _filter(pools, pattern, tau["tau_used"], M)
    P_hat = len(removed) / M
    vol_q = double_cube(cubes[0]).volume
    A0, Ai, An = (1.0 - n * vol_q) * P_hat, vol_q * P_hat, vol_q
    provenance = {
        "a": str(pattern.a),
        "period_m": pattern.period_m,
        **tau,
        "P_hat": P_hat,
        "P_hat_wilson95": list(_wilson_interval(len(removed), M)),
    }
    return _assemble(
        pattern, params, r, ("complement", pts0), pools, removed,
        [A0] + [Ai] * (n - 1) + [An], provenance,
    )


# one builder per pattern kind
BUILDERS = {
    "rough": build_rough,
    "surface": build_surface,
    "translational": build_translational,
}
