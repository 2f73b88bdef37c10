"""Weighted exponential sums, dyadic frequency sweeps, and calibration.

The central object is the normalized weighted sum

    S(xi) = (1/N) * sum_k a_k * exp(2*pi*i * xi . x_k)

evaluated over integer frequencies.  A *sweep* checks the square-root
cancellation bound

    |S(xi)| <= C * N**-0.5 * log(N) + delta * |xi|**(-lam/2)

for all 0 < |xi| <= N**(1+kappa), reporting per-dyadic-annulus statistics.
Only canonical representatives under xi -> -xi are evaluated (conjugate
symmetry).  In d >= 2 the lattice is enumerated exhaustively up to
``exhaustive_limit`` and deterministically subsampled per annulus beyond
that; subsampled annuli are marked as such in the report.

Evaluation.  In d = 1 the sweep advances a phase recurrence over
consecutive frequencies.  In d >= 2, :func:`weighted_exp_sum` splits
e(xi . x) = e(xi' . x') * e(xi_d x_d), where xi' holds the first d-1
coordinates (the prefix).  When the frequencies fill at least 1/8 of the
box (distinct prefixes) x (range of xi_d), as lattice shells do, it builds
the phase tables A[p, prefix] = w_p e(prefix . x'_p) and E[p, l] = e(l x_{p,d})
and takes S = A^T E by matrix products over blocks of at most
``_TABLE_ENTRIES`` complex entries, so memory stays bounded at any N.
Sparser sets, such as the subsampled annuli, take the direct sum with one
complex exponential per (frequency, point) pair.  Both paths reduce every
phase modulo 1 before exponentiating; they agree to float rounding.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

__all__ = [
    "weighted_exp_sum",
    "sweep",
    "SweepReport",
    "AnnulusStat",
    "calibrate_constant",
    "config_annulus_sups",
]

_BLOCK = 4096  # frequencies per recurrence block (fixed: results must not
# depend on thread count, so blocking is independent of threads)
_TABLE_ENTRIES = 4_000_000  # complex entries per phase table or product block


def weighted_exp_sum(points, weights, xi):
    """Normalized weighted exponential sum at one or many frequencies.

    Parameters
    ----------
    points : (N, d) array
    weights : (N,) array or None for unit weights
    xi : (d,) or (K, d) array_like of integers

    Returns
    -------
    complex or (K,) complex ndarray
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    N, d = points.shape
    if weights is None:
        weights = np.ones(N)
    weights = np.asarray(weights, dtype=float)
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 1
    xi = np.atleast_2d(xi)
    if xi.shape[1] != d:
        raise ValueError("frequency dimension does not match points")
    out = _separable_sum(points, weights, xi) if d >= 2 else None
    if out is None:
        out = _direct_sum(points, weights, xi)
    out /= N
    return out[0] if scalar else out


def _direct_sum(points, weights, xi):
    """sum_p w_p e(xi . x_p), one complex exponential per (xi, point) pair."""
    N = len(points)
    out = np.empty(len(xi), dtype=complex)
    chunk = max(1, _TABLE_ENTRIES // max(N, 1))
    for i in range(0, len(xi), chunk):
        # reduce xi.x modulo 1 before exponentiating; keeps the phase
        # accurate even for very large |xi|
        phase = (xi[i : i + chunk] @ points.T) % 1.0
        out[i : i + chunk] = np.exp(2j * np.pi * phase) @ weights
    return out


def _separable_sum(points, weights, xi):
    """sum_p w_p e(xi . x_p) through prefix and last-coordinate phase tables.

    Returns None when xi is not integral or fills less than 1/8 of its
    (distinct prefix) x (last-coordinate range) box; the direct sum is
    cheaper there.
    """
    K = len(xi)
    if K == 0 or not np.all(np.abs(xi) < 2.0**52) or not np.array_equal(xi, np.round(xi)):
        return None
    groups = _prefix_groups(xi[:, :-1])
    if groups is None:
        return None
    prefixes, p_of = groups
    last = xi[:, -1].astype(np.int64)
    l_min = int(last.min())
    l_of = last - l_min
    P, L = len(prefixes), int(l_of.max()) + 1
    if 8 * K < P * L:
        return None
    N = len(points)
    # block sizes: A is N x pb, E is N x lb, S is pb x lb
    pb = max(1, min(P, _TABLE_ENTRIES // N))
    lb = max(1, min(L, _TABLE_ENTRIES // max(N, pb)))
    n_lb = -(-L // lb)
    block = (p_of // pb) * n_lb + l_of // lb
    order = np.argsort(block, kind="stable")
    bounds = np.searchsorted(block[order], np.arange(-(-P // pb) * n_lb + 1))
    x_head, x_last = points[:, :-1], points[:, -1]
    ls = np.arange(l_min, l_min + L, dtype=float)
    out = np.empty(K, dtype=complex)
    b = 0
    for p0 in range(0, P, pb):
        A = weights[:, None] * np.exp(
            2j * np.pi * ((x_head @ prefixes[p0 : p0 + pb].T) % 1.0)
        )
        for l0 in range(0, L, lb):
            sel = order[bounds[b] : bounds[b + 1]]
            b += 1
            if len(sel) == 0:
                continue
            E = np.exp(2j * np.pi * (np.multiply.outer(x_last, ls[l0 : l0 + lb]) % 1.0))
            out[sel] = (A.T @ E)[p_of[sel] - p0, l_of[sel] - l0]
    return out


def _prefix_groups(head):
    """Distinct rows of the integral block ``head`` in lexicographic order
    and the row index of each, as ``np.unique(head, axis=0,
    return_inverse=True)`` gives them, through one mixed-radix int64 key
    per row over the offsets from the column minima.  None when the key
    does not fit in int64.
    """
    lo = head.min(axis=0)
    radix = [int(v) + 1 for v in head.max(axis=0) - lo]
    if math.prod(radix) >= 2**63:
        return None
    digits = (head - lo).astype(np.int64)
    key = digits[:, 0]
    for j in range(1, head.shape[1]):
        key = key * radix[j] + digits[:, j]
    keys, p_of = np.unique(key, return_inverse=True)
    cols = []
    for r in radix[:0:-1]:
        keys, col = np.divmod(keys, r)
        cols.append(col)
    return lo + np.stack([keys] + cols[::-1], axis=1), p_of


def _mags_block_1d(x, a, lo, hi, N):
    """|S(xi)| for consecutive integer xi in [lo, hi] via recurrence."""
    w = a * np.exp(2j * np.pi * ((lo * x) % 1.0))
    z = np.exp(2j * np.pi * x)
    out = np.empty(hi - lo + 1)
    out[0] = abs(w.sum())
    for i in range(1, hi - lo + 1):
        w *= z
        out[i] = abs(w.sum())
    out /= N
    return out


def sweep_magnitudes_1d(points, weights, xi_max, threads=1):
    """|S(xi)| for xi = 1..xi_max (d = 1).

    The range is cut into fixed-size blocks; each block is seeded by a
    direct evaluation and advanced by the one-step phase recurrence, so
    round-off never accumulates past a block and the result is the same
    for every thread count.
    """
    x = np.ascontiguousarray(np.asarray(points, dtype=float).reshape(-1))
    N = len(x)
    a = (
        np.ones(N)
        if weights is None
        else np.asarray(weights, dtype=float).reshape(-1)
    )
    blocks = [(lo, min(lo + _BLOCK - 1, xi_max)) for lo in range(1, xi_max + 1, _BLOCK)]
    if threads <= 1:
        parts = [_mags_block_1d(x, a, lo, hi, N) for lo, hi in blocks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(lambda b: _mags_block_1d(x, a, b[0], b[1], N), blocks)
            )
    return np.concatenate(parts) if parts else np.empty(0)


def _canonical_lattice_shell(d, lo, hi):
    """Integer frequencies with lo <= |xi|_2 < hi, one per +-xi pair.

    Canonical representative: first nonzero coordinate positive.  Rows
    come in lexicographic order.  The shell is grown one coordinate at a
    time, each partial row receiving the range of its next coordinate, so
    memory stays proportional to the output rather than to its (2 hi)^d
    bounding box.  Squared norms are exact integers in float and are
    compared with ``lo * lo`` and ``hi * hi`` as floats.
    """
    lo2, hi2 = float(lo) * float(lo), float(hi) * float(hi)
    rows = np.zeros((1, 0), dtype=np.int64)
    for j in range(d):
        q = (rows.astype(float) ** 2).sum(axis=1)
        last = j == d - 1
        b = _least_root_at_least(q, hi2) - 1  # largest |t| with q + t^2 < hi2
        a = _least_root_at_least(q, lo2) if last else np.zeros_like(b)
        # the next coordinate t runs over -b..-max(a,1) then a..b; a row
        # that is still all zero keeps only t >= 0 (t >= 1 in the last
        # coordinate), which makes its first nonzero coordinate positive
        zero = ~np.any(rows != 0, axis=1)
        neg_lo = np.where(zero, 0, -b)
        neg_n = np.where(zero, 0, np.maximum(b - np.maximum(a, 1) + 1, 0))
        pos_lo = np.where(zero, np.maximum(a, 1 if last else 0), a)
        pos_n = np.maximum(b - pos_lo + 1, 0)
        starts = np.stack([neg_lo, pos_lo], axis=1).reshape(-1)
        counts = np.stack([neg_n, pos_n], axis=1).reshape(-1)
        seg_begin = np.cumsum(counts) - counts
        t = np.repeat(starts - seg_begin, counts) + np.arange(counts.sum())
        rows = np.column_stack([np.repeat(rows, neg_n + pos_n, axis=0), t])
    return rows


def _least_root_at_least(q, bound2):
    """Least integer t >= 0 with q + t*t >= bound2, per entry of q (int64).

    ``q`` holds exact integers in float; the float square root is only a
    first guess, settled by the same float comparison the shell uses.
    """
    t = np.ceil(np.sqrt(np.maximum(bound2 - q, 0.0)))
    while True:
        down = (t > 0) & (q + (t - 1) ** 2 >= bound2)
        up = q + t * t < bound2
        if not (down.any() or up.any()):
            return t.astype(np.int64)
        t = t - down + up


def _subsample_annulus(d, lo, hi, count, salt=0):
    """Deterministic low-discrepancy subsample of the annulus lo <= |xi| < hi."""
    k = np.arange(count)
    # radii stratified geometrically across the annulus
    u = (k + 0.5) / count
    rho = lo * (hi / lo) ** u
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    if d == 1:
        pts = np.round(rho).astype(np.int64).reshape(-1, 1)
    elif d == 2:
        theta = np.pi * ((k * golden + salt * golden**2) % 1.0)  # half-plane
        pts = np.round(
            np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1)
        ).astype(np.int64)
    else:
        # spherical Fibonacci-style directions in d dims via successive angles
        rng = np.random.default_rng(np.random.Philox(key=salt + 12345))
        dirs = rng.standard_normal((count, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = np.round(dirs * rho[:, None]).astype(np.int64)
    norm = np.sqrt((pts.astype(float) ** 2).sum(axis=1))
    keep = (norm >= lo) & (norm < hi)
    pts = pts[keep]
    # canonicalize sign and dedupe
    for j in range(d):
        head_zero = np.all(pts[:, :j] == 0, axis=1) if j else np.ones(len(pts), bool)
        flip = head_zero & (pts[:, j] < 0)
        pts[flip] *= -1
    pts = np.unique(pts, axis=0)
    return pts[np.any(pts != 0, axis=1)]


@dataclass
class AnnulusStat:
    j: int
    lo: float
    hi: float
    n_evaluated: int
    sup: float
    argmax_xi: list
    sampled: bool
    n_violations: int = 0
    worst_excess: float = 0.0


@dataclass
class SweepReport:
    N: int
    d: int
    lam: float
    kappa: float
    C: float
    delta: float
    xi_max: int
    passed: bool
    n_violations: int
    sup_overall: float
    annuli: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        out = asdict(self)
        out["annuli"] = [asdict(a) if isinstance(a, AnnulusStat) else a for a in self.annuli]
        return out


def _bound(absxi, N, lam, C, delta):
    return C * N**-0.5 * math.log(N) + delta * absxi ** (-lam / 2.0)


def sweep(
    points,
    weights,
    lam,
    C,
    delta=1.0,
    kappa=0.2,
    xi_max=None,
    threads=1,
    exhaustive_limit=2**12,
    per_annulus=2**16,
):
    """Dyadic-annulus sweep of |S(xi)| against the cancellation bound.

    Returns a :class:`SweepReport`; ``report.passed`` is True when no
    evaluated frequency violates the bound.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    N, d = points.shape
    if N < 2:
        raise ValueError("need at least two points")
    if xi_max is None:
        xi_max = int(math.ceil(N ** (1.0 + kappa)))
    jmax = int(math.floor(math.log2(xi_max)))
    annuli = []
    n_viol = 0
    sup_overall = 0.0

    if d == 1:
        mags = sweep_magnitudes_1d(points, weights, xi_max, threads=threads)
        absxi = np.arange(1, xi_max + 1, dtype=float)
        bounds = C * N**-0.5 * math.log(N) + delta * absxi ** (-lam / 2.0)
        viol = mags > bounds
        for j in range(jmax + 1):
            lo, hi = 2**j, min(2 ** (j + 1) - 1, xi_max)
            if lo > xi_max:
                break
            seg = slice(lo - 1, hi)
            seg_m = mags[seg]
            k = int(np.argmax(seg_m))
            nv = int(viol[seg].sum())
            excess = float((seg_m - bounds[seg]).max())
            annuli.append(
                AnnulusStat(
                    j=j,
                    lo=float(lo),
                    hi=float(hi + 1),
                    n_evaluated=hi - lo + 1,
                    sup=float(seg_m[k]),
                    argmax_xi=[lo + k],
                    sampled=False,
                    n_violations=nv,
                    worst_excess=max(0.0, excess),
                )
            )
            n_viol += nv
            sup_overall = max(sup_overall, float(seg_m[k]))
    else:
        for j in range(jmax + 1):
            lo, hi = float(2**j), float(min(2 ** (j + 1), xi_max + 1))
            if lo > xi_max:
                break
            sampled = lo > exhaustive_limit
            if not sampled:
                xi = _canonical_lattice_shell(d, lo, hi)
                if len(xi) > per_annulus * 4:
                    xi = xi[:: len(xi) // (per_annulus * 4) + 1]
                    sampled = True
            else:
                xi = _subsample_annulus(d, lo, hi, per_annulus, salt=j)
            if len(xi) == 0:
                continue
            mags = np.abs(weighted_exp_sum(points, weights, xi))
            absxi = np.sqrt((xi.astype(float) ** 2).sum(axis=1))
            bounds = C * N**-0.5 * math.log(N) + delta * absxi ** (-lam / 2.0)
            viol = mags > bounds
            k = int(np.argmax(mags))
            annuli.append(
                AnnulusStat(
                    j=j,
                    lo=lo,
                    hi=hi,
                    n_evaluated=len(xi),
                    sup=float(mags[k]),
                    argmax_xi=[int(v) for v in xi[k]],
                    sampled=bool(sampled),
                    n_violations=int(viol.sum()),
                    worst_excess=max(0.0, float((mags - bounds).max())),
                )
            )
            n_viol += int(viol.sum())
            sup_overall = max(sup_overall, float(mags[k]))

    return SweepReport(
        N=N,
        d=d,
        lam=float(lam),
        kappa=float(kappa),
        C=float(C),
        delta=float(delta),
        xi_max=int(xi_max),
        passed=n_viol == 0,
        n_violations=n_viol,
        sup_overall=sup_overall,
        annuli=annuli,
        notes={
            "bound": "C*N^-1/2*log(N) + delta*|xi|^(-lam/2)",
            "log": "natural",
            "range": "N^(1+kappa)",
            "threads": threads,
        },
    )


def calibrate_constant(
    N,
    d,
    lam,
    weights=None,
    delta=1.0,
    kappa=0.2,
    trials=50,
    percentile=95.0,
    seed=0,
    threads=1,
):
    """Empirical sweep constant from a uniform-points pilot.

    Draws ``trials`` batches of N uniform points (with the supplied weight
    multiset, if any -- weighted configurations should calibrate against
    their own weights), computes for each the sweep statistic

        C_t = max_xi (|S(xi)| - delta*|xi|**(-lam/2)) * sqrt(N) / log(N)

    and returns ``(C, all_values)`` where C is the requested percentile.
    """
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if len(weights) != N:
            raise ValueError("weights length must equal N")
    xi_max = int(math.ceil(N ** (1.0 + kappa)))
    values = np.empty(trials)
    scale = math.sqrt(N) / math.log(N)
    for t in range(trials):
        rng = np.random.default_rng(np.random.Philox(key=(seed << 16) + t))
        pts = rng.random((N, d))
        if d == 1:
            mags = sweep_magnitudes_1d(pts, weights, xi_max, threads=threads)
            absxi = np.arange(1, xi_max + 1, dtype=float)
            stat = (mags - delta * absxi ** (-lam / 2.0)).max()
        else:
            stat = -np.inf
            jmax = int(math.floor(math.log2(xi_max)))
            for j in range(jmax + 1):
                lo, hi = float(2**j), float(min(2 ** (j + 1), xi_max + 1))
                xi = (
                    _canonical_lattice_shell(d, lo, hi)
                    if lo <= 2**12
                    else _subsample_annulus(d, lo, hi, 2**14, salt=j)
                )
                if len(xi) == 0:
                    continue
                mags = np.abs(weighted_exp_sum(pts, weights, xi))
                absxi = np.sqrt((xi.astype(float) ** 2).sum(axis=1))
                stat = max(stat, float((mags - delta * absxi ** (-lam / 2.0)).max()))
        values[t] = stat * scale
    return float(np.percentile(values, percentile)), values


def config_annulus_sups(points, weights, j_list, per_annulus=256):
    """Per-annulus sup of |S(xi)| for a point configuration.

    Exhaustive for annuli with at most ``per_annulus`` canonical
    frequencies, deterministic subsample otherwise.  Returns a dict
    ``j -> (sup, n_evaluated, sampled)``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    N, d = points.shape
    out = {}
    for j in j_list:
        lo, hi = float(2**j), float(2 ** (j + 1))
        if d == 1:
            n_canon = int(hi - lo)
            if n_canon <= per_annulus:
                xi = np.arange(int(lo), int(hi))[:, None]
                sampled = False
            else:
                xi = _subsample_annulus(1, lo, hi, per_annulus, salt=j)
                sampled = True
        else:
            if (2 * hi + 1) ** d <= 8 * per_annulus:
                xi = _canonical_lattice_shell(d, lo, hi)
                sampled = False
            else:
                xi = _subsample_annulus(d, lo, hi, per_annulus, salt=j)
                sampled = True
        if len(xi) == 0:
            continue
        mags = np.abs(weighted_exp_sum(points, weights, xi))
        out[j] = (float(mags.max()), len(xi), sampled)
    return out
