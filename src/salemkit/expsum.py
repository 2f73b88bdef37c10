"""Weighted exponential sums, dyadic frequency plans, sweeps, and calibration.

The central object is the normalized weighted sum

    S(xi) = (1/N) * sum_k a_k * exp(2*pi*i * xi . x_k)

evaluated over integer frequencies.  A *sweep* checks the square-root
cancellation bound

    |S(xi)| <= C * N**-0.5 * log(N) + delta * |xi|**(-lam/2)

for all 0 < |xi| <= N**(1+kappa), reporting per-dyadic-annulus statistics,
among them which term of the bound is the larger at the annulus's worst
frequency.

Frequency plans.  Every test of Fourier decay runs over one
:func:`frequency_plan`: the sweep, the uniform pilots of
:func:`calibrate_constant`, :func:`config_annulus_sups` and the grid path of
``dimension.fourier_dimension``.  Per dyadic annulus 2^j <= |xi| < 2^(j+1)
a plan holds the canonical lattice shell (one representative per +-xi pair,
by conjugate symmetry) when the shell has at most a cap of frequencies, and
a deterministic subsample, marked ``sampled``, otherwise.  The sweep and its
calibration share one cap, so C is calibrated on the statistic the sweep
verdict tests.

Evaluation.  :func:`plan_magnitudes` is the one evaluator: it returns a
plan's magnitudes with a record of the evaluator that ran, which a sweep
keeps in its notes.  Over finite d = 1 points and weights, the leading
annuli of a plan whose frequencies all lie in 1..top are screened by one
type-1 non-uniform FFT over 1..K, K their largest frequency, with a
Gaussian kernel (Dutt & Rokhlin, SISC 1993; Greengard & Lee, SIAM Rev. 46,
2004) in O(N w + K log K), which carries an a-priori bound eps on its
distance from the exact reference, :func:`weighted_exp_sum`.  top is the
larger of ``_SCREEN_TOP`` = 2^17 and the end of the plan's leading run
1, 2, 3, ..., so a whole sweep or pilot keeps its K and eps; 2^17 bounds the
screen's memory (11 MB at N = 3697, against 38 MB at 2^19).  Every later
d = 1 annulus, such as the sampled ones above 2^17, is screened by a phase
pass: the direct sum's own phases, folded to [-1/2, 1/2], with float32
cosines and sines summed in float64, within an eps that does not grow
with |xi|.  Every frequency on which a reported number can depend (near
an annulus maximum, near the maximum of |S| minus the bound, or within eps
of the bound) is then confirmed by :func:`weighted_exp_sum`.  Sups,
argmaxes, worst excesses, violation counts and the calibration statistic
are thus those of :func:`weighted_exp_sum`, bit for bit; other entries are
within eps.  Grid measures read their transform off the FFT.  Every other
annulus (d >= 2, or non-finite points or weights) goes through
:func:`weighted_exp_sum`, which in d >= 2 splits
e(xi . x) = e(xi' . x') * e(xi_d x_d), where xi' holds the first d-1
coordinates (the prefix).  When the frequencies fill at least 1/8 of the
box (distinct prefixes) x (range of xi_d), as lattice shells do, it builds
the phase tables A[p, prefix] = w_p e(prefix . x'_p) and E[p, l] = e(l x_{p,d})
and takes S = A^T E by matrix products over blocks of at most
``_TABLE_ENTRIES`` complex entries, so memory stays bounded at any N.
Sparser sets, such as the subsampled annuli, and every d = 1 set take the
direct sum with one complex exponential per (frequency, point) pair, in
d = 1 in cache-sized chunks.  Every direct sum is reduced row by row: the
terms of each frequency are summed on their own, so a d = 1 value has the
same bits whichever frequencies it is evaluated with, alone, in any subset,
in any order or in any chunk.
Both paths reduce every phase modulo 1 before exponentiating; they agree
to float rounding.
"""

import functools
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .torus import wrap

__all__ = [
    "weighted_exp_sum",
    "frequency_plan",
    "plan_magnitudes",
    "sweep",
    "SweepReport",
    "AnnulusStat",
    "calibrate_constant",
    "config_annulus_sups",
]

# complex entries per phase table or product block; a d = 1 direct sum
# takes 1/64 of it per chunk, where its bits do not depend on the chunk
_TABLE_ENTRIES = 4_000_000
# Plan caps and subsample sizes.  2^18 is the largest shell a sweep has
# ever enumerated in full; it keeps every d = 1 sweep below xi_max = 2^19
# whole.  The sups cap of 384 keeps in full exactly the annuli the
# configuration sups always did in d <= 4: j <= 8 in d = 1, j <= 3 in d = 2,
# j <= 1 in d = 3 and j = 0 in d = 4.
_SWEEP_CAP, _SWEEP_SAMPLES = 2**18, 2**16
_SUPS_CAP, _SUPS_SAMPLES = 384, 256
# d = 1 screen: grid oversampling ratio R and Gaussian spreading half-width
# (Greengard & Lee's R = 2, M_sp = 12), and points spread per bincount call
_NUFFT_R, _NUFFT_HALFWIDTH = 2, 12
_SPREAD_CHUNK = 2**15
# top of the d = 1 screen beyond a plan's leading run 1..K: at N = 3697
# it takes 13 ms and 11 MB, against 58 ms and 38 MB at 2^19.  The sampled
# annuli below it stay on this screen: the float32 phase screen took
# fourier_dimension(config) of demos-1d's final stage (N = 3697) from 52
# to 74 ms on a 2-CPU host
_SCREEN_TOP = 2**17
# (frequency, point) pairs per chunk of the d = 1 phase screen: 6 MiB of
# buffers, where 2^20 pairs would take 24 MiB
_PHASE_CHUNK = 2**18


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
    weights = _weights(weights, points)
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


def _weights(weights, points):
    """One float weight per row of the (N, d) ``points``; unit weights
    for None.  Any other shape than (N,) raises, as a single weight would
    broadcast."""
    if weights is None:
        return np.ones(len(points))
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(points),):
        raise ValueError(f"weights of shape {weights.shape} for points of shape {points.shape}")
    return weights


def _direct_sum(points, weights, xi):
    """sum_p w_p e(xi . x_p), one complex exponential per (xi, point) pair.

    The terms of each frequency are summed on their own (numpy's pairwise
    sum along a row), so an entry has the same bits whichever frequencies
    are evaluated with it.
    """
    N, d = points.shape
    out = np.empty(len(xi), dtype=complex)
    chunk = max(1, (_TABLE_ENTRIES if d > 1 else _TABLE_ENTRIES // 64) // max(N, 1))
    for i in range(0, len(xi), chunk):
        # reduce xi.x modulo 1 before exponentiating; keeps the phase
        # accurate even for very large |xi|
        phase = wrap(xi[i : i + chunk] @ points.T)
        terms = np.exp(2j * np.pi * phase)
        terms *= weights
        out[i : i + chunk] = terms.sum(axis=1)
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
            2j * np.pi * wrap(x_head @ prefixes[p0 : p0 + pb].T)
        )
        for l0 in range(0, L, lb):
            sel = order[bounds[b] : bounds[b + 1]]
            b += 1
            if len(sel) == 0:
                continue
            E = np.exp(2j * np.pi * wrap(np.multiply.outer(x_last, ls[l0 : l0 + lb])))
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


def _screen_1d(x, a, K):
    """Screened |S(xi)| for xi = 1..K and a bound eps on its distance from
    ``abs(weighted_exp_sum(x, a, xi))``, a direct sum reduced row by row: a
    type-1 Gaussian NUFFT.

    Method (Greengard & Lee 2004, with x in [0, 1)).  Each point is spread
    onto a real grid of Mr nodes (Mr >= 2 R (K+1), a power of two; R = 2)
    with the Gaussian g(t) = exp(-beta t^2) of the distance t in grid
    units, over the 2 w nodes nearest to it (w = 12), and with
    beta = pi (R - 1/2) / (R w), which is Greengard & Lee's tau in grid
    units.  With c = pi^2 / (beta Mr^2), the Fourier series of the periodic
    Gaussian gives

        sum_k a_k e(xi x_k) = sqrt(beta/pi) e^(c xi^2) conj(G[xi]) + errors,

    where G is the real FFT of the grid.  Mr x is exact (Mr is a power of
    two), and the grid is summed by ``np.bincount`` in point chunks.

    Bound.  Let A = sum |a_k|, u = 2^-53, X = max |x_k|, L = e^(c K^2)
    (at most e^pi, since 4 K < Mr) and q = e^(-c Mr (Mr - 2K)).  Every term
    below is a bound on the sum before the division by N; eps is their
    total times 2 / N, the factor 2 covering the libm and FFT constants,
    which are assumed, not certified:

    - aliasing: the images xi - p Mr, p != 0, of the Gaussian's spectrum,
      A 2q / (1 - q);
    - truncation: A times the Gaussian mass a point leaves outside its 2w
      nodes, at most 2 e^(-beta w^2) / (1 - e^(-beta (2w + 1))), times the
      deconvolution's gain sqrt(beta/pi) L;
    - screen rounding: u A [2 pi K + L (N + 151 + 8 (log2 Mr + 2)) + 20],
      from folding x into [0, 1) (a position error of u), the spread weights
      (150 u each), the bincount sums (at most N terms a node, as
      Mr >= 2w), an FFT error of 8 u per radix-2 stage (log2 Mr + 2 stages
      for a real transform) on a grid of l1 mass at most A sqrt(pi/beta),
      and the deconvolution;
    - direct-sum rounding: u A [2 pi X K + 24 + 1.42 N + 6], from the
      phase xi x (xi <= K) rounded and reduced modulo 1, its product by
      2 pi, the complex exponential and the product by a_k (together at
      most 2 pi (X K + 3) + 4.5 per unit of |a_k| u), the N-term complex
      sum in any order (sqrt(2) (N - 1) u A), and the division by N before
      the abs: numpy divides each component by the complex N + 0i as a
      product with the rounded 1/N (2 u), and the abs adds 1 u, so 3 u A
      of the 6 covers them.
    """
    N = len(x)
    w = _NUFFT_HALFWIDTH
    Mr = 1 << (max(2 * _NUFFT_R * (K + 1), 2 * w) - 1).bit_length()
    beta = math.pi * (_NUFFT_R - 0.5) / (_NUFFT_R * w)
    c = math.pi**2 / (beta * Mr * Mr)
    gain = math.sqrt(beta / math.pi)
    pos = wrap(x) * Mr
    node0 = np.floor(pos)
    frac = pos - node0
    node0 = node0.astype(np.int64)
    t = np.arange(1 - w, w + 1)
    grid = np.zeros(Mr)
    for s in range(0, N, _SPREAD_CHUNK):
        part = slice(s, s + _SPREAD_CHUNK)
        dist = t - frac[part, None]
        node = (node0[part, None] + t) & (Mr - 1)
        spread = a[part, None] * np.exp(-beta * dist * dist)
        grid += np.bincount(node.ravel(), spread.ravel(), minlength=Mr)
    mags = np.abs(np.fft.rfft(grid)[1 : K + 1])
    xi = np.arange(1, K + 1, dtype=float)
    mags *= np.exp(c * xi * xi) * (gain / N)

    L = math.exp(c * K * K)
    q = math.exp(-c * Mr * (Mr - 2 * K))
    alias = 2 * q / (1 - q)
    trunc = gain * L * 2 * math.exp(-beta * w * w) / (1 - math.exp(-beta * (2 * w + 1)))
    X = float(np.abs(x).max())
    screen = 2 * math.pi * K + L * (N + 151 + 8 * (math.log2(Mr) + 2)) + 20
    direct = 2 * math.pi * X * K + 24 + 1.42 * N + 6
    eps = 2 * float(np.abs(a).sum()) / N * (alias + trunc + (screen + direct) * 2.0**-53)
    return mags, eps


def _phase_screen_1d(x, a, xi):
    """Screened |S(xi)| at any finite frequencies ``xi`` (K,) and a bound eps
    on its distance from ``abs(weighted_exp_sum(x, a, xi))``: the direct
    sum's phases, with float32 cosines and sines.

    Method.  Per (frequency, point) pair the phase is y = fl(xi x_k), the
    one rounded product that ``xi @ points.T`` forms in the direct sum, so
    both sums exponentiate the same y.  It is folded to y - rint(y) in
    [-1/2, 1/2], which differs from the direct sum's ``wrap(y)`` by an
    integer and is exact: by Sterbenz's lemma when |y| < 1, and otherwise
    because it is a multiple of ulp(y) no larger than 1/2 (0 once ulp(y)
    >= 1).  theta = 2 pi (y - rint(y)) is rounded to
    float32, numpy's SIMD float32 ``cos`` and ``sin`` are taken, and the
    weighted sums ``cos(theta) @ a`` and ``sin(theta) @ a`` run in float64,
    block by block in :func:`_phase_blocks`.

    Bound.  Let A = sum |a_k| and u = 2^-53.  Per unit of |a_k|, before the
    division by N, and since |e^(i s) - e^(i t)| <= |s - t|:

    - theta: 2 pi (y - rint(y)) in float64 is within 7 u of the real
      product (|y - rint(y)| <= 1/2), and float32 rounding adds at most
      2^-24 |theta| <= pi 2^-24 (1 + 2 u);
    - cos and sin: 2 ulp each, at most 2^-23 an ulp for values in [-1, 1],
      so 2 sqrt(2) 2^-23 for the complex term; the 2 ulp are numpy's own
      validation tolerance for these float32 functions, assumed, not
      certified;
    - float64 sums: the N products by a_k and their sum in any order,
      sqrt(2) N u per unit of A, then the hypot and the division by N,
      2 u;
    - direct-sum rounding (as in :func:`_screen_1d`, without the phase
      term, as both sums share y): 24 u for its product by 2 pi, complex
      exponential and product by a_k, sqrt(2) (N - 1) u for its complex
      sum, 6 u for the division by N and the abs.

    eps is their total times 2 A / N, the factor 2 covering the assumed
    cos/sin and libm constants as in :func:`_screen_1d`:
    2 (A/N) (pi 2^-24 + 2 sqrt(2) 2^-23 + (2.84 N + 40) u), from
    :func:`_phase_eps`.  No term grows with |xi|, so eps holds up to
    |xi| = 2^53.
    """
    N, K = len(x), len(xi)
    re, im = np.empty(K), np.empty(K)

    def fill(i, yk):
        np.multiply(xi[i : i + len(yk), None], x, out=yk)

    for i, yk, re_k, im_k in _phase_blocks(K, a, fill):
        re[i : i + len(yk)], im[i : i + len(yk)] = re_k, im_k
    return np.hypot(re, im) / N, _phase_eps(float(np.abs(a).sum()) / N, N)


def _phase_blocks(K, a, fill, size=_PHASE_CHUNK):
    """Yield ``(i, y, re, im)`` over K rows of N = len(a) phases in turns:
    ``fill(i, y)`` writes rows i..i+len(y) into y, then re and im are
    ``cos(2 pi y) @ a`` and ``sin(2 pi y) @ a`` with float32 cos and sin.

    Each phase is folded to y - rint(y) in [-1/2, 1/2], exactly (Sterbenz's
    lemma when |y| < 1, else a multiple of ulp(y) no larger than 1/2), and
    2 pi times it is rounded to float32; numpy's SIMD float32 ``cos`` and
    ``sin`` follow, and the two weighted sums run in float64.  A block holds
    at most ``size`` phases (at least one row), its buffers are reused, and
    y is left as ``fill`` wrote it, so the caller may recompute a row
    exactly.
    """
    N = len(a)
    rows = max(1, min(K, size // max(N, 1)))
    y, r = np.empty((rows, N)), np.empty((rows, N))
    theta, cs = np.empty((rows, N), np.float32), np.empty((rows, N), np.float32)
    for i in range(0, K, rows):
        k = min(rows, K - i)
        yk, rk, tk, ck = y[:k], r[:k], theta[:k], cs[:k]
        fill(i, yk)
        np.subtract(yk, np.rint(yk, out=rk), out=rk)
        np.multiply(rk, 2 * np.pi, out=tk, casting="same_kind")
        np.copyto(rk, np.cos(tk, out=ck))
        re = rk @ a
        np.copyto(rk, np.sin(tk, out=ck))
        yield i, yk, re, rk @ a


def _phase_eps(scale, N):
    """The phase screen's bound for N terms of total weight ``scale``, as
    derived in :func:`_phase_screen_1d` (scale = A/N there)."""
    return 2 * scale * (math.pi * 2.0**-24 + 2 * math.sqrt(2) * 2.0**-23 + (2.84 * N + 40) * 2.0**-53)


def _screen_confirm_1d(points, weights, xis, n, bound):
    """|S(xi)| over the annuli ``xis`` of finite frequencies, for finite
    points and weights and N > 0, and the evaluation record.

    The first ``n`` annuli hold integer frequencies in 1..K, K the largest,
    and are screened by one NUFFT over 1..K (:func:`_screen_1d`); the rest
    by :func:`_phase_screen_1d`.  Each screen gives every entry of its
    annuli within its eps of the direct sum.  In each annulus, with tol =
    eps plus a rounding slack of 2^-50 times the largest magnitude in play,
    :func:`weighted_exp_sum` confirms every xi whose screened value is
    within 2 tol of the annulus maximum, whose value minus ``bound(xi)``
    (or minus 0 without a bound) is within 2 tol of its maximum, or, with a
    bound, within tol of the bound.  Every other entry is then strictly
    below the maxima and on the same side of the bound as the exact value,
    so the maximum, the first argmax, the maximum of the excess over the
    bound, its first argmax and the count of entries above the bound are
    those of ``abs(weighted_exp_sum)`` over the annulus, bit for bit: its
    direct sum is reduced row by row, so an entry has the same bits in any
    batch.
    """
    x = np.ascontiguousarray(np.asarray(points, dtype=float).reshape(-1))
    a = _weights(weights, points)
    # per annulus: the screen's values, its eps and the annulus's entries
    # in them, copied out only after the confirmation has freed its
    # temporaries
    parts, evaluation = [], {"evaluator": "phase-screen+direct"}
    if n:
        rows = [xi[:, 0] - 1 for xi in xis[:n]]
        mags, eps = _screen_1d(x, a, max(int(r.max()) for r in rows) + 1)
        parts += [(mags, eps, r) for r in rows]
        evaluation = {"evaluator": "nufft-screen+direct"}
    if n < len(xis):
        mags, eps = _phase_screen_1d(x, a, np.concatenate(xis[n:])[:, 0].astype(float))
        ends = np.cumsum([len(xi) for xi in xis[n:]])
        parts += [(mags, eps, np.arange(e - len(xi), e)) for xi, e in zip(xis[n:], ends)]
    picks = []
    for xi, (mags, eps, r) in zip(xis, parts):
        m = mags[r]
        b = np.zeros(len(xi)) if bound is None else bound(xi)
        excess = m - b
        tol = eps + 2.0**-50 * (m.max() + eps + np.abs(b).max())
        sel = (m >= m.max() - 2 * tol) | (excess >= excess.max() - 2 * tol)
        if bound is not None:
            sel |= np.abs(excess) <= tol
        picks.append(np.flatnonzero(sel))
    freqs = np.concatenate([xi[p] for xi, p in zip(xis, picks)]).astype(float)
    exact = np.abs(weighted_exp_sum(x[:, None], a, freqs))
    ends = np.cumsum([len(p) for p in picks])[:-1]
    for (mags, _, r), p, v in zip(parts, picks, np.split(exact, ends)):
        mags[r[p]] = v
    evaluation.update(eps=max(eps for _, eps, _ in parts), reevaluated=len(freqs))
    if n < len(xis):
        evaluation["phase_screened"] = len(xis) - n
    return [mags[r] for mags, _, r in parts], evaluation


def _canonical_lattice_shell(d, lo, hi, cap=math.inf):
    """Integer frequencies with lo <= |xi|_2 < hi, one per +-xi pair, or
    None when they number more than ``cap``.

    Canonical representative: first nonzero coordinate positive.  Rows
    come in lexicographic order.  The shell is grown one coordinate at a
    time, each partial row receiving the range of its next coordinate, so
    memory stays proportional to the output rather than to its (2 hi)^d
    bounding box.  Squared norms are exact integers in float and are
    compared with ``lo * lo`` and ``hi * hi`` as floats.

    The rows of each coordinate are counted before they are built, and the
    shell is refused at the first count over ``cap``.  The last count is
    the shell's size; an earlier one never exceeds it when lo >= 1 and
    hi - lo >= 1, as in every dyadic annulus, because each partial row,
    padded with zeros, then reaches the annulus through its last coordinate.
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
        if counts.sum() > cap:
            return None
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


def frequency_plan(d, j_list, top, cap=math.inf, samples=0):
    """Dyadic annuli 2^j <= |xi| < min(2^(j+1), top), one per j in ``j_list``.

    Yields ``(j, lo, hi, xi, sampled)`` for every nonempty annulus.  ``xi``
    is the canonical lattice shell, in lexicographic order, when it holds at
    most ``cap`` frequencies; otherwise it is the deterministic subsample of
    ``samples`` frequencies and ``sampled`` is True.  No shell over the cap
    is built.  An annulus reaching beyond |xi| = 2^53, where integers are no
    longer exact floats, raises ``ValueError``.
    """
    for j in j_list:
        lo, hi = float(2**j), float(min(2 ** (j + 1), top))
        if hi > 2.0**53:
            raise ValueError(f"annulus j = {j} reaches beyond |xi| = 2^53")
        xi = _canonical_lattice_shell(d, lo, hi, cap)
        sampled = xi is None
        if sampled:
            xi = _subsample_annulus(d, lo, hi, samples, salt=j)
        if len(xi):
            yield j, lo, hi, xi, sampled


def _sweep_plan(d, xi_max):
    """The plan of a sweep to xi_max: |xi| < xi_max + 1, which in d = 1 is
    every integer 1..xi_max."""
    return frequency_plan(
        d, range(int(xi_max).bit_length()), xi_max + 1, _SWEEP_CAP, _SWEEP_SAMPLES
    )


def plan_magnitudes(plan, source, weights=None, _bound=None):
    """|S(xi)| over a frequency plan: ``(evaluation, rows)``.

    ``rows`` yields ``(j, lo, hi, xi, sampled, mags)`` per annulus.
    ``evaluation`` records the ``evaluator`` that ran
    ("nufft-screen+direct", "phase-screen+direct", "direct/phase-table" or
    "grid"), its ``eps`` (0 when every entry is exact, else the largest
    bound of the screens that ran), the number of frequencies
    ``reevaluated`` by :func:`weighted_exp_sum` after the screens and, when
    the phase screen ran, the number of annuli it took as
    ``phase_screened``.

    ``source`` is an (N, d) point array with its ``weights`` (None for unit
    weights), or a grid measure, whose ``transform`` is read off its FFT.
    A point-set plan in d >= 2, or with non-finite points or weights, takes
    :func:`weighted_exp_sum` annulus by annulus, exact in every entry.  For
    finite d = 1 points and weights and N > 0, the plan's leading annuli
    with integer frequencies in 1..top are screened by one Gaussian NUFFT:
    top is the larger of ``_SCREEN_TOP`` (2^17, for the NUFFT's memory) and
    the end of the plan's leading run of frequencies 1, 2, 3, ..., so a
    sweep keeps its range.  Every later annulus is screened by the phase
    pass of :func:`_phase_screen_1d`.

    Each annulus's ``mags`` is then exact (bit-equal to
    :func:`weighted_exp_sum`) in its maximum and first argmax, and within
    eps of it elsewhere.  ``_bound`` (private: the sweep and its
    calibration pass it) maps an annulus's ``xi`` to the bound its
    magnitudes are tested against; with it, the maximum and first argmax of
    ``mags - _bound(xi)`` and the count of ``mags > _bound(xi)`` are exact
    too.  The two eps are derived in :func:`_screen_1d` and
    :func:`_phase_screen_1d`.
    """
    exact = {"eps": 0.0, "reevaluated": 0}
    if hasattr(source, "transform"):
        rows = ((*annulus, np.abs(source.transform(annulus[3]))) for annulus in plan)
        return {"evaluator": "grid", **exact}, rows
    plan = list(plan)
    xis = [annulus[3] for annulus in plan]
    d1 = bool(xis) and source.shape[1] == 1 and len(source) > 0
    if d1 and np.isfinite(source).all() and (weights is None or np.isfinite(weights).all()):
        # the NUFFT screens the n leading annuli within 1..top, top the
        # larger of _SCREEN_TOP and the end of the plan's leading run
        # 1, 2, 3, ...; the phase screen takes the rest
        f = np.concatenate(xis)[:, 0]
        top = max(_SCREEN_TOP, int(np.argmin(np.append(f == np.arange(1, len(f) + 1), False))))
        fits = [xi.dtype.kind in "iu" and len(xi) > 0 and 1 <= xi.min() and xi.max() <= top for xi in xis]
        n = int(np.argmin(fits + [False]))
        mags, evaluation = _screen_confirm_1d(source, weights, xis, n, _bound)
    else:
        mags = (np.abs(weighted_exp_sum(source, weights, xi)) for xi in xis)
        evaluation = {"evaluator": "direct/phase-table", **exact}
    return evaluation, ((*annulus, m) for annulus, m in zip(plan, mags))


def _decay(xi, lam, delta):
    """delta*|xi|^(-lam/2), the frequency-dependent term of the sweep bound."""
    return delta * np.sqrt((xi.astype(float) ** 2).sum(axis=1)) ** (-lam / 2.0)


@dataclass
class AnnulusStat:
    """One annulus of a sweep.  ``binding`` names the larger term of the
    bound at the annulus's worst frequency (largest |S| minus bound):
    ``"constant"`` for C*N^-1/2*log(N), ``"decay"`` for delta*|xi|^(-lam/2).
    """

    j: int
    lo: float
    hi: float
    n_evaluated: int
    sup: float
    argmax_xi: list
    sampled: bool
    n_violations: int = 0
    worst_excess: float = 0.0
    binding: str = ""


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
        return asdict(self)


def _require_finite(**values):
    """Refuse a NaN or infinite bound parameter: it would make every
    comparison with the bound false, and the sweep pass."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def sweep(points, weights, lam, C, delta=1.0, kappa=0.2, xi_max=None):
    """Dyadic-annulus sweep of |S(xi)| against the cancellation bound.

    Returns a :class:`SweepReport`; ``report.passed`` is True when no
    evaluated frequency violates the bound.  Annuli with more than
    ``_SWEEP_CAP`` canonical frequencies are subsampled and marked so.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    N, d = points.shape
    if N < 2:
        raise ValueError("need at least two points")
    _require_finite(lam=lam, C=C, delta=delta)
    if xi_max is None:
        xi_max = int(math.ceil(N ** (1.0 + kappa)))
    constant = C * N**-0.5 * math.log(N)
    evaluation, rows = plan_magnitudes(
        _sweep_plan(d, xi_max),
        points,
        weights,
        _bound=lambda xi: constant + _decay(xi, lam, delta),
    )
    annuli = []
    for j, lo, hi, xi, sampled, mags in rows:
        decay = _decay(xi, lam, delta)
        bounds = constant + decay
        excess = mags - bounds
        k, w = int(np.argmax(mags)), int(np.argmax(excess))
        annuli.append(
            AnnulusStat(
                j=j,
                lo=lo,
                hi=hi,
                n_evaluated=len(xi),
                sup=float(mags[k]),
                argmax_xi=[int(v) for v in xi[k]],
                sampled=sampled,
                n_violations=int((mags > bounds).sum()),
                worst_excess=max(0.0, float(excess[w])),
                binding="constant" if constant > decay[w] else "decay",
            )
        )
    n_viol = sum(a.n_violations for a in annuli)
    notes = {
        "bound": "C*N^-1/2*log(N) + delta*|xi|^(-lam/2)",
        "log": "natural",
        "range": "N^(1+kappa)",
        "evaluation": evaluation,
    }
    if C <= 0:
        notes["binding"] = "C <= 0: the decay term delta*|xi|^(-lam/2) alone carries the bound"
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
        sup_overall=max((a.sup for a in annuli), default=0.0),
        annuli=annuli,
        notes=notes,
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
):
    """Empirical sweep constant from a uniform-points pilot.

    Draws ``trials`` batches of N uniform points (with the supplied weight
    multiset, if any -- weighted configurations should calibrate against
    their own weights), computes for each the sweep statistic

        C_t = max_xi (|S(xi)| - delta*|xi|**(-lam/2)) * sqrt(N) / log(N)

    over the frequency plan of :func:`sweep` to N**(1+kappa), and returns
    ``(C, all_values)`` where C is the requested percentile.
    """
    if N < 2:
        raise ValueError("N must be at least 2: the statistic divides by log(N)")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _require_finite(lam=lam, delta=delta)
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if len(weights) != N:
            raise ValueError("weights length must equal N")
    plan = list(_sweep_plan(d, int(math.ceil(N ** (1.0 + kappa)))))
    if d == 1 and not any(sampled for *_, sampled in plan):
        # the plan tiles 1..xi_max and the statistic is one maximum over all
        # of it: as one annulus, only the frequencies near that maximum are
        # confirmed by direct sums after the screen
        plan = [(0, 1.0, plan[-1][2], np.concatenate([xi for _, _, _, xi, _ in plan]), False)]
    decay = functools.partial(_decay, lam=lam, delta=delta)
    values = np.empty(trials)
    scale = math.sqrt(N) / math.log(N)
    for t in range(trials):
        rng = np.random.default_rng(np.random.Philox(key=(seed << 16) + t))
        pts = rng.random((N, d))
        stat = max(
            float((mags - decay(xi)).max())
            for _, _, _, xi, _, mags in plan_magnitudes(plan, pts, weights, _bound=decay)[1]
        )
        values[t] = stat * scale
    return float(np.percentile(values, percentile)), values


def config_annulus_sups(points, weights, j_list):
    """Per-annulus sup of |S(xi)| for a point configuration.

    Exhaustive for annuli with at most ``_SUPS_CAP`` canonical frequencies,
    a ``_SUPS_SAMPLES``-point deterministic subsample otherwise.  Returns a
    dict ``j -> (sup, n_evaluated, sampled)``.  In d = 1 the annuli below
    2^17, sampled or not, are screened by :func:`plan_magnitudes`'s NUFFT
    and the sampled annuli above it by its phase pass; every sup is that
    of :func:`weighted_exp_sum`, bit for bit.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    plan = frequency_plan(points.shape[1], j_list, math.inf, _SUPS_CAP, _SUPS_SAMPLES)
    return {
        j: (float(mags.max()), len(xi), sampled)
        for j, _, _, xi, sampled, mags in plan_magnitudes(plan, points, weights)[1]
    }
