"""Point patterns on the torus and exact violation scanning.

Three pattern kinds are supported:

* :class:`RoughPattern` -- an arbitrary union of grid cells in the tuple
  space T^(d*n), given by occupied cell indices at resolution 1/g.
* :class:`SurfacePattern` -- a smooth graph relation x_n = f(x_1..x_{n-1})
  with a Lipschitz bound, together with the construction cubes R_1..R_n.
* :class:`TranslationalPattern` -- a relation x_n - a*x_{n-1} in T(x_1..x_{n-2})
  with rational a != 0 and a finite target map T, periodized with period m.

A *violation* of a pattern at margin eta is an n-tuple of distinct,
s-separated configuration points whose relation residual is <= eta.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import BudgetError, LayoutError
from .torus import coord_gap, cube_distance, double_cube, tdist, wrap

__all__ = [
    "RoughPattern",
    "SurfacePattern",
    "TranslationalPattern",
    "violation_scan",
]

# Cap on exact enumeration work before a scan refuses to run.
DEFAULT_SCAN_BUDGET = 200_000_000
# candidates per chunk of the tuple search behind the scan and the
# incidence set (tuples of the product enumeration, window queries of the
# d=1 probe); a chunk of 250k d=2 triples takes about 30 MB of temporaries
BRUTE_CHUNK = 250_000
# cap on window offsets x tuples of one RoughPattern.residual call; an
# offset costs 80-200 ns a tuple (d*n = 2..4), so about 20-50 s of work
ROUGH_RESIDUAL_BUDGET = 250_000_000
# absolute slack of the exact scans: a tuple is a violation at margin eta
# when its residual is <= eta + SCAN_TOL
SCAN_TOL = 1e-15


def _fold_slack(span):
    """Bound on how far two roundings of one folded offset can differ.

    The window probe folds x_n - a x_{n-1} - t modulo the period in one
    order of float operations and the residual measures it in another;
    :meth:`TranslationalPattern.residual_floor` in a third.  Every value
    either forms is at most ``span`` = 1 + |a| + max|t| in size, so each
    rounding (the product a x_{n-1}, the two differences, a wrap into
    [0, 1), a grid shift t + b/m, a scaling by m) moves a per-coordinate
    gap by at most half an ulp of ``span``, and a handful of them leave
    each way within 4 ulps of the real gap.  16 ulps bounds the difference
    of two ways with room to spare.  :meth:`SurfacePattern.residual_floor`
    takes it as its rounding allowance, with its own argument.
    """
    return 16.0 * np.spacing(span)


def _periodized_gap(v, t, m):
    """Per-coordinate torus gap from ``v`` to the nearest point of t + Z^d/m.

    The periodized set {t + b/m : b in {0..m-1}^d} + Z^d is the shifted
    lattice t + Z^d/m, and the nearest lattice value to ``v - t`` in each
    coordinate is an end of the grid cell of width 1/m that holds it.  Only
    those two shifts b are formed; each shifted target ``wrap(t + b/m)``
    is measured with :func:`coord_gap`, so the gap equals the minimum over
    all m shifts bit for bit.  A rounding slip in the cell index moves the
    cell by one but keeps the nearest end inside it.
    """
    lo = np.minimum(np.floor(wrap(v - t) * m), m - 1)
    hi = np.where(lo == m - 1, 0.0, lo + 1.0)
    gap = coord_gap(v, wrap(t + lo / m))
    return np.minimum(gap, coord_gap(v, wrap(t + hi / m)))


def _check_cubes(cubes, d, n, min_sep_factor=10.0):
    if len(cubes) != n:
        raise LayoutError(f"expected {n} cubes, got {len(cubes)}")
    for c in cubes:
        if c.d != d:
            raise LayoutError("cube dimension does not match pattern dimension")
    side = cubes[0].side
    for c in cubes[1:]:
        if abs(c.side - side) > 1e-12:
            raise LayoutError("construction cubes must share a common sidelength")
    for i in range(n):
        for j in range(i + 1, n):
            sep = cube_distance(cubes[i], cubes[j])
            if sep < min_sep_factor * side - 1e-12:
                raise LayoutError(
                    f"cubes {i} and {j} are {sep:.4g} apart; need >= "
                    f"{min_sep_factor}*sidelength = {min_sep_factor * side:.4g}"
                )


def _domain_mask(tuples, domain, d, n):
    """True where every slot x_i lies in the doubled construction cube Q_i.

    Cube-backed patterns define their relation on the product
    Q_1 x ... x Q_n only; tuples with a slot outside that product are not
    occurrences, no matter how small the algebraic residual.
    """
    shape = tuples.shape[:-1]
    flat = tuples.reshape(-1, d * n)
    mask = np.ones(flat.shape[0], dtype=bool)
    for i, q in enumerate(domain):
        mask &= q.contains(flat[:, i * d : (i + 1) * d])
    return mask.reshape(shape)


class RoughPattern:
    """Union of occupied grid cells in tuple space T^(d*n); its
    :meth:`residual` is the distance to the closed union of the cells.

    Parameters
    ----------
    n : int
        Tuple length; the ambient space is T^(d*n).
    d : int
        Dimension of the underlying torus.
    g : int
        Grid size; cells have sidelength 1/g.
    cells : array_like, shape (K, d*n), integer
        Occupied cell indices, each in [0, g).
    """

    kind = "rough"

    def __init__(self, n, d, g, cells):
        self.n = int(n)
        self.d = int(d)
        self.g = int(g)
        if self.n < 2 or self.d < 1 or self.g < 1:
            raise ValueError("need n >= 2, d >= 1, g >= 1")
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[1] != self.dn:
            raise ValueError(f"cells must have shape (K, {self.dn})")
        if cells.size and (cells.min() < 0 or cells.max() >= self.g):
            raise ValueError("cell indices must lie in [0, g)")
        # canonical order, duplicates dropped
        self.cells = np.unique(cells, axis=0)
        self._keys = np.sort(self._ravel(self.cells))

    @property
    def dn(self):
        return self.n * self.d

    def _ravel(self, cells):
        keys = np.zeros(len(cells), dtype=np.int64)
        for j in range(self.dn):
            keys = keys * self.g + cells[:, j]
        return keys

    def _window(self, upto):
        """Reach per coordinate and offset count of the probe window of
        :meth:`residual` at ``upto``."""
        reach = math.inf if math.isinf(upto) else int(np.ceil(upto * self.g)) + 1
        return reach, (2 * reach + 1) ** self.dn

    def residual(self, tuples, upto=math.inf):
        """Torus distance from each tuple (shape (K, d*n)) to the closed
        union of cells.

        Only the cells within ``ceil(upto*g) + 1`` of a tuple's own cell,
        per coordinate, are probed; every other cell is at least
        ``upto + 1/g`` away.  So the distance is exact wherever it is below
        that, and +inf when the window holds no occupied cell.  A window of
        over 100k offsets, an infinite ``upto`` among them, or of over
        ``ROUGH_RESIDUAL_BUDGET`` offsets x tuples raises
        :class:`BudgetError`.
        """
        points = np.atleast_2d(wrap(tuples))
        if points.shape[1] != self.dn:
            raise ValueError(f"points must have shape (K, {self.dn})")
        if not upto >= 0:
            raise ValueError("upto must be >= 0")
        reach, offsets = self._window(upto)
        if offsets > 100_000:
            raise BudgetError(
                "threshold too coarse for the cell resolution: probe "
                f"window (2*{reach}+1)^{self.dn} is too large"
            )
        if offsets * len(points) > ROUGH_RESIDUAL_BUDGET:
            raise BudgetError(
                f"{offsets} probe offsets x {len(points)} tuples exceed the "
                f"rough residual budget {ROUGH_RESIDUAL_BUDGET}"
            )
        out = np.full(len(points), np.inf)
        if len(self.cells) == 0:
            return out
        base = np.minimum(np.floor(points * self.g).astype(np.int64), self.g - 1)
        half = 0.5 / self.g
        for off in product(range(-reach, reach + 1), repeat=self.dn):
            cand = (base + np.array(off, dtype=np.int64)) % self.g
            keys = self._ravel(cand)
            idx = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
            occupied = self._keys[idx] == keys
            centers = (cand[occupied] + 0.5) / self.g
            gap = np.abs(points[occupied] - centers)
            gap = np.minimum(gap, 1.0 - gap) - half
            np.clip(gap, 0.0, None, out=gap)
            dist = np.sqrt(np.sum(gap * gap, axis=1))
            out[occupied] = np.minimum(out[occupied], dist)
        return out


class SurfacePattern:
    """Graph relation x_n = f(x_1, ..., x_{n-1}) with Lipschitz bound L.

    ``f`` must be vectorized: it maps an array of shape (..., d*(n-1)) to
    target points of shape (..., d).  It may carry ``f.bracket``, a cheap
    map of the same prefixes to ``(lo, hi)`` with f between them, which
    :meth:`residual_floor` screens the pilot with and the d = 1 window probe
    screens the removal and the scan with: f then runs only on the tuples
    they keep.  ``cubes`` are the n pairwise
    separated construction cubes R_1..R_n (separation >= 10 * sidelength).
    """

    kind = "surface"

    def __init__(self, d, n, cubes, f, lipschitz):
        self.d = int(d)
        self.n = int(n)
        if self.n < 2:
            raise ValueError("surface patterns need n >= 2")
        _check_cubes(cubes, self.d, self.n)
        self.cubes = list(cubes)
        self._domain = [double_cube(c) for c in self.cubes]
        self.f = f
        self.lipschitz = float(lipschitz)
        if self.lipschitz < 0:
            raise ValueError("Lipschitz constant must be >= 0")

    def residual(self, tuples, upto=math.inf):
        """|x_n - f(x_1..x_{n-1})| in the torus metric.

        ``tuples`` has shape (..., d*n).  The relation is defined on the
        product of the doubled construction cubes Q_1 x ... x Q_n; tuples
        outside that domain get residual +inf.  Exact everywhere, so
        ``upto`` is ignored.
        """
        tuples = np.asarray(tuples, dtype=float)
        prefix = tuples[..., : self.d * (self.n - 1)]
        last = tuples[..., self.d * (self.n - 1) :]
        target = np.asarray(self.f(prefix), dtype=float)
        res = tdist(last, target)
        mask = _domain_mask(tuples, self._domain, self.d, self.n)
        return np.where(mask, res, np.inf)

    def residual_floor(self, tuples):
        """``(floor, slack)`` as in :meth:`TranslationalPattern.residual_floor`,
        with a slack per tuple.

        Without ``f.bracket`` this is the residual itself, with slack 0.
        With it, ``f.bracket(prefix)`` gives ``(lo, hi)`` of shape (B, d)
        with the target f(prefix) between lo and hi per coordinate.  The
        floor is the torus distance from x_n to the float midpoint
        m = 0.5 (lo + hi).  By the triangle inequality the residual is
        within |f(prefix) - m| of it, which is at most h = |hi - lo| / 2
        (half the bracket's diagonal) plus the midpoint's rounding.  The
        slack is h plus d times :func:`_fold_slack` of
        span = 1 + max(|lo|, |hi|), the rounding allowance: every value
        either way forms (a wrapped coordinate, a gap, the midpoint, h) is
        at most ``span`` in size, and the midpoint (half an ulp per
        coordinate), h and the two torus distances (each a few ulps per
        coordinate through the wrap, the gap, the square, the sum and the
        root) round it by well under 16 d ulps of span in all.  The domain
        mask is skipped: it can only raise a residual to +inf.
        """
        bracket = getattr(self.f, "bracket", None)
        if bracket is None:
            return self.residual(tuples), 0.0
        split = self.d * (self.n - 1)
        lo, hi = (np.asarray(b, dtype=float) for b in bracket(tuples[:, :split]))
        floor = tdist(tuples[:, split:], 0.5 * (lo + hi))
        half = 0.5 * np.sqrt(((hi - lo) ** 2).sum(axis=-1))
        span = 1.0 + float(np.maximum(np.abs(lo), np.abs(hi)).max(initial=0.0))
        return floor, half + self.d * _fold_slack(span)


class TranslationalPattern:
    """Relation x_n - a*x_{n-1} in periodized T(x_1..x_{n-2}).

    Parameters
    ----------
    d, n : int
        Torus dimension and tuple length (n >= 2).
    a : int or Fraction
        Nonzero rational dilation factor.  Products a*x on the torus are
        taken through the representative of x in [0, 1).
    period_m : int
        Periodization order; targets are closed under adding b/m for
        b in {0..m-1}^d.
    T : callable
        Vectorized target map: (..., d*(n-2)) -> (..., K, d).  For n = 2
        it receives an empty last axis and must broadcast.
    lipschitz : float
        Lipschitz bound of T in the Hausdorff metric.
    cubes : sequence of Cube, optional
        Construction cubes R_1..R_n (validated if given).
    """

    kind = "translational"

    def __init__(self, d, n, a, period_m, T, lipschitz, cubes=None):
        self.d = int(d)
        self.n = int(n)
        if self.n < 2:
            raise ValueError("translational patterns need n >= 2")
        a = Fraction(a)
        if a == 0:
            raise ValueError("dilation factor a must be nonzero")
        self.a = a
        self.period_m = int(period_m)
        if self.period_m < 1:
            raise ValueError("period_m must be >= 1")
        self.T = T
        self.lipschitz = float(lipschitz)
        self.cubes = None
        self._domain = None
        if cubes is not None:
            _check_cubes(cubes, self.d, self.n)
            self.cubes = list(cubes)
            self._domain = [double_cube(c) for c in self.cubes]

    @property
    def a_float(self):
        return float(self.a)

    def residual(self, tuples, upto=math.inf):
        """Distance from x_n - a*x_{n-1} to the periodized target set.

        The periodized set of a raw target t is the lattice t + Z^d/m, so
        the distance is taken per raw target in closed form (nearest grid
        shift per coordinate) at O(K) cost per tuple, with the same value
        as the minimum of :func:`tdist` over the K*m^d shifted targets
        ``wrap(t + b/m)``.  An empty target set gives +inf.  When the pattern
        carries its cube layout, the relation is defined on the product of
        the doubled cubes Q_1 x ... x Q_n only; tuples with a slot outside
        that product get residual +inf.  Exact everywhere, so ``upto`` is
        ignored.
        """
        tuples = np.asarray(tuples, dtype=float)
        dp = self.d * (self.n - 2)
        prefix = tuples[..., :dp]
        xprev = tuples[..., dp : dp + self.d]
        xlast = tuples[..., dp + self.d :]
        raw = np.asarray(self.T(prefix), dtype=float)  # (..., K, d)
        v = wrap(xlast - self.a_float * xprev)
        if raw.shape[-2] == 0:
            # empty target set: nothing to be close to
            return np.full(v.shape[:-1], np.inf)
        gap = _periodized_gap(v[..., None, :], raw, self.period_m)
        res = np.sqrt(np.sum(gap * gap, axis=-1)).min(axis=-1)
        if self._domain is not None:
            mask = _domain_mask(tuples, self._domain, self.d, self.n)
            res = np.where(mask, res, np.inf)
        return res

    def residual_floor(self, tuples):
        """Cheap lower bound on :meth:`residual` of ``tuples`` (shape
        (B, d*n)), with its slack.

        Returns ``(floor, slack)``: every residual is >= floor - slack,
        and <= floor + slack for a tuple inside the domain.  Per raw target
        t the floor takes u = (x_n - a x_{n-1} - t) m, the distance of u to
        the nearest integer over m per coordinate, the Euclidean norm, and
        the minimum over targets: the same real number as the residual,
        rounded another way.  Per coordinate the two ways differ by at most
        8 ulps of span = 1 + |a| + max|t| (:func:`_fold_slack`); over d
        coordinates the norms then differ by at most 8 sqrt(d) ulps plus
        their own rounding, (d + 2) sqrt(d) / 4 ulps more, which d times the
        16-ulp slack bounds.  The domain mask is skipped: it can only raise
        a residual to +inf.
        """
        dp = self.d * (self.n - 2)
        raw = np.asarray(self.T(tuples[:, :dp]), dtype=float)  # (B, K, d)
        if raw.shape[-2] == 0:
            return np.full(len(tuples), np.inf), 0.0
        w = self.a_float * tuples[:, dp : dp + self.d]
        np.subtract(tuples[:, dp + self.d :], w, out=w)
        u = w[:, None, :] - raw
        u *= self.period_m
        u -= np.rint(u)
        u *= u
        floor = np.sqrt(u.sum(axis=-1)).min(axis=-1)
        floor /= self.period_m
        span = 1.0 + abs(self.a_float) + max(-float(raw.min()), float(raw.max()))
        return floor, self.d * _fold_slack(span)


# ----------------------------------------------------------- window probe

# probe bitmaps: at most 1024 buckets a point, 2**24 (16 MB) in all
_PROBE_BUCKETS_PER_POINT = 1024
_PROBE_MAX_BUCKETS = 2**24


class _FoldProbe:
    """The d = 1 window probe: which points of the sorted last slot lie
    within tau of a query q = wrap(p + t) % period, with wrap-around.

    ``last`` holds the last slot's coordinates, folded into [0, period)
    and sorted here; ``ax`` holds p = fl(a x_{n-1}), one per point of the
    slot before it; a chunk's raw targets t, shape (B, K), make the queries
    (B, len(ax), K).  A translational relation gives a, period 1/m and the
    raw targets T(x_1..x_{n-2}).  A surface relation x_n = f(x_1..x_{n-1})
    is the case a = 0: ``ax`` = [0], K = 1, period 1 and t = f(prefix).

    A query's windows are [q + shift - tau, q + shift + tau], shift in
    (0, -period, +period).  Only the queries whose key C = floor(fl(p s)) +
    floor(fl(t s)), s = nb / period, is marked modulo nb in the bitmap of
    the points' buckets shifted by -2..1 are folded and looked up, and they
    include every query with a window.  Buckets are w = period / nb >=
    2 tau >= 32 ulp(span) wide (tau holds :func:`_fold_slack`; coordinates
    lie in [0, 1]), so 2 ulps of span are 1/16 bucket.  In buckets, modulo
    nb:

    * fl(v*s) is within 2^-52 |v| < 2 ulp(span) of v/w (s and the product
      round), for v = p, t, so C is in (Y - 2 - 1/8, Y + 1/8], Y = (p + t)/w;
    * q is within 2 ulp(span) of p + t modulo period: the sum and the wrap
      round by half an ulp of span and of 1, the wrap's integer j (|j| <=
      span) is j |1 - m period| <= 2^-53 span off, the remainder is exact;
    * a point x in a window of q is within tau of q + shift, plus two
      roundings below 2^-52 (2 period + tau), so x/w = Y + delta with
      |delta| < 1/2 + 1/16 + 2^-25, and floor(fl(x*s)) is in
      (x/w - 1.01, x/w + 0.01).

    So the point's bucket less C is in (-1.75, 2.75): -1, 0, 1 or 2.  At
    a = 0 the first two steps are exact or tighter: p = fl(0 x) = 0, so
    floor(fl(p s)) = 0, p + t = t and q = wrap(t) % 1.

    The windows hold the last point of every tuple whose residual is at
    most tau less :func:`_fold_slack` of span = 1 + |a| + max|t|.  The
    translational residual rounds the fold of x_n - a x_{n-1} - t another
    way (:func:`_fold_slack`).  The d = 1 surface residual tdist(x_n,
    f(prefix)) is min(g, 1 - g), g = |wrap(x_n) - wrap(t)|: the gap between
    the point's sorted value and q (the % 1 only maps a wrap of 1.0 to 0,
    a shift by the period), rounded by the difference, by 1 - g (exact
    from g >= 1/2) and by the root of its square, under 2 ulps of 1 in all.
    The window ends fl(q + shift -+ tau) add at most 2 ulps of 2 + tau
    (a tau of 2 or more reaches every point), so both sums stay well
    inside the 16 ulps of span.

    A surface f that carries ``f.bracket`` is queried at the midpoints
    t = fl((lo + hi) / 2) of its brackets instead, with tau and span grown
    by the chunk's largest h = fl(|hi - lo| / 2).  f(prefix) lies in
    [lo, hi], so it is within h of t plus 1.5 ulps of span (an ulp for the
    rounded sum, half an ulp for h's rounding).  A tuple whose residual
    is at most tau less h and :func:`_fold_slack` of span then has its
    last point within tau of t less that slack plus 2 + 1.5 ulps, and the
    window ends take 2 more: 5.5 of the 16 ulps of span.
    """

    def __init__(self, last, ax, period, size):
        last = wrap(last) % period
        self.order = np.argsort(last, kind="stable")
        self.xs, self.ax, self.period, self.tau = last[self.order], ax, period, None
        # intp keys: np.take would copy narrower ones into a fresh intp array
        self.keys, self.flags = np.empty(size, dtype=np.intp), np.empty(size, dtype=bool)

    def _occupancy(self, tau):
        """Bitmap of buckets >= 2 tau wide, at most min(1024 per point,
        2^24) of them, and the keys floor(fl(p s)) mod nb of ``ax``."""
        xs, period = self.xs, self.period
        limit = min(period / (2.0 * tau), _PROBE_BUCKETS_PER_POINT * len(xs), _PROBE_MAX_BUCKETS)
        self.tau, self.nb = tau, max(1, int(limit))
        self.s = self.nb / period
        self.mark = np.zeros(self.nb, dtype=bool)
        keys = np.floor(xs * self.s).astype(np.int64)[:, None] + np.arange(-2, 2)
        self.mark[keys % self.nb] = True
        self.ku = (np.floor(self.ax * self.s) % self.nb).astype(np.intp)

    def windows(self, t, tau):
        """``(qi, lo, hi)``, shift by shift: the flat index into (B,
        len(ax), K) and the ``searchsorted`` range of the sorted slot (left
        at the lower end, right at the upper end) of every nonempty window
        of the queries of ``t`` (B, K)."""
        if tau != self.tau:
            self._occupancy(tau)
        kv = (np.floor(t * self.s) % self.nb).astype(np.intp)
        shape = (len(t), len(self.ax), t.shape[1])
        keys = self.keys[: math.prod(shape)].reshape(shape)
        np.add(kv[:, None, :], self.ku[None, :, None], out=keys)
        # ku + kv < 2 nb: the wrapping gather takes nb off where due
        hit = np.take(self.mark, keys, mode="wrap", out=self.flags[: keys.size].reshape(shape))
        sel = np.flatnonzero(hit)
        b, rem = np.divmod(sel, shape[1] * shape[2])
        q = wrap(self.ax[rem // shape[2]] + t[b, rem % shape[2]]) % self.period
        out = []
        for shift in (0.0, -self.period, self.period):
            lo = np.searchsorted(self.xs, q + shift - tau, side="left")
            hi = np.searchsorted(self.xs, q + shift + tau, side="right")
            hit = np.flatnonzero(hi > lo)
            out.append((sel[hit], lo[hit], hi[hit]))
        return tuple(np.concatenate(part) for part in zip(*out))

    def candidates(self, t, tau):
        """``(query, last-slot index)`` pairs inside the windows of ``t``
        at ``tau``, about ``BRUTE_CHUNK`` pairs at a time."""
        qi, lo, hi = self.windows(t, tau)
        ends = np.cumsum(hi - lo)
        w0 = 0
        while w0 < len(qi):
            done = int(ends[w0 - 1]) if w0 else 0
            w1 = max(w0 + 1, int(np.searchsorted(ends, done + BRUTE_CHUNK, side="right")))
            cnt = hi[w0:w1] - lo[w0:w1]
            # position of each pair: its window's lo plus its rank in the window
            shift = np.repeat(lo[w0:w1] - (np.cumsum(cnt) - cnt), cnt)
            yield np.repeat(qi[w0:w1], cnt), self.order[np.arange(len(shift)) + shift]
            w0 = w1


# ----------------------------------------------------- exact tuple search


def _gather(slots, idx):
    """Coordinates of the index tuples ``idx`` into ``slots``, one row per
    tuple; an empty row when there are no slots."""
    cols = [s[idx[:, j]] for j, s in enumerate(slots)]
    return np.concatenate([np.empty((len(idx), 0))] + cols, axis=1)


def _tuple_hits(slots, pattern, eps, tol, budget):
    """Index tuples of the product of ``slots`` with residual <= ``eps + tol``.

    ``slots`` holds one (N_j, d) point array per tuple slot.  A cube-backed
    relation is defined on its doubled cubes only, so each slot is first
    cut to the points its cube holds; ``budget`` bounds the work on the cut
    slots.  One loop serves every relation: it enumerates prefixes of the
    leading slots lazily, about ``BRUTE_CHUNK`` candidates at a time, and
    rechecks every candidate tuple with the residual, which need only be
    exact up to ``eps``.  A d = 1 surface or translational relation takes
    its candidates from the :class:`_FoldProbe` windows a few ulps wider
    than ``eps + tol`` in the sorted last slot, so the result equals a full
    enumeration: a translational prefix x_1..x_{n-2} queries the fold of
    a x_{n-1} + t for each x_{n-1} and raw target t, a surface prefix
    x_1..x_{n-1} the one target f(prefix) (a = 0), or the midpoint of
    ``f.bracket(prefix)`` when f carries one.  Every other relation
    pairs each prefix with the whole last slot.  Yields ``(idx,
    residuals)`` chunks, indices into the uncut slots; the probe may yield
    a tuple twice.
    """
    domain = getattr(pattern, "_domain", None)
    keep = [np.arange(len(s)) for s in slots]
    if domain is not None:
        keep = [np.flatnonzero(q.contains(s)) for q, s in zip(domain, slots)]
        slots = [s[k] for s, k in zip(slots, keep)]
    if any(len(s) == 0 for s in slots):
        return
    n = pattern.n
    probe = pattern.d == 1 and pattern.kind in ("translational", "surface")
    translational = probe and pattern.kind == "translational"
    heads = slots[: n - 2] if translational else slots[: n - 1]
    sizes = [len(s) for s in heads]

    def prefixes(start, stop):
        # a leading axis of length 1 lets the empty prefix of n = 2 unravel
        flat = np.arange(start, stop, dtype=np.int64)
        return np.stack(np.unravel_index(flat, [1] + sizes), axis=1)[:, 1:]

    # candidates per prefix: a query per x_{n-1} and raw target (one query
    # at f(prefix) for a surface relation), or a tuple per last-slot point
    if translational:
        a, period, targets = pattern.a_float, 1.0 / pattern.period_m, pattern.T
        ax = a * slots[n - 2][:, 0]
        K = np.asarray(targets(_gather(heads, prefixes(0, 1))), dtype=float).size
    elif probe:
        a, period, targets, ax, K = 0.0, 1.0, pattern.f, np.zeros(1), 1
    bracket = getattr(targets, "bracket", None) if probe and not translational else None
    per = len(ax) * K if probe else len(slots[-1])
    if float(np.prod([float(v) for v in sizes])) * per > budget:
        raise BudgetError(
            f"{pattern.kind} search needs {' x '.join(map(str, sizes))} prefixes "
            f"x {per} candidates; over budget {budget}"
        )
    chunk = BRUTE_CHUNK
    if pattern.kind == "rough":
        # one residual call probes its whole window for every tuple
        chunk = max(1, min(chunk, int(ROUGH_RESIDUAL_BUDGET // pattern._window(eps)[1])))
    total, step = int(np.prod(sizes)), max(1, chunk // max(per, 1))
    if probe:
        fold = _FoldProbe(slots[-1][:, 0], ax, period, step * per)
    for start in range(0, total, step):
        pre = prefixes(start, min(start + step, total))
        if probe:
            x, half = _gather(heads, pre), 0.0
            if bracket is None:
                t = targets(x)
            else:
                lo, hi = (np.asarray(v, dtype=float) for v in bracket(x))
                t, half = 0.5 * (lo + hi), 0.5 * float(np.abs(hi - lo).max(initial=0.0))
            t = np.asarray(t, dtype=float).reshape(len(pre), K)
            span = 1.0 + abs(a) + half + float(np.abs(t).max(initial=0.0))
            if not math.isfinite(span):
                raise ValueError(f"{pattern.kind} pattern gave a non-finite target")
            batches = fold.candidates(t, eps + tol + half + _fold_slack(span))
        else:
            qi = np.arange(len(pre) * per, dtype=np.int64)
            batches = [(qi, qi % per)]
        for qi, last in batches:
            b, rem = np.divmod(qi, per)
            mid = [(rem // K)[:, None]] if translational else []
            idx = np.concatenate([pre[b]] + mid + [last[:, None]], axis=1)
            r = pattern.residual(_gather(slots, idx), eps)
            hit = r <= eps + tol
            yield np.stack([k[idx[hit, j]] for j, k in enumerate(keep)], axis=1), r[hit]


def violation_scan(
    points, pattern, margin=0.0, separation_s=0.0, budget=DEFAULT_SCAN_BUDGET
):
    """Exhaustively list pattern violations among configuration points.

    Returns ``(tuples, residuals)`` where ``tuples`` is an integer array of
    shape (V, n) in lexicographic order: every ordered n-tuple of distinct,
    pairwise s-separated point indices whose pattern residual is
    <= margin + ``SCAN_TOL``.  For a cube-backed pattern each slot ranges
    over the points its doubled cube holds, cut before the work is
    counted; raises :class:`BudgetError` when that work does not fit
    ``budget``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != pattern.d:
        raise ValueError("points dimension does not match pattern")
    if margin < 0:
        raise ValueError("margin must be >= 0")
    n = pattern.n
    tuples, resid = [np.empty((0, n), dtype=np.int64)], [np.empty(0)]
    for idx, r in _tuple_hits([points] * n, pattern, margin, SCAN_TOL, budget):
        ok = np.ones(len(idx), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                ok &= idx[:, i] != idx[:, j]
                if separation_s > 0:
                    ok &= tdist(points[idx[:, i]], points[idx[:, j]]) >= separation_s
        tuples.append(idx[ok])
        resid.append(r[ok])
    tuples, first = np.unique(np.concatenate(tuples), axis=0, return_index=True)
    return tuples, np.concatenate(resid)[first]
