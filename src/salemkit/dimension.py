"""Empirical dimension estimators.

Box counting gives a lower-Minkowski surrogate for finite point sets
(optionally thickened into unions of balls); Fourier-decay exponents give
a fordim surrogate for grid measures and weighted configurations.  Both
are finite-scale estimates: every result carries the scale or annulus
table it was fitted on.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["DimensionEstimate", "box_dimension", "fourier_dimension"]

_WINDOW_TRIM = 2  # usable annuli trimmed from each end of the Fourier fit
_J_TOP = 52  # the last annulus 2^52 <= |xi| < 2^53 whose integers are exact floats


@dataclass
class DimensionEstimate:
    kind: str  # "box" | "fourier"
    value: float
    scales: list
    table: list
    residual: float
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _count_boxes(points, scale, thicken):
    """Number of scale-boxes hit by the union of closed balls of radius
    ``thicken`` around the points (plain occupancy when thicken = 0)."""
    N, d = points.shape
    g = max(1, int(round(1.0 / scale)))
    reach = int(math.floor(thicken * g)) + 1 if thicken > 0 else 0
    if g + reach >= 2**63:
        raise ValueError(f"scale {scale!r}: {g} boxes per axis do not fit int64 indices")
    cells = np.floor(points * g).astype(np.int64) % g
    if thicken <= 0:
        return len(np.unique(cells, axis=0))
    if (2 * reach + 1) ** d > 100_000:
        raise ValueError("thickening window too large for this scale")
    offs = np.arange(-reach, reach + 1)
    grids = np.meshgrid(*[offs] * d, indexing="ij")
    window = np.stack([w.reshape(-1) for w in grids], axis=1)  # (W, d)
    # candidate cells and exact point-to-box distances, per axis
    cand = (cells[:, None, :] + window[None, :, :]) % g  # (N, W, d)
    lo = cand / g
    hi = (cand + 1) / g
    x = points[:, None, :]
    # wrapped gap from the point to the box interval on each axis
    gap = np.zeros_like(lo)
    for shift in (-1.0, 0.0, 1.0):
        a = lo + shift - x
        b = x - (hi + shift)
        gcur = np.maximum(np.maximum(a, b), 0.0)
        gap = gcur if shift == -1.0 else np.minimum(gap, gcur)
    dist = np.sqrt((gap**2).sum(axis=2))
    hit = cand[dist <= thicken + 1e-12]
    return len(np.unique(hit, axis=0))


def box_dimension(points, scales, thicken=0.0):
    """Box-counting dimension estimate over the given decreasing scales.

    Fits log(count) against log(1/scale) by least squares (with
    intercept); the slope is the estimate, clipped to [0, d].  With
    ``thicken`` > 0 the counts are for the union of closed balls of that
    radius, which is the honest object when the input is a construction's
    retained point set (below its radius the count saturates).  A scale
    whose box indices, round(1/scale) plus the thickening reach, do not fit
    in int64 raises ``ValueError``, and so does an empty point set.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not points.size:
        raise ValueError("box dimension of an empty point set")
    d = points.shape[1]
    scales = [float(s) for s in scales]
    if len(scales) < 4:
        raise ValueError("need at least 4 scales")
    if any(s1 >= s0 for s0, s1 in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")
    counts = [_count_boxes(points, s, thicken) for s in scales]
    logs = np.log([1.0 / s for s in scales])
    logc = np.log(counts)
    A = np.stack([logs, np.ones_like(logs)], axis=1)
    (slope, intercept), res, _, _ = np.linalg.lstsq(A, logc, rcond=None)
    residual = float(np.sqrt(res[0] / len(scales))) if len(res) else 0.0
    table = [
        {"scale": s, "count": int(c), "log_inv_scale": float(l), "log_count": float(lc)}
        for s, c, l, lc in zip(scales, counts, logs, logc)
    ]
    return DimensionEstimate(
        kind="box",
        value=float(np.clip(slope, 0.0, d)),
        scales=scales,
        table=table,
        residual=residual,
        notes={"intercept": float(intercept), "thicken": thicken, "raw_slope": float(slope)},
    )


def fourier_dimension(source):
    """Fourier-decay exponent estimate (liminf surrogate).

    Per dyadic annulus 2^j <= |xi| < 2^{j+1} the decay exponent is
    s_j = 2 log(1/sup_j) / (j log 2); the estimate is the minimum of s_j
    over the usable annuli with ``_WINDOW_TRIM`` (2) trimmed from each end
    (low annuli carry smooth-bulk bias, top annuli roll off).

    ``source`` is a GridMeasure or a WeightedConfiguration; both go through
    ``expsum.frequency_plan``, one representative per +-xi pair.  A grid
    measure takes every frequency with |xi| <= Nyquist.  A configuration
    takes the plan of ``expsum.config_annulus_sups``: full shells while they
    are small, deterministic subsamples beyond (``sampled`` in the table),
    usable up to |xi| ~ 1/r where the mollification of radius r starts
    suppressing the sums, and stops at j = 52 (|xi| < 2^53), beyond which
    integers are no longer exact floats; ``notes["j_cap"]`` records that
    stop when r < 2^-52 makes it bind.  In d = 1 the annuli below 2^17 take
    one NUFFT screen and the rest a float32 phase screen, each confirmed
    by direct sums at its maxima; the sups are exact either way.
    A configuration of no points, or a grid of G < 2 (no frequency below
    Nyquist), raises ``ValueError``.
    """
    from .expsum import config_annulus_sups, frequency_plan, plan_magnitudes
    from .measures import GridMeasure

    notes = {}
    if isinstance(source, GridMeasure):
        d = source.d
        if source.nyquist < 1:
            raise ValueError(f"a grid of G={source.G} has no frequency below Nyquist; need G >= 2")
        j_max = int(math.floor(math.log2(source.nyquist)))
        # integer |xi|^2 < nyquist^2 + 1/2 is |xi| <= nyquist
        plan = frequency_plan(d, range(j_max + 1), math.sqrt(source.nyquist**2 + 0.5))
        sups = {
            j: (float(mags.max()), len(xi), sampled)
            for j, _, _, xi, sampled, mags in plan_magnitudes(plan, source)[1]
        }
        notes["source"] = "grid"
    else:
        d = source.d
        if source.N == 0:
            raise ValueError("Fourier dimension of a configuration with no points")
        r = source.radius_r
        j_max = int(math.floor(math.log2(1.0 / max(r, 1e-300))))
        sups = config_annulus_sups(source.points, source.weights, range(min(j_max, _J_TOP) + 1))
        notes["source"] = "config"
        notes["radius_r"] = r
        if j_max > _J_TOP:
            notes["j_cap"] = _J_TOP
    table = []
    exponents = {}
    for j in sorted(sups):
        sup, n_eval, sampled = sups[j]
        row = {"j": j, "sup": sup, "n_evaluated": n_eval, "sampled": sampled}
        if sup <= 0:
            row["excluded"] = "zero sup"
        elif j == 0:
            row["excluded"] = "j = 0 carries no exponent"
        else:
            s_j = 2.0 * math.log(1.0 / sup) / (j * math.log(2.0))
            row["s_j"] = s_j
            exponents[j] = s_j
        table.append(row)
    usable = sorted(exponents)
    window = usable[_WINDOW_TRIM:-_WINDOW_TRIM] if len(usable) > 2 * _WINDOW_TRIM else usable
    notes["window"] = list(window)
    if not window:
        # no nonzero coefficient below the band: flat-measure convention
        notes["convention"] = "no usable annuli; value capped at ambient d"
        value = float(d)
        residual = 0.0
    else:
        vals = [exponents[j] for j in window]
        value = float(np.clip(min(vals), 0.0, d))
        residual = float(max(vals) - min(vals))
        if min(vals) > d:
            notes["convention"] = "raw exponent above ambient d; capped"
    return DimensionEstimate(
        kind="fourier",
        value=value,
        scales=[2.0**j for j in (window or [])],
        table=table,
        residual=residual,
        notes=notes,
    )
