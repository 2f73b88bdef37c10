"""Naive references and helpers that only the tests use.

The pattern references materialize what the library computes in closed
form or through a probe window, so a test can compare the two; the support
distance compares a perturbed measure's support with its parent's.
"""

from itertools import product

import numpy as np

from salemkit.patterns import SCAN_TOL
from salemkit.torus import tdist, wrap


def periodize(targets, m, d=None):
    """Close a finite target set under translation by the grid (Z/m)^d / m.

    Parameters
    ----------
    targets : array_like, shape (..., K, d)
        Target points on T^d.
    m : int
        Period; the result contains ``K * m**d`` points per input.

    Returns
    -------
    ndarray, shape (..., K * m**d, d)
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim < 2:
        raise ValueError("targets must have shape (..., K, d)")
    m = int(m)
    if m < 1:
        raise ValueError(f"period m must be >= 1, got {m}")
    if d is None:
        d = targets.shape[-1]
    shifts = np.array(list(product(range(m), repeat=d)), dtype=float) / m
    out = targets[..., :, None, :] + shifts[None, :, :]
    new_shape = targets.shape[:-2] + (targets.shape[-2] * m**d, d)
    return wrap(out.reshape(new_shape))


def periodized_targets(pattern, prefix):
    """All K*m^d shifted targets of a translational pattern for prefixes
    (..., d*(n-2))."""
    raw = np.asarray(pattern.T(np.asarray(prefix, dtype=float)), dtype=float)
    return periodize(raw, pattern.period_m, pattern.d)


def thickened_membership(pattern, points, threshold):
    """Is each point (shape (K, d*n)) within ``threshold`` + ``SCAN_TOL``
    of the closed union of a rough pattern's cells?  ``threshold`` may be
    0 (plain closed membership)."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return pattern.residual(points, threshold) <= threshold + SCAN_TOL


def _directed_sup_inf(a, b):
    """sup_{x in a} inf_{y in b} tdist(x, y), chunked over a in blocks of
    about 2M pairwise distances."""
    best = 0.0
    rows = max(1, 2_000_000 // max(len(b), 1))
    for i in range(0, len(a), rows):
        d = tdist(a[i : i + rows, None, :], b[None, :, :])
        best = max(best, float(d.min(axis=1).max()))
    return best


def hausdorff_distance(a, b):
    """Hausdorff distance between two finite subsets of T^d.

    ``max(sup_a inf_b, sup_b inf_a)`` in the torus metric.  Either argument
    may be a single point (shape ``(d,)``) or a set (shape ``(N, d)``).
    Empty sets are rejected.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("Hausdorff distance of an empty set is undefined")
    if a.shape[1] != b.shape[1]:
        raise ValueError("dimension mismatch between point sets")
    return max(_directed_sup_inf(a, b), _directed_sup_inf(b, a))


def support_cells(mu, threshold):
    """Centers of the cells of a grid measure whose density exceeds
    threshold * mean density."""
    cut = threshold * mu.density.mean()
    idx = np.argwhere(mu.density > cut)
    return (idx + 0.5) / mu.G


def support_distance(mu, mu0, threshold):
    """Hausdorff distance between thresholded support cell centers.

    Cells count as support when their density exceeds threshold times the
    grid mean density of their own measure.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    a = support_cells(mu, threshold)
    b = support_cells(mu0, threshold)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("support is empty at this threshold")
    return hausdorff_distance(a, b)
