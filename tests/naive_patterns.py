"""Naive pattern references that only the tests use.

Each materializes what the library computes in closed form or through a
probe window, so a test can compare the two.
"""

from itertools import product

import numpy as np

from salemkit.patterns import SCAN_TOL
from salemkit.torus import wrap


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
