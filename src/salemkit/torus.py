"""Geometry on the flat torus T^d = R^d / Z^d.

Points are numpy arrays with coordinates in [0, 1); all distances use the
wrap-around metric, so nothing here ever sees a boundary.
"""

import csv
import json
import os

import numpy as np

__all__ = [
    "wrap",
    "coord_gap",
    "tdist",
    "Cube",
    "double_cube",
    "cube_distance",
    "save_points",
    "load_points",
    "json_default",
]


def wrap(x):
    """Reduce coordinates to the fundamental domain [0, 1).

    ``x - floor(x)`` rounds the same real number as ``x % 1.0`` once, so
    the two agree bit for bit (a tiny negative input gives 1.0 in both);
    the floor form avoids numpy's slow float remainder.
    """
    x = np.asarray(x, dtype=float)
    return x - np.floor(x)


def coord_gap(x, y):
    """Per-coordinate wrap-around gap ``min_k |x_j - y_j + k|``, k in {-1, 0, 1}.

    Broadcasts like ``x - y``; :func:`tdist` is the Euclidean length of
    this gap along the last axis.
    """
    delta = np.abs(wrap(x) - wrap(y))
    return np.minimum(delta, 1.0 - delta)


def tdist(x, y):
    """Torus distance between points (broadcasting over leading axes).

    Parameters
    ----------
    x, y : array_like, shape (..., d)
        Points on T^d.  The last axis is the coordinate axis.

    Returns
    -------
    ndarray
        Euclidean length of the shortest wrap-around displacement,
        ``sqrt(sum_j min_k |x_j - y_j + k|^2)`` with k in {-1, 0, 1}.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}"
        )
    delta = coord_gap(x, y)
    return np.sqrt(np.sum(delta * delta, axis=-1))


class Cube:
    """Axis-parallel cube on T^d given by a corner and a common sidelength.

    The cube is the product of wrap-around intervals
    ``[corner_j, corner_j + side)``.  ``side`` must lie in (0, 1].
    """

    __slots__ = ("corner", "side")

    def __init__(self, corner, side):
        corner = wrap(np.atleast_1d(corner))
        side = float(side)
        if not 0.0 < side <= 1.0:
            raise ValueError(f"cube sidelength must be in (0, 1], got {side}")
        self.corner = corner
        self.side = side

    @property
    def d(self):
        return self.corner.shape[0]

    @property
    def center(self):
        return wrap(self.corner + 0.5 * self.side)

    @property
    def volume(self):
        return self.side ** self.d

    def contains(self, points):
        """Boolean mask of points inside the cube."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        # wrap is the identity on [0, 1), bit for bit
        if not (pts.size == 0 or (pts.min() >= 0.0 and pts.max() < 1.0)):
            pts = wrap(pts)
        if pts.shape[1] != self.d:
            raise ValueError("dimension mismatch")
        # offset from corner, wrapped to [0, 1)
        off = wrap(pts - self.corner[None, :])
        return (off < self.side).all(axis=1)

    def sample(self, rng, size):
        """Uniform sample of ``size`` points from the cube."""
        return self.place(rng.random((size, self.d)))

    def place(self, u):
        """Points ``wrap(corner + u*side)`` of unit draws ``u`` (shape
        (N, d)), computed in ``u``'s own memory."""
        u *= self.side
        u += self.corner
        # rounding is monotone, so corner + u*side <= corner + side: a cube
        # that does not cross 1 needs no wrap (wrap is the identity on [0, 1))
        return u if np.all(self.corner + self.side < 1.0) else wrap(u)

    def __repr__(self):
        return f"Cube(corner={self.corner!r}, side={self.side})"


def double_cube(cube):
    """Concentric cube with doubled sidelength, capped at 1."""
    side = min(2.0 * cube.side, 1.0)
    return Cube(cube.center - 0.5 * side, side)


def cube_distance(c1, c2):
    """Torus distance between two cubes (0 if they intersect)."""
    if c1.d != c2.d:
        raise ValueError("dimension mismatch")
    gaps = np.zeros(c1.d)
    for j in range(c1.d):
        dc = abs(c1.center[j] - c2.center[j])
        dc = min(dc, 1.0 - dc)
        gaps[j] = max(0.0, dc - 0.5 * (c1.side + c2.side))
    return float(np.sqrt(np.sum(gaps * gaps)))


def save_points(path, points, weights=None):
    """Write a weighted point set as CSV with header x0,...,x{d-1},w."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError("weights must be one per point")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(d)] + ["w"])
        for row, w in zip(points, weights):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(w))])


def load_points(path):
    """Read a CSV written by :func:`save_points`; returns (points, weights)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no point-set header")
        if not header or header[-1] != "w" or header[0] != "x0":
            raise ValueError(f"{path}: not a point-set CSV (bad header {header})")
        d = len(header) - 1
        pts, ws = [], []
        for row in reader:
            if len(row) != d + 1:
                raise ValueError(f"{path}: row of length {len(row)}, expected {d + 1}")
            pts.append([float(v) for v in row[:d]])
            ws.append(float(row[d]))
    return np.asarray(pts, dtype=float).reshape(-1, d), np.asarray(ws, dtype=float)


def _write_json(path, payload):
    """Write ``payload`` as indented, key-sorted JSON ending in a newline.

    The one JSON file writer of the package; it creates the parent
    directory.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=json_default)
        fh.write("\n")


def save_sidecar(path, payload):
    """Write a JSON sidecar next to a data file (``path + '.json'``)."""
    _write_json(f"{path}.json", payload)


def load_sidecar(path):
    side = f"{path}.json"
    if not os.path.exists(side):
        return {}
    with open(side) as fh:
        return json.load(fh)


def json_default(obj):
    """``json.dump`` fallback for numpy scalars and arrays and complex numbers."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
