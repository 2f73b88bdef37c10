import math

import numpy as np
import pytest

from salemkit.torus import (
    Cube,
    cube_distance,
    double_cube,
    load_points,
    save_points,
    tdist,
    wrap,
)
from naive_patterns import hausdorff_distance


def oracle_tdist(x, y):
    """Scalar reference: minimize over all 3^d wrap images."""
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    best = math.inf
    d = len(x)
    from itertools import product

    for ks in product((-1.0, 0.0, 1.0), repeat=d):
        best = min(best, math.sqrt(sum((x[j] % 1 - y[j] % 1 + ks[j]) ** 2 for j in range(d))))
    return best


def oracle_hausdorff(a, b):
    da = max(min(oracle_tdist(p, q) for q in b) for p in a)
    db = max(min(oracle_tdist(p, q) for q in a) for p in b)
    return max(da, db)


def test_tdist_wraparound_example():
    assert tdist([0.1], [0.9]) == pytest.approx(0.2, abs=1e-15)


def test_tdist_diagonal_example():
    assert tdist([0.0, 0.0], [0.5, 0.5]) == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_tdist_matches_oracle_randomized():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        x = rng.random((50, d))
        y = rng.random((50, d))
        got = tdist(x, y)
        want = [oracle_tdist(a, b) for a, b in zip(x, y)]
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_tdist_metric_axioms():
    rng = np.random.default_rng(11)
    for d in (1, 2):
        x, y, z = rng.random((3, 20, d))
        dxy, dyx = tdist(x, y), tdist(y, x)
        np.testing.assert_allclose(dxy, dyx, atol=0)
        assert np.all(tdist(x, x) == 0)
        assert np.all(tdist(x, y) <= tdist(x, z) + tdist(z, y) + 1e-12)
        # diameter bound sqrt(d)/2
        assert np.all(dxy <= math.sqrt(d) / 2 + 1e-12)


def test_tdist_translation_invariance():
    rng = np.random.default_rng(3)
    x, y, t = rng.random((3, 30, 2))
    np.testing.assert_allclose(
        tdist(x, y), tdist(wrap(x + t), wrap(y + t)), atol=1e-12
    )


def test_tdist_dimension_mismatch():
    with pytest.raises(ValueError):
        tdist([0.1], [0.1, 0.2])


def test_hausdorff_matches_oracle():
    rng = np.random.default_rng(13)
    for d in (1, 2):
        a = rng.random((12, d))
        b = rng.random((8, d))
        assert hausdorff_distance(a, b) == pytest.approx(
            oracle_hausdorff(a, b), abs=1e-12
        )


def test_hausdorff_identical_sets_and_symmetry():
    rng = np.random.default_rng(17)
    a = rng.random((10, 2))
    b = rng.random((11, 2))
    assert hausdorff_distance(a, a) == 0.0
    assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
    with pytest.raises(ValueError):
        hausdorff_distance(a, np.empty((0, 2)))


def test_cube_basic_and_doubling():
    c = Cube([0.9, 0.9], 0.2)  # wraps around the corner of the torus
    assert c.contains([[0.95, 0.05]])[0]
    assert not c.contains([[0.5, 0.5]])[0]
    dc = double_cube(c)
    assert dc.side == pytest.approx(0.4)
    np.testing.assert_allclose(dc.center, c.center)
    # doubling is capped at sidelength 1
    big = double_cube(Cube([0.0], 0.7))
    assert big.side == 1.0


def test_cube_contains_equals_two_wrap_mask():
    # contains skips wrapping inputs that already lie in [0, 1); the mask
    # must equal wrap-then-wrap-the-offset on every kind of input
    def two_wrap(cube, pts):
        off = wrap(wrap(np.atleast_2d(pts)) - cube.corner[None, :])
        return (off < cube.side).all(axis=1)

    rng = np.random.default_rng(31)
    ulp0, ulp1 = 5e-324, float(np.nextafter(1.0, 0.0))
    edges = np.array([0.0, -0.0, ulp0, -ulp0, ulp1, 1.0, -1e-20, 1.0 + 2**-52, -0.5, 2.25])
    for corner, side in (([0.9, 0.9], 0.2), ([0.0, 0.5], 0.25), ([ulp1, 0.1], 0.1)):
        c = Cube(corner, side)
        for pts in (
            rng.random((500, 2)),
            rng.uniform(-3.0, 3.0, (500, 2)),
            np.array(np.meshgrid(edges, edges)).reshape(2, -1).T,
            c.corner[None, :] + np.array([[0.0, 0.0], [side, side], [-ulp0, 0.0]]),
        ):
            np.testing.assert_array_equal(c.contains(pts), two_wrap(c, pts))


def test_cube_sample_is_the_wrapped_affine_draw():
    # sample skips the wrap for a cube that does not cross 1; each draw
    # must still equal wrap(corner + u*side), down to the largest u < 1
    class Draws:
        def __init__(self, u):
            self.u = u

        def random(self, shape):
            return self.u[: shape[0], : shape[1]].copy()

    top = float(np.nextafter(1.0, 0.0))
    u = np.concatenate([np.random.default_rng(5).random((500, 2)), [[0.0, top], [top, 0.0]]])
    for corner, side in (
        ([0.9, 0.3], 0.2), ([0.3, 0.3], 0.2), ([0.5], 0.5), ([0.5], 0.5 - 2.0**-53),
        ([0.0], 1.0), ([top], 1e-3), ([0.25, 0.75], 0.25 - 2.0**-54),
    ):
        c = Cube(corner, side)
        got = c.sample(Draws(u), len(u))
        want = wrap(c.corner[None, :] + u[:, : c.d] * c.side)
        np.testing.assert_array_equal(got, want)
        assert np.all((got >= 0.0) & (got < 1.0))


def test_cube_distance_wraparound():
    c1 = Cube([0.05], 0.1)
    c2 = Cube([0.85], 0.1)
    # shortest gap goes through 0: 0.05 to 0.95 -> 0.10
    assert cube_distance(c1, c2) == pytest.approx(0.10, abs=1e-12)
    assert cube_distance(c1, c1) == 0.0


def test_points_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    pts = rng.random((17, 2))
    ws = rng.random(17) + 0.5
    path = str(tmp_path / "pts.csv")
    save_points(path, pts, ws)
    p2, w2 = load_points(path)
    np.testing.assert_array_equal(pts, p2)
    np.testing.assert_array_equal(ws, w2)
    with open(path) as fh:
        assert fh.readline().strip() == "x0,x1,w"


def test_load_points_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_points(str(path))


def test_load_points_of_an_empty_or_header_only_file(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="no point-set header"):
        load_points(str(path))
    path.write_text("x0,x1,w\n")
    pts, ws = load_points(str(path))
    assert pts.shape == (0, 2) and ws.shape == (0,)
