"""Point-to-boxset distances against a brute-force oracle."""

import numpy as np
import pytest

import boxflow as bf
from boxflow.distances import BoxSetDistance, boxset_min_distance
from boxflow.grid import BoxSet


def _brute_distance(grid, boxset, pts):
    rects = grid.bounds(boxset.ids)
    out = np.full(pts.shape[0], np.inf)
    for lohi in rects:
        gap = np.maximum(lohi[:, 0] - pts, 0.0) + np.maximum(pts - lohi[:, 1], 0.0)
        out = np.minimum(out, np.linalg.norm(gap, axis=1))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distance_matches_brute_force_2d(seed):
    rng = np.random.default_rng(seed)
    grid = bf.build_grid([(-2.0, 2.0), (-2.0, 2.0)], (16, 16))
    boxset = BoxSet(rng.choice(256, size=30, replace=False))
    pts = rng.uniform(-2.5, 2.5, size=(40, 2))
    dist = BoxSetDistance(grid, boxset)
    assert np.allclose(dist(pts), _brute_distance(grid, boxset, pts), atol=1e-12)


def test_distance_matches_brute_force_1d():
    rng = np.random.default_rng(7)
    grid = bf.build_grid([(-1.0, 1.0)], (32,))
    boxset = BoxSet([3, 4, 20])
    pts = rng.uniform(-1.2, 1.2, size=(25, 1))
    dist = BoxSetDistance(grid, boxset)
    assert np.allclose(dist(pts), _brute_distance(grid, boxset, pts), atol=1e-12)


def test_distance_zero_inside_boxes():
    grid = bf.build_grid([(-1.0, 1.0)], (8,))
    boxset = BoxSet([2, 3])
    dist = BoxSetDistance(grid, boxset)
    inside = grid.centers(np.array([2, 3]))
    assert np.all(dist(inside) == 0.0)


def test_set_to_set_distance():
    grid = bf.build_grid([(0.0, 1.0)], (10,))
    a, b = BoxSet([0, 1]), BoxSet([5])
    # three whole boxes separate box 1 from box 5
    assert boxset_min_distance(grid, a, b) == pytest.approx(0.3)
    assert boxset_min_distance(grid, a, BoxSet([2])) == pytest.approx(0.0)


def test_empty_set_distance_is_infinite():
    grid = bf.build_grid([(0.0, 1.0)], (10,))
    dist = BoxSetDistance(grid, BoxSet([]))
    assert dist(np.array([0.5])) == np.inf


def test_small_candidate_budget_stays_exact():
    rng = np.random.default_rng(11)
    grid = bf.build_grid([(-2.0, 2.0), (-2.0, 2.0)], (16, 16))
    boxset = BoxSet(rng.choice(256, size=60, replace=False))
    pts = rng.uniform(-2.2, 2.2, size=(50, 2))
    exact = _brute_distance(grid, boxset, pts)
    assert np.allclose(BoxSetDistance(grid, boxset, k=4)(pts), exact, atol=1e-12)


def _brute_gap(grid, first, second):
    """Minimum gap between the closed boxes of two sets, pair by pair."""
    other = grid.bounds(second.ids)
    best = np.inf
    for lohi in grid.bounds(first.ids):
        gap = np.maximum(0.0, np.maximum(other[:, :, 0] - lohi[:, 1], lohi[:, 0] - other[:, :, 1]))
        best = min(best, float(np.linalg.norm(gap, axis=1).min()))
    return best


def _face_points(grid, rng, n):
    """Points with one coordinate on a grid face, the upper domain face included."""
    pts = rng.uniform(grid.domain[:, 0], grid.domain[:, 1], size=(n, grid.dimension))
    axis = rng.integers(0, grid.dimension, size=n)
    face = rng.integers(0, np.array(grid.shape)[axis] + 1)
    pts[np.arange(n), axis] = grid.domain[axis, 0] + face * grid.widths[axis]
    return pts


@pytest.mark.parametrize("k", [32, 4, 1])
def test_distance_is_bitwise_exact_off_and_on_faces(k):
    rng = np.random.default_rng(3)
    grid = bf.build_grid([(-2.0, 2.0), (-2.0, 2.0)], (16, 16))
    boxset = BoxSet(rng.choice(256, size=40, replace=False))
    outside = rng.uniform(-5.0, 5.0, size=(60, 2))
    upper = np.array([[2.0, 2.0], [2.0, -0.3], [0.7, 2.0], [-2.0, 2.0]])
    pts = np.vstack([outside, upper, _face_points(grid, rng, 80)])
    assert (grid.box_of(outside) < 0).any()
    dist = BoxSetDistance(grid, boxset, k=k)
    np.testing.assert_array_equal(dist(pts), _brute_distance(grid, boxset, pts))


def test_distance_is_bitwise_exact_on_a_3d_grid_with_unequal_widths():
    rng = np.random.default_rng(5)
    grid = bf.build_grid([(-1.0, 2.0), (0.0, 0.7), (-3.0, 3.0)], (7, 5, 9))
    boxset = BoxSet(rng.choice(grid.n_boxes, size=45, replace=False))
    inside = rng.uniform(grid.domain[:, 0], grid.domain[:, 1], size=(150, 3))
    outside = rng.uniform(grid.domain[:, 0] - 1.0, grid.domain[:, 1] + 1.0, size=(150, 3))
    pts = np.vstack([inside, outside, _face_points(grid, rng, 150), grid.domain[:, 1][None]])
    for k in (32, 3):
        dist = BoxSetDistance(grid, boxset, k=k)
        np.testing.assert_array_equal(dist(pts), _brute_distance(grid, boxset, pts))


def test_repeated_calls_reuse_the_box_table():
    rng = np.random.default_rng(9)
    grid = bf.build_grid([(-2.0, 2.0), (-2.0, 2.0)], (16, 16))
    boxset = BoxSet(rng.choice(256, size=30, replace=False))
    pts = rng.uniform(-2.0, 2.0, size=(300, 2))
    exact = _brute_distance(grid, boxset, pts)
    dist = BoxSetDistance(grid, boxset)
    np.testing.assert_array_equal(dist(pts), exact)
    searched = dist._key.size
    np.testing.assert_array_equal(dist(pts[::-1]), exact[::-1])
    np.testing.assert_array_equal(dist(pts[:7], grid.box_of(pts[:7])), exact[:7])
    assert dist._key.size == searched
    assert dist(np.empty((0, 2))).shape == (0,)


def test_single_point_calls_return_floats():
    rng = np.random.default_rng(13)
    grid = bf.build_grid([(-1.0, 1.0)], (32,))
    boxset = BoxSet([3, 4, 20, 31])
    pts = np.vstack([rng.uniform(-1.3, 1.3, size=(25, 1)), [[1.0], [-1.0], [0.0]]])
    exact = _brute_distance(grid, boxset, pts)
    dist = BoxSetDistance(grid, boxset, k=2)
    for p, want in zip(pts, exact):
        got = dist(p)
        assert isinstance(got, float)
        assert got == want
    assert BoxSetDistance(grid, BoxSet([]))(pts[0]) == np.inf


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
def test_non_finite_points_match_the_oracle():
    grid = bf.build_grid([(-2.0, 2.0), (-2.0, 2.0)], (16, 16))
    boxset = BoxSet([0, 17, 200])
    pts = np.array([[np.inf, 0.0], [-np.inf, 1.0], [0.5, 0.5]])
    np.testing.assert_array_equal(BoxSetDistance(grid, boxset)(pts),
                                  _brute_distance(grid, boxset, pts))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_set_to_set_distance_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    grid = bf.build_grid([(-1.0, 2.0), (0.0, 0.7)], (21, 13))
    ids = rng.permutation(grid.n_boxes)
    first, second = BoxSet(ids[:25]), BoxSet(ids[25:60])
    for k in (32, 2):
        assert boxset_min_distance(grid, first, second, k=k) == _brute_gap(grid, first, second)
        assert boxset_min_distance(grid, second, first, k=k) == _brute_gap(grid, second, first)
