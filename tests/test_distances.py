"""Point-to-boxset distances against a brute-force oracle."""

import numpy as np
import pytest

import boxflow as bf
from boxflow.distances import BoxSetDistance, QueryBoxes, boxset_min_distance
from boxflow.errors import PreconditionError
from boxflow.grid import BoxSet


def _brute_distance(grid, boxset, pts):
    rects = grid.bounds(boxset.ids)
    out = np.full(pts.shape[0], np.inf)
    for lohi in rects:
        gap = np.maximum(lohi[:, 0] - pts, 0.0) + np.maximum(pts - lohi[:, 1], 0.0)
        # the norm of a huge gap overflows to inf, the distance expected
        with np.errstate(over="ignore"):
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
    assert np.allclose(BoxSetDistance(grid, boxset)(pts), exact, atol=1e-12)


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


@pytest.mark.parametrize("batch", [32, 4, 1])
def test_distance_is_bitwise_exact_off_and_on_faces(batch):
    # The box table grows across calls, so feeding the points in batches
    # of different sizes searches the same rows in a different order.
    rng = np.random.default_rng(3)
    grid = bf.build_grid([(-2.0, 2.0), (-2.0, 2.0)], (16, 16))
    boxset = BoxSet(rng.choice(256, size=40, replace=False))
    outside = rng.uniform(-5.0, 5.0, size=(60, 2))
    upper = np.array([[2.0, 2.0], [2.0, -0.3], [0.7, 2.0], [-2.0, 2.0]])
    pts = np.vstack([outside, upper, _face_points(grid, rng, 80)])
    assert (grid.box_of(outside) < 0).any()
    dist = BoxSetDistance(grid, boxset)
    got = np.concatenate([dist(pts[i:i + batch]) for i in range(0, len(pts), batch)])
    np.testing.assert_array_equal(got, _brute_distance(grid, boxset, pts))
    np.testing.assert_array_equal(dist(pts), _brute_distance(grid, boxset, pts))


def test_distance_is_bitwise_exact_on_a_3d_grid_with_unequal_widths():
    rng = np.random.default_rng(5)
    grid = bf.build_grid([(-1.0, 2.0), (0.0, 0.7), (-3.0, 3.0)], (7, 5, 9))
    boxset = BoxSet(rng.choice(grid.n_boxes, size=45, replace=False))
    inside = rng.uniform(grid.domain[:, 0], grid.domain[:, 1], size=(150, 3))
    outside = rng.uniform(grid.domain[:, 0] - 1.0, grid.domain[:, 1] + 1.0, size=(150, 3))
    pts = np.vstack([inside, outside, _face_points(grid, rng, 150), grid.domain[:, 1][None]])
    dist = BoxSetDistance(grid, boxset)
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
    dist = BoxSetDistance(grid, boxset)
    for p, want in zip(pts, exact):
        got = dist(p)
        assert isinstance(got, float)
        assert got == want
    assert BoxSetDistance(grid, BoxSet([]))(pts[0]) == np.inf


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
    assert boxset_min_distance(grid, first, second) == _brute_gap(grid, first, second)
    assert boxset_min_distance(grid, second, first) == _brute_gap(grid, second, first)


def _nextafter_points(grid, rng, n):
    """Points one float step outside the computed bounds of random boxes.

    One coordinate sits just below the lower or just above the upper face
    of the box, the others inside it.
    """
    ids = rng.integers(0, grid.n_boxes, size=n)
    bounds = grid.bounds(ids)
    pts = bounds[:, :, 0] + rng.random((n, grid.dimension)) * (bounds[:, :, 1] - bounds[:, :, 0])
    axis = rng.integers(0, grid.dimension, size=n)
    up = rng.random(n) < 0.5
    face = bounds[np.arange(n), axis, up.astype(int)]
    pts[np.arange(n), axis] = np.nextafter(face, np.where(up, np.inf, -np.inf))
    return pts


def _assert_exact(grid, boxset, pts):
    dist = BoxSetDistance(grid, boxset)
    want = _brute_distance(grid, boxset, pts)
    np.testing.assert_array_equal(dist(pts), want)
    np.testing.assert_array_equal(dist(pts, QueryBoxes(grid, pts)), want)
    return dist


def test_points_one_step_outside_their_box_take_the_full_row():
    rng = np.random.default_rng(17)
    grid = bf.build_grid([(-1.0, 2.0), (0.0, 0.7)], (21, 13))
    boxset = BoxSet(rng.choice(grid.n_boxes, size=40, replace=False))
    pts = np.vstack([_nextafter_points(grid, rng, 400), _face_points(grid, rng, 200)])
    # box_of puts some of these points in a box whose computed bounds miss them
    assert (QueryBoxes(grid, pts).keys % 2 == 1).any()
    _assert_exact(grid, boxset, pts)


def test_points_outside_the_domain_and_non_finite_points_are_exact():
    rng = np.random.default_rng(19)
    grid = bf.build_grid([(-2.0, 2.0), (-1.0, 3.0)], (16, 12))
    boxset = BoxSet(rng.choice(grid.n_boxes, size=25, replace=False))
    near = rng.uniform(-6.0, 6.0, size=(100, 2))
    far = rng.choice([-1.0, 1.0], size=(20, 2)) * 10.0 ** rng.uniform(3, 200, size=(20, 2))
    odd = np.array([[np.inf, 0.0], [-np.inf, 1.0], [0.5, np.nan], [np.nan, np.nan],
                    [np.inf, -np.inf], [1e300, 0.0], [-2.0, 3.0], [2.0, -1.0]])
    pts = np.vstack([near, far, odd])
    query = QueryBoxes(grid, pts)
    assert (query.keys == -1).any() and (query.keys < -1).any()
    _assert_exact(grid, boxset, pts)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_random_sets_match_the_oracles(dimension):
    rng = np.random.default_rng(100 + dimension)
    for _ in range(6):
        shape = tuple(rng.integers(2, {1: 40, 2: 14, 3: 7}[dimension], size=dimension))
        low = rng.uniform(-3.0, 1.0, size=dimension)
        domain = np.stack([low, low + rng.uniform(0.1, 5.0, size=dimension)], axis=1)
        grid = bf.build_grid(domain, shape)
        size = int(rng.integers(1, grid.n_boxes + 1))
        ids = rng.permutation(grid.n_boxes)
        boxset = BoxSet(ids[:size])
        inside = rng.uniform(domain[:, 0], domain[:, 1], size=(120, dimension))
        around = rng.uniform(domain[:, 0] - 1.0, domain[:, 1] + 1.0, size=(60, dimension))
        pts = np.vstack([inside, around, _face_points(grid, rng, 60),
                         _nextafter_points(grid, rng, 60), domain[:, 1][None]])
        _assert_exact(grid, boxset, pts)
        if size < grid.n_boxes:
            other = BoxSet(ids[size:size + int(rng.integers(1, grid.n_boxes - size + 1))])
            assert boxset_min_distance(grid, boxset, other) == _brute_gap(grid, boxset, other)
            assert boxset_min_distance(grid, other, boxset) == _brute_gap(grid, other, boxset)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_no_pruned_row_holds_a_dominated_box(dimension):
    rng = np.random.default_rng(200 + dimension)
    shape = {1: (60,), 2: (20, 17), 3: (8, 9, 7)}[dimension]
    grid = bf.build_grid([(-1.0, 1.0)] * dimension, shape)
    boxset = BoxSet(rng.choice(grid.n_boxes, size=grid.n_boxes // 6, replace=False))
    dist = BoxSetDistance(grid, boxset)
    dist(rng.uniform(-1.0, 1.0, size=(2000, dimension)))
    members = grid.multi_index(boxset.ids)
    for box, start, count in zip(dist._key, dist._start, dist._count):
        pruned = dist._flat[start[0]:start[0] + count[0]]
        full = dist._flat[start[1]:start[1] + count[1]]
        assert set(pruned) <= set(full)
        if box in boxset:
            assert pruned.size == 0
            continue
        assert pruned.size > 0
        b = grid.multi_index([box])[0]
        o = members - b
        for s in pruned:
            between = ((o == 0) | ((np.sign(o) == np.sign(o[s])) & (np.abs(o) <= np.abs(o[s]))))
            between = between.all(axis=1)
            between[s] = False
            assert not between.any(), (box, boxset.ids[s])


def test_query_boxes_are_checked_against_the_points():
    grid = bf.build_grid([(-1.0, 1.0)], (8,))
    pts = np.array([[0.1], [0.7]])
    with pytest.raises(PreconditionError):
        BoxSetDistance(grid, BoxSet([2]))(pts[:1], QueryBoxes(grid, pts))


def test_a_domain_whose_squared_distances_overflow_matches_the_oracle():
    # gaps near 1e200 square to inf; the search must still end, and the
    # distances must still equal the oracle's
    rng = np.random.default_rng(23)
    grid = bf.build_grid([(-1e200, 1e200), (-1e200, 1e200)], (8, 8))
    boxset = BoxSet([0, 9, 63])
    pts = np.vstack([rng.uniform(-1e200, 1e200, size=(40, 2)), [[3e200, 0.0], [0.0, -1e201]]])
    with np.errstate(over="ignore"):
        want = _brute_distance(grid, boxset, pts)
        assert np.isinf(want).any() and (want == 0).any()
        _assert_exact(grid, boxset, pts)
        assert boxset_min_distance(grid, BoxSet([27, 36]), boxset) \
            == _brute_gap(grid, BoxSet([27, 36]), boxset)
