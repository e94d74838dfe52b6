"""Box grid geometry, id math, and set algebra."""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import boxflow as bf
from boxflow.errors import PreconditionError
from boxflow.grid import (BoxGrid, BoxSet, checked_count, finite_norm, nearest_steps,
                          sample_in_boxes, sorted_unique, whole_steps)


def test_centers_round_trip_through_box_of():
    grid = bf.build_grid([(-1.0, 1.0)], (16,))
    ids = np.arange(16)
    back = grid.box_of(grid.centers(ids))
    assert np.array_equal(back, ids)


def test_centers_round_trip_2d():
    grid = bf.build_grid([(-1.0, 1.0), (0.0, 2.0)], (8, 8))
    ids = np.arange(64)
    back = grid.box_of(grid.centers(ids))
    assert np.array_equal(back, ids)


def test_box_of_outside_is_minus_one():
    grid = bf.build_grid([(-1.0, 1.0)], (16,))
    out = grid.box_of(np.array([[1.5], [-3.0], [0.0]]))
    assert out[0] == -1 and out[1] == -1 and out[2] >= 0


def test_box_of_non_finite_is_minus_one_without_warnings():
    grid = bf.build_grid([(-1.0, 1.0), (0.0, 2.0)], (8, 8))
    pts = np.array([[np.inf, 1.0], [-np.inf, 1.0], [np.nan, 1.0], [0.0, np.nan],
                    [1e300, 1.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = grid.box_of(pts)
        single = grid.box_of(np.array([np.nan, 1.0]))
    assert out[:5].tolist() == [-1] * 5 and out[5] >= 0
    assert single == -1


def test_bounds_partition_the_domain():
    grid = bf.build_grid([(-1.0, 1.0)], (16,))
    rects = grid.bounds(np.arange(16))
    widths = rects[:, 0, 1] - rects[:, 0, 0]
    assert np.allclose(widths, 2.0 / 16)
    assert rects[0, 0, 0] == pytest.approx(-1.0)
    assert rects[-1, 0, 1] == pytest.approx(1.0)
    # consecutive boxes share a face
    assert np.allclose(rects[1:, 0, 0], rects[:-1, 0, 1])


def test_multi_index_ravel_round_trip():
    grid = bf.build_grid([(-1.0, 1.0), (0.0, 2.0)], (8, 4))
    ids = np.arange(32)
    assert np.array_equal(grid.ravel(grid.multi_index(ids)), ids)


def test_count_and_step_owners():
    assert [checked_count(v, "n", low) for v, low in ((3, 1), (np.int64(3), 1), (0, 0))] \
        == [3, 3, 0]
    assert type(checked_count(np.int32(3), "n")) is int
    for value, low in ((2.5, 1), (3.0, 1), (True, 0), (False, 0), (0, 1), (-1, 0), ("3", 1)):
        with pytest.raises(PreconditionError, match="n must be a whole number"):
            checked_count(value, "n", low)
    # 0.3 / 0.1 is 2.9999999999999996: the roundoff snaps up, not down
    assert whole_steps(0.3, 0.1) == 3 and whole_steps(0.35, 0.1) == 3
    assert nearest_steps(0.36, 0.1) == 4 and nearest_steps(0.34, 0.1) == 3
    for call in (whole_steps, nearest_steps):
        with pytest.raises(PreconditionError, match="finite"):
            call(float("nan"), 0.1)
        with pytest.raises(PreconditionError, match="finite"):
            call(1.0, 0.0)


@pytest.mark.parametrize("samples", [2.5, True, -1, 0, 3.0])
def test_lattice_takes_a_whole_sample_count(samples):
    grid = bf.build_grid([(0.0, 1.0)], (4,))
    with pytest.raises(PreconditionError, match="samples_per_axis must be a whole number"):
        grid.lattice([0], samples)
    with pytest.raises(PreconditionError, match="samples_per_axis must be a whole number"):
        grid.axis_samples(0, np.array([0]), samples)
    np.testing.assert_array_equal(grid.lattice([0, 3], np.int64(3)), grid.lattice([0, 3], 3))


def test_sample_in_boxes_takes_a_whole_count():
    grid = bf.build_grid([(0.0, 1.0)], (4,))
    for n in (-1, 2.5, True):
        with pytest.raises(PreconditionError, match="sample count must be a whole number"):
            sample_in_boxes(np.random.default_rng(0), grid, BoxSet([1, 2]), n)
    assert sample_in_boxes(np.random.default_rng(0), grid, BoxSet([1, 2]), 0)[1].shape == (0, 1)
    picks, pts = sample_in_boxes(np.random.default_rng(0), grid, BoxSet([1, 2]), np.int64(3))
    want = sample_in_boxes(np.random.default_rng(0), grid, BoxSet([1, 2]), 3)
    np.testing.assert_array_equal(picks, want[0])
    np.testing.assert_array_equal(pts, want[1])


@pytest.mark.parametrize("call", [
    pytest.param(lambda grid: BoxSet([2.7]), id="BoxSet-float"),
    pytest.param(lambda grid: BoxSet([True]), id="BoxSet-bool"),
    pytest.param(lambda grid: BoxSet(np.array([1.0, 2.0])), id="BoxSet-float-array"),
    pytest.param(lambda grid: grid.centers([2.7]), id="centers-float"),
    pytest.param(lambda grid: grid.centers([True]), id="centers-bool"),
    pytest.param(lambda grid: grid.bounds(["a"]), id="bounds-string"),
    pytest.param(lambda grid: grid.lattice([1.5], 3), id="lattice-float"),
])
def test_a_box_id_that_is_not_an_integer_is_a_precondition_error(call):
    # these were once cast: BoxSet([2.7, True]) was BoxSet([1, 2])
    grid = bf.build_grid([(-1.0, 1.0)], (16,))
    with pytest.raises(PreconditionError, match="not integers"):
        call(grid)


def test_box_ids_are_checked_before_the_cast():
    grid = bf.build_grid([(-1.0, 1.0)], (16,))
    # numpy integers are ids as they are
    assert np.array_equal(grid.centers(np.array([3, 5], dtype=np.int32)), grid.centers([3, 5]))
    assert np.array_equal(grid.centers([np.int64(3)]), grid.centers([3]))
    assert BoxSet(np.array([5, 3], dtype=np.int32)) == BoxSet([np.int64(3), 5])
    # an integer past int64 is refused, not overflowed
    for call in (lambda: BoxSet([2 ** 70]), lambda: grid.centers([2 ** 70]),
                 lambda: grid.centers(np.array([2 ** 63], dtype=np.uint64))):
        with pytest.raises(PreconditionError, match="box id out of range"):
            call()


@pytest.mark.parametrize("points", [[0.5, 0.5], np.zeros((2, 2)), np.zeros((3, 0))])
def test_box_of_a_point_of_another_dimension_is_a_precondition_error(points):
    grid = bf.build_grid([(-1.0, 1.0)], (16,))
    with pytest.raises(PreconditionError, match="points need 1 coordinates"):
        grid.box_of(points)


def test_lattice_spans_box_faces():
    grid = bf.build_grid([(0.0, 1.0)], (4,))
    pts = grid.lattice(np.array([1]), 3)
    assert np.allclose(pts[:, 0], [0.25, 0.375, 0.5])
    center_only = grid.lattice(np.array([1]), 1)
    assert np.allclose(center_only[:, 0], [0.375])


def test_boxset_algebra_matches_python_sets():
    rng = np.random.default_rng(3)
    a_ids = set(rng.integers(0, 60, size=25).tolist())
    b_ids = set(rng.integers(0, 60, size=25).tolist())
    a, b = BoxSet(sorted(a_ids)), BoxSet(sorted(b_ids))
    assert set(a.union(b).ids.tolist()) == a_ids | b_ids
    assert set(a.intersection(b).ids.tolist()) == a_ids & b_ids
    assert set(a.difference(b).ids.tolist()) == a_ids - b_ids
    assert a.issubset(a.union(b))
    assert BoxSet([]).isdisjoint(a)
    assert (17 in a) == (17 in a_ids)
    assert len(a) == len(a_ids)
    assert bool(BoxSet([])) is False


def test_a_union_leaves_numpy_ma_unloaded():
    # np.union1d imports numpy.ma on its first call: 14-17 ms and 0.9 MB
    src = str(Path(bf.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); from boxflow.grid import BoxSet; "
         "u = BoxSet([5, 1, 3]).union(BoxSet([3, 2])); assert u.ids.tolist() == [1, 2, 3, 5]; "
         "print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_boxset_mask_round_trip():
    ids = [2, 5, 9]
    bs = BoxSet(ids)
    assert BoxSet.from_mask(bs.mask(12)) == bs


def test_boxset_mask_reads_id_minus_one_as_outside():
    for ids, n in (([2, 5, 9], 12), (range(12), 12), ([], 12), ([0], 1)):
        mask = BoxSet(ids).mask(n)
        assert mask.size == n + 1
        assert not mask[-1]
        assert np.flatnonzero(mask).tolist() == list(ids)


@pytest.mark.parametrize("ids,n,bad", [([3, 12], 12, 12), ([-1, 4], 5, -1),
                                       ([-3, -1, 2, 7, 9], 5, -3), ([1, 5, 8], 5, 5)])
def test_boxset_mask_rejects_ids_outside_the_grid(ids, n, bad):
    # id n would set the entry id -1 reads, and id -1 would set it too, so
    # EXIT and points outside the domain would read as inside
    with pytest.raises(PreconditionError, match=f"box id {bad} is outside the boxes 0..{n - 1}"):
        BoxSet(ids).mask(n)


def test_closure_in_one_dimension():
    grid = bf.build_grid([(0.0, 1.0)], (8,))
    assert grid.closure(BoxSet([4])).ids.tolist() == [3, 4, 5]
    assert grid.closure(BoxSet([0])).ids.tolist() == [0, 1]
    assert grid.closure(BoxSet([7])).ids.tolist() == [6, 7]


def test_closure_in_two_dimensions_uses_all_neighbors():
    grid = bf.build_grid([(0.0, 1.0), (0.0, 1.0)], (8, 8))
    center = grid.ravel(np.array([[4, 4]]))[0]
    assert len(grid.closure(BoxSet([center]))) == 9
    corner = grid.ravel(np.array([[0, 0]]))[0]
    assert len(grid.closure(BoxSet([corner]))) == 4


def test_dilate_iterates_closure():
    grid = bf.build_grid([(0.0, 1.0)], (16,))
    bs = BoxSet([8])
    assert grid.dilate(bs, 2) == grid.closure(grid.closure(bs))
    assert grid.dilate(bs, 0) == bs


def test_boundary_layer_of_full_region():
    grid = bf.build_grid([(0.0, 1.0), (0.0, 1.0)], (8, 8))
    ring = grid.boundary_layer(grid.all_boxes())
    assert len(ring) == 28
    multi = grid.multi_index(ring.ids)
    assert np.all((multi == 0).any(axis=1) | (multi == 7).any(axis=1))


def test_build_grid_depth_forms():
    system = bf.builtin_system("gradient2d")
    assert bf.build_grid(system.domain, 16).shape == (16, 16)
    assert bf.build_grid(system.domain, (16, 8)).shape == (16, 8)
    grid_a = bf.build_grid([(-1.0, 1.0)], (16,))
    grid_b = bf.build_grid([(-1.0, 1.0)], (16,))
    assert grid_a == grid_b


def test_grid_validation():
    with pytest.raises(PreconditionError):
        BoxGrid(np.array([[1.0, -1.0]]), (4,))
    with pytest.raises(PreconditionError):
        bf.build_grid([(-1.0, 1.0)], (0,))
    # a box count is a whole number, never truncated or read from a bool
    for domain, depth in (([(-1.0, 1.0)], 2.5), ([(-1.0, 1.0)], (True,)),
                          ([(-1.0, 1.0), (0.0, 1.0)], (3.9, 2)), ([(-1.0, 1.0)], (-1,)),
                          ([(-1.0, 1.0)], (3.0,))):
        with pytest.raises(PreconditionError, match="whole number"):
            bf.build_grid(domain, depth)
    with pytest.raises(PreconditionError, match="whole number"):
        BoxGrid([(-1.0, 1.0)], (2.5,))
    shape = BoxGrid([(-1.0, 1.0)], (np.int64(3),)).shape
    assert shape == (3,) and type(shape[0]) is int


@pytest.mark.parametrize("build", [
    pytest.param(lambda domain: BoxGrid(domain, (4, 4)), id="BoxGrid"),
    pytest.param(lambda domain: bf.FlowSystem(dimension=2, field=lambda p: -p, domain=domain),
                 id="FlowSystem"),
])
@pytest.mark.parametrize("axis", [[-1e308, 1e308], [-np.inf, 0.0], [np.nan, 1.0]])
def test_a_domain_without_a_finite_width_is_refused(axis, build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="axis 1 .* has no finite width"):
            build(np.array([[0.0, 1.0], axis]))


def test_sorted_unique_equals_np_unique():
    rng = np.random.default_rng(4)
    for n, high in ((0, 5), (1, 5), (50, 10), (5000, 300), (5000, 2 ** 40)):
        ids = rng.integers(-3, high, size=n)
        want = np.unique(ids)
        got = sorted_unique(ids.copy())
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert BoxSet([5, 1, 5, 3, 1]).ids.tolist() == [1, 3, 5]


def test_finite_norm_rescales_only_where_the_plain_norm_overflows():
    x = np.array([[3.0, 4.0], [3e200, 4e200], [0.0, 0.0], [1.5e308, 1.5e308]])
    np.testing.assert_allclose(finite_norm(x, axis=1), [5.0, 5e200, 0.0, np.inf], rtol=1e-15)
    assert finite_norm(x[0]) == 5.0
    assert bf.build_grid([(-1e200, 1e200)], (8,)).box_diagonal() == 2.5e199
