"""Integrator accuracy against closed-form orbits and escape events."""

import errno
import gc
import hashlib
import json
import math
import os
import signal
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

import boxflow as bf
from boxflow import flows
from boxflow.errors import (CapacityError, DomainError, IngestionError, NumericalError,
                            PreconditionError)
from boxflow.flows import ADVANCE_CHUNK, Escape, _advance, _advance_rows, polynomial_field
from boxflow.grid import MAX_MARCH_STEPS, MAX_MARCH_VALUES, BoxSet


def test_linear_decay_matches_exponential():
    system = bf.builtin_system("contract1d")
    for x0 in (0.9, -0.4, 0.25):
        for t in (0.3, 1.0, 2.5):
            got = bf.flow_map(system, np.array([x0]), t)
            assert abs(got[0] - x0 * math.exp(-t)) < 1e-9


def test_cubic_well_matches_logistic_closed_form():
    # dx/dt = x - x^3 gives x(t)^2 = x0^2 e^{2t} / (1 + x0^2 (e^{2t} - 1))
    system = bf.builtin_system("doublewell1d")
    for x0 in (0.5, -0.2, 0.9):
        for t in (0.5, 1.5):
            e2t = math.exp(2 * t)
            exact = math.copysign(
                math.sqrt(x0 * x0 * e2t / (1 + x0 * x0 * (e2t - 1))), x0)
            got = bf.flow_map(system, np.array([x0]), t)
            assert abs(got[0] - exact) < 1e-7


def test_escape_reports_boundary_crossing():
    # the saddle orbit from 0.5 reaches |x| = 1 at t = ln 2; the escape
    # marker carries the last inside position at internal step granularity
    system = bf.builtin_system("saddle1d")
    out = bf.flow_map(system, np.array([0.5]), 1.0)
    assert isinstance(out, Escape)
    assert out.time <= math.log(2.0) + 1e-9
    assert out.time > math.log(2.0) - 2e-2
    assert 0.97 <= abs(out.point[0]) <= 1.0


def test_semigroup_property():
    system = bf.builtin_system("doublewell1d")
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.5, 1.5, size=(10, 1))
    for x in pts:
        one = bf.flow_map(system, x, 1.2)
        two = bf.flow_map(system, bf.flow_map(system, x, 0.5), 0.7)
        assert np.abs(one - two).max() < 1e-9


def test_flow_is_deterministic():
    system = bf.builtin_system("hopf2d")
    x = np.array([0.3, -0.2])
    a = bf.flow_map(system, x, 2.0)
    b = bf.flow_map(system, x, 2.0)
    assert np.array_equal(a, b)


def test_point_outside_domain_rejected():
    system = bf.builtin_system("contract1d")
    with pytest.raises(DomainError):
        bf.flow_map(system, np.array([2.5]), 1.0)


def test_trajectory_sampling_shape_and_decay():
    system = bf.builtin_system("contract1d")
    traj = bf.sample_trajectory(system, np.array([0.8]), 2.0, 0.25)
    assert not traj.escaped
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(2.0)
    assert traj.points.shape == (len(traj.times), 1)
    assert np.all(np.diff(np.abs(traj.points[:, 0])) < 0)


def test_trajectory_sampling_reports_escape():
    system = bf.builtin_system("saddle1d")
    traj = bf.sample_trajectory(system, np.array([0.5]), 3.0, 0.25)
    assert traj.escaped
    assert traj.escape_index == len(traj.times)
    assert np.abs(traj.points[:, 0]).max() < 1.0


def _sup_envelope(s, pair, x, **kw):
    # a profile whose zero and one sets do not meet on the pair below
    return bf.sup_envelope(s, pair, bf.make_rho(pair, BoxSet([31, 32]), BoxSet([20])), x, **kw)


def _uniform_entry_time(s, pair, **kw):
    return bf.uniform_entry_time(s, pair, BoxSet([40]), BoxSet([31, 32]), **kw)


@pytest.mark.parametrize("call", [
    pytest.param(lambda s, pair, x: bf.flow_map(s, x, math.nan), id="flow_map-t-nan"),
    pytest.param(lambda s, pair, x: bf.flow_map(s, x, math.inf), id="flow_map-t-inf"),
    pytest.param(lambda s, pair, x: _advance(s, np.empty((0, 1)), math.nan),
                 id="advance-zero-rows-t-nan"),
    pytest.param(lambda s, pair, x: _advance(s, np.empty((0, 1)), math.inf),
                 id="advance-zero-rows-t-inf"),
    pytest.param(lambda s, pair, x: bf.stopped_flow(s, pair, x, math.nan), id="stopped_flow-t-nan"),
    pytest.param(lambda s, pair, x: bf.stopped_flow(s, pair, x, math.inf), id="stopped_flow-t-inf"),
    pytest.param(lambda s, pair, x: bf.quotient_flow(s, pair, x, math.nan),
                 id="quotient_flow-t-nan"),
    pytest.param(lambda s, pair, x: bf.quotient_flow(s, pair, x, math.inf),
                 id="quotient_flow-t-inf"),
    pytest.param(lambda s, pair, x: bf.quotient_flow(s, pair, x, -1.0),
                 id="quotient_flow-t-negative"),
    pytest.param(lambda s, pair, x: bf.sample_trajectory(s, x, math.inf, 0.25),
                 id="sample_trajectory-horizon-inf"),
    pytest.param(lambda s, pair, x: bf.sample_trajectory(s, x, 1.0, 0.0),
                 id="sample_trajectory-sample_step-zero"),
    pytest.param(lambda s, pair, x: _advance_rows(s, x[None], [-1.0]),
                 id="advance_rows-t-negative"),
    pytest.param(lambda s, pair, x: bf.exit_time(s, pair, x, dt=math.nan), id="exit_time-dt-nan"),
    pytest.param(lambda s, pair, x: bf.exit_time(s, pair, x, horizon=-1.0),
                 id="exit_time-horizon-negative"),
    pytest.param(lambda s, pair, x: bf.quotient_flow(s, pair, x, 1.0, dt=0.0),
                 id="quotient_flow-dt-zero"),
    pytest.param(lambda s, pair, x: _sup_envelope(s, pair, x, dt=0.0), id="sup_envelope-dt-zero"),
    pytest.param(lambda s, pair, x: _sup_envelope(s, pair, x, dt=-0.05),
                 id="sup_envelope-dt-negative"),
    pytest.param(lambda s, pair, x: _sup_envelope(s, pair, x, dt=math.nan),
                 id="sup_envelope-dt-nan"),
    pytest.param(lambda s, pair, x: _sup_envelope(s, pair, x, horizon=-1.0),
                 id="sup_envelope-horizon-negative"),
    pytest.param(lambda s, pair, x: _uniform_entry_time(s, pair, dt=0.0),
                 id="uniform_entry_time-dt-zero"),
    pytest.param(lambda s, pair, x: _uniform_entry_time(s, pair, horizon=-1.0),
                 id="uniform_entry_time-horizon-negative"),
    pytest.param(lambda s, pair, x: bf.discounted_average(s, pair, lambda p: 0.0, x, dt=-0.05),
                 id="discounted_average-dt-negative"),
    pytest.param(lambda s, pair, x: bf.discounted_average(s, pair, lambda p: 0.0, x,
                                                          t_max=math.nan),
                 id="discounted_average-t_max-nan"),
])
def test_a_non_finite_time_or_a_step_not_above_zero_is_a_precondition_error(call):
    # contract1d from x = 0.5, with the pair of every box and L at both ends
    system = bf.builtin_system("contract1d")
    grid = bf.build_grid(system.domain, (64,))
    pair = bf.IndexPair.from_boxes(grid, grid.all_boxes().ids, [0, 63])
    with pytest.raises(PreconditionError, match="finite"):
        call(system, pair, np.array([0.5]))


def test_sample_trajectory_past_the_march_limit_is_a_capacity_error():
    # the count no float holds goes first: without a check on the finite
    # count, the second call would march 2^25 samples
    system = bf.builtin_system("contract1d")
    x = np.array([0.5])
    with pytest.raises(CapacityError, match=r"horizon of 1e\+300 at dt=1e-300"):
        bf.sample_trajectory(system, x, 1e300, 1e-300)
    with pytest.raises(CapacityError, match=f"limit is {MAX_MARCH_VALUES}"):
        bf.sample_trajectory(system, x, MAX_MARCH_VALUES * 0.5, 0.5)


@pytest.mark.parametrize("call", [
    pytest.param(lambda s, pair, x: bf.exit_time(s, pair, x, dt=1e-300, horizon=1e10),
                 id="exit_time"),
    pytest.param(lambda s, pair, x: bf.sup_envelope(
        s, pair, bf.make_rho(pair, BoxSet([7, 8]), BoxSet([0])), x, dt=1e-300, horizon=1e10),
                 id="sup_envelope"),
    pytest.param(lambda s, pair, x: bf.uniform_entry_time(
        s, pair, BoxSet([3]), BoxSet([7, 8]), dt=1e-300, horizon=1e10),
                 id="uniform_entry_time"),
    pytest.param(lambda s, pair, x: bf.discounted_average(
        s, pair, lambda p: 0.0, x, dt=1e-300, t_max=1e10),
                 id="discounted_average"),
])
def test_a_quotient_march_no_float_can_count_is_a_capacity_error(call):
    # 1e10 / 1e-300 overflows to inf, which int() cannot take
    system = bf.builtin_system("contract1d")
    grid = bf.build_grid(system.domain, (16,))
    pair = bf.IndexPair(grid, grid.all_boxes(), BoxSet([]))
    with pytest.raises(CapacityError, match=r"horizon of 1e\+10 at dt=1e-300"):
        call(system, pair, np.array([0.5]))


def test_polynomial_field_matches_builtin_cubic():
    field = polynomial_field(
        [{"coeffs": [1.0], "exponents": [1]},
         {"coeffs": [-1.0], "exponents": [3]}], 1)
    system = bf.builtin_system("doublewell1d")
    pts = np.linspace(-1.5, 1.5, 7)[:, None]
    np.testing.assert_array_equal(field(pts), system.field(pts))


def test_polynomial_field_takes_integral_float_exponents():
    pts = np.linspace(-1.0, 1.0, 7)[:, None]
    as_int = polynomial_field([{"coeffs": [-1.0], "exponents": [3]}], 1)
    as_float = polynomial_field([{"coeffs": [-1], "exponents": [3.0]}], 1)
    np.testing.assert_array_equal(as_int(pts), as_float(pts))


def test_polynomial_field_rejects_malformed_terms():
    with pytest.raises(IngestionError):
        polynomial_field([{"coeffs": [1.0]}], 1)
    with pytest.raises(IngestionError):
        polynomial_field([{"coeffs": [1.0, 2.0], "exponents": [1]}], 1)
    with pytest.raises(IngestionError):
        polynomial_field([{"coeffs": [1.0], "exponents": [-1]}], 1)


def test_load_system_from_file(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({
        "field": [{"coeffs": [1.0], "exponents": [1]},
                  {"coeffs": [-1.0], "exponents": [3]}],
        "dimension": 1,
        "domain": [[-2.0, 2.0]],
        "name": "cubic",
    }))
    system = bf.load_system(str(path))
    builtin = bf.builtin_system("doublewell1d")
    x = np.array([0.37])
    np.testing.assert_array_equal(bf.flow_map(system, x, 1.0), bf.flow_map(builtin, x, 1.0))


def test_load_system_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(IngestionError):
        bf.load_system(str(bad))
    nofield = tmp_path / "nofield.json"
    nofield.write_text("{}")
    with pytest.raises(IngestionError):
        bf.load_system(str(nofield))


def test_builtin_catalog():
    names = bf.builtin_names()
    assert "doublewell1d" in names and "hopf2d" in names
    with pytest.raises(bf.CatalogError):
        bf.builtin_system("nope")


def test_system_validation():
    with pytest.raises(PreconditionError):
        bf.FlowSystem(dimension=1, field=lambda p: -p,
                      domain=[[1.0, -1.0]])
    with pytest.raises(PreconditionError):
        bf.FlowSystem(dimension=1, field=lambda p: -p,
                      domain=[[-1.0, 1.0]], step=0.0)
    with pytest.raises(PreconditionError, match="finite"):
        bf.FlowSystem(dimension=1, field=lambda p: -p,
                      domain=[[-1.0, 1.0]], step=math.inf)
    with pytest.raises(PreconditionError, match="finite"):
        bf.builtin_system("saddle1d", step=math.inf)


def _saddle2d():
    # x grows and y shrinks; rows leave through x = +-1 at t = ln(1 / |x0|)
    return bf.FlowSystem(dimension=2, field=lambda p: p * np.array([1.0, -1.0]),
                         domain=[[-1.0, 1.0], [-1.0, 1.0]], name="saddle2d")


def _row_at_a_time(system, pts, t):
    # t is one time for every row, or one time per row
    ts = np.broadcast_to(np.asarray(t, dtype=float), len(pts))
    rows = [_advance(system, pts[i:i + 1], float(ts[i])) for i in range(len(pts))]
    return tuple(np.concatenate([r[k] for r in rows]) for k in range(3))


def test_chunked_advance_equals_row_at_a_time(monkeypatch):
    # 200 rows in chunks of 16, with escapes spread over many chunks and a
    # last step shorter than the rest
    monkeypatch.setattr(flows, "ADVANCE_CHUNK", 16)
    system = _saddle2d()
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(200, 2))
    got = _advance(system, pts, 1.237)
    assert 20 < got[1].sum() < 180
    assert len({i // 16 for i in np.flatnonzero(got[1])}) > 5
    for a, b in zip(got, _row_at_a_time(system, pts, 1.237)):
        np.testing.assert_array_equal(a, b)


def test_advance_at_the_chunk_size_equals_row_at_a_time():
    # three real chunks of equal size; every escaping row and the rows
    # around each chunk border are compared with a march of that row alone
    system = bf.builtin_system("saddle1d")
    n = 2 * ADVANCE_CHUNK + 300
    pts = np.linspace(-0.3, 0.3, n)[:, None]
    far = np.arange(0, n, 997)
    pts[far, 0] = np.where(far % 2, 0.97, -0.98)
    pos, escaped, when = _advance(system, pts, 0.053)
    starts = [c[0] for c in np.array_split(np.arange(n), 3)][1:]
    assert set(np.searchsorted(starts, np.flatnonzero(escaped), side="right")) == {0, 1, 2}
    borders = [i for c in starts for i in range(c - 3, c + 3)]
    check = np.union1d(np.flatnonzero(escaped), borders)
    ref = _row_at_a_time(system, pts[check], 0.053)
    for a, b in zip((pos[check], escaped[check], when[check]), ref):
        np.testing.assert_array_equal(a, b)
    assert np.isnan(when[~escaped]).all()


def test_non_finite_values_name_the_earliest_failure_across_chunks():
    # speed 1 to the right; the field is infinite past x = 5, so a row from
    # x0 fails near t = 5 - x0.  The earliest failure is in the last chunk.
    system = bf.FlowSystem(dimension=1, field=lambda p: np.where(p > 5.0, np.inf, 1.0),
                           domain=[[0.0, 10.0]], name="wall")
    pts = np.zeros((2 * ADVANCE_CHUNK + 10, 1))
    pts[ADVANCE_CHUNK + 4] = 4.2
    pts[-3] = 4.6
    with pytest.raises(NumericalError) as alone:
        _advance(system, pts[-3:-2], 1.0)
    with pytest.raises(NumericalError) as batch:
        _advance(system, pts, 1.0)
    assert str(batch.value) == str(alone.value)
    assert "t=0.41" in str(batch.value)
    with pytest.raises(NumericalError, match="t=0.81"):
        _advance(system, pts[:ADVANCE_CHUNK + 5], 1.0)
    # rows that never reach the wall march on
    assert not _advance(system, pts[:ADVANCE_CHUNK], 1.0)[1].any()


def test_per_row_times_equal_row_at_a_time(monkeypatch):
    # 240 rows in chunks of 16: zero times, whole multiples of the step
    # (one group of 40 rows spans three chunks) and times with remainders
    monkeypatch.setattr(flows, "ADVANCE_CHUNK", 16)
    system = _saddle2d()
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, size=(240, 2))
    h = system.step
    t = np.concatenate([np.zeros(20), np.full(40, 30 * h), rng.integers(1, 120, 60) * h,
                        rng.uniform(0.0, 1.2, 120)])
    got = _advance_rows(system, pts, t)
    assert 20 < got[1].sum() < 200
    for a, b in zip(got, _row_at_a_time(system, pts, t)):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got[0][:20], pts[:20])


def test_per_row_escapes_during_whole_and_remainder_steps():
    # x' = x leaves [-1, 1] at t = ln(1/x0) = 0.503, inside step 51
    system = bf.builtin_system("saddle1d")
    x0 = math.exp(-0.503)
    pts = np.full((4, 1), x0)
    t = np.array([0.5, 0.505, 0.9, 0.504])
    pos, escaped, when = _advance_rows(system, pts, t)
    ref = _row_at_a_time(system, pts, t)
    for a, b in zip((pos, escaped, when), ref):
        np.testing.assert_array_equal(a, b)
    # 50 whole steps reach time 0.5; the remainder step (0.505, 0.504) and
    # the 51st whole step (0.9) both leave the domain from there
    assert escaped.tolist() == [False, True, True, True]
    np.testing.assert_array_equal(pos[1:], np.repeat(pos[:1], 3, axis=0))
    assert len(set(when[1:].tolist())) == 1


def test_per_row_times_reject_negative_times_and_report_non_finite_values():
    system = _saddle2d()
    pts = np.zeros((3, 2))
    with pytest.raises(PreconditionError):
        _advance_rows(system, pts, [0.1, -0.2, 0.3])
    with pytest.raises(PreconditionError):
        _advance_rows(system, pts, [0.1, 0.2])
    wall = bf.FlowSystem(dimension=1, field=lambda p: np.where(p > 5.0, np.inf, 1.0),
                         domain=[[0.0, 10.0]], name="wall")
    # the wall is reached in a whole step, and in a remainder step alone;
    # either way the message names the time _advance names for that row
    for x0, t, when in ((4.2, 1.0, "t=0.81"), (4.999, 0.004, "t=0.004")):
        with pytest.raises(NumericalError) as alone:
            _advance(wall, np.array([[x0]]), t)
        with pytest.raises(NumericalError) as rows:
            _advance_rows(wall, np.array([[0.0], [x0]]), [t, t])
        assert str(rows.value) == str(alone.value)
        assert when in str(rows.value)
    # the earliest of several rows failing in their remainder steps
    with pytest.raises(NumericalError, match=r"t=0\.003$"):
        _advance_rows(wall, np.array([[4.999], [4.999], [0.0]]), [0.004, 0.003, 0.004])


def _rows_match_row_at_a_time(system, pts, t):
    got = _advance(system, pts, t)
    for a, b in zip(got, _row_at_a_time(system, pts, t)):
        np.testing.assert_array_equal(a, b)
    return got


def _same_failure(system, pts, t, row):
    # the batch raises the NumericalError that the failing row raises alone
    with pytest.raises(NumericalError) as alone:
        _advance(system, pts[row:row + 1], t)
    with pytest.raises(NumericalError) as batch:
        _advance(system, pts, t)
    assert str(batch.value) == str(alone.value)
    return str(batch.value)


def _nan_wall(p):
    # speed 1 along x; the y velocity is NaN past x = 0.5
    out = np.zeros_like(p)
    out[:, 0] = 1.0
    out[:, 1] = np.where(p[:, 0] > 0.5, np.nan, 0.0)
    return out


def test_nan_in_one_coordinate_names_the_earliest_failure_across_a_chunk_border(monkeypatch):
    monkeypatch.setattr(flows, "ADVANCE_CHUNK", 16)
    system = bf.FlowSystem(dimension=2, field=_nan_wall,
                           domain=[[0.0, 10.0], [-1.0, 1.0]], name="nanwall")
    # two chunks of 16 rows
    pts = np.zeros((32, 2))
    pts[:, 1] = np.linspace(-0.9, 0.9, 32)
    pts[15, 0] = 0.4125
    pts[16, 0] = 0.4525
    msg = _same_failure(system, pts, 1.0, 16)
    assert "t=0.05" in msg
    # without row 16 the first chunk's row 15 fails, later
    assert "t=0.09" in _same_failure(system, pts[:16], 1.0, 15)
    # rows that stay left of the NaN wall march on, row for row
    got = _rows_match_row_at_a_time(system, pts[17:], 0.3)
    assert not got[1].any()


def test_a_step_with_an_escape_and_a_non_finite_row_still_raises(monkeypatch):
    # rows with y > 0.5 hit a NaN wall at x = 5; all rows move right at
    # speed 1 and leave the domain at x = 10.  In the first step row 3
    # escapes and row 5 turns non-finite; the error wins, at the same t.
    monkeypatch.setattr(flows, "ADVANCE_CHUNK", 16)

    def field(p):
        out = np.zeros_like(p)
        out[:, 0] = np.where((p[:, 1] > 0.5) & (p[:, 0] > 5.0), np.nan, 1.0)
        return out

    system = bf.FlowSystem(dimension=2, field=field,
                           domain=[[0.0, 10.0], [0.0, 1.0]], name="escape-and-wall")
    pts = np.column_stack([np.linspace(1.0, 2.0, 10), np.full(10, 0.2)])
    pts[3] = [9.995, 0.2]
    pts[5] = [4.996, 0.8]
    assert _advance(system, pts[3:4], 0.01)[1][0]
    assert "t=0.01" in _same_failure(system, pts, 1.0, 5)
    # without the failing row the escape is frozen as usual
    keep = np.arange(10) != 5
    got = _rows_match_row_at_a_time(system, pts[keep], 1.0)
    assert got[1].tolist() == [False, False, False, True] + [False] * 5


def test_images_exactly_on_the_domain_bounds_stay_inside():
    # one RK4 step of 0.5 under a constant field moves (0.5, -0.5) exactly
    # onto the corner (hi, lo) of the closed domain; the next step leaves it
    system = bf.FlowSystem(dimension=2, field=lambda p: np.broadcast_to([1.0, -1.0], p.shape),
                           domain=[[-1.0, 1.0], [-1.0, 1.0]], step=0.5, name="drift")
    pts = np.array([[0.5, -0.5], [0.0, 0.0], [-0.5, 0.5]])
    pos, escaped, when = _rows_match_row_at_a_time(system, pts, 0.5)
    assert not escaped.any()
    np.testing.assert_array_equal(pos[0], [1.0, -1.0])
    pos, escaped, when = _rows_match_row_at_a_time(system, pts, 1.0)
    assert escaped.tolist() == [True, False, False]
    np.testing.assert_array_equal(pos[0], [1.0, -1.0])
    assert when[0] == 0.5


def test_short_last_chunks_and_shrinking_chunks_equal_row_at_a_time(monkeypatch):
    # 37 rows in chunks of at most 16: three chunks of 13, 12 and 12 rows,
    # and rows near x = +-1 leave every chunk in the first steps, so each
    # chunk shrinks
    monkeypatch.setattr(flows, "ADVANCE_CHUNK", 16)
    system = _saddle2d()
    pts = np.random.default_rng(5).uniform(-0.5, 0.5, size=(37, 2))
    near = [0, 7, 15, 16, 20, 31, 33, 36]
    pts[near, 0] = np.where(np.arange(len(near)) % 2, 0.995, -0.99)
    got = _rows_match_row_at_a_time(system, pts, 0.7)
    assert set(np.searchsorted([13, 25], np.flatnonzero(got[1]), side="right")) == {0, 1, 2}
    assert set(near) <= set(np.flatnonzero(got[1]))
    # a batch shorter than one chunk
    _rows_match_row_at_a_time(system, pts[30:], 0.7)


def _forking(monkeypatch, chunk=16):
    # three marching processes whatever the CPU count, so that one-CPU
    # runners fork workers too
    monkeypatch.setattr(flows, "ADVANCE_CHUNK", chunk)
    monkeypatch.setattr(flows, "_cpus", lambda: 3)


def _counted_forks(monkeypatch):
    # the pid of each worker os.fork starts, as the calling process sees it
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pid_files(field, folder):
    # the field, called in any process, leaves a file named by its pid
    def traced(p):
        (folder / str(os.getpid())).touch()
        return field(p)

    return traced


def test_forked_chunks_equal_row_at_a_time(monkeypatch, tmp_path):
    # 300 rows in 19 chunks of 16, claimed by three processes
    _forking(monkeypatch)
    pids = _counted_forks(monkeypatch)
    calls = []

    def field(p):
        calls.append(len(p))
        return p * np.array([1.0, -1.0])

    system = bf.FlowSystem(dimension=2, field=_pid_files(field, tmp_path),
                           domain=[[-1.0, 1.0], [-1.0, 1.0]], name="saddle2d")
    pts = np.random.default_rng(8).uniform(-1.0, 1.0, size=(300, 2))
    got = _advance(system, pts, 1.237)
    _no_child_left()
    assert len(pids) == 2
    assert {int(f.name) for f in tmp_path.iterdir()} == {os.getpid(), *pids}
    # the workers' rows are read from the shared arrays, not marched again
    forked_calls = len(calls)
    monkeypatch.setattr(flows, "_cpus", lambda: 1)
    _advance(system, pts, 1.237)
    assert 0 < forked_calls < len(calls) - forked_calls
    assert len({i // 16 for i in np.flatnonzero(got[1])}) > 10
    for a, b in zip(got, _row_at_a_time(system, pts, 1.237)):
        np.testing.assert_array_equal(a, b)


def _march_case(kind):
    # a system, batch and time whose march returns, raises NumericalError
    # at a wall of infinite speed, or overflows in the row at x = 800
    if kind == "returns":
        pts = np.random.default_rng(9).uniform(-1.0, 1.0, size=(300, 2))
        return _saddle2d(), pts, 1.237
    if kind == "wall":
        system = bf.FlowSystem(dimension=1, field=lambda p: np.where(p > 5.0, np.inf, 1.0),
                               domain=[[0.0, 10.0]], name="wall")
        pts = np.zeros((320, 1))
        pts[[3, 100, 200, 310], 0] = [4.2, 4.4, 4.5, 4.6]
        return system, pts, 1.0
    system = bf.FlowSystem(dimension=1, field=np.exp, domain=[[-1000.0, 1000.0]], name="exp")
    pts = np.full((64, 1), -50.0)
    pts[37] = 800.0
    return system, pts, 0.05


def test_forked_chunks_name_the_earliest_failure(monkeypatch):
    # speed 1 to the right with a wall at x = 5: a row from x0 fails near
    # t = 5 - x0.  Rows fail in chunks 0, 6, 12 and 19 of 20; the calling
    # process claims chunk 0 first and the workers chunks 12 and 19.  The
    # earliest failure is in chunk 19, whatever process ends first.
    _forking(monkeypatch)
    system, pts, _ = _march_case("wall")
    assert "t=0.41" in _same_failure(system, pts, 1.0, 310)
    assert "t=0.51" in _same_failure(system, pts[:300], 1.0, 200)
    _no_child_left()


def test_forked_chunks_raise_the_exception_of_the_first_chunk_that_raised(monkeypatch):
    # a still field that raises naming its largest row: rows 20 and 40
    # make the second and third of three chunks raise, the first chunks
    # that the two workers claim, and the second's exception is raised
    # whatever process ends first; with row 5 the first chunk raises first
    _forking(monkeypatch)

    def field(p):
        if p.max() > 0:
            raise LookupError(f"x={p.max():g}")
        return np.zeros_like(p)

    system = bf.FlowSystem(dimension=1, field=field, domain=[[-5.0, 5.0]], name="still")
    pts = np.zeros((48, 1))
    pts[[20, 40], 0] = [1.0, 2.0]
    with pytest.raises(LookupError, match="^x=1$"):
        _advance(system, pts, 0.05)
    _no_child_left()
    pts[5] = 3.0
    with pytest.raises(LookupError, match="^x=3$"):
        _advance(system, pts, 0.05)
    _no_child_left()


def test_forked_graph_equals_a_single_process_graph(monkeypatch):
    # hopf2d 128^2 has 66,049 lattice points, five chunks of the real size
    system = bf.builtin_system("hopf2d")
    grid = bf.build_grid(system.domain.tolist(), (128, 128))
    _forking(monkeypatch, ADVANCE_CHUNK)
    pids = _counted_forks(monkeypatch)
    forked = bf.build_transition_graph(system, grid, 1.0)
    assert len(pids) == 2
    monkeypatch.setattr(flows, "_cpus", lambda: 1)
    assert forked == bf.build_transition_graph(system, grid, 1.0)
    assert len(pids) == 2


def test_forked_chunks_keep_the_callers_floating_point_settings(monkeypatch):
    # exp overflows past x = 709.78, so the row at 800 overflows in its
    # first stage, in the third of four chunks, which the second worker
    # claims after the fourth; the others march on
    system, pts, _ = _march_case("overflow")
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _advance(system, pts[37:38], 0.05)
        _forking(monkeypatch)
        with pytest.raises(FloatingPointError):
            _advance(system, pts, 0.05)
    # ignored overflow: the march names the non-finite value, and no
    # RuntimeWarning is raised from a worker
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="t=0.01"):
            _advance(system, pts, 0.05)
    _no_child_left()


def test_a_worker_warning_reaches_the_caller_as_in_a_one_cpu_march(monkeypatch):
    # four chunks: the calling process claims chunk 0 first, and the two
    # workers chunks 1 and 3.  Rows at 720 and 800 overflow in chunks 0 and
    # 1, and the field warns, naming its largest row, so the order shows;
    # the row at 1 in chunk 3 only warns.
    def field(p):
        if p.max() > 0:
            warnings.warn(f"x={p.max():g}")
        return np.exp(p)

    system = bf.FlowSystem(dimension=1, field=field, domain=[[-1000.0, 1000.0]], name="exp")
    pts = np.full((64, 1), -50.0)
    pts[[5, 20, 60], 0] = [720.0, 800.0, 1.0]
    _forking(monkeypatch)
    seen = {}
    for cpus in (1, 3):
        monkeypatch.setattr(flows, "_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught, np.errstate(over="warn"):
            warnings.simplefilter("always")
            with pytest.raises(NumericalError) as error:
                _advance(system, pts, 0.05)
        seen[cpus] = ([(w.category, str(w.message), w.filename, w.lineno) for w in caught],
                      str(error.value))
    assert seen[3] == seen[1]
    messages = [m for _, m, _, _ in seen[1][0]]
    assert messages.index("x=720") < messages.index("x=800") < messages.index("x=1")
    assert "overflow encountered in exp" in messages
    _no_child_left()


def test_the_calling_process_marches_beside_the_workers(monkeypatch, tmp_path):
    # three chunks on three CPUs: the first field call in each process
    # leaves a file and waits until three processes have left one, so the
    # march ends only if three chunks march at once, and the calling
    # process is one of the three
    _forking(monkeypatch)
    pids = _counted_forks(monkeypatch)
    first = []

    def field(p):
        if not first:
            first.append(os.getpid())
            (tmp_path / str(os.getpid())).touch()
            deadline = time.monotonic() + 10
            while len(list(tmp_path.iterdir())) < 3:
                if time.monotonic() > deadline:
                    raise TimeoutError("fewer than three processes marched at once")
                time.sleep(0.001)
        return -p

    system = bf.FlowSystem(dimension=1, field=field, domain=[[-1.0, 1.0]], name="contract")
    _advance(system, np.linspace(-0.9, 0.9, 48)[:, None], 0.05)
    _no_child_left()
    assert {int(f.name) for f in tmp_path.iterdir()} == {os.getpid(), *pids}
    assert len(pids) == 2


@pytest.mark.parametrize("kind,error", [("returns", None), ("wall", NumericalError),
                                        ("overflow", FloatingPointError)])
def test_no_started_thread_outlives_the_march(monkeypatch, kind, error):
    # the march starts no thread, and each worker it forks has been reaped
    # when it returns or raises
    _forking(monkeypatch)
    pids = _counted_forks(monkeypatch)
    system, pts, t = _march_case(kind)
    before = threading.enumerate()
    with np.errstate(over="raise"):
        if error is None:
            _advance(system, pts, t)
        else:
            with pytest.raises(error):
                _advance(system, pts, t)
    assert len(pids) == 2
    _no_child_left()
    assert threading.enumerate() == before


def test_an_interrupted_march_kills_and_reaps_its_workers(monkeypatch, tmp_path):
    # the calling process's own chunk is interrupted while the workers are
    # still marching theirs, which would take ten seconds
    _forking(monkeypatch)
    pids = _counted_forks(monkeypatch)
    parent = os.getpid()

    def field(p):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(0.1)
        return -p

    system = bf.FlowSystem(dimension=1, field=field, domain=[[-1.0, 1.0]], name="slow")
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _advance(system, np.linspace(-0.9, 0.9, 48)[:, None], 0.25)
    assert time.monotonic() - start < 5
    assert len(pids) == 2
    _no_child_left()


@pytest.mark.parametrize("cpus,rows", [(3, 16), (1, 300)])
def test_a_one_chunk_or_one_cpu_batch_starts_no_thread(monkeypatch, cpus, rows):
    # nor forks a process
    _forking(monkeypatch)
    monkeypatch.setattr(flows, "_cpus", lambda: cpus)
    pids = _counted_forks(monkeypatch)
    before = threading.enumerate()
    seen = []

    def field(p):
        seen.append(threading.enumerate())
        return p * np.array([1.0, -1.0])

    system = bf.FlowSystem(dimension=2, field=field, domain=[[-1.0, 1.0], [-1.0, 1.0]])
    pts = np.random.default_rng(10).uniform(-1.0, 1.0, size=(rows, 2))
    _advance(system, pts, 0.5)
    assert seen and all(threads == before for threads in seen)
    assert pids == []


def test_a_march_that_cannot_fork_gives_the_same_bits(monkeypatch):
    _forking(monkeypatch)
    tries = []

    def fork():
        tries.append(1)
        raise OSError(errno.EAGAIN, "no process to spare")

    monkeypatch.setattr(os, "fork", fork)
    system, pts, t = _march_case("returns")
    _rows_match_row_at_a_time(system, pts, t)
    # the first failed fork ends the forking
    assert len(tries) == 1


def test_the_chunks_of_a_killed_worker_are_marched_by_the_caller(monkeypatch, tmp_path):
    # a worker kills itself in the middle of its first chunk, once rows of
    # it have escaped and been written to the shared arrays; the caller
    # marches that chunk and the rest of the worker's run again
    _forking(monkeypatch)
    pids = _counted_forks(monkeypatch)
    parent = os.getpid()

    def field(p):
        if os.getpid() != parent and len(p) < 16 and len(p) % 2:
            (tmp_path / str(os.getpid())).touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return p * np.array([1.0, -1.0])

    system = bf.FlowSystem(dimension=2, field=field, domain=[[-1.0, 1.0], [-1.0, 1.0]],
                           name="saddle2d")
    pts = np.random.default_rng(8).uniform(-1.0, 1.0, size=(300, 2))
    monkeypatch.setattr(flows, "_cpus", lambda: 1)
    want = _advance(system, pts, 1.237)
    monkeypatch.setattr(flows, "_cpus", lambda: 3)
    got = _advance(system, pts, 1.237)
    _no_child_left()
    assert {int(f.name) for f in tmp_path.iterdir()} <= set(pids) and any(tmp_path.iterdir())
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_a_worker_whose_parent_has_changed_marches_nothing(monkeypatch, tmp_path):
    # workers read their parent's pid as another process's, as an orphan
    # does, so each stops before its first chunk and the calling process
    # marches every chunk
    _forking(monkeypatch)
    pids = _counted_forks(monkeypatch)
    monkeypatch.setattr(os, "getppid", lambda: -1)
    system = bf.FlowSystem(dimension=2, field=_pid_files(_saddle2d().field, tmp_path),
                           domain=[[-1.0, 1.0], [-1.0, 1.0]], name="saddle2d")
    pts = np.random.default_rng(8).uniform(-1.0, 1.0, size=(300, 2))
    _rows_match_row_at_a_time(system, pts, 1.237)
    _no_child_left()
    assert len(pids) == 2
    assert [f.name for f in tmp_path.iterdir()] == [str(os.getpid())]


@pytest.mark.parametrize("rows", [16, 64])
def test_a_chunk_error_leaves_no_reference_cycle(monkeypatch, rows):
    # the arrays of a march that raised are freed with the exception,
    # without waiting for the cyclic garbage collector; 16 rows are one
    # chunk and 64 rows four, the failing one the first chunk
    _forking(monkeypatch)
    system, pts, t = _march_case("overflow")
    inputs = []

    def field(p):
        inputs.append(weakref.ref(p))
        return np.exp(p)

    system.field = field
    gc.disable()
    try:
        try:
            with np.errstate(over="raise"):
                _advance(system, pts[32:32 + rows], t)
        except FloatingPointError:
            pass
        else:
            pytest.fail("the overflow did not raise")
        assert inputs and all(ref() is None for ref in inputs)
    finally:
        gc.enable()


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_march_stops_at_the_chunk_whose_field_raises(monkeypatch, cpus):
    # four chunks of 16, the first of which raises in its first field call:
    # the calling process makes no further call, and on three CPUs it
    # kills and reaps the workers marching the other chunks
    _forking(monkeypatch)
    monkeypatch.setattr(flows, "_cpus", lambda: cpus)
    pids = _counted_forks(monkeypatch)
    calls = []

    def field(p):
        calls.append(len(p))
        if p.max() > 0:
            raise LookupError(f"x={p.max():g}")
        return np.zeros_like(p)

    system = bf.FlowSystem(dimension=1, field=field, domain=[[-5.0, 5.0]], name="still")
    pts = np.zeros((64, 1))
    pts[5] = 1.0
    with pytest.raises(LookupError, match="^x=1$"):
        _advance(system, pts, 0.05)
    assert calls == [16]
    assert len(pids) == cpus - 1
    _no_child_left()


@pytest.mark.parametrize("fails", [False, True])
def test_a_worker_stops_at_a_chunk_that_warns(monkeypatch, tmp_path, fails):
    # six chunks of 16 on three CPUs: the workers claim chunks 3 and 5
    # first, and the calling process waits in its first field call until
    # both have.  Chunk 5 warns, so its worker stops and leaves chunks 5
    # and 4 to the calling process; with fails, chunk 4's field is
    # infinite.  Positions, warnings and the error equal a one-CPU march's.
    _forking(monkeypatch)
    parent = os.getpid()
    waited = []

    def field(p):
        chunk = int(p[0, 1])
        (tmp_path / f"{os.getpid()}-{chunk}").touch()
        if os.getpid() == parent and flows._cpus() > 1 and not waited:
            waited.append(1)
            deadline = time.monotonic() + 10
            while len({f.name.split("-")[0] for f in tmp_path.iterdir()} - {str(parent)}) < 2:
                if time.monotonic() > deadline:
                    raise TimeoutError("the workers did not start")
                time.sleep(0.001)
        if chunk == 5:
            warnings.warn(f"chunk {chunk}")
        out = np.zeros_like(p)
        out[:, 0] = np.inf if fails and chunk == 4 else -p[:, 0]
        return out

    system = bf.FlowSystem(dimension=2, field=field, domain=[[-1.0, 1.0], [0.0, 6.0]],
                           name="chunks")
    pts = np.column_stack([np.linspace(0.1, 0.9, 96), np.repeat(np.arange(6.0), 16)])
    seen = {}
    for cpus in (1, 3):
        monkeypatch.setattr(flows, "_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                got = _advance(system, pts, 0.05)
            except NumericalError as error:
                got = str(error)
        seen[cpus] = got, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    _no_child_left()
    assert len(seen[1][1]) == 20 and seen[3][1] == seen[1][1]
    if fails:
        assert seen[3][0] == seen[1][0] and "non-finite values at t=0.01" in seen[3][0]
    else:
        for a, b in zip(*(seen[cpus][0] for cpus in (3, 1))):
            np.testing.assert_array_equal(a, b)
    # chunk 4 is marched by the calling process alone, chunk 5 by both
    marched = {}
    for f in tmp_path.iterdir():
        pid, chunk = f.name.split("-")
        marched.setdefault(int(chunk), set()).add(int(pid))
    assert marched[4] == {parent}
    assert len(marched[5]) == 2 and parent in marched[5]


@pytest.mark.parametrize("t,step", [(1e9, 0.01), (1e300, 0.01), (1.0, 1e-300)],
                         ids=["t-1e9", "t-1e300", "step-1e-300"])
def test_a_march_past_the_step_limit_is_a_capacity_error(t, step):
    # raised before any step list is built or the field is called
    calls = []

    def field(p):
        calls.append(1)
        return p

    system = bf.FlowSystem(dimension=1, field=field, domain=[[-1.0, 1.0]], step=step,
                           name="saddle1d")
    x = np.array([0.5])
    for call in (lambda: _advance(system, x[None], t),
                 lambda: _advance_rows(system, x[None], [t]),
                 lambda: bf.flow_map(system, x, t)):
        with pytest.raises(CapacityError, match=f"limit is {MAX_MARCH_STEPS}"):
            call()
    assert calls == []


def test_the_step_limit_admits_its_own_count():
    assert flows._schedule(MAX_MARCH_STEPS * 0.5, 0.5) == (MAX_MARCH_STEPS, 0.0)
    with pytest.raises(CapacityError):
        flows._schedule((MAX_MARCH_STEPS + 1) * 0.5, 0.5)


def _rk4_oracle(field, pts, h):
    # the one-line RK4 step that _rk4_step must reproduce bit for bit
    k1 = field(pts)
    k2 = field(pts + 0.5 * h * k1)
    k3 = field(pts + 0.5 * h * k2)
    k4 = field(pts + h * k3)
    return pts + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _oracle_systems():
    # every built-in, and a two-term list with the exponents [2, 3], whose
    # pts ** e bits depend on the memory layout of pts
    systems = [bf.builtin_system(name) for name in bf.builtin_names()]
    terms = [{"coeffs": [1.0, -0.5], "exponents": [2, 3]},
             {"coeffs": [-1.0, 0.25], "exponents": [1, 0]}]
    systems.append(bf.FlowSystem(dimension=2, field=polynomial_field(terms, 2),
                                 domain=[[-2.0, 2.0], [-2.0, 2.0]], name="terms"))
    return systems


@pytest.mark.parametrize("system", _oracle_systems(), ids=lambda s: s.name)
def test_the_rk4_step_has_the_bits_of_the_one_line_expression(system):
    rng = np.random.default_rng(23)
    lo, hi = system.domain[:, 0], system.domain[:, 1]
    pts = rng.uniform(lo, hi, size=(257, system.dimension))
    # a scalar step, and the column of remainder steps _advance_rows passes
    for h in (system.step, 0.0371, rng.uniform(0.0, system.step, size=(257, 1))):
        got = flows._rk4_step(system.field, pts, h)
        np.testing.assert_array_equal(got, _rk4_oracle(system.field, pts, h))
        assert got.dtype == np.float64 and got.flags.c_contiguous


def _hopf_oracle(p):
    # hopf2d as one expression per column
    x, y = p[:, 0], p[:, 1]
    r2 = x * x + y * y
    return np.column_stack([x - y - x * r2, x + y - y * r2])


def _gradient_oracle(p):
    return np.column_stack([-p[:, 0], -2.0 * p[:, 1]])


@pytest.mark.parametrize("name,oracle", [("hopf2d", _hopf_oracle),
                                         ("gradient2d", _gradient_oracle)])
def test_hopf_and_gradient_fill_their_result_with_the_bits_of_one_expression(name, oracle):
    p = np.random.default_rng(31).uniform(-2.0, 2.0, size=(1000, 2))
    p[:6] = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [1e-300, -1e-300], [1e100, 3.0], [0.5, -0.0]]
    got = bf.builtin_system(name).field(p)
    np.testing.assert_array_equal(got.view(np.int64), oracle(p).view(np.int64))


def _returns_argument(p):
    return p


def _returns_read_only(p):
    return np.broadcast_to(np.array([0.3, -0.2]), p.shape)


def _returns_fortran(p):
    return np.asfortranarray(p * np.array([1.0, -1.0]))


def _returns_float32(p):
    return (p * np.array([1.0, -1.0])).astype(np.float32)


def _spied(field, d, seen):
    # records whether each call got a C-contiguous float64 (n, d) array
    def spy(p):
        seen.append(p.dtype == np.float64 and p.flags.c_contiguous
                    and p.ndim == 2 and p.shape[1] == d)
        return field(p)

    return spy


def _marches(monkeypatch):
    # every path into _rk4_step: _advance in one process and in three,
    # _sample_block, and _advance_rows with remainder steps
    pts = np.random.default_rng(29).uniform(-0.9, 0.9, size=(300, 2))
    t = np.random.default_rng(30).uniform(0.0, 0.3, size=300)

    def forked(system):
        with monkeypatch.context() as patch:
            _forking(patch)
            return _advance(system, pts, 0.237)

    return {
        "inline": lambda system: _advance(system, pts[:40], 0.237),
        "forked": forked,
        "sample_block": lambda system: (flows._sample_block(system, pts[:30], 0.05, 4),),
        "rows": lambda system: _advance_rows(system, pts[:60], t[:60]),
    }


@pytest.mark.parametrize("field", [_returns_argument, _returns_read_only, _returns_fortran,
                                   _returns_float32], ids=lambda f: f.__name__[9:])
def test_fields_get_c_contiguous_float64_rows_whatever_they_return(monkeypatch, field):
    for name, march in _marches(monkeypatch).items():
        seen = []
        system = bf.FlowSystem(dimension=2, field=_spied(field, 2, seen),
                               domain=[[-1.0, 1.0], [-1.0, 1.0]], name="spied")
        got = march(system)
        assert seen and all(seen), name
        assert got[0].dtype == np.float64 and got[0].flags.c_contiguous, name
        if field is _returns_float32:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(flows, "_rk4_step", _rk4_oracle)
            want = march(system)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b, err_msg=name)


def _still(p, c):
    # a constant field of speed c along the one axis
    return np.full_like(p, c)


@pytest.mark.parametrize("field,x0", [
    # speed c: the sum k1 + 2 k2 + 2 k3 + k4 is 6c, so 2e307 passes, 5e307
    # overflows in that sum and 1e308 in 2 k2
    (lambda p: _still(p, 2e307), 0.0), (lambda p: _still(p, 5e307), 0.0),
    (lambda p: _still(p, 1e308), 0.0),
    # x' = 100 x with steps of 0.01: the sum is 1025 x0 and 2 k2 is 300 x0,
    # so 1.7e305 passes, 1.8e305 overflows in the sum, 1e306 in 2 k2 and
    # 2e306 in the field itself
    (lambda p: 100.0 * p, 1.7e305), (lambda p: 100.0 * p, 1.8e305),
    (lambda p: 100.0 * p, 1e306), (lambda p: 100.0 * p, 2e306),
])
def test_an_overflow_raises_in_the_step_where_it_raises_in_the_expression(field, x0):
    pts = np.full((3, 1), x0)
    outcomes = []
    for step in (_rk4_oracle, flows._rk4_step):
        with np.errstate(over="raise"):
            try:
                outcomes.append(step(field, pts, 0.01))
            except FloatingPointError:
                outcomes.append(None)
    want, got = outcomes
    assert (got is None) == (want is None)
    if want is not None:
        np.testing.assert_array_equal(got, want)


# hopf2d's field as six terms, plus x^5 y^2, whose power pins the
# square-and-multiply order: (x*x)*(x*x)*x
HOPF_TERMS = [
    {"coeffs": [1.0, 1.0], "exponents": [1, 0]},
    {"coeffs": [-1.0, 1.0], "exponents": [0, 1]},
    {"coeffs": [-1.0, 0.0], "exponents": [3, 0]},
    {"coeffs": [-1.0, 0.0], "exponents": [1, 2]},
    {"coeffs": [0.0, -1.0], "exponents": [2, 1]},
    {"coeffs": [0.0, -1.0], "exponents": [0, 3]},
]
QUINTIC_TERMS = HOPF_TERMS + [{"coeffs": [-0.01, 0.02], "exponents": [5, 2]}]


def _march_system(name):
    if name != "terms2d":
        return bf.builtin_system(name)
    return bf.FlowSystem(dimension=2, field=polynomial_field(QUINTIC_TERMS, 2),
                         domain=[[-2.0, 2.0], [-2.0, 2.0]], name=name)


# SHA-256 of the positions, escape flags and escape times of _advance on a
# 41-point lattice per axis over 1.237, which ends in a remainder step.
# These fields, term lists included, use only +, - and *, so the bytes are
# the same under any IEEE numpy; unlike the graph digests of test_cli,
# they move with the last bit of any step.
MARCH_DIGESTS = {
    "hopf2d": "9e5cecb82bd3233c1464963c6851599186f113690fa1311f39933eb47123a467",
    "gradient2d": "7c2eebd9ebb16fcbfcec0102b6c4fba916a0a0d719bcdc2057f928ad854f47e1",
    "saddle1d": "72f0c0a618bfeeeb1b9c95bae21b3472f70854c8832034960add7eb591ec9784",
    "doublewell1d": "bfd130c90a08a556342918da51209af74c7990fe28dab5ab75f510d4118067c9",
    "terms2d": "9ed5d3ff0eacf7de6914611ffd79e15cf7370f8a75acaf31abd1070c68b0dfbf",
}


@pytest.mark.parametrize("name", sorted(MARCH_DIGESTS))
def test_the_march_writes_the_pinned_bytes(name):
    system = _march_system(name)
    axes = [np.linspace(lo, hi, 41) for lo, hi in system.domain]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, system.dimension)
    digest = hashlib.sha256()
    for a in _advance(system, pts, 1.237):
        digest.update(a.tobytes())
    assert digest.hexdigest() == MARCH_DIGESTS[name]


@pytest.mark.parametrize("d", [1, 2])
def test_a_sample_block_of_no_rows_is_empty(d):
    system = bf.builtin_system("doublewell1d" if d == 1 else "hopf2d")
    block = flows._sample_block(system, np.empty((0, d)), 0.1, 5)
    assert block.shape == (0, 0, d)
