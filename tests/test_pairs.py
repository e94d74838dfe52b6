"""Index pair construction, validation, exit times, and induced semiflows."""

import json
import math
import warnings

import numpy as np
import pytest

import boxflow as bf
from boxflow import cli, pairs
from boxflow.errors import (ConstructionError, IngestionError, IsolationError,
                            NumericalError, PreconditionError)
from boxflow.flows import ADVANCE_CHUNK
from boxflow.grid import BoxSet
from boxflow.pairs import BASEPOINT, _exit_times_batch, _march_quotient
from boxflow.transition import EXIT, TransitionGraph

from conftest import (_exit_time_oracle, _march_quotient_oracle, _random_exit_graph,
                      _retraction_oracle, _stopped_flow_oracle)


def test_constructed_pair_shape(doublewell):
    pair = doublewell.pair
    assert pair.N.ids.tolist() == list(range(62, 194))
    assert len(pair.L) == 0
    assert pair.core == pair.N
    inv, _ = bf.invariant_part(doublewell.graph, doublewell.region)
    assert doublewell.grid.closure(inv).issubset(pair.N)


def test_constructed_pair_validates(doublewell):
    verdict = bf.validate_index_pair(doublewell.graph, doublewell.pair)
    assert verdict.passed
    assert verdict.condition_i_violations == []
    assert verdict.condition_ii_violations == []
    assert "pass" in verdict.summary()
    d = verdict.to_dict()
    assert d["passed"] is True


def test_truncated_pair_fails_exit_routing(doublewell):
    # dropping the right end of N leaves core boxes whose images escape N
    # without passing through L
    clipped = bf.IndexPair.from_boxes(doublewell.grid,
                                      list(range(62, 190)), [])
    verdict = bf.validate_index_pair(doublewell.graph, clipped)
    assert not verdict.passed
    assert not verdict.condition_ii
    assert all(src in range(62, 190) for src, _ in
               verdict.condition_ii_violations)


def test_exit_times_match_logarithm(saddle):
    for x0 in (0.15, -0.35, 0.7, -0.9):
        tau = bf.exit_time(saddle.system, saddle.hand_pair, np.array([x0]))
        assert abs(tau - math.log(1.0 / abs(x0))) < 1e-5


def test_exit_time_conventions(saddle):
    with_l = bf.IndexPair.from_boxes(saddle.grid, saddle.grid.all_boxes().ids,
                                     [0, 63])
    assert bf.exit_time(saddle.system, with_l, np.array([-0.99])) == 0.0
    with pytest.raises(PreconditionError):
        bf.exit_time(saddle.system, saddle.hand_pair, np.array([1.5]))


def test_exit_time_infinite_inside_attracting_core(doublewell):
    tau = bf.exit_time(doublewell.system, doublewell.pair, np.array([0.9]),
                       horizon=5.0)
    assert math.isinf(tau)


@pytest.fixture(scope="module")
def window_pair(saddle):
    # N covers [-0.5, 0.5] with its outermost boxes as the exit set
    ids = list(range(16, 48))
    return bf.IndexPair.from_boxes(saddle.grid, ids, [16, 47])


def test_quotient_flow_absorbs_on_exit(saddle, window_pair):
    x = np.array([0.3])
    out = bf.quotient_flow(saddle.system, window_pair, x, 2.0)
    assert out is BASEPOINT
    assert bf.quotient_flow(saddle.system, window_pair, BASEPOINT, 1.0) \
        is BASEPOINT
    in_l = np.array([-0.49])
    assert bf.quotient_flow(saddle.system, window_pair, in_l, 0.1) is BASEPOINT


def test_quotient_flow_tracks_the_flow_inside(saddle, window_pair):
    x = np.array([0.3])
    for t in (0.0, 0.2, 0.23):
        out = bf.quotient_flow(saddle.system, window_pair, x, t)
        assert np.allclose(out, bf.flow_map(saddle.system, x, t), atol=1e-12)


def test_stopped_flow_freezes_at_the_exit(saddle, window_pair):
    x = np.array([0.3])
    out = bf.stopped_flow(saddle.system, window_pair, x, 5.0)
    assert abs(abs(out[0]) - 0.5) < 1e-3
    early = bf.stopped_flow(saddle.system, window_pair, x, 0.2)
    assert np.allclose(early, bf.flow_map(saddle.system, x, 0.2), atol=1e-9)


def test_regularity_of_the_window_pair(saddle, window_pair):
    rep = bf.regularity_check(saddle.system, window_pair,
                              rng=np.random.default_rng(5))
    assert rep.passed
    assert rep.violations == []
    assert rep.n_checked > 0


def test_regularity_of_the_full_interval_pair(saddle):
    # the hand pair has no exit set, so nothing is sampled but the exit
    # times must still vary continuously
    rep = bf.regularity_check(saddle.system, saddle.hand_pair,
                              rng=np.random.default_rng(5))
    assert rep.passed
    assert rep.violations == []
    assert np.isfinite(rep.modulus)


def _regularity_oracle(system, pair, rng, n_samples=50, t_probe=1.0):
    """regularity_check with one flow_map from t = 0 per sample and probe,
    and one exit-time batch each for the base points and their partners."""
    grid = pair.grid
    violations = []
    n_checked = 0
    if pair.L:
        picks = pair.L.ids[rng.integers(0, len(pair.L), size=n_samples)]
        bounds = grid.bounds(picks)
        pts = bounds[:, :, 0] + rng.random((n_samples, grid.dimension)) * grid.widths
        for i in range(n_samples):
            n_checked += 1
            stayed = True
            for s in np.linspace(0.0, t_probe, 9):
                probe = bf.flow_map(system, pts[i], s)
                if isinstance(probe, bf.Escape) or not pair.in_isolating(grid.box_of(probe)):
                    stayed = False
                    break
            if stayed:
                violations.append((int(picks[i]), pts[i].tolist()))
    modulus = float("nan")
    pairs_checked = 0
    if pair.core:
        k = max(4, n_samples // 2)
        picks = pair.core.ids[rng.integers(0, len(pair.core), size=k)]
        bounds = grid.bounds(picks)
        base = bounds[:, :, 0] + (0.25 + 0.5 * rng.random((k, grid.dimension))) * grid.widths
        shift = (rng.random((k, grid.dimension)) - 0.5) * 0.25 * grid.widths
        tau_a = _exit_times_batch(system, pair, base, 1e-2, 20.0)
        tau_b = _exit_times_batch(system, pair, base + shift, 1e-2, 20.0)
        both = np.isfinite(tau_a) & np.isfinite(tau_b)
        pairs_checked = int(both.sum())
        if pairs_checked:
            modulus = float(np.abs(tau_a[both] - tau_b[both]).max())
    return violations, n_checked, modulus, pairs_checked


@pytest.mark.parametrize("l_ids", [[16, 47], [30, 31, 32, 33]])
def test_regularity_check_equals_the_per_sample_reference(saddle, window_pair, l_ids):
    # the window pair exits through its end boxes; with L around the
    # repelling origin instead, samples in boxes 30 and 33 drift into the
    # core and stay, so violations are reported in sample order
    if l_ids == [16, 47]:
        pair = window_pair
    else:
        pair = bf.IndexPair.from_boxes(saddle.grid, saddle.grid.all_boxes().ids, l_ids)
    for seed in (0, 5):
        rep = bf.regularity_check(saddle.system, pair, n_samples=40,
                                  rng=np.random.default_rng(seed))
        violations, n_checked, modulus, pairs_checked = _regularity_oracle(
            saddle.system, pair, np.random.default_rng(seed), n_samples=40)
        assert rep.violations == violations
        assert rep.passed == (not violations)
        assert (rep.n_checked, rep.modulus_pairs) == (n_checked, pairs_checked)
        np.testing.assert_array_equal(rep.modulus, modulus)
        assert pairs_checked > 0
        assert bool(violations) == (l_ids != [16, 47])


def test_retraction_to_the_stopped_image(saddle, window_pair):
    rep = bf.retraction_check(saddle.system, window_pair,
                              rng=np.random.default_rng(5))
    assert rep.passed
    assert rep.failures == []
    assert rep.n_tested > 0


def test_stopped_flow_equals_the_per_point_oracle(saddle, window_pair):
    # stopped before the exit, at it, and long after; 0 never exits
    for x0 in (0.3, -0.2, 0.0):
        x = np.array([x0])
        for t in (0.0, 0.2, 0.7, 1.5):
            np.testing.assert_array_equal(
                bf.stopped_flow(saddle.system, window_pair, x, t),
                _stopped_flow_oracle(saddle.system, window_pair, x, t))


# L rows (time 0), the fixed point 0 (never exits), rows outside N, and
# rows that cross within one step or after many
SADDLE_XS = np.array([-0.99, -0.49, -0.3, -0.06, 0.0, 0.011, 0.2, 0.45, 0.497, 0.9])[:, None]


@pytest.mark.parametrize("dt, horizon", [(1e-2, 3.0), (1e-3, 1.0 + 4e-3)])
def test_exit_times_batch_equals_the_per_row_oracle(saddle, window_pair, doublewell,
                                                    dt, horizon):
    with_l = bf.IndexPair.from_boxes(saddle.grid, saddle.grid.all_boxes().ids, [0, 63])
    wells = np.array([-1.9, -1.02, -0.5, 0.0, 0.7, 1.02, 1.5])[:, None]
    for system, pair, xs in ((saddle.system, saddle.hand_pair, SADDLE_XS),
                             (saddle.system, window_pair, SADDLE_XS),
                             (saddle.system, with_l, SADDLE_XS),
                             (doublewell.system, doublewell.pair, wells)):
        got = _exit_times_batch(system, pair, xs, dt, horizon)
        ref = [_exit_time_oracle(system, pair, x, dt, horizon) for x in xs]
        np.testing.assert_array_equal(got, ref)
        assert np.isinf(got).any() and np.isfinite(got).any()
    # x' = x carries 0.9999 and -0.99995 out of the domain within the first
    # step, from a start inside closure(N−L)
    first = np.array([[0.9999], [-0.99995], [0.3]])
    got = _exit_times_batch(saddle.system, saddle.hand_pair, first, dt, horizon)
    ref = [_exit_time_oracle(saddle.system, saddle.hand_pair, x, dt, horizon) for x in first]
    np.testing.assert_array_equal(got, ref)
    assert (0 < got[:2]).all() and (got[:2] < dt).all() and got[2] > dt
    # a batch of L rows marches no row
    for pair, xs in ((with_l, [[-0.99], [0.99]]), (window_pair, [[-0.49], [0.48], [0.497]])):
        xs = np.array(xs)
        got = _exit_times_batch(saddle.system, pair, xs, dt, horizon)
        np.testing.assert_array_equal(got, np.zeros(len(xs)))
        np.testing.assert_array_equal(
            got, [_exit_time_oracle(saddle.system, pair, x, dt, horizon) for x in xs])


def test_retraction_check_equals_the_per_sample_oracle(saddle, window_pair, doublewell):
    # the window pair tests the rows with exit time at most 1 and skips the
    # rest; the hand pair has no L, so every tested row fails; no orbit
    # leaves the doublewell pair, so nothing is tested there
    cases = [(saddle.system, window_pair, seed, 20) for seed in (0, 5)]
    cases += [(saddle.system, saddle.hand_pair, 0, 12), (doublewell.system, doublewell.pair, 0, 4)]
    reports = []
    for system, pair, seed, n in cases:
        rep = bf.retraction_check(system, pair, n_samples=n, rng=np.random.default_rng(seed))
        ref = _retraction_oracle(system, pair, np.random.default_rng(seed), n_samples=n)
        assert rep.to_dict() == ref.to_dict()
        reports.append(rep)
    assert all(0 < r.n_tested < 20 and r.passed for r in reports[:2])
    assert reports[2].failures and len(reports[2].failures) == reports[2].n_tested
    assert reports[3].n_tested == 0


def _counting_advance(monkeypatch):
    """Count the _advance calls _march_quotient makes."""
    calls = []

    def advance(system, points, t):
        calls.append(len(points))
        return flows_advance(system, points, t)

    flows_advance = pairs._advance
    monkeypatch.setattr(pairs, "_advance", advance)
    return calls


def _march_case(name):
    """(system, pair, points, n_steps, dt) of one quotient-march case."""
    saddle = bf.builtin_system("saddle1d")
    grid = bf.build_grid(saddle.domain, (64,))
    window = bf.IndexPair.from_boxes(grid, list(range(16, 48)), [16, 47])
    whole = bf.IndexPair.from_boxes(grid, grid.all_boxes().ids, [])
    # row 0 starts in L; the others leave N−L at many different samples
    inner = np.linspace(-0.49, 0.49, 300)[:, None]
    if name == "absorbed-mid-block":
        return saddle, window, inner, 120, 0.05
    if name == "escape-mid-block":
        return saddle, whole, np.linspace(-0.99, 0.99, 300)[:, None], 120, 0.05
    if name == "dt-below-step":
        return saddle, window, inner, 800, 1e-3
    if name == "dt-five-steps-2d":
        # x' = x, y' = -y: rows leave the domain through x = +-1, or enter
        # L, the band |y| < 0.125
        system = bf.FlowSystem(dimension=2, field=lambda p: p * np.array([1.0, -1.0]),
                               domain=[[-1.0, 1.0], [-1.0, 1.0]], name="saddle2d")
        grid2 = bf.build_grid(system.domain, (16, 16))
        band = [b for b in range(256) if b % 16 in (7, 8)]
        pair = bf.IndexPair.from_boxes(grid2, list(range(256)), band)
        pts = np.random.default_rng(2).uniform(-0.95, 0.95, size=(400, 2))
        return system, pair, pts, 60, 0.05
    if name == "more-rows-than-chunk":
        # the rows near x = 1 leave within the first three steps
        pts = np.concatenate([np.linspace(-0.2, 0.2, ADVANCE_CHUNK - 100),
                              np.linspace(0.9, 0.999, 600)])[:, None]
        return saddle, whole, pts, 30, 0.05
    if name == "all-absorbed":
        return saddle, window, inner, 400, 0.05
    assert name == "no-steps"
    return saddle, window, inner, 0, 0.05


@pytest.mark.parametrize("name", ["absorbed-mid-block", "escape-mid-block", "dt-below-step",
                                  "dt-five-steps-2d", "more-rows-than-chunk", "all-absorbed",
                                  "no-steps"])
def test_march_quotient_equals_the_per_step_oracle(monkeypatch, name):
    system, pair, pts, n_steps, dt = _march_case(name)
    calls = _counting_advance(monkeypatch)
    positions, absorbed, boxes = _march_quotient(system, pair, pts, n_steps, dt)
    ref_positions, ref_absorbed, ref_boxes = _march_quotient_oracle(system, pair, pts,
                                                                    n_steps, dt)
    np.testing.assert_array_equal(positions, ref_positions)
    np.testing.assert_array_equal(absorbed, ref_absorbed)
    # the ids the march found absorption with are box_of of every position
    assert boxes.dtype == np.int32
    np.testing.assert_array_equal(boxes, ref_boxes)
    first = np.where(absorbed.any(axis=0), absorbed.argmax(axis=0), n_steps + 1)
    # an absorbed row frozen in a box of N−L left the domain
    escaped = absorbed[-1] & pair._core_mask[pair.grid.box_of(positions[-1])]
    if name in ("absorbed-mid-block", "dt-below-step"):
        # no row leaves the domain, so no sample falls back to _advance
        assert calls == []
        assert first[0] == 0 and len(set(first.tolist())) > 50
    elif name in ("escape-mid-block", "dt-five-steps-2d"):
        assert 0 < len(calls) < n_steps
        assert escaped.sum() > 20
        assert name == "escape-mid-block" or (absorbed[-1] & ~escaped).sum() > 20
    elif name == "more-rows-than-chunk":
        # the first steps take _advance until enough rows have escaped
        assert calls[0] == len(pts) > ADVANCE_CHUNK
        assert escaped.sum() == 600 and len(calls) < 5
    elif name == "all-absorbed":
        assert absorbed[n_steps // 2].all() and calls == []
    else:
        assert positions.shape == (1, 300, 1) and calls == []


def _overflow_system(kind):
    """A system whose rows start at y = 0.5 and move right at speed 1."""
    if kind == "nan":
        # x' = 1, y' = 0 * x^400: x^400 overflows past x = 5.89, and the
        # zero coefficient turns it into NaN
        field = bf.polynomial_field([{"coeffs": [1.0, 0.0], "exponents": [0, 0]},
                                     {"coeffs": [0.0, 0.0], "exponents": [400, 0]}], 2)
    else:
        # x' = 1 + 1 / exp(100 x), y' = 0: exp overflows past x = 7.1, and
        # 1 / inf is 0, so every value stays finite
        def field(p):
            out = np.zeros_like(p)
            out[:, 0] = 1.0 + 1.0 / np.exp(100.0 * p[:, 0])
            return out
    return bf.FlowSystem(dimension=2, field=field, domain=[[0.0, 10.0], [0.0, 1.0]],
                         name=f"overflow-{kind}")


def _outcome(march, system, pair, pts, mode):
    """The march's arrays or exception, and the warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(mode)
        try:
            result = tuple(a.tobytes() for a in march(system, pair, pts, 200, 0.05))
        except (NumericalError, RuntimeWarning) as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("kind", ["nan", "finite"])
@pytest.mark.parametrize("mode", ["always", "error"])
def test_rows_that_overflow_after_they_are_absorbed_raise_nothing(monkeypatch, kind, mode):
    # N−L is x < 4 (boxes 0-7 of 20 along x): rows are absorbed there, and
    # the block march steps them on until they overflow
    system = _overflow_system(kind)
    grid = bf.build_grid(system.domain, (20, 1))
    pair = bf.IndexPair.from_boxes(grid, list(range(10)), [8, 9])
    pts = np.column_stack([np.linspace(0.1, 3.9, 40), np.full(40, 0.5)])
    calls = _counting_advance(monkeypatch)
    got = _outcome(_march_quotient, system, pair, pts, mode)
    assert got == _outcome(_march_quotient_oracle, system, pair, pts, mode)
    assert len(got[0]) == 3 and got[1] == [] and calls == []


@pytest.mark.parametrize("kind", ["nan", "finite"])
@pytest.mark.parametrize("mode", ["always", "error"])
def test_a_live_row_that_overflows_fails_or_warns_as_in_the_per_step_oracle(kind, mode):
    # N−L is x < 8 (boxes 0-15): live rows overflow
    system = _overflow_system(kind)
    grid = bf.build_grid(system.domain, (20, 1))
    pair = bf.IndexPair.from_boxes(grid, list(range(18)), [16, 17])
    pts = np.column_stack([np.linspace(0.1, 3.9, 40), np.full(40, 0.5)])
    got = _outcome(_march_quotient, system, pair, pts, mode)
    assert got == _outcome(_march_quotient_oracle, system, pair, pts, mode)
    if mode == "error":
        assert got[0][0] is RuntimeWarning and "overflow" in got[0][1] and got[1] == []
    elif kind == "nan":
        assert got[0][0] is NumericalError and "non-finite values at t=0.05" in got[0][1]
        assert {c for c, _ in got[1]} == {RuntimeWarning}
    else:
        # the march completes, warning on every step past x = 7.1
        assert len(got[0]) == 3 and len(got[1]) > 40


def test_pair_round_trip(tmp_path, doublewell):
    path = tmp_path / "pair.json"
    doublewell.pair.to_json(str(path))
    loaded = bf.IndexPair.from_json(str(path))
    assert loaded == doublewell.pair


def test_pair_ingestion_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{no")
    with pytest.raises(IngestionError):
        bf.IndexPair.from_json(str(bad))
    missing = tmp_path / "missing.json"
    missing.write_text("{}")
    with pytest.raises(IngestionError):
        bf.IndexPair.from_json(str(missing))


def test_pair_membership_helpers(doublewell):
    pair = doublewell.pair
    assert pair.in_N(100) and pair.in_core(100)
    assert not pair.in_N(10)
    assert not pair.in_L(100)
    assert not pair.in_N(-1)
    with pytest.raises(PreconditionError):
        bf.IndexPair.from_boxes(doublewell.grid, [5, 6], [7])


def test_construction_requires_isolation(saddle):
    with pytest.raises(IsolationError):
        bf.build_index_pair(bf.morse_graph(saddle.graph, BoxSet([31, 32])))


def test_construction_rejects_a_swallowed_core():
    # the cycle {3, 4} is recurrent, but 4 exits and feeds 3, so closing L
    # under relative invariance eats the whole invariant part
    grid = bf.build_grid([(0.0, 1.0)], (8,))
    graph = TransitionGraph(grid, 1.0, 0.0, 3,
                            [3, 3, 4, 4], [3, 4, -1, 3])
    with pytest.raises(ConstructionError):
        bf.build_index_pair(bf.morse_graph(graph, grid.all_boxes()))


def test_pair_rejects_box_ids_outside_the_grid(tmp_path, saddle):
    grid = saddle.grid
    for n_ids, l_ids in (([1, 2, grid.n_boxes], []), ([1, 2, 3], [-1]), (["a"], [])):
        with pytest.raises(IngestionError):
            bf.IndexPair.from_boxes(grid, n_ids, l_ids)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"grid": {"domain": grid.domain.tolist(),
                                         "shape": list(grid.shape)},
                                "N": [1, 2, 99], "L": []}))
    with pytest.raises(IngestionError, match="99"):
        bf.IndexPair.from_json(str(path))


def _violations_oracle(graph, pair):
    """Conditions (i) and (ii) of validate_index_pair, one edge at a time."""
    cond_i, cond_ii = [], []
    for s in range(graph.grid.n_boxes):
        for d in graph.targets_of(s).tolist():
            if s in pair.L and d in pair.N and d not in pair.L:
                cond_i.append((s, d))
            if s in pair.core and d not in pair.N:
                cond_ii.append((s, d))
    return cond_i, cond_ii


# the pinned bytes of pair_check.json for the saddle1d pair below
_SADDLE_PAIR_CHECK = (
    b'{"condition_i":false,"condition_i_violations":[[20,0],[20,2],[21,2],[21,3],[21,4],'
    b'[21,5]],"condition_ii":false,"condition_ii_violations":[[0,-1],'
    + b",".join(b"[%d,-1]" % b for b in range(2, 20))
    + b',[34,40],[35,40],[35,41],[35,42],[35,43],[36,42],[36,43],[36,44],[36,45],[36,46],'
    b'[37,45],[37,46],[37,47],[37,48],[38,47],[38,48],[38,49],[38,50],[38,51],[39,50],'
    b'[39,51],[39,52],[39,53],[39,54]],"invariant_core":[31,32],"isolating_ok":true,'
    b'"passed":false}\n')


def test_violations_are_listed_as_a_loop_over_every_edge_lists_them(tmp_path, saddle):
    # L holds box 1, whose orbit leaves the domain, and boxes 20 and 21,
    # whose images fall in N - L; core boxes near the ends exit N or the domain
    pair = bf.IndexPair.from_boxes(saddle.grid, list(range(40)), [1, 20, 21])
    verdict = bf.validate_index_pair(saddle.graph, pair)
    expected = _violations_oracle(saddle.graph, pair)
    assert (verdict.condition_i_violations, verdict.condition_ii_violations) == expected
    assert (0, EXIT) in verdict.condition_ii_violations and (1, EXIT) not in expected[0]
    rng = np.random.default_rng(21)
    for seed in range(30):
        grid, graph, N = _random_exit_graph(seed)
        pair = bf.IndexPair(grid, N, BoxSet(N.ids[rng.random(len(N)) < 0.3]))
        verdict = bf.validate_index_pair(graph, pair)
        expected = _violations_oracle(graph, pair)
        assert (verdict.condition_i_violations, verdict.condition_ii_violations) == expected

    pair_path = str(tmp_path / "pair.json")
    bf.IndexPair.from_boxes(saddle.grid, list(range(40)), [1, 20, 21]).to_json(pair_path)
    out = str(tmp_path / "check")
    assert cli.main(["verify", "--system", "saddle1d", "--depth", "64",
                     "--pair-file", pair_path, "--out", out]) == 1
    assert (tmp_path / "check" / "pair_check.json").read_bytes() == _SADDLE_PAIR_CHECK
