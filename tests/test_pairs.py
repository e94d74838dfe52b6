"""Index pair construction, validation, exit times, and induced semiflows."""

import json
import math

import numpy as np
import pytest

import boxflow as bf
from boxflow.errors import (ConstructionError, IngestionError, IsolationError,
                            PreconditionError)
from boxflow.grid import BoxSet
from boxflow.pairs import BASEPOINT
from boxflow.transition import TransitionGraph


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
    out = bf.quotient_flow(saddle.system, window_pair, x, 0.2)
    assert np.allclose(out, bf.flow_map(saddle.system, x, 0.2), atol=1e-12)


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


def test_retraction_to_the_stopped_image(saddle, window_pair):
    rep = bf.retraction_check(saddle.system, window_pair,
                              rng=np.random.default_rng(5))
    assert rep.passed
    assert rep.failures == []
    assert rep.n_tested > 0


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
        bf.build_index_pair(saddle.graph, BoxSet([31, 32]))


def test_construction_rejects_a_swallowed_core():
    # the cycle {3, 4} is recurrent, but 4 exits and feeds 3, so closing L
    # under relative invariance eats the whole invariant part
    grid = bf.build_grid([(0.0, 1.0)], (8,))
    graph = TransitionGraph(grid, 1.0, 0.0, 3,
                            [3, 3, 4, 4], [3, 4, -1, 3])
    with pytest.raises(ConstructionError):
        bf.build_index_pair(graph, grid.all_boxes())


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
