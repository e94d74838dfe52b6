"""Property tests: graph, pair, field and filtration files round-trip.

Each artifact is written, read back and compared equal, then written again
from the loaded object to the same bytes.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import boxflow as bf
from boxflow.grid import BoxSet
from conftest import _assert_graph_writers

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def grids(draw):
    d = draw(st.integers(1, 2))
    shape = draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    lows = draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d))
    widths = draw(st.lists(st.floats(1e-2, 1e3), min_size=d, max_size=d))
    return bf.BoxGrid([[lo, lo + w] for lo, w in zip(lows, widths)], shape)


def box_sets(grid):
    return st.lists(st.integers(0, grid.n_boxes - 1)).map(BoxSet)


@st.composite
def pairs(draw):
    grid = draw(grids())
    N = draw(box_sets(grid))
    L = N.intersection(draw(box_sets(grid)))
    return bf.IndexPair(grid, N, L)


@st.composite
def graphs(draw):
    grid = draw(grids())
    edges = draw(st.lists(st.tuples(st.integers(0, grid.n_boxes - 1),
                                    st.integers(bf.EXIT, grid.n_boxes - 1))))
    return bf.TransitionGraph(grid, draw(st.floats(1e-3, 1e3)), draw(st.floats(0.0, 1e3)),
                              draw(st.integers(1, 4)), [s for s, _ in edges],
                              [t for _, t in edges])


@st.composite
def edge_sets(draw):
    # up to 1,100 boxes, so that ids of one to four digits occur
    n = draw(st.integers(1, 1100) | st.sampled_from([1001, 1100]))
    ids = st.integers(0, n - 1) | st.sampled_from([0, 9, 10, 99, 100, 999, 1000, n - 1])
    edges = draw(st.lists(st.tuples(ids.filter(lambda b: b < n),
                                    (ids | st.just(bf.EXIT)).filter(lambda t: t < n))))
    grid = bf.build_grid([(0.0, 1.0)], (n,))
    return bf.TransitionGraph(grid, 1.0, 0.5, 3, [s for s, _ in edges], [t for _, t in edges])


@st.composite
def fields(draw):
    pair = draw(pairs())
    n = len(pair.core)
    values = draw(st.lists(finite, min_size=n, max_size=n))
    down = draw(st.none() | st.frozensets(st.integers(1, 5)))
    params = bf.LyapunovParams(dt=draw(st.floats(1e-3, 1.0)), t_max=draw(st.floats(1.0, 50.0)),
                               settle=draw(st.floats(0.0, 5.0)))
    construction = draw(st.sampled_from(["single-pair", "morse-sum", "complete"]))
    return bf.LyapunovField(pair=pair, construction=construction, boxes=pair.core.ids,
                            values=np.array(values, dtype=float),
                            range_hint=(0.0, draw(st.floats(0.0, 10.0))), params=params,
                            down_set=down)


@st.composite
def filtrations(draw):
    pair = draw(pairs())
    levels = draw(st.lists(box_sets(pair.grid), max_size=4))
    thresholds = draw(st.lists(finite, min_size=len(levels), max_size=len(levels)))
    return bf.Filtration(levels=levels, thresholds=thresholds, pair=pair)


def _round_trip(obj, loader):
    with tempfile.TemporaryDirectory() as td:
        first = os.path.join(td, "first.json")
        again = os.path.join(td, "again.json")
        obj.to_json(first)
        loaded = loader.from_json(first)
        assert loaded == obj
        loaded.to_json(again)
        with open(first, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()


@settings(max_examples=40, deadline=None)
@given(graph=graphs())
def test_graph_file_round_trips(graph):
    _round_trip(graph, bf.TransitionGraph)


@settings(max_examples=60, deadline=None)
@given(graph=edge_sets())
def test_graph_writers_give_the_bytes_of_the_loops(graph):
    with tempfile.TemporaryDirectory() as td:
        _assert_graph_writers(graph, Path(td) / "graph.json")


@settings(max_examples=40, deadline=None)
@given(pair=pairs())
def test_pair_file_round_trips(pair):
    _round_trip(pair, bf.IndexPair)


@settings(max_examples=40, deadline=None)
@given(field=fields())
def test_field_file_round_trips(field):
    _round_trip(field, bf.LyapunovField)


@settings(max_examples=40, deadline=None)
@given(filtration=filtrations())
def test_filtration_file_round_trips(filtration):
    _round_trip(filtration, bf.Filtration)
