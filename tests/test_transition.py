"""Transition digraphs against interval-arithmetic oracles."""

import json
import math

import numpy as np
import pytest

import boxflow as bf
from boxflow.errors import IngestionError
from boxflow.grid import BoxSet
from boxflow.transition import EXIT, TransitionGraph, box_image


def test_contract_edges_match_interval_arithmetic():
    # dx/dt = -x maps [lo, hi] to [lo/e, hi/e] exactly, so the padded image
    # interval gives the exact expected target set per box
    system = bf.builtin_system("contract1d")
    grid = bf.build_grid(system.domain, (8,))
    pad = 0.3 * 0.25
    graph = bf.build_transition_graph(system, grid, 1.0, padding=pad)
    shrink = math.exp(-1.0)
    expected = set()
    rects = grid.bounds(np.arange(8))
    for b in range(8):
        lo, hi = rects[b, 0, 0] * shrink, rects[b, 0, 1] * shrink
        for c in range(8):
            clo, chi = rects[c, 0]
            if chi > lo - pad and clo < hi + pad:
                expected.add((b, c))
    src, dst = graph.edge_arrays()
    assert set(zip(src.tolist(), dst.tolist())) == expected
    assert not graph.has_exit


def test_escaping_boxes_get_exit_edges():
    system = bf.builtin_system("saddle1d")
    grid = bf.build_grid(system.domain, (8,))
    graph = bf.build_transition_graph(system, grid, 1.0)
    assert graph.has_exit
    last = graph.targets_of(7)
    assert -1 in last.tolist()
    assert set(last.tolist()) <= {-1, 7}
    # the two boxes around the repelling origin map onto themselves
    assert 3 in graph.targets_of(3).tolist()
    assert 4 in graph.targets_of(4).tolist()


def test_sources_invert_targets():
    system = bf.builtin_system("doublewell1d")
    grid = bf.build_grid(system.domain, (32,))
    graph = bf.build_transition_graph(system, grid, 1.0)
    src, dst = graph.edge_arrays()
    for b in (0, 7, 16, 31):
        assert set(graph.sources_of(b).tolist()) == set(src[dst == b].tolist())


def test_box_image_matches_graph_row():
    system = bf.builtin_system("doublewell1d")
    grid = bf.build_grid(system.domain, (32,))
    graph = bf.build_transition_graph(system, grid, 1.0)
    for b in (2, 15, 29):
        assert set(box_image(system, grid, b, 1.0).ids.tolist()) \
            == set(graph.targets_of(b).tolist())


def test_build_is_deterministic():
    system = bf.builtin_system("gradient2d")
    grid = bf.build_grid(system.domain, (12, 12))
    a = bf.build_transition_graph(system, grid, 1.0)
    b = bf.build_transition_graph(system, grid, 1.0)
    assert np.array_equal(a.edge_arrays()[0], b.edge_arrays()[0])
    assert np.array_equal(a.edge_arrays()[1], b.edge_arrays()[1])


def test_graph_round_trip(tmp_path):
    system = bf.builtin_system("doublewell1d")
    grid = bf.build_grid(system.domain, (32,))
    graph = bf.build_transition_graph(system, grid, 1.0)
    path = tmp_path / "graph.json"
    graph.to_json(str(path))
    loaded = TransitionGraph.from_json(str(path))
    assert loaded.grid == graph.grid
    assert loaded.map_time == graph.map_time
    assert loaded.padding == graph.padding
    assert np.array_equal(loaded.edge_arrays()[0], graph.edge_arrays()[0])
    assert np.array_equal(loaded.edge_arrays()[1], graph.edge_arrays()[1])
    # identical serialization both times
    path2 = tmp_path / "graph2.json"
    loaded.to_json(str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_graph_ingestion_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("still not json {")
    with pytest.raises(IngestionError):
        TransitionGraph.from_json(str(bad))
    missing = tmp_path / "missing.json"
    missing.write_text("{}")
    with pytest.raises(IngestionError):
        TransitionGraph.from_json(str(missing))


def test_dot_rendering_mentions_exit():
    system = bf.builtin_system("saddle1d")
    grid = bf.build_grid(system.domain, (8,))
    graph = bf.build_transition_graph(system, grid, 1.0)
    text = graph.to_dot()
    assert text.startswith("digraph")
    assert "EXIT" in text


def _synthetic(edges, n=5):
    grid = bf.build_grid([(0.0, 1.0)], (n,))
    src = [e[0] for e in edges]
    dst = [e[1] for e in edges]
    return grid, TransitionGraph(grid, 1.0, 0.0, 3, src, dst)


def test_invariant_part_keeps_bi_infinite_orbits():
    grid, graph = _synthetic([(0, 1), (1, 2), (2, 0), (3, -1), (4, 3)])
    inv, isolated = bf.invariant_part(graph, grid.all_boxes())
    assert inv.ids.tolist() == [0, 1, 2]
    # the cycle touches the first box of the region, so it is not isolated
    assert isolated is False


def test_invariant_part_isolation_flag():
    grid, graph = _synthetic([(1, 2), (2, 3), (3, 1), (0, -1), (4, -1)])
    inv, isolated = bf.invariant_part(graph, grid.all_boxes())
    assert inv.ids.tolist() == [1, 2, 3]
    assert isolated is True


def test_invariant_part_respects_region():
    grid, graph = _synthetic([(0, 0), (3, 3), (1, 2), (2, 1)])
    inv, _ = bf.invariant_part(graph, BoxSet([0, 1, 2]))
    assert inv.ids.tolist() == [0, 1, 2]
    inv2, _ = bf.invariant_part(graph, BoxSet([1, 2]))
    assert inv2.ids.tolist() == [1, 2]


def test_graph_file_rejects_edges_outside_the_grid(tmp_path):
    grid = bf.build_grid([(0.0, 1.0)], (4,))
    graph = TransitionGraph(grid, 1.0, 0.1, 3, [0, 1, 2], [1, 2, EXIT])
    path = tmp_path / "graph.json"
    graph.to_json(str(path))
    data = json.loads(path.read_text())
    assert TransitionGraph.from_json(str(path)) == graph
    for edges in ([[0, [9]]], [[0, [4]]], [[0, [-2]]], [[7, [0]]], [[-1, [0]]]):
        data["edges"] = edges
        path.write_text(json.dumps(data))
        with pytest.raises(IngestionError, match="outside the grid"):
            TransitionGraph.from_json(str(path))
