"""Transition digraphs against interval-arithmetic oracles."""

import gc
import itertools
import json
import math
import os
import tracemalloc
import weakref
from collections import deque

import numpy as np
import pytest

import boxflow as bf
from boxflow import jsonio
from boxflow.cli import _write_text
from boxflow.errors import CapacityError, IngestionError
from boxflow.flows import _advance, polynomial_field
from boxflow.grid import MAX_BOXES, BoxSet
from boxflow.transition import EXIT, TransitionGraph, _distinct_samples, box_image, reachable
from conftest import (_assert_graph_writers, _graph_dot_oracle, _graph_edges_oracle,
                      _peel_oracle, _random_exit_graph)


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


def test_box_image_matches_graph_row():
    system = bf.builtin_system("doublewell1d")
    grid = bf.build_grid(system.domain, (32,))
    graph = bf.build_transition_graph(system, grid, 1.0)
    for b in (2, 15, 29):
        assert set(box_image(system, grid, b, 1.0).ids.tolist()) \
            == set(graph.targets_of(b).tolist())


def test_a_huge_padding_covers_every_box_like_a_large_one():
    # floor((img ± padding − lo)/widths) is clipped before the int64 cast,
    # so a padding of 1e300 cannot wrap to INT64_MIN and land on box 0
    system = bf.builtin_system("doublewell1d")
    grid = bf.build_grid(system.domain, (8,))
    huge = bf.build_transition_graph(system, grid, 1.0, 1e300)
    large = bf.build_transition_graph(system, grid, 1.0, 100.0)
    assert large.n_edges == 64
    for a, b in zip(huge.edge_arrays(), large.edge_arrays()):
        np.testing.assert_array_equal(a, b)


def test_the_default_padding_of_very_wide_boxes_is_finite():
    # 0.5·|widths| overflows for boxes 1.25e159 wide; the half diagonal is
    # rescaled instead, in the graph build and in box_image alike
    system = bf.FlowSystem(dimension=1, field=polynomial_field(
        [{"coeffs": [-1.0], "exponents": [1]}], 1), domain=[[0.5, 1e160]], name="wide")
    grid = bf.build_grid(system.domain, (8,))
    graph = bf.build_transition_graph(system, grid, 1.0)
    assert graph.padding == 0.5 * float(grid.widths[0])
    assert graph.targets_of(7).tolist() == [2, 3]
    for b in (0, 5, 7):
        assert box_image(system, grid, b, 1.0).ids.tolist() == graph.targets_of(b).tolist()
    plane = bf.FlowSystem(dimension=2, field=polynomial_field(
        [{"coeffs": [-1.0, 0.0], "exponents": [1, 0]},
         {"coeffs": [0.0, -1.0], "exponents": [0, 1]}], 2),
        domain=[[0.5, 1e160], [0.5, 1e160]], name="wide-plane")
    grid = bf.build_grid(plane.domain, (4, 4))
    padding = bf.build_transition_graph(plane, grid, 1.0).padding
    assert padding == 0.5 * float(grid.widths[0]) * float(np.linalg.norm([1.0, 1.0]))


@pytest.mark.parametrize("padding", [math.inf, math.nan])
def test_a_padding_that_is_not_finite_is_refused(padding):
    system = bf.builtin_system("doublewell1d")
    grid = bf.build_grid(system.domain, (8,))
    with pytest.raises(CapacityError, match="not finite"):
        bf.build_transition_graph(system, grid, 1.0, padding)
    with pytest.raises(CapacityError, match="not finite"):
        box_image(system, grid, 3, 1.0, padding)


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


def test_graph_file_rejects_non_integer_ids(tmp_path):
    grid = bf.build_grid([(0.0, 1.0)], (4,))
    path = tmp_path / "graph.json"
    TransitionGraph(grid, 1.0, 0.1, 3, [0], [1]).to_json(str(path))
    data = json.loads(path.read_text())
    for edges in ([[0, [1.5]]], [[0, [True]]], [[0, [1, True]]], [[1.0, [0]]]):
        data["edges"] = edges
        path.write_text(json.dumps(data))
        with pytest.raises(IngestionError, match="not integers"):
            TransitionGraph.from_json(str(path))


def test_restriction_keeps_exactly_the_edges_inside_the_set():
    for seed in range(50):
        grid, graph, region = _random_exit_graph(seed)
        src, dst = graph.edge_arrays()
        inside = set(region.ids.tolist())
        expected = {(s, d) for s, d in zip(src.tolist(), dst.tolist())
                    if s in inside and d in inside}
        rows, cols = graph.restricted(region).nonzero()
        got = set(zip(region.ids[rows].tolist(), region.ids[cols].tolist()))
        assert got == expected, seed


def test_edges_by_rows_equal_every_edge_filtered_by_source(saddle):
    rng = np.random.default_rng(21)
    graphs = [_random_exit_graph(seed)[1] for seed in range(30)] + [saddle.graph]
    assert saddle.graph.has_exit
    for graph in graphs:
        n = graph.grid.n_boxes
        src, dst = graph.edge_arrays()
        assert ([[b, dst[src == b].tolist()] for b in np.unique(src).tolist()]
                == _graph_edges_oracle(graph))
        for boxes in (BoxSet(), BoxSet([int(rng.integers(n))]), graph.grid.all_boxes(),
                      BoxSet(np.flatnonzero(rng.random(n) < rng.uniform(0.1, 0.9)))):
            keep = np.isin(src, boxes.ids)
            got_src, got_dst = graph.edge_arrays(boxes)
            np.testing.assert_array_equal(got_src, src[keep])
            np.testing.assert_array_equal(got_dst, dst[keep])


def test_graphs_with_the_same_targets_but_other_sources_differ():
    grid = bf.build_grid([(0.0, 1.0)], (3,))
    chain = TransitionGraph(grid, 1.0, 0.0, 3, [0, 1], [1, 2])
    fan = TransitionGraph(grid, 1.0, 0.0, 3, [0, 0], [1, 2])
    np.testing.assert_array_equal(chain.edge_arrays()[1], fan.edge_arrays()[1])
    assert chain != fan
    assert chain == TransitionGraph(grid, 1.0, 0.0, 3, [1, 0], [2, 1])


def test_an_adjacency_whose_reverse_was_read_is_freed_without_the_collector():
    grid, graph, _ = _random_exit_graph(3)
    adj = graph.restricted(grid.all_boxes())
    assert adj.T.shape == adj.shape
    ref = weakref.ref(adj)
    gc.disable()
    try:
        del adj
        assert ref() is None
    finally:
        gc.enable()


def test_peels_match_the_deque_oracle():
    for seed in range(200):
        grid, graph, region = _random_exit_graph(seed)
        for boxes in (grid.all_boxes(), region, BoxSet([])):
            inv, _ = bf.invariant_part(graph, boxes)
            assert inv == _peel_oracle(graph, boxes, True, True), seed


def test_invariant_part_from_the_class_bits_equals_the_trim():
    for seed in range(200):
        grid, graph, region = _random_exit_graph(seed)
        for boxes in (grid.all_boxes(), region, BoxSet([])):
            assert bf.morse_graph(graph, boxes).invariant \
                == bf.invariant_part(graph, boxes).boxes, seed


def test_reachable_matches_a_python_bfs():
    for seed in range(100):
        grid, graph, region = _random_exit_graph(seed)
        adj = graph.restricted(region)
        n = adj.shape[0]
        seeds = np.random.default_rng(seed).random(n) < 0.1
        succ = [adj.indices[adj.indptr[u]:adj.indptr[u + 1]].tolist() for u in range(n)]
        seen = set(np.flatnonzero(seeds).tolist())
        queue = deque(seen)
        while queue:
            for v in succ[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        assert set(np.flatnonzero(reachable(adj, seeds)).tolist()) == seen, seed


def _lattice_pairs(system, grid, ids, map_time, padding, samples_per_axis):
    """(src, dst) lists from marching every lattice row of the given boxes,
    shared faces included: each live image covers the boxes of its padded
    range, listed per row."""
    pts = grid.lattice(ids, samples_per_axis)
    src_of_pt = np.repeat(ids, samples_per_axis ** grid.dimension)
    img, escaped, _ = _advance(system, pts, map_time)
    lo = grid.domain[:, 0]
    top = np.array(grid.shape) - 1
    first = np.clip(np.floor((img - padding - lo) / grid.widths).astype(np.int64), 0, top)
    last = np.clip(np.floor((img + padding - lo) / grid.widths).astype(np.int64), 0, top)
    src = src_of_pt[escaped].tolist()
    dst = [EXIT] * len(src)
    for b, a, z in zip(src_of_pt[~escaped].tolist(), first[~escaped].tolist(),
                       last[~escaped].tolist()):
        cells = itertools.product(*(range(i, j + 1) for i, j in zip(a, z)))
        targets = np.ravel_multi_index(np.array(list(cells)).T, grid.shape)
        src.extend([b] * targets.size)
        dst.extend(targets.tolist())
    return src, dst


def _full_lattice_graph(system, grid, map_time, samples_per_axis=3, padding=None):
    """The graph from marching every lattice row; padding defaults to half
    the box diagonal."""
    if padding is None:
        padding = 0.5 * float(np.linalg.norm(grid.widths))
    src, dst = _lattice_pairs(system, grid, np.arange(grid.n_boxes), map_time, padding,
                              samples_per_axis)
    return TransitionGraph(grid, map_time, padding, samples_per_axis, src, dst)


def _distinct_rows(grid, samples_per_axis):
    pts = grid.lattice(np.arange(grid.n_boxes), samples_per_axis)
    return len(np.unique(pts, axis=0)), len(pts)


def _poly3():
    field = polynomial_field([
        {"coeffs": [0.0, -1.0, 0.0], "exponents": [1, 0, 0]},
        {"coeffs": [1.0, 0.0, -0.5], "exponents": [0, 1, 0]},
        {"coeffs": [-0.3, 0.0, 0.0], "exponents": [1, 2, 0]},
        {"coeffs": [0.0, 0.0, -1.0], "exponents": [0, 0, 1]}], 3)
    return bf.FlowSystem(dimension=3, field=field,
                         domain=[[-1.5, 1.5], [-1.0, 1.0], [-0.7, 0.9]], name="poly3")


def _assert_full_lattice_graph(name, depth, samples, map_time, padding=None):
    system = _poly3() if name == "poly3" else bf.builtin_system(name)
    grid = bf.build_grid(system.domain, depth)
    graph = bf.build_transition_graph(system, grid, map_time, padding, samples)
    assert graph == _full_lattice_graph(system, grid, map_time, samples, padding)
    assert graph.has_exit == (name in ("saddle1d", "poly3"))
    for b in (0, grid.n_boxes // 3, grid.n_boxes - 1):
        image = box_image(system, grid, b, map_time, padding, samples)
        np.testing.assert_array_equal(image.ids, graph.targets_of(b))


@pytest.mark.parametrize("name, depth, samples, map_time", [
    ("hopf2d", (64, 64), 3, 1.0),
    ("hopf2d", (100, 37), 3, 1.0),
    ("saddle1d", (256,), 3, 1.0),
    ("poly3", (11, 6, 5), 3, 0.5),
    ("gradient2d", (20, 33), 1, 1.0),
    ("gradient2d", (20, 33), 2, 1.0),
    ("gradient2d", (20, 33), 4, 1.0),
])
def test_graph_equals_the_full_lattice_march(name, depth, samples, map_time):
    _assert_full_lattice_graph(name, depth, samples, map_time)


@pytest.mark.parametrize("name, depth, map_time, padding", [
    ("hopf2d", (40, 23), 1.0, 0.3),
    ("poly3", (11, 6, 5), 0.5, 0.45),
])
def test_padded_graph_equals_the_full_lattice_march(name, depth, map_time, padding):
    # target ranges of several boxes, of a different length on each axis,
    # so that many samples of one box share a range
    _assert_full_lattice_graph(name, depth, 3, map_time, padding)


def test_box_image_of_the_last_box_of_the_largest_grid():
    # 2**15 * 2**16 = MAX_BOXES boxes: the range keys of the last box come
    # near the bound n**2 - 1 = 2**62 - 1 and must not wrap
    system = bf.builtin_system("hopf2d")
    grid = bf.build_grid(system.domain, (2 ** 15, 2 ** 16))
    assert grid.n_boxes == MAX_BOXES
    box = grid.n_boxes - 1
    padding = 3 * float(grid.widths.max())
    image = box_image(system, grid, box, 0.05, padding)
    _, dst = _lattice_pairs(system, grid, np.array([box]), 0.05, padding, 3)
    assert len(image) > 9
    np.testing.assert_array_equal(image.ids, np.unique(dst))


def test_shared_faces_are_merged_only_when_bitwise_equal():
    # dyadic widths: every shared face point is one vertex of the lattice
    assert _distinct_rows(bf.build_grid([(-2.0, 2.0)] * 2, (64, 64)), 3) \
        == (129 ** 2, 64 * 64 * 9)
    # widths 0.04 and 4/37: some shared faces round differently from the two
    # sides, so the merge lands between the vertex count and the full count
    distinct, full = _distinct_rows(bf.build_grid([(-2.0, 2.0)] * 2, (100, 37)), 3)
    assert 201 * 75 < distinct < full


def _assert_distinct_samples(grid, ids, samples_per_axis):
    pts = grid.lattice(ids, samples_per_axis)
    points, inverse = _distinct_samples(grid, ids, samples_per_axis)
    np.testing.assert_array_equal(points, np.unique(pts, axis=0))
    np.testing.assert_array_equal(points[inverse].view(np.uint64), pts.view(np.uint64))


@pytest.mark.parametrize("domain, shape", [
    ([(-2.0, 2.0)] * 2, (64, 64)),
    ([(-2.0, 2.0)] * 2, (100, 37)),
    ([[-1.5, 1.5], [-1.0, 1.0], [-0.7, 0.9]], (11, 6, 5)),
])
@pytest.mark.parametrize("samples", [1, 2, 3, 4])
def test_distinct_samples_are_the_unique_lattice_rows(domain, shape, samples):
    grid = bf.build_grid(domain, shape)
    rng = np.random.default_rng(samples)
    subsets = [np.arange(grid.n_boxes)] + [rng.choice(grid.n_boxes, k, replace=False)
                                           for k in (1, 7, 60)]
    for ids in subsets:
        _assert_distinct_samples(grid, ids, samples)


@pytest.mark.parametrize("samples", [1, 2, 3, 4])
def test_distinct_samples_of_boxes_of_the_largest_grid(samples):
    # per axis, only the positions the boxes use count: the mask over the
    # code space of one box, or of three far-apart boxes, has at most
    # 9 * samples**2 entries, nothing of the grid's size
    system = bf.builtin_system("hopf2d")
    grid = bf.build_grid(system.domain, (2 ** 15, 2 ** 16))
    assert grid.n_boxes == MAX_BOXES
    for ids in ([grid.n_boxes - 1], [0, grid.n_boxes // 3, grid.n_boxes - 1]):
        _assert_distinct_samples(grid, np.array(ids), samples)


def _hand_graphs():
    # boxes 1, 3 and 4 have no targets; box 0 starts with EXIT; the
    # second graph has no edge at all
    grid = bf.build_grid(np.array([[0.0, 6.0]]), (6,))
    return [TransitionGraph(grid, 1.0, 0.5, 3, [0, 0, 2, 5, 5], [EXIT, 1, 2, EXIT, 0]),
            TransitionGraph(grid, 1.0, 0.5, 3, [], [])]


def _wide_graph():
    # ids of 1 to 4 digits: boxes 7 and 99 have EXIT alone, box 999 starts
    # with EXIT, and the last box, 1202, has edges
    grid = bf.build_grid(np.array([[0.0, 1203.0]]), (1203,))
    edges = {0: [EXIT, 9, 10], 7: [EXIT], 9: [99, 100], 99: [EXIT],
             100: [999, 1000, 1202], 999: [EXIT, 0, 1000], 1000: [1001], 1202: [EXIT, 5, 1202]}
    src = [b for b, targets in edges.items() for _ in targets]
    dst = [t for targets in edges.values() for t in targets]
    return TransitionGraph(grid, 1.0, 0.5, 3, src, dst)


def test_graph_writers_give_the_bytes_of_the_per_box_and_per_edge_loops(tmp_path, saddle, hopf):
    some, empty = _hand_graphs()
    wide = _wide_graph()
    graphs = [saddle.graph, hopf.graph, some, empty, wide]
    assert saddle.graph.has_exit and some.has_exit and empty.n_edges == 0
    for i, graph in enumerate(graphs):
        _assert_graph_writers(graph, tmp_path / f"graph{i}.json")
    assert some.to_dot().splitlines()[2:] == [
        "  b0 -> exit;", "  b0 -> b1;", "  b2 -> b2;", "  b5 -> exit;", "  b5 -> b0;", "}"]
    assert empty.to_dot() == "digraph transition {\n}"
    assert wide.to_dot().splitlines()[-4:] == [
        "  b1202 -> exit;", "  b1202 -> b5;", "  b1202 -> b1202;", "}"]
    wide.to_json(str(tmp_path / "wide.json"))
    assert json.loads((tmp_path / "wide.json").read_text())["edges"][-3:] == [
        [999, [EXIT, 0, 1000]], [1000, [1001]], [1202, [EXIT, 5, 1202]]]


# box 0 has 3 edges and box 1 has 6, from edge 3 to edge 8: with blocks of
# 4 edges, box 1 straddles two block borders
_BLOCK_EDGES = [(0, EXIT), (0, 1), (0, 11), (1, EXIT), (1, 0), (1, 2), (1, 3), (1, 9),
                (1, 10), (4, 4), (7, EXIT), (10, 5), (10, 6), (11, EXIT), (11, 11)]


@pytest.mark.parametrize("m", [0, 1, 3, 4, 5, 7, 8, 9, 11, 12, 13])
def test_streamed_graph_writers_give_the_same_bytes_at_every_block_border(
        monkeypatch, tmp_path, m):
    monkeypatch.setattr(jsonio, "BLOCK", 4)
    grid = bf.build_grid([(0.0, 12.0)], (12,))
    edges = _BLOCK_EDGES[:m]
    graph = TransitionGraph(grid, 1.0, 0.5, 3, [e[0] for e in edges], [e[1] for e in edges])
    assert graph.n_edges == m
    _assert_graph_writers(graph, tmp_path / "graph.json")
    _write_text(str(tmp_path / "graph.dot"), graph._dot_blocks(), "\n")
    assert (tmp_path / "graph.dot").read_text() == _graph_dot_oracle(graph) + "\n"


def test_graph_writers_hold_a_block_not_the_file(monkeypatch, tmp_path):
    # 64 blocks of 1024 edges: 512 boxes with 128 edges each
    monkeypatch.setattr(jsonio, "BLOCK", 1024)
    n = 512
    grid = bf.build_grid([(0.0, 1.0)], (n,))
    src = np.repeat(np.arange(n), 128)
    graph = TransitionGraph(grid, 1.0, 0.5, 3, src, (src + np.tile(np.arange(128), n)) % n)
    assert graph.n_edges == 64 * 1024
    writers = {"graph.json": graph.to_json,
               "graph.dot": lambda path: _write_text(path, graph._dot_blocks(), "\n")}
    for name, write in writers.items():
        path = str(tmp_path / name)
        tracemalloc.start()
        try:
            write(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path) / 2, (name, peak, os.path.getsize(path))
