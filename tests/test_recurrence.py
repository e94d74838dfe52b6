"""Recurrence and Morse decomposition against a hand-rolled SCC oracle."""

import json
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import boxflow as bf
from boxflow import recurrence
from boxflow.errors import PreconditionError
from boxflow.flows import _advance
from boxflow.grid import BoxSet, finite_norm
from boxflow.transition import Adjacency, TransitionGraph, on_cycle
from conftest import _bundle, _connecting_oracle, _peel_oracle, _random_exit_graph


def _kosaraju(n, edges):
    """Strongly connected components, iteratively, two DFS passes."""
    adj = [[] for _ in range(n)]
    radj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        radj[v].append(u)

    order = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        stack = [(start, 0)]
        seen[start] = True
        while stack:
            node, i = stack.pop()
            if i < len(adj[node]):
                stack.append((node, i + 1))
                nxt = adj[node][i]
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, 0))
            else:
                order.append(node)

    comp = [-1] * n
    n_comp = 0
    for start in reversed(order):
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = n_comp
        while stack:
            node = stack.pop()
            for nxt in radj[node]:
                if comp[nxt] == -1:
                    comp[nxt] = n_comp
                    stack.append(nxt)
        n_comp += 1

    groups = [[] for _ in range(n_comp)]
    for v, c in enumerate(comp):
        groups[c].append(v)
    return groups, comp


def _oracle_classes(n, edges):
    """Nontrivial SCCs (a cycle through the node, possibly a self-loop)."""
    groups, _ = _kosaraju(n, edges)
    edge_set = set(edges)
    out = []
    for g in groups:
        if len(g) > 1 or (g[0], g[0]) in edge_set:
            out.append(frozenset(g))
    return out


def _graph_of(n, edges):
    grid = bf.build_grid([(0.0, 1.0)], (n,))
    graph = TransitionGraph(grid, 1.0, 0.0, 3,
                            [e[0] for e in edges], [e[1] for e in edges])
    return grid, graph, edges, n


def _random_graph(seed, n=36, p=0.06):
    rng = np.random.default_rng(seed)
    mat = rng.random((n, n)) < p
    edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(mat))]
    return _graph_of(n, edges)


def _chains_graph(seed):
    """Three cycles joined by long chains, with chains running into and out
    of them, so a trim takes one round per chain node; ids are shuffled
    unless seed is None."""
    edges = []
    count = [0]

    def fresh():
        count[0] += 1
        return count[0] - 1

    def chain(start, length):
        last = start
        for _ in range(length):
            node = fresh()
            if last is not None:
                edges.append((last, node))
            last = node
        return last

    def cycle(start, length):
        nodes = [fresh() for _ in range(length)]
        edges.extend(zip(nodes, nodes[1:] + nodes[:1]))
        edges.append((start, nodes[0]))
        return nodes[-1]

    a = cycle(chain(None, 30), 3)
    b = cycle(chain(a, 50), 2)
    c = cycle(chain(b, 40), 1)
    chain(c, 30)
    chain(b, 20)
    edges.append((chain(None, 20), b))
    n = count[0]
    if seed is not None:
        perm = np.random.default_rng(seed).permutation(n).tolist()
        edges = [(perm[u], perm[v]) for u, v in edges]
    return _graph_of(n, edges)


def _cycles_dag_graph(seed):
    """Forty small cycles, one to four nodes, with random edges from each
    cycle to later ones and a few nodes between them; ids shuffled.  The
    forward-backward split meets many classes in one round."""
    rng = np.random.default_rng(seed)
    edges = []
    cycles = []
    n = 0
    for _ in range(40):
        size = int(rng.integers(1, 5))
        nodes = list(range(n, n + size))
        n += size
        edges.extend(zip(nodes, nodes[1:] + nodes[:1]))
        cycles.append(nodes)
    for i, nodes in enumerate(cycles[:-1]):
        for j in rng.choice(np.arange(i + 1, len(cycles)), size=2):
            if rng.random() < 0.5:
                edges.append((nodes[-1], cycles[j][0]))
            else:
                edges.extend([(nodes[0], n), (n, cycles[j][-1])])
                n += 1
    perm = rng.permutation(n).tolist()
    return _graph_of(n, [(perm[u], perm[v]) for u, v in edges])


def _case_graph(case):
    """The graph of one oracle case: an int is a seeded 36-node graph."""
    if isinstance(case, int):
        return _random_graph(case)
    kind, *args = case
    if kind == "random":
        seed, n, p = args
        return _random_graph(seed, n, p)
    if kind == "chains":
        return _chains_graph(*args)
    if kind == "cycles-dag":
        return _cycles_dag_graph(*args)
    n, edges = args
    return _graph_of(n, edges)


# the five seeded 36-node graphs, then other sizes and densities, and the
# shapes a trim or a forward-backward split has to get right
_ORACLE_CASES = [
    0, 1, 2, 3, 4,
    *(pytest.param(("random", seed, n, p), id=f"random-{seed}-n{n}-p{p}")
      for seed, n, p in [(5, 8, 0.3), (6, 60, 0.03), (7, 120, 0.015), (8, 200, 0.01),
                         (9, 200, 0.05), (10, 90, 0.1), (11, 150, 0.006), (12, 40, 0.5)]),
    pytest.param(("edges", 1, []), id="n1"),
    pytest.param(("edges", 1, [(0, 0)]), id="n1-self-loop"),
    pytest.param(("edges", 10, []), id="no-edges"),
    pytest.param(("edges", 12, [(i, i) for i in range(0, 12, 2)]), id="self-loops-only"),
    pytest.param(("chains", None), id="chains"),
    pytest.param(("chains", 0), id="chains-shuffled-0"),
    pytest.param(("chains", 1), id="chains-shuffled-1"),
    *(pytest.param(("cycles-dag", seed), id=f"cycles-dag-{seed}") for seed in (0, 1, 2)),
]


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_recurrent_boxes_match_scc_oracle(case):
    grid, graph, edges, n = _case_graph(case)
    recurrent = bf.chain_recurrent_boxes(graph, grid.all_boxes())
    expected = sorted(b for comp in _oracle_classes(n, edges) for b in comp)
    assert recurrent.ids.tolist() == expected


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_morse_sets_and_order_match_oracle(case):
    grid, graph, edges, n = _case_graph(case)
    mg = bf.morse_graph(graph, grid.all_boxes())
    oracle = _oracle_classes(n, edges)
    got = {frozenset(m.ids.tolist()) for m in mg.morse_sets}
    assert got == set(oracle)

    # condensation reachability: every ordered class pair must appear in the
    # partial order with the attractor side carrying the smaller index
    groups, comp = _kosaraju(n, edges)
    reach = {i: {i} for i in range(len(groups))}
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            cu, cv = comp[u], comp[v]
            if not reach[cv] <= reach[cu]:
                reach[cu] |= reach[cv]
                changed = True
    index_of = {}
    for i, m in enumerate(mg.morse_sets, start=1):
        index_of[comp[int(m.ids[0])]] = i
    expected_pairs = set()
    for c_hi, below in reach.items():
        if c_hi not in index_of:
            continue
        for c_lo in below:
            if c_lo in index_of and c_lo != c_hi:
                expected_pairs.add((index_of[c_hi], index_of[c_lo]))
    assert set(mg.partial_order) == expected_pairs
    for hi, lo in mg.partial_order:
        assert hi > lo

    assert bf.chain_recurrent_boxes(graph, grid.all_boxes()) \
        == BoxSet(sorted(b for m in mg.morse_sets for b in m.ids.tolist()))

    for b in mg.invariant:
        assert mg.reach_classes(b) == {index_of[c] for c in reach[comp[b]]
                                       if c in index_of}
        assert mg.coreach_classes(b) == {k for c, k in index_of.items()
                                         if comp[b] in reach[c]}


def test_doublewell_morse_sets(doublewell):
    mg = doublewell.mg
    assert mg.n == 3
    assert mg.morse_sets[0].ids.tolist() == [63, 64]
    assert mg.morse_sets[1].ids.tolist() == [191, 192]
    assert mg.morse_sets[2].ids.tolist() == [127, 128]
    assert mg.partial_order == frozenset({(3, 1), (3, 2)})
    assert mg.class_of(63) == 1 and mg.class_of(128) == 3
    assert mg.class_of(100) is None
    assert mg.reach_classes(100) == frozenset({1})
    assert mg.coreach_classes(100) == frozenset({3})
    with pytest.raises(PreconditionError):
        mg.reach_classes(0)


def test_down_set_enumeration_is_canonical(doublewell):
    pairs = bf.enumerate_ar_pairs(doublewell.mg)
    downs = [tuple(sorted(p.down_set)) for p in pairs]
    assert downs == [(), (1,), (2,), (1, 2), (1, 2, 3)]


def test_attractor_repeller_regions(doublewell):
    pairs = bf.enumerate_ar_pairs(doublewell.mg)
    by_down = {tuple(sorted(p.down_set)): p for p in pairs}
    assert by_down[(1,)].attractor.ids.tolist() == [63, 64]
    assert by_down[(1,)].repeller.ids.tolist() == list(range(127, 193))
    assert by_down[(2,)].attractor.ids.tolist() == [191, 192]
    assert by_down[(2,)].repeller.ids.tolist() == list(range(63, 129))
    assert by_down[(1, 2)].attractor.ids.tolist() == [63, 64, 191, 192]
    assert by_down[(1, 2)].repeller.ids.tolist() == [127, 128]
    full = by_down[(1, 2, 3)]
    assert not full.repeller
    empty = by_down[()]
    assert not empty.attractor
    for p in pairs:
        assert p.attractor.isdisjoint(p.repeller)


def test_non_down_closed_set_rejected(doublewell):
    with pytest.raises(PreconditionError):
        bf.ar_regions_in_pair(doublewell.mg, frozenset({3}))
    with pytest.raises(PreconditionError):
        bf.ar_regions_in_pair(doublewell.mg, frozenset({5}))


def test_one_sided_regions_pin_the_pair(doublewell):
    ar = doublewell.ar
    assert ar.alpha.ids.tolist() == [63, 64]
    assert BoxSet(list(range(127, 193))).issubset(ar.omega)
    assert ar.alpha.isdisjoint(ar.omega)


def _class_reach_oracle(graph, region, morse_sets):
    """Per region box, the indices of the Morse sets it reaches and of
    those that reach it: one Python breadth-first search per Morse set each
    way over the edges inside the region."""
    inside = set(region.ids.tolist())
    succ = {b: [] for b in inside}
    pred = {b: [] for b in inside}
    for u, v in zip(*(a.tolist() for a in graph.edge_arrays())):
        if u in inside and v in inside:
            succ[u].append(v)
            pred[v].append(u)
    reach = {b: set() for b in inside}
    coreach = {b: set() for b in inside}
    for k, m in enumerate(morse_sets, start=1):
        for step, marks in ((succ, coreach), (pred, reach)):
            seen = set(m.ids.tolist())
            queue = deque(seen)
            while queue:
                for v in step[queue.popleft()]:
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
            for b in seen:
                marks[b].add(k)
    return reach, coreach


def _down_sets(mg):
    """Every down-set of mg when there are few Morse sets; else the empty
    and full sets, the down-closure of each class and the complement of
    the up-closure of each class."""
    if mg.n <= 8:
        return [ar.down_set for ar in bf.enumerate_ar_pairs(mg)]
    every = frozenset(range(1, mg.n + 1))
    out = [frozenset(), every]
    for k in every:
        out.append(frozenset({k} | {lo for hi, lo in mg.partial_order if hi == k}))
        out.append(every - {k} - {hi for hi, lo in mg.partial_order if lo == k})
    return out


def _check_ar_regions(graph, region):
    """ar_regions_in_pair of every down-set, and every record that
    enumerate_ar_pairs returns, against the per-box oracles: class reach by
    breadth-first search, full orbits by the deque peel."""
    mg = bf.morse_graph(graph, region)
    reach, coreach = _class_reach_oracle(graph, region, mg.morse_sets)
    own = {b: k for k, m in enumerate(mg.morse_sets, start=1) for b in m.ids.tolist()}
    inv = _peel_oracle(graph, region, True, True).ids.tolist()
    back = _peel_oracle(graph, region, True, False).ids.tolist()
    fwd = _peel_oracle(graph, region, False, True).ids.tolist()

    def only(boxes, classes, allowed):
        return BoxSet([b for b in boxes
                       if (own[b] in allowed if b in own else classes(b) <= allowed)])

    def both(b):
        return reach[b] | coreach[b]

    def check(ar):
        D = ar.down_set
        E = frozenset(range(1, mg.n + 1)) - D
        assert ar.morse_graph is mg
        assert ar.attractor == only(inv, both, D), sorted(D)
        assert ar.repeller == only(inv, both, E), sorted(D)
        assert ar.alpha == only(back, coreach.get, D), sorted(D)
        assert ar.omega == only(fwd, reach.get, E), sorted(D)

    for D in _down_sets(mg):
        ar = bf.ar_regions_in_pair(mg, D)
        assert ar.down_set == D
        check(ar)
    if mg.n <= 8:
        for ar in bf.enumerate_ar_pairs(mg):
            check(ar)


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_ar_regions_match_the_per_box_oracle(case):
    grid, graph, _, _ = _case_graph(case)
    _check_ar_regions(graph, grid.all_boxes())


@pytest.mark.parametrize("name,depth", [("saddle1d", (64,)), ("contract1d", (64,)),
                                        ("doublewell1d", (256,)), ("gradient2d", (16, 16)),
                                        ("hopf2d", (32, 32))])
def test_ar_regions_of_the_builtins_match_the_per_box_oracle(name, depth):
    b = _bundle(name, depth)
    _check_ar_regions(b.graph, b.region)


def test_ar_regions_of_exit_graphs_match_the_per_box_oracle():
    # with D the full set alpha is every box with a full backward orbit in
    # the region, and with D empty omega every box with a full forward one
    for seed in range(200):
        grid, graph, region = _random_exit_graph(seed)
        for boxes in (grid.all_boxes(), region, BoxSet([])):
            _check_ar_regions(graph, boxes)


def test_recurrence_equals_attractor_intersection(doublewell):
    rep = bf.check_R_equals_intersection(doublewell.mg)
    assert rep.equal
    assert len(rep.symmetric_difference) == 0
    assert rep.recurrent == doublewell.recurrent


def test_empty_invariant_part_yields_empty_decomposition():
    system = bf.FlowSystem(dimension=1, field=lambda p: np.ones_like(p),
                           domain=[[0.0, 1.0]], name="drift")
    grid = bf.build_grid(system.domain, (16,))
    graph = bf.build_transition_graph(system, grid, 1.0)
    region = grid.all_boxes()
    assert not bf.chain_recurrent_boxes(graph, region)
    mg = bf.morse_graph(graph, region)
    assert mg.n == 0
    pairs = bf.enumerate_ar_pairs(mg)
    assert len(pairs) == 1
    assert not pairs[0].attractor and not pairs[0].repeller


def test_chain_oracle_flags_the_contracting_fixed_point():
    system = bf.builtin_system("contract1d")
    pts = np.linspace(-0.9, 0.9, 37)[:, None]
    flagged = bf.epsilon_chain_oracle(system, pts, 0.05, t_max=8.0)
    assert flagged.shape[0] > 0
    assert np.abs(flagged).max() < 0.2


def _chain_oracle_marching_every_row(system, pts, epsilon, t_min=1.0, t_max=10.0, steps=19):
    # epsilon_chain_oracle's probe loop with every row marched at every
    # probe time, escaped rows kept at their frozen positions
    n = pts.shape[0]
    grid_times = np.linspace(t_min, t_max, steps)
    edges = np.zeros((n, n), dtype=bool)
    current, escaped, _ = _advance(system, pts, grid_times[0])
    prev_t = grid_times[0]
    for t in grid_times:
        if t > prev_t:
            step_pts, step_esc, _ = _advance(system, current, t - prev_t)
            current = np.where(escaped[:, None], current, step_pts)
            escaped |= step_esc & ~escaped
            prev_t = t
        live = ~escaped
        if not live.any():
            break
        edges[live] |= finite_norm(current[live, None, :] - pts[None, :, :], axis=2) < epsilon
    rows, cols = np.nonzero(edges)
    return pts[on_cycle(Adjacency(np.searchsorted(rows, np.arange(n + 1)), cols))]


@pytest.mark.parametrize("epsilon", [0.01, 0.03, 0.1])
def test_chain_oracle_marches_only_the_rows_still_inside(monkeypatch, epsilon):
    # saddle1d: every row but the one at 0 leaves [-1, 1] by t = 10
    system = bf.builtin_system("saddle1d")
    pts = np.linspace(-1.0, 1.0, 201)[:, None]
    calls = []

    def counted(system, points, t):
        result = _advance(system, points, t)
        calls.append((len(points), int(result[1].sum())))
        return result

    monkeypatch.setattr(recurrence, "_advance", counted)
    flagged = bf.epsilon_chain_oracle(system, pts, epsilon)
    # each march takes the rows the one before left inside
    assert calls[0][0] == 201
    assert all(rows == prev - out for (prev, out), (rows, _) in zip(calls, calls[1:]))
    assert sum(out for _, out in calls) == 200
    np.testing.assert_array_equal(flagged,
                                  _chain_oracle_marching_every_row(system, pts, epsilon))


def test_chain_oracle_validates_inputs():
    system = bf.builtin_system("contract1d")
    pts = np.zeros((3, 1))
    with pytest.raises(PreconditionError):
        bf.epsilon_chain_oracle(system, pts, 0.0)
    with pytest.raises(PreconditionError):
        bf.epsilon_chain_oracle(system, pts, 0.1, t_min=0.5)
    with pytest.raises(PreconditionError):
        bf.epsilon_chain_oracle(system, pts, 0.1, t_max=0.5)


def test_morse_file_gives_the_bytes_of_json_dumps(tmp_path, doublewell, hopf, saddle):
    system = bf.FlowSystem(dimension=1, field=lambda p: np.ones_like(p),
                           domain=[[0.0, 1.0]], name="drift")
    grid = bf.build_grid(system.domain, (16,))
    empty = bf.morse_graph(bf.build_transition_graph(system, grid, 1.0), grid.all_boxes())
    # 12 self-loop boxes joined in a chain through one box each: Morse
    # indices of two digits, and connecting boxes with many classes a side
    chain_grid = bf.build_grid([(0.0, 1.0)], (23,))
    src, dst = zip(*[(b, b) for b in range(0, 23, 2)], *[(b, b + 1) for b in range(22)])
    chain = bf.morse_graph(bf.TransitionGraph(chain_grid, 1.0, 0.0, 3, src, dst),
                           chain_grid.all_boxes())
    assert chain.n == 12 and len(chain.connecting) == 11
    for mg in (doublewell.mg, hopf.mg, saddle.mg, empty, chain):
        mg.to_json(str(tmp_path / "morse.json"))
        data = {
            "n": mg.n,
            "admissible_order": list(mg.admissible_order),
            "partial_order": sorted([list(p) for p in mg.partial_order]),
            "morse_sets": [m.ids.tolist() for m in mg.morse_sets],
            "region": mg.region.ids.tolist(),
            "invariant": mg.invariant.ids.tolist(),
            "connecting": sorted(
                [[b, sorted(r), sorted(c)] for b, (r, c) in mg.connecting.items()]),
        }
        want = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
        assert (tmp_path / "morse.json").read_text() == want


def test_morse_graph_dot_output(doublewell):
    text = doublewell.mg.to_dot()
    assert text.startswith("digraph")
    assert "M1" in text and "M3" in text


def test_importing_the_package_does_not_load_networkx():
    src = str(Path(bf.__file__).resolve().parent.parent)
    code = "import boxflow, sys; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_importing_the_package_does_not_load_scipy_spatial():
    src = str(Path(bf.__file__).resolve().parent.parent)
    code = "import boxflow, sys; assert 'scipy.spatial' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_connecting_boxes_equal_the_per_box_loop(doublewell):
    mg = _bundle("hopf2d", (32, 32)).mg
    assert len(mg.connecting) > 0
    for m in (mg, doublewell.mg):
        assert m.connecting == _connecting_oracle(m)
        assert list(m.connecting) == list(_connecting_oracle(m))
