"""Session fixtures: pipeline bundles built once per system and reused."""

import json
import math
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

import boxflow as bf
from boxflow.flows import _advance
from boxflow import grid as bfgrid
from boxflow.grid import BoxSet
from boxflow.jsonio import write_json
from boxflow.lyapunov import _discounted_from_h
from boxflow.pairs import _march_quotient
from boxflow.transition import EXIT, TransitionGraph

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log():
    """Callable recording one pass/fail line per acceptance criterion."""
    def record(line):
        ACCEPTANCE_LINES.append(line)
    return record


def _bundle(name, depth, map_time=1.0):
    system = bf.builtin_system(name)
    grid = bf.build_grid(system.domain, depth)
    graph = bf.build_transition_graph(system, grid, map_time)
    region = grid.all_boxes()
    mg = bf.morse_graph(graph, region)
    return SimpleNamespace(system=system, grid=grid, graph=graph,
                           region=region, mg=mg)


@pytest.fixture(scope="session")
def saddle():
    b = _bundle("saddle1d", (64,))
    # N covers the whole interval and L is empty, so the exit time is the
    # time to reach the domain boundary at |x| = 1
    b.hand_pair = bf.IndexPair.from_boxes(b.grid, b.grid.all_boxes().ids, [])
    return b


@pytest.fixture(scope="session")
def doublewell():
    b = _bundle("doublewell1d", (256,))
    b.pair = bf.build_index_pair(b.mg)
    b.recurrent = bf.chain_recurrent_boxes(b.graph, b.region)
    b.ar = bf.ar_regions_in_pair(b.mg, frozenset({1}))
    b.pair_field = bf.pair_lyapunov(b.system, b.pair, b.ar)
    b.morse_field = bf.morse_lyapunov(b.system, b.pair, b.mg)
    return b


@pytest.fixture(scope="session")
def gradient():
    return _bundle("gradient2d", (32, 32))


@pytest.fixture(scope="session")
def hopf():
    b = _bundle("hopf2d", (64, 64))
    b.pair = bf.build_index_pair(b.mg)
    b.recurrent = bf.chain_recurrent_boxes(b.graph, b.region)
    b.complete_field = bf.complete_lyapunov(b.system, b.pair, b.mg)
    return b


def sample_in_boxes(rng, grid, boxset, n):
    """n random points uniform over the rectangles of a box set."""
    ids = boxset.ids
    pick = ids[rng.integers(0, ids.size, size=n)]
    rects = grid.bounds(pick)
    u = rng.random((n, grid.dimension))
    return rects[:, :, 0] + u * (rects[:, :, 1] - rects[:, :, 0])


def _march_quotient_oracle(system, pair, points, n_steps, dt, mask=None):
    """The quotient march one sample at a time: the rows still live take one
    _advance step of dt, then one box_of call decides which are absorbed.
    The box ids are box_of of every stored position, as int32."""
    mask = pair._core_mask if mask is None else mask
    current = np.array(np.atleast_2d(points), dtype=float)
    positions = np.empty((n_steps + 1,) + current.shape)
    absorbed = np.empty((n_steps + 1, current.shape[0]), dtype=bool)
    boxes = np.atleast_1d(pair.grid.box_of(current))
    dead = (boxes < 0) | ~mask[np.maximum(boxes, 0)]
    for k in range(n_steps + 1):
        if dead.all():
            positions[k:] = current
            absorbed[k:] = True
            break
        if k:
            live = ~dead
            nxt, escaped, _ = _advance(system, current[live], dt)
            current[live] = nxt
            boxes = np.atleast_1d(pair.grid.box_of(nxt))
            dead[live] = escaped | (boxes < 0) | ~mask[np.maximum(boxes, 0)]
        positions[k] = current
        absorbed[k] = dead
    ids = pair.grid.box_of(positions.reshape(-1, positions.shape[2]))
    return positions, absorbed, ids.reshape(absorbed.shape).astype(np.int32)


def _sup_envelope_oracle(system, pair, rho_fn, x, dt=0.05, horizon=14.0):
    """The single-point envelope: one _advance and one ρ call per step."""
    grid = pair.grid
    box = grid.box_of(x)
    if not pair.in_core(box):
        return 0.0, True
    zero_mask = rho_fn.zero_set.mask(grid.n_boxes)
    h = float(rho_fn(x))
    current = x
    steps = int(math.ceil(horizon / dt - 1e-9))
    for _ in range(steps):
        nxt, escaped, _ = _advance(system, current[None, :], dt)
        if escaped[0]:
            return h, True
        current = nxt[0]
        box = grid.box_of(current)
        if not pair.in_core(box):
            return h, True
        h = max(h, float(rho_fn(current)))
        if rho_fn.zero_forward_closed and box >= 0 and zero_mask[box]:
            return h, True
    return h, False


@pytest.fixture(scope="session")
def envelope_cases():
    """(system, pair, ρ, horizon) covering every way a row stops."""
    contract = bf.builtin_system("contract1d")
    cgrid = bf.build_grid(contract.domain, (64,))
    cpair = bf.IndexPair.from_boxes(cgrid, cgrid.all_boxes().ids, [])
    cgraph = bf.build_transition_graph(contract, cgrid, 1.0)
    center = BoxSet(list(range(28, 36)))
    rim = BoxSet(list(range(0, 4)) + list(range(60, 64)))
    saddle = bf.builtin_system("saddle1d")
    sgrid = bf.build_grid(saddle.domain, (64,))
    window = bf.IndexPair.from_boxes(sgrid, list(range(16, 48)), [16, 47])
    whole = bf.IndexPair.from_boxes(sgrid, sgrid.all_boxes().ids, [])
    mid = BoxSet([31, 32])
    return {
        # orbits enter the forward-closed zero set around the origin
        "zero-set": (contract, cpair, bf.make_rho(cpair, center, rim, graph=cgraph), 14.0),
        # the profile climbs toward the origin and no row stops early
        "horizon": (contract, cpair, bf.make_rho(cpair, rim, center), 3.0),
        # orbits leave N−L through the exit boxes; L-rows start absorbed
        "absorbed": (saddle, window, bf.make_rho(window, BoxSet([17, 46]), mid), 14.0),
        # orbits leave the domain
        "escape": (saddle, whole, bf.make_rho(whole, BoxSet([0, 1, 62, 63]), mid), 14.0),
    }


def _exit_time_oracle(system, pair, x, dt, horizon):
    """One point's exit time: flow_map steps of dt to bracket the crossing,
    then a bisection with one flow_map per halving."""
    grid = pair.grid
    if pair.in_L(grid.box_of(x)):
        return 0.0

    def inside(p):
        return not isinstance(p, bf.Escape) and pair.in_isolating(grid.box_of(p))

    current, t = x, 0.0
    for _ in range(int(math.ceil(horizon / dt - 1e-9))):
        nxt = bf.flow_map(system, current, dt)
        if not inside(nxt):
            break
        current, t = nxt, t + dt
    else:
        return math.inf
    lo, hi = 0.0, dt
    while hi - lo > dt / 1024:
        mid = 0.5 * (lo + hi)
        if inside(bf.flow_map(system, current, mid)):
            lo = mid
        else:
            hi = mid
    return t + 0.5 * (lo + hi)


def _stopped_flow_oracle(system, pair, x, t, dt=1e-3):
    """φ(x, min(t, τ₊)) with τ₊ from _exit_time_oracle and one flow_map."""
    tau = _exit_time_oracle(system, pair, x, dt, max(t, 1.0) + dt)
    end = bf.flow_map(system, x, min(t, tau))
    return end.point if isinstance(end, bf.Escape) else end


def _retraction_oracle(system, pair, rng, n_samples=50, dt=1e-3):
    """retraction_check one sample at a time: a flow_map identity probe, then
    a stopped flow that marches the sample again to find its exit time."""
    grid = pair.grid
    _, pts = bfgrid.sample_in_boxes(rng, grid, pair.core, n_samples)
    l_distance = bf.BoxSetDistance(grid, pair.L)
    tol = float(grid.widths.max()) + 1e-9
    failures = []
    tested = 0
    for x in pts:
        if not np.array_equal(bf.flow_map(system, x, 0.0), x):
            failures.append(x.tolist())
            continue
        tau = _exit_time_oracle(system, pair, x, dt, 1.0 + 4 * dt)
        if not tau <= 1.0:
            continue
        tested += 1
        if l_distance(_stopped_flow_oracle(system, pair, x, tau, dt)) > tol:
            failures.append(x.tolist())
    return bf.RetractionReport(passed=not failures, failures=failures,
                               n_tested=tested, n_skipped=n_samples - tested)


def _discounted_average_oracle(system, pair, h_fn, x, dt=0.05, t_max=12.0):
    """The single-point discounted average: one _advance and one h_fn call
    per step, the orbit absorbed once it leaves the domain or N−L."""
    n_quad = int(round(t_max / dt))
    h = np.zeros(n_quad + 1)
    current = x
    alive = pair.in_core(pair.grid.box_of(x))
    for k in range(n_quad + 1):
        if alive:
            h[k] = h_fn(current)
        if k == n_quad:
            break
        if alive:
            nxt, escaped, _ = _advance(system, current[None, :], dt)
            if escaped[0]:
                alive = False
            else:
                current = nxt[0]
                alive = pair.in_core(pair.grid.box_of(current))
    return float(_discounted_from_h(h[:, None], n_quad, dt)[0])


def _g_along_orbits_oracle(system, field, pts, ks, dt):
    """g at the points and at their k·dt quotient images, k in ks: one march
    to the images, then one evaluate that marches every live image again."""
    positions, absorbed, _ = _march_quotient(system, field.pair, pts, max(ks), dt)
    live = [~absorbed[k] for k in ks]
    g = field.evaluate(system, np.concatenate(
        [pts] + [positions[k][lv] for k, lv in zip(ks, live)]))
    n = pts.shape[0]
    images = []
    start = n
    for lv in live:
        gt = np.zeros(n)
        gt[lv] = g[start:start + lv.sum()]
        start += lv.sum()
        images.append(gt)
    return g[:n], images


def _orbit_checks_oracle(system, grid, pair, fields, ar_first, recurrent, params, rng, add):
    """verify's fixed-point, renewal, monotone and strict-decrease checks on
    per-check marches: one sup_envelope per profile marches the fixed-point
    samples and their one-step images, renewal_residual marches each
    field's samples, and each probe set is marched, then evaluated on
    marches of its own."""
    dt = params.dt
    horizon = params.t_max + params.settle
    worst = 0.0
    evaluated = 0
    skipped = 0
    for field in fields:
        profs = {0: field.profiles[0], len(field.profiles) - 1: field.profiles[-1]}
        _, pts = bfgrid.sample_in_boxes(rng, grid, field.pair.core, 4)
        n = pts.shape[0]
        positions, absorbed, _ = _march_quotient(system, pair, pts, 1, dt)
        nxt, live = positions[1], ~absorbed[1]
        for _, (_, rho_fn) in sorted(profs.items()):
            h, conv = bf.sup_envelope(system, pair, rho_fn, np.concatenate([pts, nxt[live]]),
                                      dt=dt, horizon=horizon)
            h1 = np.zeros(n)
            c1 = np.ones(n, dtype=bool)
            h1[live] = h[n:]
            c1[live] = conv[n:]
            ok = conv[:n] & c1
            skipped += int((~ok).sum())
            evaluated += int(ok.sum())
            if ok.any():
                res = np.abs(h[:n][ok] - np.maximum(rho_fn(pts[ok]), h1[ok]))
                worst = max(worst, float(res.max()))
    add("lyapunov_fixed_point", worst <= 1e-6, True,
        {"evaluations": evaluated, "skipped_unconverged": skipped,
         "max_residual": worst}, 1e-6,
        "envelope satisfies h(x) = max(rho(x), h after one step)")

    worst = 0.0
    count = 0
    for field in fields:
        _, pts = bfgrid.sample_in_boxes(rng, grid, field.pair.core, 4)
        worst = max(worst, float(bf.renewal_residual(system, field, pts, 1.0).max()))
        count += pts.shape[0]
    add("lyapunov_renewal", worst < 2e-3, True,
        {"evaluations": count, "max_residual": worst}, 2e-3,
        "discounted average satisfies its renewal identity at t = 1")

    t_probes = (0.5, 1.0, 2.0)
    max_inc = 0.0
    mono_viol = 0
    total = 0
    for field in fields:
        _, pts = bfgrid.sample_in_boxes(rng, grid, field.pair.core, 40)
        g0, probes = _g_along_orbits_oracle(system, field, pts,
                                            [int(round(t / dt)) for t in t_probes], dt)
        for gt in probes:
            inc = gt - g0
            mono_viol += int((inc > 1e-6).sum())
            max_inc = max(max_inc, float(inc.max()))
            total += pts.shape[0]
    add("lyapunov_monotone", mono_viol == 0, True,
        {"samples": total, "violations": mono_viol, "max_increase": max_inc}, 1e-6,
        "g never grows along quotient orbits at t in {0.5, 1, 2}")

    dec_viol = 0
    tested = 0
    min_dec = math.inf
    for field in fields:
        if field.construction == "single-pair":
            pinned = ar_first.alpha.union(ar_first.omega).union(pair.L)
        else:
            pinned = recurrent.union(pair.L)
        cand = field.pair.core.difference(grid.dilate(pinned, 2))
        if not cand:
            continue
        _, pts = bfgrid.sample_in_boxes(rng, grid, cand, 30)
        g0, (gt,) = _g_along_orbits_oracle(system, field, pts, [int(round(1.0 / dt))], dt)
        dec = g0 - gt
        dec_viol += int((dec <= 1e-4).sum())
        min_dec = min(min_dec, float(dec.min()))
        tested += pts.shape[0]
    add("lyapunov_strict_decrease", dec_viol == 0, True,
        {"samples": tested, "violations": dec_viol,
         "min_decrease": None if tested == 0 else min_dec}, 1e-4,
        "g drops along orbits seeded two boxes away from the pinned sets")


def _graph_edges_oracle(graph):
    """The "edges" list of graph.json, one targets_of call per box."""
    edges = []
    for b in range(graph.grid.n_boxes):
        t = graph.targets_of(b)
        if t.size:
            edges.append([b, t.tolist()])
    return edges


def _graph_dot_oracle(graph):
    """graph.to_dot() with one f-string per edge."""
    lines = ["digraph transition {"]
    if graph.has_exit:
        lines.append('  exit [label="EXIT", shape=doublecircle];')
    src, dst = graph.edge_arrays()
    for s, t in zip(src.tolist(), dst.tolist()):
        lines.append(f"  b{s} -> exit;" if t == bf.EXIT else f"  b{s} -> b{t};")
    lines.append("}")
    return "\n".join(lines)


def _assert_graph_writers(graph, path):
    """to_dot equals the per-edge loop, and to_json writes, at path, the
    bytes of write_json and of one json.dumps call on the per-box loop's
    edges; the file loads back to the graph."""
    assert graph.to_dot() == _graph_dot_oracle(graph)
    graph.to_json(str(path))
    got = path.read_bytes()
    data = json.loads(got)
    data["edges"] = _graph_edges_oracle(graph)
    write_json(str(path), data)
    assert got == path.read_bytes()
    assert got == (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()
    path.write_bytes(got)
    assert TransitionGraph.from_json(str(path)) == graph


def _connecting_oracle(mg):
    """MorseGraph.connecting with one class_of, reach_classes and
    coreach_classes call per invariant box."""
    return {b: (mg.reach_classes(b), mg.coreach_classes(b))
            for b in mg.invariant.ids.tolist() if mg.class_of(b) is None}


def _reach_ok_oracle(mg, down_set):
    """verify's mask of the invariant boxes whose forward-reach classes lie
    in down_set, one class_of or reach_classes call per box."""
    reach_ok = np.zeros(mg.graph.grid.n_boxes, dtype=bool)
    for b in mg.invariant.ids.tolist():
        k = mg.class_of(b)
        if k is not None:
            reach_ok[b] = k in down_set
        else:
            reach_ok[b] = mg.reach_classes(b) <= down_set
    return reach_ok


def _peel_oracle(graph, boxes, require_in, require_out):
    """Iteratively drop boxes missing a required neighbor inside the set."""
    ids = boxes.ids
    n = ids.size
    if n == 0:
        return BoxSet([])

    src, dst = graph.edge_arrays()
    keep = np.isin(src, ids) & np.isin(dst, ids)
    ls = np.searchsorted(ids, src[keep])
    ld = np.searchsorted(ids, dst[keep])

    out_deg = np.bincount(ls, minlength=n)
    in_deg = np.bincount(ld, minlength=n)
    out_adj_starts = np.searchsorted(ls, np.arange(n + 1))
    out_adj = ld
    order = np.argsort(ld, kind="stable")
    in_adj_starts = np.searchsorted(ld[order], np.arange(n + 1))
    in_adj = ls[order]

    def bad(u):
        return (require_out and out_deg[u] == 0) or (require_in and in_deg[u] == 0)

    removed = np.zeros(n, dtype=bool)
    queue = deque(u for u in range(n) if bad(u))
    while queue:
        u = queue.popleft()
        if removed[u]:
            continue
        removed[u] = True
        for v in out_adj[out_adj_starts[u]:out_adj_starts[u + 1]].tolist():
            in_deg[v] -= 1
            if not removed[v] and bad(v):
                queue.append(v)
        for v in in_adj[in_adj_starts[u]:in_adj_starts[u + 1]].tolist():
            out_deg[v] -= 1
            if not removed[v] and bad(v):
                queue.append(v)

    return BoxSet(ids[~removed])


def _random_exit_graph(seed):
    """A random graph with EXIT edges and a random sub-region."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    src, dst = np.nonzero(rng.random((n, n)) < rng.uniform(0.01, 0.12))
    escapes = np.flatnonzero(rng.random(n) < 0.15)
    grid = bf.build_grid([(0.0, 1.0)], (n,))
    graph = TransitionGraph(grid, 1.0, 0.0, 3, np.concatenate([src, escapes]),
                            np.concatenate([dst, np.full(escapes.size, EXIT)]))
    return grid, graph, BoxSet(np.flatnonzero(rng.random(n) < 0.8))
