"""Lyapunov constructions: envelopes, discounted averages, fields, filtrations."""

import math

import numpy as np
import pytest

import boxflow as bf
from boxflow.errors import FiltrationError, IngestionError, PreconditionError
from boxflow.grid import BoxSet
from boxflow.lyapunov import Filtration, LyapunovField, LyapunovParams
from boxflow.pairs import BASEPOINT

from conftest import sample_in_boxes


@pytest.fixture(scope="module")
def contract_pair():
    system = bf.builtin_system("contract1d")
    grid = bf.build_grid(system.domain, (64,))
    pair = bf.IndexPair.from_boxes(grid, grid.all_boxes().ids, [])
    return system, pair


def test_params_validation():
    with pytest.raises(PreconditionError):
        LyapunovParams(dt=0.0)
    with pytest.raises(PreconditionError):
        LyapunovParams(t_max=0.5)
    with pytest.raises(PreconditionError):
        LyapunovParams(settle=-1.0)


def test_rho_is_zero_on_a_one_on_r(doublewell):
    ar = doublewell.ar
    pair = doublewell.pair
    a_center = doublewell.grid.centers(ar.alpha.ids[:1])
    r_center = doublewell.grid.centers(np.array([150]))
    between = np.array([[-0.45]])
    assert bf.rho(pair, ar.alpha, ar.omega, a_center)[0] == 0.0
    assert bf.rho(pair, ar.alpha, ar.omega, r_center)[0] == 1.0
    mid = bf.rho(pair, ar.alpha, ar.omega, between)[0]
    assert 0.0 < mid < 1.0


def test_discounted_average_matches_quadrature(contract_pair):
    # h(x(t)) = e^{-t} starting from x0 = 0.8 under dx/dt = -x, so the
    # normalized average has the closed form below
    system, pair = contract_pair
    T = 12.0

    def h_fn(p):
        if p is BASEPOINT:
            return 0.0
        return min(1.0, abs(float(np.atleast_1d(p)[0])) / 0.8)

    got = bf.discounted_average(system, pair, h_fn, np.array([0.8]), t_max=T)
    oracle = (1 - math.exp(-2 * T)) / (2 * (1 - math.exp(-T)))
    assert abs(got - oracle) < 2e-3


def test_discounted_average_normalizes_constants(contract_pair):
    system, pair = contract_pair
    got = bf.discounted_average(system, pair, lambda p: 1.0, np.array([0.3]))
    assert abs(got - 1.0) < 1e-9


def test_sup_envelope_of_a_decreasing_profile(contract_pair):
    # zero region at the origin, one region at the rim: the contracting
    # orbit only lowers the profile, so the envelope is the starting value
    # and marching stops early inside the forward-closed zero set
    system, pair = contract_pair
    graph = bf.build_transition_graph(system, pair.grid, 1.0)
    center = BoxSet(list(range(28, 36)))
    rim = BoxSet(list(range(0, 4)) + list(range(60, 64)))
    rho_fn = bf.make_rho(pair, center, rim, graph=graph)
    h, converged = bf.sup_envelope(system, pair, rho_fn, np.array([0.6]))
    assert converged
    assert abs(h - 0.35 / 1.5) < 1e-9


def test_sup_envelope_of_an_increasing_profile(contract_pair):
    # with the regions swapped the profile climbs to 1 along the orbit and
    # the march runs to the horizon, reporting a lower bound
    system, pair = contract_pair
    center = BoxSet(list(range(28, 36)))
    rim = BoxSet(list(range(0, 4)) + list(range(60, 64)))
    rho_fn = bf.make_rho(pair, rim, center)
    h, converged = bf.sup_envelope(system, pair, rho_fn, np.array([0.6]))
    assert h > 0.99
    assert converged is False


def test_batch_field_matches_pointwise_composition():
    # route one: the field engine marches each center once and suffix-sups;
    # route two: compose the public envelope and discounted average per point
    system = bf.builtin_system("doublewell1d")
    grid = bf.build_grid(system.domain, (64,))
    graph = bf.build_transition_graph(system, grid, 1.0)
    region = grid.all_boxes()
    mg = bf.morse_graph(graph, region)
    pair = bf.build_index_pair(graph, region)
    ar = bf.ar_regions_in_pair(mg, graph, region, frozenset({1}))
    params = LyapunovParams(dt=0.1, t_max=6.0)
    field = bf.pair_lyapunov(system, pair, ar, params=params, graph=graph)
    rho_fn = field.profiles[0][1]

    def h_fn(p):
        if p is BASEPOINT:
            return 0.0
        h, _ = bf.sup_envelope(system, pair, rho_fn, np.asarray(p, dtype=float),
                               dt=0.1, horizon=8.0)
        return h

    for x0 in (-0.55, 0.2):
        direct = bf.discounted_average(system, pair, h_fn, np.array([x0]),
                                       dt=0.1, t_max=6.0)
        batch = float(field.evaluate(system, np.array([[x0]]))[0])
        assert abs(direct - batch) < 5e-3


def test_pair_field_monotone_along_orbits(doublewell):
    field = doublewell.pair_field
    rng = np.random.default_rng(4)
    pts = sample_in_boxes(rng, doublewell.grid, doublewell.pair.core, 20)
    g0 = field.evaluate(doublewell.system, pts)
    moved = []
    for x in pts:
        out = bf.quotient_flow(doublewell.system, doublewell.pair, x, 1.0)
        moved.append(np.full(1, np.nan) if out is BASEPOINT else out)
    alive = np.array([not np.isnan(m[0]) for m in moved])
    g1 = np.zeros_like(g0)
    if alive.any():
        g1[alive] = field.evaluate(doublewell.system,
                                   np.array([m for m in moved if not np.isnan(m[0])]))
    assert np.all(g1 <= g0 + 1e-6)


def test_field_box_values_and_membership(doublewell):
    field = doublewell.pair_field
    assert field.construction == "single-pair"
    assert field.range_hint == (0.0, 1.0)
    assert np.all(field.values >= 0.0) and np.all(field.values <= 1.0)
    with pytest.raises(PreconditionError):
        field.value_of_box(10)
    outside = field.evaluate(doublewell.system, np.array([[1.8]]))
    assert outside[0] == 0.0


def test_complete_field_is_the_weighted_pair_sum(doublewell):
    pairs = bf.enumerate_ar_pairs(doublewell.mg, doublewell.graph,
                                  doublewell.region)
    parts = [bf.pair_lyapunov(doublewell.system, doublewell.pair, ar,
                              graph=doublewell.graph) for ar in pairs]
    expected = sum(0.5 ** i * f.values for i, f in enumerate(parts, start=1))
    complete = bf.complete_lyapunov(doublewell.system, doublewell.pair,
                                    doublewell.mg, doublewell.graph)
    assert complete.construction == "complete"
    assert np.allclose(complete.values, expected, atol=1e-9)


def test_morse_field_range_and_zero_outside(doublewell):
    field = doublewell.morse_field
    assert field.construction == "morse-sum"
    assert field.range_hint == (0.0, 4.0)
    assert field.evaluate(doublewell.system, np.array([[1.9]]))[0] == 0.0


def test_renewal_identity_on_the_morse_field(doublewell):
    rng = np.random.default_rng(9)
    pts = sample_in_boxes(rng, doublewell.grid, doublewell.pair.core, 5)
    for x in pts:
        res = bf.renewal_residual(doublewell.system, doublewell.morse_field,
                                  x, 1.0)
        assert res < 2e-3


def test_entry_time_edge_cases(doublewell):
    pair = doublewell.pair
    ar = doublewell.ar
    U = doublewell.grid.dilate(ar.alpha, 2).union(pair.L)
    inside = BoxSet([63, 64])
    t0 = bf.uniform_entry_time(doublewell.system, pair, inside, U,
                               n_samples=10, horizon=5.0,
                               rng=np.random.default_rng(0))
    assert t0 == 0.0
    right_well = BoxSet([170, 171, 172])
    t_never = bf.uniform_entry_time(doublewell.system, pair, right_well, U,
                                    n_samples=10, horizon=5.0,
                                    rng=np.random.default_rng(0))
    assert math.isinf(t_never)


def test_entry_time_region_preconditions(doublewell):
    pair = doublewell.pair
    ar = doublewell.ar
    U = doublewell.grid.dilate(ar.alpha, 2).union(pair.L)
    with pytest.raises(PreconditionError):
        bf.uniform_entry_time(doublewell.system, pair, BoxSet([150]), U,
                              alpha_region=ar.alpha, omega_region=ar.omega)
    with pytest.raises(PreconditionError):
        bf.uniform_entry_time(doublewell.system, pair, BoxSet([80]),
                              BoxSet([80, 81]),
                              alpha_region=ar.alpha, omega_region=ar.omega)


def test_filtration_round_trip(tmp_path, doublewell):
    filtration, report = bf.extract_filtration(
        doublewell.system, doublewell.morse_field, doublewell.pair,
        doublewell.graph, rng=np.random.default_rng(0))
    path = tmp_path / "filtration.json"
    filtration.to_json(str(path), report=report)
    loaded = Filtration.from_json(str(path))
    assert loaded == filtration
    bad = tmp_path / "bad.json"
    bad.write_text("nope")
    with pytest.raises(IngestionError):
        Filtration.from_json(str(bad))


def test_filtration_requires_a_morse_sum_field(doublewell):
    with pytest.raises(PreconditionError):
        bf.extract_filtration(doublewell.system, doublewell.pair_field,
                              doublewell.pair, doublewell.graph)


def test_coarse_grid_fails_with_a_named_level():
    system = bf.builtin_system("doublewell1d")
    grid = bf.build_grid(system.domain, (8,))
    graph = bf.build_transition_graph(system, grid, 1.0)
    region = grid.all_boxes()
    mg = bf.morse_graph(graph, region)
    pair = bf.build_index_pair(graph, region)
    field = bf.morse_lyapunov(system, pair, mg)
    with pytest.raises(FiltrationError) as exc:
        bf.extract_filtration(system, field, pair, graph,
                              rng=np.random.default_rng(0))
    assert exc.value.level == 2


def test_field_round_trip(tmp_path, doublewell):
    field = doublewell.pair_field
    path = tmp_path / "field.json"
    field.to_json(str(path))
    loaded = LyapunovField.from_json(str(path))
    assert loaded == field
    assert loaded.value_of_box(int(field.boxes[0])) \
        == pytest.approx(float(field.values[0]))
    with pytest.raises(PreconditionError):
        loaded.evaluate(doublewell.system, np.array([[0.0]]))


def _brute_rho_distances(monkeypatch):
    """Route every ρ distance through the brute-force oracles."""
    from test_distances import _brute_distance, _brute_gap

    def brute_call(self, points, boxes=None):
        pts = np.asarray(points, dtype=float)
        out = _brute_distance(self.grid, self.boxset, np.atleast_2d(pts))
        return float(out[0]) if pts.ndim == 1 else out

    def brute_min(grid, first, second, k=32):
        return _brute_gap(grid, first, second) if first and second else np.inf

    monkeypatch.setattr(bf.BoxSetDistance, "__call__", brute_call)
    monkeypatch.setattr("boxflow.lyapunov.boxset_min_distance", brute_min)


@pytest.mark.parametrize("name,depth", [("hopf2d", (16, 16)), ("saddle1d", (64,))])
def test_morse_field_equals_the_brute_force_distance_field(monkeypatch, name, depth):
    # saddle1d has a nonempty L, so the shared d(., L) path is covered too
    system = bf.builtin_system(name)
    grid = bf.build_grid(system.domain, depth)
    graph = bf.build_transition_graph(system, grid, 1.0)
    region = grid.all_boxes()
    mg = bf.morse_graph(graph, region)
    pair = bf.build_index_pair(graph, region)
    fast = bf.morse_lyapunov(system, pair, mg)
    with monkeypatch.context() as m:
        _brute_rho_distances(m)
        slow = bf.morse_lyapunov(system, pair, mg)
    assert np.array_equal(fast.values, slow.values)


def _rho_from_both_distances(rho_fn, pts):
    """ρ evaluated from d(., Z) and d(., R) without the empty-set shortcuts."""
    dZ = rho_fn._dZ(pts)
    dR = rho_fn._dR(pts)
    if rho_fn.uses_L:
        dR = np.minimum(dR, rho_fn._dL(pts) + rho_fn._dRL)
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(dR), 0.0, np.where(np.isinf(dZ), 1.0, dZ / (dZ + dR)))


def test_empty_region_shortcuts_match_both_distances(monkeypatch):
    system = bf.builtin_system("saddle1d")
    grid = bf.build_grid(system.domain, (64,))
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.1, 1.1, size=(200, 1))
    some = BoxSet([5, 6, 40])
    empty = BoxSet([])
    # with a nonempty L the zero set Z = L ∪ A is never empty
    for l_ids in ([], [0, 1, 62, 63]):
        pair = bf.IndexPair.from_boxes(grid, grid.all_boxes().ids, l_ids)
        for zero, one in ((empty, some), (some, empty), (empty, empty)):
            rho_fn = bf.make_rho(pair, zero, one)
            got = rho_fn(pts)
            assert np.array_equal(got, _rho_from_both_distances(rho_fn, pts))
            with monkeypatch.context() as m:
                _brute_rho_distances(m)
                assert np.array_equal(got, bf.make_rho(pair, zero, one)(pts))
