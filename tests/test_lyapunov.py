"""Lyapunov constructions: envelopes, discounted averages, fields, filtrations."""

import math
import tracemalloc

import numpy as np
import pytest

import boxflow as bf
from numpy.testing import assert_array_equal

from boxflow import lyapunov
from boxflow.errors import CapacityError, FiltrationError, IngestionError, PreconditionError
from boxflow.grid import BoxSet
from boxflow.lyapunov import (CenterTable, Filtration, LyapunovField, LyapunovParams,
                              _QuotientSamples, _renewal_steps)
from boxflow.pairs import BASEPOINT, _march_quotient

from conftest import (_bundle, _discounted_average_oracle, _sup_envelope_oracle,
                      sample_in_boxes)


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
    with pytest.raises(PreconditionError):
        LyapunovParams(dt=math.nan)
    with pytest.raises(PreconditionError):
        LyapunovParams(t_max=math.inf)
    # 14 / 1e-320 overflows, so no step count exists
    with pytest.raises(CapacityError):
        LyapunovParams(dt=1e-320)


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


@pytest.mark.parametrize("case", ["zero-set", "absorbed", "escape"])
def test_discounted_average_equals_the_per_step_oracle(envelope_cases, case):
    # orbits that stay in N−L, start in L, leave N−L or leave the domain
    system, pair, _, _ = envelope_cases[case]

    def h_fn(p):
        return min(1.0, abs(float(p[0])))

    for x0 in (-0.99, -0.49, -0.3, 0.0, 0.2, 0.45, 0.9):
        x = np.array([x0])
        got = bf.discounted_average(system, pair, h_fn, x, dt=0.1, t_max=4.0)
        assert got == _discounted_average_oracle(system, pair, h_fn, x, dt=0.1, t_max=4.0)
    assert bf.discounted_average(system, pair, h_fn, BASEPOINT) == 0.0


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


@pytest.mark.parametrize("case", ["zero-set", "horizon", "absorbed", "escape"])
def test_batched_sup_envelope_equals_the_single_point_oracle(envelope_cases, case):
    system, pair, rho_fn, horizon = envelope_cases[case]
    lo, hi = system.domain[0]
    pts = np.linspace(lo - 0.05, hi + 0.05, 41)[:, None]
    h, converged = bf.sup_envelope(system, pair, rho_fn, pts, horizon=horizon)
    expected = [_sup_envelope_oracle(system, pair, rho_fn, x, horizon=horizon)
                for x in pts]
    np.testing.assert_array_equal(h, [e[0] for e in expected])
    np.testing.assert_array_equal(converged, [e[1] for e in expected])
    assert converged.dtype == bool
    # rows outside the domain or outside N−L stay at 0 and count as converged
    assert h[0] == 0.0 and converged[0] and h[-1] == 0.0 and converged[-1]
    # only the horizon case leaves rows marching, except the saddle's fixed
    # point x = 0 (row 20), which neither escapes nor gets absorbed
    marching = {"zero-set": [], "horizon": list(range(1, 40))}.get(case, [20])
    assert np.flatnonzero(~converged).tolist() == marching
    one = bf.sup_envelope(system, pair, rho_fn, pts[20], horizon=horizon)
    assert one == expected[20] and isinstance(one[0], float)


@pytest.mark.parametrize("case", ["zero-set", "horizon", "absorbed", "escape"])
def test_window_envelopes_equal_sup_envelope_at_the_points_and_their_images(envelope_cases,
                                                                            case):
    system, pair, rho_fn, horizon = envelope_cases[case]
    dt = 0.05
    n = int(math.ceil(horizon / dt - 1e-9))
    lo, hi = system.domain[0]
    pts = np.linspace(lo - 0.05, hi + 0.05, 41)[:, None]
    positions, absorbed, boxes = _march_quotient(system, pair, pts, 1 + n, dt)
    samples = _QuotientSamples(pair, positions, absorbed, boxes)
    for k in (0, 1):
        h, converged = samples.envelope(rho_fn, k, n)
        live = ~absorbed[k]
        ref_h, ref_c = bf.sup_envelope(system, pair, rho_fn, positions[k][live],
                                       dt=dt, horizon=horizon)
        np.testing.assert_array_equal(h[live], ref_h)
        np.testing.assert_array_equal(converged[live], ref_c)
        one = [_sup_envelope_oracle(system, pair, rho_fn, x, dt=dt, horizon=horizon)
               for x in positions[k][live]]
        np.testing.assert_array_equal(h[live], [e[0] for e in one])
        np.testing.assert_array_equal(converged[live], [e[1] for e in one])
        # an absorbed image has h = 0 and counts as converged
        np.testing.assert_array_equal(h[~live], 0.0)
        assert converged[~live].all()
    assert live.any() and (~live).any()


def test_window_envelopes_ignore_samples_after_the_zero_set_entry():
    # the saddle pushes orbits out of a zero set flagged forward closed, so
    # the samples after the first entry carry ρ > 0 and must not count
    system = bf.builtin_system("saddle1d")
    grid = bf.build_grid(system.domain, (64,))
    pair = bf.IndexPair.from_boxes(grid, grid.all_boxes().ids, [])
    rho_fn = bf.make_rho(pair, BoxSet([30, 31, 32, 33]), BoxSet([0, 1, 62, 63]))
    rho_fn.zero_forward_closed = True
    pts = np.linspace(-0.1, 0.1, 9)[:, None]
    positions, absorbed, boxes = _march_quotient(system, pair, pts, 1 + 40, 0.05)
    samples = _QuotientSamples(pair, positions, absorbed, boxes)
    everything = samples.rho(rho_fn)
    for k in (0, 1):
        h, converged = samples.envelope(rho_fn, k, 40)
        one = [_sup_envelope_oracle(system, pair, rho_fn, x, horizon=2.0) for x in positions[k]]
        np.testing.assert_array_equal(h, [e[0] for e in one])
        np.testing.assert_array_equal(converged, [e[1] for e in one])
        assert (h < everything[k:k + 41].max(axis=0)).any()


def test_batched_sup_envelope_with_no_row_in_the_core(envelope_cases):
    system, pair, rho_fn, _ = envelope_cases["absorbed"]
    h, converged = bf.sup_envelope(system, pair, rho_fn, np.array([[-0.49], [0.9]]))
    np.testing.assert_array_equal(h, [0.0, 0.0])
    assert converged.all()
    assert bf.sup_envelope(system, pair, rho_fn, BASEPOINT) == (0.0, True)


def test_batch_field_matches_pointwise_composition():
    # route one: the field engine marches each center once and suffix-sups;
    # route two: compose the public envelope with the single-point
    # discounted average oracle, which marches one _advance per step
    system = bf.builtin_system("doublewell1d")
    grid = bf.build_grid(system.domain, (64,))
    graph = bf.build_transition_graph(system, grid, 1.0)
    region = grid.all_boxes()
    mg = bf.morse_graph(graph, region)
    pair = bf.build_index_pair(mg)
    ar = bf.ar_regions_in_pair(mg, frozenset({1}))
    params = LyapunovParams(dt=0.1, t_max=6.0)
    field = bf.pair_lyapunov(system, pair, ar, params=params)
    rho_fn = field.profiles[0][1]

    def h_fn(p):
        if p is BASEPOINT:
            return 0.0
        h, _ = bf.sup_envelope(system, pair, rho_fn, np.asarray(p, dtype=float),
                               dt=0.1, horizon=8.0)
        return h

    for x0 in (-0.55, 0.2):
        direct = _discounted_average_oracle(system, pair, h_fn, np.array([x0]),
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
    pairs = bf.enumerate_ar_pairs(doublewell.mg)
    parts = [bf.pair_lyapunov(doublewell.system, doublewell.pair,
                              ar._replace(alpha=ar.attractor, omega=ar.repeller))
             for ar in pairs]
    expected = sum(0.5 ** i * f.values for i, f in enumerate(parts, start=1))
    complete = bf.complete_lyapunov(doublewell.system, doublewell.pair,
                                    doublewell.mg)
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


def test_batched_renewal_residual_equals_per_point_calls(doublewell):
    rng = np.random.default_rng(3)
    core = sample_in_boxes(rng, doublewell.grid, doublewell.pair.core, 6)
    # rows outside N start absorbed
    pts = np.concatenate([core, [[-1.9], [1.95]]])
    for field in (doublewell.morse_field, doublewell.pair_field):
        got = bf.renewal_residual(doublewell.system, field, pts, 1.0)
        expected = [bf.renewal_residual(doublewell.system, field, x, 1.0)
                    for x in pts]
        assert all(isinstance(e, float) for e in expected)
        np.testing.assert_array_equal(got, expected)
        assert got[-2:].tolist() == [0.0, 0.0]


def test_evaluate_does_not_depend_on_the_batch(doublewell):
    # one point alone, two at a time and thirty together add their
    # quadrature and profile terms in the same order, so the bits agree
    complete = bf.complete_lyapunov(doublewell.system, doublewell.pair,
                                    doublewell.mg)
    rng = np.random.default_rng(11)
    pts = sample_in_boxes(rng, doublewell.grid, doublewell.pair.core, 30)
    for field in (doublewell.morse_field, complete):
        batch = field.evaluate(doublewell.system, pts)
        singles = [field.evaluate(doublewell.system, x) for x in pts]
        np.testing.assert_array_equal(np.array(singles), batch)
        pairs = np.concatenate([field.evaluate(doublewell.system, pts[i:i + 2])
                                for i in range(0, 30, 2)])
        np.testing.assert_array_equal(pairs, batch)


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
        doublewell.system, doublewell.morse_field, rng=np.random.default_rng(0))
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
        bf.extract_filtration(doublewell.system, doublewell.pair_field)


def test_coarse_grid_fails_with_a_named_level():
    system = bf.builtin_system("doublewell1d")
    grid = bf.build_grid(system.domain, (8,))
    graph = bf.build_transition_graph(system, grid, 1.0)
    region = grid.all_boxes()
    mg = bf.morse_graph(graph, region)
    pair = bf.build_index_pair(mg)
    field = bf.morse_lyapunov(system, pair, mg)
    with pytest.raises(FiltrationError) as exc:
        bf.extract_filtration(system, field, rng=np.random.default_rng(0))
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

    def brute_min(grid, first, second):
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
    pair = bf.build_index_pair(mg)
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


@pytest.fixture(scope="module", params=[("doublewell1d", (256,)), ("saddle1d", (64,)),
                                        ("hopf2d", (32, 32))],
                ids=["doublewell1d-256", "saddle1d-64", "hopf2d-32"])
def field_case(request):
    """A pipeline bundle with its pair, Morse-sum and complete fields, each
    field built alone; saddle1d 64 is the one with a nonempty L."""
    b = _bundle(*request.param)
    b.pair = bf.build_index_pair(b.mg)
    b.fields = []
    if b.mg.n >= 2:
        ar = bf.ar_regions_in_pair(b.mg, frozenset({1}))
        b.fields.append(bf.pair_lyapunov(b.system, b.pair, ar))
    b.fields.append(bf.morse_lyapunov(b.system, b.pair, b.mg))
    b.fields.append(bf.complete_lyapunov(b.system, b.pair, b.mg))
    rng = np.random.default_rng(5)
    # core samples, then samples outside N−L, which start absorbed
    b.points = np.concatenate([
        sample_in_boxes(rng, b.grid, b.pair.core, 30),
        sample_in_boxes(rng, b.grid, b.grid.all_boxes().difference(b.pair.core), 6)])
    return b


def test_fields_evaluate_to_their_own_values_at_the_core_centers(field_case):
    # the builders read g off one march of the core box centers, evaluate
    # off a march of the points it is given: at the centers the bits agree
    b = field_case
    for field in b.fields:
        assert_array_equal(field.evaluate(b.system, b.grid.centers(field.boxes)),
                           field.values)


def test_probe_windows_equal_evaluate_at_the_marched_images(field_case):
    b = field_case
    params = LyapunovParams()
    _, n_total = params.steps()
    ks = [1, 10, 20, 40, 100]
    positions, absorbed, boxes = _march_quotient(b.system, b.pair, b.points,
                                                 max(ks) + n_total, params.dt)
    samples = _QuotientSamples(b.pair, positions, absorbed, boxes)
    assert absorbed[0, 30:].all()
    if b.pair.L:
        assert (absorbed[max(ks)] & ~absorbed[0]).any()
    for field in b.fields:
        g0 = samples.g(field.profiles, field.params)
        assert_array_equal(g0, field.evaluate(b.system, b.points))
        for k in ks:
            gk = samples.g(field.profiles, field.params, k)
            live = ~absorbed[k]
            expected = np.zeros(b.points.shape[0])
            expected[live] = field.evaluate(b.system, positions[k][live])
            assert_array_equal(gk, expected)


def test_fields_from_one_center_table_equal_fields_built_alone(field_case):
    b = field_case
    params = LyapunovParams()
    table = CenterTable(b.system, b.pair, params)
    shared = []
    if b.mg.n >= 2:
        ar = bf.ar_regions_in_pair(b.mg, frozenset({1}))
        shared.append(bf.pair_lyapunov(b.system, b.pair, ar, params, table=table))
    shared.append(bf.morse_lyapunov(b.system, b.pair, b.mg, params, table=table))
    shared.append(bf.complete_lyapunov(b.system, b.pair, b.mg, params, table=table))
    for together, alone in zip(shared, b.fields):
        assert_array_equal(together.values, alone.values)
        assert together == alone
    # one g column per distinct (Z, R), and the complete field reuses some
    keys = {(fn.zero_set, fn.one_set) for f in shared for _, fn in f.profiles}
    assert len(table._g) == len(keys) < sum(len(f.profiles) for f in shared)
    with pytest.raises(PreconditionError):
        bf.morse_lyapunov(b.system, b.pair, b.mg, LyapunovParams(t_max=6.0), table=table)


def test_renewal_from_a_shared_march_prefix_equals_renewal_residual(field_case):
    b = field_case
    params = LyapunovParams()
    _, n_total = params.steps()
    k_t = _renewal_steps(params, 1.0)
    samples = _QuotientSamples(b.pair, *_march_quotient(b.system, b.pair, b.points,
                                                        n_total + k_t + 20, params.dt))
    for field in b.fields:
        assert_array_equal(samples.renewal(field, k_t),
                           bf.renewal_residual(b.system, field, b.points, 1.0))


def _saddle_march_case():
    """saddle1d with N all 64 boxes and L the boxes 6-8 and 55-57, a pair
    whose profiles measure distances to L: rows start outside the domain or
    in L (absorbed at sample 0), enter L part way, or leave the domain past
    L (escapes, which the march steps through _advance)."""
    system = bf.builtin_system("saddle1d")
    grid = bf.build_grid(system.domain, (64,))
    pair = bf.IndexPair.from_boxes(grid, grid.all_boxes().ids, [6, 7, 8, 55, 56, 57])
    pts = np.concatenate([[-1.05, -0.75, 0.73], np.linspace(-0.7, 0.7, 21),
                          np.linspace(0.82, 0.99, 6)])[:, None]
    params = LyapunovParams(t_max=2.0, settle=0.5)
    one = bf.make_rho(pair, BoxSet([30, 31, 32, 33]), BoxSet([0, 1, 62, 63]))
    one.zero_forward_closed = True
    profiles = [(1.0, one), (0.5, bf.make_rho(pair, BoxSet([]), BoxSet([20, 40]))),
                (0.25, bf.make_rho(pair, BoxSet([25, 26]), BoxSet([]))),
                (0.125, bf.make_rho(pair, BoxSet([10, 50]), BoxSet([29, 35])))]
    field = LyapunovField(pair=pair, construction="test", boxes=pair.core.ids,
                          values=np.zeros(len(pair.core)), range_hint=(0.0, 2.0),
                          params=params, profiles=profiles)
    return system, pts, field


def _doublewell_march_case():
    """doublewell1d 64 with its index pair and Morse-sum field; the points
    are core samples and samples outside N−L."""
    b = _bundle("doublewell1d", (64,))
    pair = bf.build_index_pair(b.mg)
    params = LyapunovParams(t_max=3.0, settle=1.0)
    field = bf.morse_lyapunov(b.system, pair, b.mg, params)
    rng = np.random.default_rng(7)
    pts = np.concatenate([sample_in_boxes(rng, b.grid, pair.core, 25),
                          sample_in_boxes(rng, b.grid, b.grid.all_boxes().difference(pair.core), 4)])
    return b.system, pts, field


@pytest.mark.parametrize("case", ["doublewell1d-64", "saddle1d-escapes"])
def test_row_blocks_give_the_bits_of_one_block(monkeypatch, case):
    system, pts, field = (_doublewell_march_case() if case == "doublewell1d-64"
                          else _saddle_march_case())
    params = field.params
    _, n_total = params.steps()
    k_t = _renewal_steps(params, 0.25)
    n_samples = n_total + 10 + 1
    march = _march_quotient(system, field.pair, pts, n_samples - 1, params.dt)
    positions, absorbed, _ = march
    first = np.where(absorbed.any(axis=0), absorbed.argmax(axis=0), n_samples)
    assert (first == 0).any()
    if case == "saddle1d-escapes":
        assert ((0 < first) & (first < n_samples)).sum() >= 10
        escaped = absorbed[-1] & field.pair._core_mask[field.pair.grid.box_of(positions[-1])]
        assert escaped.sum() >= 3

    def read(block):
        monkeypatch.setattr(lyapunov, "SAMPLE_BLOCK", block)
        samples = _QuotientSamples(field.pair, *march)
        kept = _QuotientSamples(field.pair, *march, keep_rho=True)
        out = [kept.rho(fn) for _, fn in field.profiles]
        for reader in (samples, kept):
            for _, fn in field.profiles:
                out.extend(reader.envelope(fn, 3, n_total - 5))
            out.append(reader.renewal(field, k_t))
            out.append(reader.g(field.profiles, params, 4))
        out.append(field.evaluate(system, pts))
        return out

    whole = read(1 << 40)
    # one row per block, and blocks of four rows with a shorter last one
    for block in (n_samples, n_samples - 1, 4 * n_samples + 3):
        assert len(range(0, pts.shape[0], max(1, block // n_samples))) > 1
        for got, expected in zip(read(block), whole):
            assert_array_equal(got, expected)


def test_center_table_row_blocks_give_the_bits_of_one_block(monkeypatch):
    b = _bundle("hopf2d", (16, 16))
    pair = bf.build_index_pair(b.mg)
    params = LyapunovParams()
    morse = bf.morse_lyapunov(b.system, pair, b.mg, params)
    complete = bf.complete_lyapunov(b.system, pair, b.mg, params)
    n_samples = params.steps()[1] + 1
    assert len(pair.core) % 3

    def g(block):
        monkeypatch.setattr(lyapunov, "SAMPLE_BLOCK", block)
        table = CenterTable(b.system, pair, params)
        return [table.g(morse.profiles, params), table.g(complete.profiles, params)]

    whole = g(1 << 40)
    assert_array_equal(whole[0], morse.values)
    assert_array_equal(whole[1], complete.values)
    for block in (n_samples, 3 * n_samples):
        for got, expected in zip(g(block), whole):
            assert_array_equal(got, expected)


def test_a_morse_field_build_holds_a_few_times_its_march(hopf):
    # the readers hold one row block of samples at a time, so the build
    # peaks at a few times the march's positions array above what was live
    # before it; readers that took whole arrays of every sample peaked at
    # 6.8 times
    params = LyapunovParams()
    positions = (params.steps()[1] + 1) * len(hopf.pair.core) * hopf.grid.dimension * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bf.morse_lyapunov(hopf.system, hopf.pair, hopf.mg, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert positions > 4e6 and peak - before <= 4 * positions, (peak - before) / positions
