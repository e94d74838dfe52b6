"""End-to-end acceptance checks for the toolkit's headline guarantees.

Each test exercises one guarantee at desk scale and records a one-line
verdict that is echoed in the terminal summary.
"""

import math

import numpy as np
import pytest

import boxflow as bf
from boxflow import cli
from boxflow.grid import BoxSet
from boxflow.pairs import _march_quotient

from conftest import sample_in_boxes


def _march_values(system, pair, field, pts, t):
    """Field values after marching the quotient flow for time t."""
    steps = int(round(t / 0.05))
    positions, absorbed, _ = _march_quotient(system, pair, pts, steps, 0.05)
    vals = field.evaluate(system, positions[-1])
    vals[absorbed[-1]] = 0.0
    return vals


def test_exit_time_closed_form(saddle, acceptance_log):
    xs = np.concatenate([np.arange(1, 10), -np.arange(1, 10)]) / 10.0
    errs = [abs(bf.exit_time(saddle.system, saddle.hand_pair, np.array([x]))
                - math.log(1.0 / abs(x))) for x in xs]
    reg = bf.regularity_check(saddle.system, saddle.hand_pair,
                              rng=np.random.default_rng(0))
    ok = max(errs) < 1e-3 and reg.passed and len(reg.violations) == 0
    acceptance_log(
        f"1 exit-time closed form:      {'PASS' if ok else 'FAIL'} "
        f"(max error {max(errs):.2e}, regularity violations {len(reg.violations)})")
    assert max(errs) < 1e-3
    assert reg.passed and len(reg.violations) == 0


def test_chain_recurrence_against_the_oracle(doublewell, acceptance_log):
    graph = bf.build_transition_graph(doublewell.system, doublewell.grid, 0.6)
    recurrent = bf.chain_recurrent_boxes(graph, doublewell.region)
    cr = set(recurrent.ids.tolist())
    assert cr == set(range(62, 66)) | set(range(126, 130)) | set(range(190, 194))

    width = 4.0 / 256
    eps = 2 * width
    pts = np.linspace(-2.0, 2.0, 201)[:, None]
    flagged_pts = bf.epsilon_chain_oracle(doublewell.system, pts, eps,
                                          t_max=10.0)
    flagged = set(int(b) for b in doublewell.grid.box_of(flagged_pts).tolist())
    assert flagged == {62, 64, 65, 128, 190, 192, 193}

    inside = flagged <= cr
    equilibria = np.array([-1.0, 0.0, 1.0])
    near = all(np.abs(equilibria - p[0]).min() < 1.5 * eps for p in flagged_pts)
    covered = all(any(abs(q[0] - e) < 1.5 * eps for q in flagged_pts)
                  for e in equilibria)
    sym = cr ^ flagged
    adjacent = all(min(abs(b - f) for f in flagged) <= 2 for b in sym)
    ok = inside and near and covered and adjacent
    acceptance_log(
        f"2 chain recurrence vs SCC:    {'PASS' if ok else 'FAIL'} "
        f"(flagged {len(flagged)} boxes, mismatch {len(sym)} boxes)")
    assert inside and near and covered and adjacent


def test_pair_lyapunov_zero_one_sets(doublewell, acceptance_log):
    field = doublewell.pair_field
    ar = doublewell.ar
    pair = doublewell.pair
    att_max = max(field.value_of_box(b) for b in ar.attractor.ids.tolist())
    rep_min = min(field.value_of_box(b) for b in ar.repeller.ids.tolist())
    on_l = [field.value_of_box(b) for b in pair.L.ids.tolist()]
    basepoint_val = float(field.evaluate(doublewell.system,
                                         np.array([[1.8]]))[0])

    # decrease is strict only off the pinned zero/one regions, so samples
    # keep two boxes of clearance from both of them
    banned = doublewell.grid.dilate(
        ar.alpha.union(ar.omega).union(pair.L), 2)
    allowed = pair.core.difference(banned)
    rng = np.random.default_rng(0)
    pts = sample_in_boxes(rng, doublewell.grid, allowed, 100)
    g0 = field.evaluate(doublewell.system, pts)
    g1 = _march_values(doublewell.system, pair, field, pts, 1.0)
    strict = bool(np.all(g1 < g0 - 1e-4))

    ok = (att_max < 0.05 and rep_min > 0.95 and all(v == 0.0 for v in on_l)
          and basepoint_val == 0.0 and strict)
    acceptance_log(
        f"3 pair zero/one sets:         {'PASS' if ok else 'FAIL'} "
        f"(attractor max {att_max:.4f}, repeller min {rep_min:.4f}, "
        f"strict decrease {'yes' if strict else 'no'})")
    assert att_max < 0.05
    assert rep_min > 0.95
    assert all(v == 0.0 for v in on_l) and basepoint_val == 0.0
    assert strict


def test_morse_sum_levels_and_monotonicity(doublewell, acceptance_log):
    field = doublewell.morse_field
    mg = doublewell.mg
    devs = []
    for i, m in enumerate(mg.morse_sets, start=1):
        vals = [field.value_of_box(b) for b in m.ids.tolist()]
        devs.append(max(abs(v - i) for v in vals))
    on_l = [field.value_of_box(b) for b in doublewell.pair.L.ids.tolist()]

    rng = np.random.default_rng(1)
    pts = sample_in_boxes(rng, doublewell.grid, doublewell.pair.core, 500)
    g0 = field.evaluate(doublewell.system, pts)
    mono = True
    for t in (0.5, 1.0, 2.0):
        gt = _march_values(doublewell.system, doublewell.pair, field, pts, t)
        mono = mono and bool(np.all(gt <= g0 + 1e-6))

    ok = max(devs) < 0.1 and all(v == 0.0 for v in on_l) and mono
    acceptance_log(
        f"4 Morse-sum levels:           {'PASS' if ok else 'FAIL'} "
        f"(max |g(M_i) - i| = {max(devs):.4f}, monotone {'yes' if mono else 'no'})")
    assert max(devs) < 0.1
    assert all(v == 0.0 for v in on_l)
    assert mono


def test_filtration_extraction(doublewell, acceptance_log, tmp_path, capsys):
    filtration, report = bf.extract_filtration(
        doublewell.system, doublewell.morse_field, rng=np.random.default_rng(0))
    levels = filtration.levels
    nested = all(levels[k - 1].issubset(levels[k]) for k in range(1, len(levels)))
    revalidated = all(
        bf.validate_index_pair(
            doublewell.graph,
            bf.IndexPair(doublewell.grid, levels[k], levels[k - 1])).passed
        for k in range(1, len(levels)))
    sampled_clean = all(e["regularity"]["violations"] == [] for e in report)

    code = cli.main(["filtration", "--system", "doublewell1d", "--depth", "8",
                     "--out", str(tmp_path / "filt8")])
    err = capsys.readouterr().err
    control = code == 1 and "failed at level 2" in err

    ok = len(levels) == 4 and nested and revalidated and sampled_clean and control
    acceptance_log(
        f"5 regular filtration:         {'PASS' if ok else 'FAIL'} "
        f"(4 nested levels {'yes' if nested and len(levels) == 4 else 'no'}, "
        f"coarse control exits 1 naming level 2 {'yes' if control else 'no'})")
    assert len(levels) == 4 and nested
    assert revalidated and sampled_clean
    assert control


def test_complete_lyapunov_on_the_limit_cycle(hopf, acceptance_log):
    field = hopf.complete_field
    mg = hopf.mg
    cycle = max(mg.morse_sets, key=len)
    cycle_vals = np.array([field.value_of_box(b) for b in cycle.ids.tolist()])
    spread = float(cycle_vals.max() - cycle_vals.min())

    origin_class = min(
        mg.morse_sets,
        key=lambda m: np.linalg.norm(hopf.grid.centers(m.ids), axis=1).max())
    origin_min = min(field.value_of_box(b) for b in origin_class.ids.tolist())
    gap = origin_min - float(cycle_vals.max())

    banned = hopf.grid.dilate(hopf.recurrent.union(hopf.pair.L), 2)
    allowed = hopf.pair.core.difference(banned)
    rng = np.random.default_rng(2)
    pts = sample_in_boxes(rng, hopf.grid, allowed, 50)
    g0 = field.evaluate(hopf.system, pts)
    g1 = _march_values(hopf.system, hopf.pair, field, pts, 1.0)
    strict = bool(np.all(g1 < g0 - 1e-4))

    res = max(bf.renewal_residual(hopf.system, field, x, 1.0)
              for x in sample_in_boxes(rng, hopf.grid, allowed, 5))

    ok = spread < 0.05 and gap >= 0.1 and strict and res < 2e-3
    acceptance_log(
        f"6 complete Lyapunov (cycle):  {'PASS' if ok else 'FAIL'} "
        f"(cycle spread {spread:.4f}, origin gap {gap:.3f}, "
        f"renewal residual {res:.2e})")
    assert spread < 0.05
    assert gap >= 0.1
    assert strict
    assert res < 2e-3


def test_recurrent_set_equals_intersection(doublewell, gradient, hopf,
                                           acceptance_log):
    contract = bf.builtin_system("contract1d")
    cgrid = bf.build_grid(contract.domain, (256,))
    cgraph = bf.build_transition_graph(contract, cgrid, 1.0)
    cregion = cgrid.all_boxes()
    cmg = bf.morse_graph(cgraph, cregion)
    cases = [("contract1d", cmg), ("doublewell1d", doublewell.mg),
             ("gradient2d", gradient.mg), ("hopf2d", hopf.mg)]
    mismatches = {}
    for name, mg in cases:
        rep = bf.check_R_equals_intersection(mg)
        mismatches[name] = len(rep.symmetric_difference)
    ok = all(v == 0 for v in mismatches.values())
    acceptance_log(
        f"7 R equals the intersection:  {'PASS' if ok else 'FAIL'} "
        f"(mismatches: {mismatches})")
    assert all(v == 0 for v in mismatches.values())


def test_uniform_entry_time(doublewell, acceptance_log):
    grid = doublewell.grid
    pair = doublewell.pair
    ar = doublewell.ar
    centers = grid.centers(pair.core.ids)[:, 0]
    B = BoxSet(pair.core.ids[(centers >= -0.7) & (centers <= -0.3)])
    U = grid.dilate(ar.alpha, 2).union(pair.L)
    T = bf.uniform_entry_time(doublewell.system, pair, B, U, n_samples=50,
                              horizon=20.0, rng=np.random.default_rng(0),
                              alpha_region=ar.alpha, omega_region=ar.omega)
    finite = math.isfinite(T) and 0.0 < T < 20.0

    # independent confirmation: march fresh samples and require every
    # quotient sample from T to the horizon to sit inside U
    rng = np.random.default_rng(123)
    pts = sample_in_boxes(rng, grid, B, 20)
    steps = int(round(6.0 / 0.05))
    positions, absorbed, _ = _march_quotient(doublewell.system, pair, pts,
                                             steps, 0.05)
    u_mask = U.mask(grid.n_boxes)
    stays = True
    first = int(math.ceil(T / 0.05))
    for k in range(first, steps + 1):
        boxes = grid.box_of(positions[k])
        inside = absorbed[k] | (boxes >= 0) & u_mask[np.maximum(boxes, 0)]
        stays = stays and bool(inside.all())

    ok = finite and abs(T - 2.3) < 0.2 and stays
    acceptance_log(
        f"8 uniform entry time:         {'PASS' if ok else 'FAIL'} "
        f"(T = {T}, confirmed on fresh samples {'yes' if stays else 'no'})")
    assert finite and abs(T - 2.3) < 0.2
    assert stays


def test_verify_reports_are_byte_identical(tmp_path, acceptance_log):
    system = bf.builtin_system("doublewell1d")
    rep1 = bf.run_suite(system, (256,), seed=7)
    rep2 = bf.run_suite(system, (256,), seed=7)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    rep1.to_json(p1)
    rep2.to_json(p2)
    same = open(p1, "rb").read() == open(p2, "rb").read()
    ok = same and rep1.passed
    acceptance_log(
        f"9 byte-identical verify runs: {'PASS' if ok else 'FAIL'} "
        f"(identical {'yes' if same else 'no'}, suite passed "
        f"{'yes' if rep1.passed else 'no'})")
    assert same
    assert rep1.passed
