"""The self-check suite and its report artifact."""

import math

import numpy as np
import pytest

import boxflow as bf
from boxflow import verify
from boxflow.errors import IngestionError
from boxflow.verify import CheckResult, _clean

from conftest import _bundle, _orbit_checks_oracle, _reach_ok_oracle

CHECK_NAMES = [
    "flow_semigroup", "flow_equilibria", "flow_determinism",
    "graph_outer_soundness", "invariant_idempotent", "morse_admissible_order",
    "ar_duality", "attractor_forward_invariance", "recurrence_intersection",
    "oracle_agreement", "index_pair_valid", "exit_time_closed_form",
    "pair_regularity", "pair_retraction", "lyapunov_fixed_point",
    "lyapunov_renewal", "lyapunov_monotone", "lyapunov_strict_decrease",
    "lyapunov_levels", "limit_cycle_constancy", "filtration_soundness",
    "artifact_roundtrip",
]


@pytest.fixture(scope="module")
def saddle_report():
    return bf.run_suite(bf.builtin_system("saddle1d"), (64,), seed=0)


def test_suite_passes_on_the_saddle(saddle_report):
    assert saddle_report.passed
    for c in saddle_report.checks:
        if c.applicable:
            assert c.passed, c.name


def test_suite_layout_is_stable(saddle_report):
    assert [c.name for c in saddle_report.checks] == CHECK_NAMES


def test_exit_time_check_uses_the_closed_form(saddle_report):
    c = saddle_report.check("exit_time_closed_form")
    assert c.applicable
    assert c.measured["max_abs_error"] < 1e-3


def test_inapplicable_checks_are_skipped(saddle_report):
    c = saddle_report.check("limit_cycle_constancy")
    assert not c.applicable
    assert c.verdict == "skip"
    assert saddle_report.check("oracle_agreement").applicable


def _drift():
    """x' = 1 on [-1, 1]: no recurrence and an empty invariant part."""
    return bf.FlowSystem(dimension=1, field=lambda p: np.ones_like(p),
                         domain=[[-1.0, 1.0]], name="drift")


def test_suite_passes_on_a_system_without_recurrence():
    report = bf.run_suite(_drift(), (16,), seed=0)
    assert report.passed
    oracle = report.check("oracle_agreement")
    assert oracle.applicable and oracle.passed
    assert oracle.measured["clusters"] == 0 and oracle.measured["flagged_points"] == 0
    pair = report.check("index_pair_valid")
    assert not pair.applicable
    assert pair.detail == "the region has an empty invariant part"


def test_oracle_flag_outside_the_recurrent_boxes_fails(monkeypatch):
    monkeypatch.setattr(verify, "epsilon_chain_oracle",
                        lambda system, pts, *args, **kwargs: pts[:1])
    oracle = bf.run_suite(_drift(), (16,), seed=0).check("oracle_agreement")
    assert oracle.applicable and not oracle.passed
    assert oracle.measured["flagged_outside_recurrent"] == 1


def test_pair_touching_the_boundary_layer_fails():
    # x' = -x on [0, 1] has its fixed point on the domain's edge
    system = bf.FlowSystem(dimension=1, field=lambda p: -p, domain=[[0.0, 1.0]],
                           name="edge")
    report = bf.run_suite(system, (16,), seed=0)
    pair = report.check("index_pair_valid")
    assert pair.applicable and not pair.passed
    assert "boundary layer" in pair.detail
    assert not report.passed


def test_report_round_trip(tmp_path, saddle_report):
    path = tmp_path / "verify.json"
    saddle_report.to_json(str(path))
    loaded = bf.VerifyReport.from_json(str(path))
    assert loaded == saddle_report
    assert loaded.passed == saddle_report.passed


def test_report_text_rendering(saddle_report):
    text = saddle_report.to_text()
    assert "result: PASS" in text
    for name in ("flow_semigroup", "artifact_roundtrip"):
        assert name in text


def test_unknown_check_name_raises(saddle_report):
    with pytest.raises(KeyError):
        saddle_report.check("nonexistent")


def test_report_ingestion_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    with pytest.raises(IngestionError):
        bf.VerifyReport.from_json(str(bad))
    missing = tmp_path / "missing.json"
    missing.write_text("{}")
    with pytest.raises(IngestionError):
        bf.VerifyReport.from_json(str(missing))


def test_check_result_serialization():
    c = CheckResult(name="x", passed=True, applicable=True,
                    measured={"err": 0.5}, tolerance=1.0, detail="d")
    assert c.verdict == "pass"
    assert CheckResult.from_dict(c.to_dict()) == c
    skipped = CheckResult(name="y", passed=True, applicable=False,
                          measured={}, tolerance=None, detail="d")
    assert skipped.verdict == "skip"
    failed = CheckResult(name="z", passed=False, applicable=True,
                         measured={}, tolerance=None, detail="d")
    assert failed.verdict == "FAIL"


def test_clean_maps_non_finite_to_none():
    assert _clean(float("nan")) is None
    assert _clean(float("inf")) is None
    assert _clean(np.float64(2.5)) == 2.5
    assert isinstance(_clean(np.float64(2.5)), float)
    assert _clean(np.int64(3)) == 3
    assert _clean("text") == "text"
    assert _clean(1.25) == 1.25
    assert _clean(math.inf) is None


def _built_alone(builder):
    """The field builder, marching its own core centers instead of a shared table."""
    def build(*args, table=None, **kwargs):
        return builder(*args, **kwargs)
    return build


@pytest.mark.parametrize("name,depth,seed", [("doublewell1d", (256,), 0),
                                             ("saddle1d", (64,), 0),
                                             ("hopf2d", (32, 32), 3)])
def test_suite_equals_the_per_check_march_oracle(monkeypatch, name, depth, seed):
    system = bf.builtin_system(name)
    shared = bf.run_suite(system, depth, seed=seed).to_dict()
    assert all(c["applicable"] for c in shared["checks"]
               if c["name"] in ("lyapunov_renewal", "lyapunov_monotone",
                                "lyapunov_strict_decrease"))
    monkeypatch.setattr(verify, "_orbit_checks", _orbit_checks_oracle)
    for builder in ("pair_lyapunov", "morse_lyapunov", "complete_lyapunov"):
        monkeypatch.setattr(verify, builder, _built_alone(getattr(verify, builder)))
    assert bf.run_suite(system, depth, seed=seed).to_dict() == shared


@pytest.mark.parametrize("name,depth", [("hopf2d", (32, 32)), ("doublewell1d", (256,)),
                                        ("gradient2d", (16, 16))])
def test_attractor_edge_violations_equal_the_per_box_loop(name, depth):
    b = _bundle(name, depth)
    measured = {}

    def add(check, passed, applicable, values, tolerance, detail):
        measured[check] = values
    verify._recurrence_checks(b.mg, add)

    src, dst = b.graph.edge_arrays()
    inv_mask = b.mg.invariant.mask(b.grid.n_boxes)
    inv_ids = b.mg.invariant.ids
    expected = 0
    connecting_ok = set()
    for ar in bf.enumerate_ar_pairs(b.mg):
        if not ar.attractor:
            continue
        reach_ok = _reach_ok_oracle(b.mg, ar.down_set)
        np.testing.assert_array_equal(
            reach_ok[inv_ids],
            b.mg.reaching_only(ar.down_set).mask(b.grid.n_boxes)[inv_ids])
        connecting_ok.update(reach_ok[list(b.mg.connecting)].tolist())
        sel = ar.attractor.mask(b.grid.n_boxes)[src] & (dst >= 0) & inv_mask[np.maximum(dst, 0)]
        expected += int((sel & ~reach_ok[np.maximum(dst, 0)]).sum())
    assert measured["attractor_forward_invariance"]["edge_violations"] == expected
    if name == "doublewell1d":
        # connecting boxes take both verdicts, so their class bits are exercised
        assert connecting_ok == {True, False}


@pytest.mark.parametrize("name,depth,seed,levels", [("doublewell1d", (256,), 0, 3),
                                                    ("doublewell1d", (256,), 7, 3),
                                                    ("saddle1d", (64,), 0, 1),
                                                    ("gradient2d", (32, 32), 0, 1),
                                                    ("contract1d", (256,), 0, 1)])
def test_suite_equals_a_run_that_judges_each_regularity_draw_alone(monkeypatch, name, depth,
                                                                   seed, levels):
    # contract1d fails its filtration at level 2, so only level 1 is drawn
    system = bf.builtin_system(name)
    judge = verify._judge_regularity
    batches = []

    def counted(system, draws):
        batches.append(len(draws))
        return judge(system, draws)

    monkeypatch.setattr(verify, "_judge_regularity", counted)
    batched = bf.run_suite(system, depth, seed=seed).to_dict()
    assert batches == [1 + levels]
    monkeypatch.setattr(verify, "_judge_regularity",
                        lambda system, draws: [r for d in draws for r in judge(system, [d])])
    assert bf.run_suite(system, depth, seed=seed).to_dict() == batched
    checks = {c["name"]: c for c in batched["checks"]}
    assert checks["pair_regularity"]["applicable"] and checks["pair_regularity"]["measured"]
    assert checks["filtration_soundness"]["passed"] == (name != "contract1d")
