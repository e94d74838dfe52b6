"""Command line interface: config validation, artifacts, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import boxflow as bf
from boxflow import cli
from boxflow.errors import ConfigError
from boxflow.grid import MAX_MARCH_STEPS, MAX_MARCH_VALUES, MAX_PAIRS
from boxflow.lyapunov import Filtration, LyapunovField
from boxflow.transition import TransitionGraph


def _cfg(**kw):
    base = dict(system="saddle1d", system_file=None, depth=(64,),
                map_time=1.0, padding=None, dt=0.05, t_max=12.0,
                epsilon=None, seed=0, out="out")
    base.update(kw)
    return cli.RunConfig(**base)


def test_config_requires_exactly_one_system_source():
    with pytest.raises(ConfigError):
        _cfg(system=None).validate()
    with pytest.raises(ConfigError):
        _cfg(system_file="sys.json").validate()
    assert _cfg().validate() is not None


def test_config_rejects_bad_numbers():
    with pytest.raises(ConfigError):
        _cfg(depth=(0,)).validate()
    with pytest.raises(ConfigError):
        _cfg(map_time=0.0).validate()
    with pytest.raises(ConfigError):
        _cfg(dt=-0.1).validate()
    with pytest.raises(ConfigError):
        _cfg(t_max=0.5).validate()
    with pytest.raises(ConfigError):
        _cfg(epsilon=0.0).validate()
    with pytest.raises(ConfigError):
        _cfg(padding=-1.0).validate()
    with pytest.raises(ConfigError):
        _cfg(seed=-1).validate()


def test_depth_parsing():
    assert cli._parse_depth("64") == (64,)
    assert cli._parse_depth("64,32") == (64, 32)
    with pytest.raises(ConfigError):
        cli._parse_depth("sixty")


def test_depth_resolution():
    sys1 = bf.builtin_system("doublewell1d")
    sys2 = bf.builtin_system("hopf2d")
    assert cli._resolve_depth(_cfg(depth=None), sys1) == (256,)
    assert cli._resolve_depth(_cfg(depth=None), sys2) == (128, 128)
    assert cli._resolve_depth(_cfg(depth=(64,)), sys2) == (64, 64)
    assert cli._resolve_depth(_cfg(depth=(64, 32)), sys2) == (64, 32)
    with pytest.raises(ConfigError):
        cli._resolve_depth(_cfg(depth=(64, 32)), sys1)


def test_analyze_writes_artifacts(tmp_path):
    out = str(tmp_path / "run")
    code = cli.main(["analyze", "--system", "saddle1d", "--depth", "64",
                     "--out", out])
    assert code == 0
    names = set(os.listdir(out))
    assert {"config.json", "graph.json", "graph.dot", "morse.json",
            "morse.dot", "recurrent.json"} <= names
    assert not any(n.endswith(".tmp") for n in names)
    graph = TransitionGraph.from_json(os.path.join(out, "graph.json"))
    assert graph.n_edges > 0
    cfg = cli.RunConfig.from_json(os.path.join(out, "config.json"))
    assert cfg.system == "saddle1d" and cfg.depth == (64,)


def test_analyze_serializes_order_and_connecting_boxes(tmp_path):
    # a three-class system exercises the partial order and connecting-box
    # entries of morse.json, which must come out as plain JSON integers
    out = str(tmp_path / "run")
    code = cli.main(["analyze", "--system", "doublewell1d", "--depth", "64",
                     "--out", out])
    assert code == 0
    with open(os.path.join(out, "morse.json")) as fh:
        data = json.load(fh)
    assert data["n"] == 3
    assert sorted(data["partial_order"]) == [[3, 1], [3, 2]]
    assert data["connecting"]
    for box, reach, coreach in data["connecting"]:
        assert isinstance(box, int)
        assert all(isinstance(k, int) for k in reach + coreach)


def test_unknown_system_is_a_config_error(tmp_path, capsys):
    code = cli.main(["analyze", "--system", "nosuch",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_zero_depth_is_a_config_error(tmp_path, capsys):
    code = cli.main(["analyze", "--system", "saddle1d", "--depth", "0",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["2.5", "8,x"])
def test_a_depth_that_is_not_integers_is_a_config_error(tmp_path, capsys, depth):
    code = cli.main(["analyze", "--system", "saddle1d", "--depth", depth,
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == f"error: depth must be integers, got {depth!r}\n"


def test_lyapunov_pair_construction_artifacts(tmp_path):
    out = str(tmp_path / "lyap")
    code = cli.main(["lyapunov", "--system", "doublewell1d", "--depth", "64",
                     "--construction", "pair", "--out", out])
    assert code == 0
    field = LyapunovField.from_json(os.path.join(out, "field.json"))
    assert field.construction == "single-pair"
    csv_lines = open(os.path.join(out, "field.csv")).read().splitlines()
    assert csv_lines[0].startswith("box_id,")
    assert len(csv_lines) == len(field.boxes) + 1
    plot_lines = open(os.path.join(out, "plot.csv")).read().splitlines()
    assert len(plot_lines) == len(field.boxes) + 1


def test_lyapunov_default_is_the_morse_sum(tmp_path):
    out = str(tmp_path / "lyap")
    code = cli.main(["lyapunov", "--system", "doublewell1d", "--depth", "64",
                     "--out", out])
    assert code == 0
    field = LyapunovField.from_json(os.path.join(out, "field.json"))
    assert field.construction == "morse-sum"


def test_bad_pair_index_lists_the_valid_ones(tmp_path, capsys):
    code = cli.main(["lyapunov", "--system", "doublewell1d", "--depth", "64",
                     "--construction", "pair", "--pair-index", "9",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "down-set" in err


@pytest.mark.parametrize("construction", [None, "morse", "complete"])
def test_pair_index_without_the_pair_construction_exits_2(tmp_path, capsys, construction):
    args = ["lyapunov", "--system", "doublewell1d", "--depth", "16", "--pair-index", "9",
            "--out", str(tmp_path / "x")]
    if construction is not None:
        args += ["--construction", construction]
    assert cli.main(args) == 2
    assert "--construction pair" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_filtration_succeeds_at_fine_depth(tmp_path):
    out = str(tmp_path / "filt")
    code = cli.main(["filtration", "--system", "saddle1d", "--depth", "64",
                     "--out", out])
    assert code == 0
    data = json.load(open(os.path.join(out, "filtration.json")))
    assert len(data["levels"]) == 2


def test_filtration_failure_names_the_level(tmp_path, capsys):
    code = cli.main(["filtration", "--system", "doublewell1d", "--depth", "8",
                     "--out", str(tmp_path / "filt8")])
    assert code == 1
    assert "failed at level 2" in capsys.readouterr().err


def test_trivial_filtration_file_loads_back(tmp_path, capsys):
    # x' = 1 on [-1, 1] has an empty invariant part, so the filtration has
    # no levels; its file must still load with the filtration loader
    system = tmp_path / "drift.json"
    system.write_text(json.dumps({
        "field": [{"coeffs": [1.0], "exponents": [0]}], "dimension": 1,
        "domain": [[-1.0, 1.0]], "name": "drift"}))
    out = tmp_path / "filt"
    code = cli.main(["filtration", "--system-file", str(system), "--depth", "16",
                     "--out", str(out)])
    assert code == 0
    assert "trivial filtration with 0 levels" in capsys.readouterr().out
    loaded = Filtration.from_json(str(out / "filtration.json"))
    assert loaded.levels == [] and loaded.thresholds == []
    assert loaded.pair.grid == bf.build_grid([[-1.0, 1.0]], (16,))
    assert not loaded.pair.N


def test_verify_passes_without_recurrence(tmp_path, capsys):
    # x' = 1 on [-1, 1] has no recurrence and no index pair, and nothing in
    # it is wrong
    system = tmp_path / "drift.json"
    system.write_text(json.dumps({
        "field": [{"coeffs": [1.0], "exponents": [0]}], "dimension": 1,
        "domain": [[-1.0, 1.0]], "name": "drift"}))
    code = cli.main(["verify", "--system-file", str(system), "--depth", "16",
                     "--out", str(tmp_path / "verify")])
    assert code == 0
    assert "result: PASS" in capsys.readouterr().out


def test_verify_pair_file_round_trip(tmp_path, doublewell):
    pair_path = str(tmp_path / "pair.json")
    doublewell.pair.to_json(pair_path)
    out = str(tmp_path / "check")
    code = cli.main(["verify", "--system", "doublewell1d", "--depth", "256",
                     "--pair-file", pair_path, "--out", out])
    assert code == 0
    data = json.load(open(os.path.join(out, "pair_check.json")))
    assert data["passed"] is True


def test_verify_pair_file_depth_mismatch(tmp_path, doublewell, capsys):
    pair_path = str(tmp_path / "pair.json")
    doublewell.pair.to_json(pair_path)
    code = cli.main(["verify", "--system", "doublewell1d", "--depth", "64",
                     "--pair-file", pair_path, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_verify_corrupt_pair_file(tmp_path, capsys):
    pair_path = tmp_path / "pair.json"
    pair_path.write_text("{bad")
    code = cli.main(["verify", "--system", "saddle1d", "--depth", "64",
                     "--pair-file", str(pair_path),
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_pair_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    pair_path = tmp_path / "pair.json"
    pair_path.write_bytes(b'\xff\xfe{"grid": 1}')
    code = cli.main(["verify", "--system", "saddle1d", "--depth", "64",
                     "--pair-file", str(pair_path),
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"pair file {pair_path} is not valid JSON" in capsys.readouterr().err


def test_verify_writes_report_and_passes(tmp_path):
    out = str(tmp_path / "v")
    code = cli.main(["verify", "--system", "saddle1d", "--depth", "64",
                     "--out", out])
    assert code == 0
    report = bf.VerifyReport.from_json(os.path.join(out, "verify.json"))
    assert report.passed
    text = open(os.path.join(out, "verify.txt")).read()
    assert "result: PASS" in text


def test_config_json_round_trip(tmp_path):
    cfg = _cfg(depth=(32, 16), system="hopf2d").validate()
    path = str(tmp_path / "config.json")
    cfg.to_json(path)
    assert cli.RunConfig.from_json(path) == cfg


def test_verify_pair_file_with_out_of_range_box_exits_2(tmp_path, capsys):
    system = bf.builtin_system("doublewell1d")
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps({"grid": {"domain": system.domain.tolist(), "shape": [32]},
                                     "N": [1, 2, 99], "L": []}))
    code = cli.main(["verify", "--system", "doublewell1d", "--depth", "32",
                     "--pair-file", str(pair_path), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "99" in err


def test_verify_pair_file_with_non_integer_ids_exits_2(tmp_path, capsys):
    system = bf.builtin_system("doublewell1d")
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps({"grid": {"domain": system.domain.tolist(), "shape": [32]},
                                     "N": [1.5, 2.9], "L": []}))
    code = cli.main(["verify", "--system", "doublewell1d", "--depth", "32",
                     "--pair-file", str(pair_path), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "not integers" in err


def test_padding_past_the_pair_limit_exits_2_without_allocating_the_pairs(tmp_path, capsys):
    # padding 8 covers the whole [-2, 2]^2 grid from every one of the
    # 64 * 64 * 9 samples: 151 M pairs, 2.4 GB as two int64 edge arrays
    tracemalloc.start()
    try:
        code = cli.main(["analyze", "--system", "hopf2d", "--depth", "64",
                         "--padding", "8", "--out", str(tmp_path / "x")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert f"gives {64 * 64 * 9 * 64 * 64} " in err and f"limit is {MAX_PAIRS}" in err
    assert peak < 32 * 2 ** 20
    assert not os.path.exists(tmp_path / "x" / "graph.json")


@pytest.mark.parametrize("command,option,value", [
    ("lyapunov", "--tmax", "inf"),
    ("lyapunov", "--tmax", "nan"),
    ("lyapunov", "--map-time", "nan"),
    ("lyapunov", "--map-time", "inf"),
    ("lyapunov", "--dt", "nan"),
    ("lyapunov", "--dt", "inf"),
    ("lyapunov", "--padding", "nan"),
    ("lyapunov", "--epsilon", "nan"),
    ("verify", "--epsilon", "nan"),
    ("lyapunov", "--dt", "1e-300"),
    ("lyapunov", "--dt", "1e-320"),
])
def test_non_finite_and_oversized_options_exit_2(tmp_path, capsys, command, option, value):
    out = tmp_path / "x"
    code = cli.main([command, "--system", "doublewell1d", "--depth", "16", option, value,
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "field.json").exists() and not (out / "verify.json").exists()
    if (out / "config.json").exists():
        json.loads((out / "config.json").read_text(), parse_constant=pytest.fail)


def test_dt_past_the_march_limit_exits_2_without_allocating_the_march(tmp_path, capsys):
    # the morse field would march the 12 core centers 140 M steps: 1.3 GB
    tracemalloc.start()
    try:
        code = cli.main(["lyapunov", "--system", "doublewell1d", "--depth", "16",
                         "--dt", "1e-7", "--out", str(tmp_path / "x")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "1.4e+08 steps of dt=1e-07" in err and f"limit is {MAX_MARCH_VALUES}" in err
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("args", [
    ["analyze", "--system", "saddle1d", "--depth", "4", "--map-time", "1e9"],
    ["analyze", "--system", "saddle1d", "--depth", "4", "--map-time", "1e300"],
    ["analyze", "--system-file", "{tiny_step}", "--depth", "4"],
    ["lyapunov", "--system", "saddle1d", "--depth", "8", "--dt", "1e9", "--tmax", "1e10"],
], ids=["map-time-1e9", "map-time-1e300", "step-1e-300", "lyapunov-dt-1e9"])
def test_a_march_past_the_step_limit_exits_2(tmp_path, capsys, args):
    tiny_step = tmp_path / "tiny.json"
    tiny_step.write_text(json.dumps({"field": "saddle1d", "step": 1e-300}))
    args = [a.format(tiny_step=tiny_step) for a in args]
    assert cli.main(args + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"limit is {MAX_MARCH_STEPS}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args,numbers", [
    (["--system", "hopf2d", "--depth", "8", "--map-time", "0.001"], ("0.001", "0.01")),
    (["--system-file", "{big_step}", "--depth", "8"], ("1.0", "10")),
], ids=["map-time-0.001", "step-10"])
def test_a_map_time_below_the_integrator_step_exits_2(tmp_path, capsys, args, numbers):
    big_step = tmp_path / "big.json"
    big_step.write_text(json.dumps({"field": "saddle1d", "step": 10}))
    args = [a.format(big_step=big_step) for a in args]
    assert cli.main(["analyze", *args, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: map time ") and all(n in err for n in numbers)


def test_module_entry_point_runs_without_warnings():
    src = str(Path(bf.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "boxflow",
                           "--help"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0
    assert done.stderr == ""
    assert "analyze" in done.stdout


def test_a_march_that_blows_up_exits_1_naming_the_time(tmp_path):
    # x' = x^2 overflows to inf within the first RK4 step from the lattice
    # points near 1e160; the field's own overflow warning is expected
    system = tmp_path / "blowup.json"
    system.write_text(json.dumps({
        "field": [{"coeffs": [1.0], "exponents": [2]}], "dimension": 1,
        "domain": [[0.5, 1e160]], "name": "blowup"}))
    src = str(Path(bf.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", "boxflow", "analyze", "--system-file",
                           str(system), "--depth", "8", "--out", str(tmp_path / "x")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1
    assert "non-finite values at t=0.01" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "x" / "graph.json").exists()


def test_a_domain_of_very_wide_boxes_gets_a_finite_default_padding(tmp_path):
    # x' = −x on [0.5, 1e160]: half the box diagonal overflows unless it is
    # rescaled, and the graph.json the run writes must load back
    system = tmp_path / "wide.json"
    system.write_text(json.dumps({
        "field": [{"coeffs": [-1.0], "exponents": [1]}], "dimension": 1,
        "domain": [[0.5, 1e160]], "name": "wide"}))
    src = str(Path(bf.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "boxflow",
                           "analyze", "--system-file", str(system), "--depth", "8",
                           "--out", str(tmp_path / "x")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    graph = bf.TransitionGraph.from_json(str(tmp_path / "x" / "graph.json"))
    assert graph.padding == 6.25e158
    assert graph.targets_of(7).tolist() == [2, 3]


def test_a_domain_whose_width_overflows_exits_2(tmp_path):
    # x' = −x on [-1e308, 1e308]: high - low is inf, so the lattice points
    # would be inf − inf; the file is refused before any arithmetic warns
    system = tmp_path / "huge.json"
    system.write_text(json.dumps({
        "field": [{"coeffs": [-1.0], "exponents": [1]}], "dimension": 1,
        "domain": [[-1e308, 1e308]], "name": "huge"}))
    src = str(Path(bf.__file__).resolve().parent.parent)
    for padding in ([], ["--padding", "1"]):
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "boxflow",
                               "analyze", "--system-file", str(system), "--depth", "8",
                               *padding, "--out", str(tmp_path / "x")],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2, done.stderr
        assert "domain axis 0 [-1e+308, 1e+308] has no finite width" in done.stderr
        assert "Traceback" not in done.stderr


def test_distances_on_a_huge_domain_overflow_to_inf_without_a_warning(tmp_path):
    # x' = x on [-1e200, 1e200]: the squared gap between boxes 1e200 apart
    # overflows; it reads as inf, and every construction exits 0 under -W error
    system = tmp_path / "huge.json"
    system.write_text(json.dumps({
        "field": [{"coeffs": [1.0], "exponents": [1]}], "dimension": 1,
        "domain": [[-1e200, 1e200]], "name": "huge"}))
    src = str(Path(bf.__file__).resolve().parent.parent)
    for construction in ("pair", "morse", "complete"):
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "boxflow",
                               "lyapunov", "--system-file", str(system), "--depth", "8",
                               "--construction", construction, "--out", str(tmp_path / "x")],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""


def test_verify_on_a_huge_domain_runs_without_a_warning(tmp_path):
    # x' = x on [-1e200, 1e200]: the box diagonal and the chain oracle's
    # squared distances overflow unless rescaled.  At depth 8 the suite
    # fails filtration_soundness alone, as it does for saddle1d on [-1, 1].
    system = tmp_path / "huge.json"
    system.write_text(json.dumps({
        "field": [{"coeffs": [1.0], "exponents": [1]}], "dimension": 1,
        "domain": [[-1e200, 1e200]], "name": "huge"}))
    src = str(Path(bf.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "boxflow",
                           "verify", "--system-file", str(system), "--depth", "8",
                           "--out", str(tmp_path / "x")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1, done.stderr
    assert done.stderr == ""
    checks = {c["name"]: c for c in
              json.loads((tmp_path / "x" / "verify.json").read_text())["checks"]}
    assert [n for n, c in checks.items() if c["applicable"] and not c["passed"]] == [
        "filtration_soundness"]
    assert checks["graph_outer_soundness"]["measured"]["box_diagonal"] == 2.5e199


def test_the_commands_run_with_scipy_blocked(tmp_path):
    # boxflow needs numpy alone: importing it loads no scipy module, and with
    # scipy made unimportable analyze, lyapunov and verify still exit 0
    env = {**os.environ, "PYTHONPATH": str(Path(bf.__file__).resolve().parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, boxflow; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    blocked = ("import sys; sys.modules['scipy'] = None; "
               "from boxflow.cli import main; sys.exit(main(sys.argv[1:]))")
    # verify at depth 32 reports a failed oracle_agreement check with or
    # without scipy; 128 is the smallest power of two where it passes
    for argv in (["analyze", "--depth", "32"],
                 ["lyapunov", "--construction", "morse", "--depth", "32"],
                 ["verify", "--depth", "128"]):
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", blocked,
                               *argv, "--system", "doublewell1d",
                               "--out", str(tmp_path / argv[0])],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, (argv, done.stderr)


# SHA-256 of analyze's graph.json, morse.json and recurrent.json.  The
# fields of these systems use only +, - and *, and the graph build only
# floor and clip beside correctly rounded arithmetic, so the bytes are the
# same under any IEEE numpy.  They show a change to the march that moves an
# image across a box border; test_flows pins the bits of each RK4 step
# against the one-line expression.  The Lyapunov commands are left out
# because field.json goes through exp.
ANALYZE_DIGESTS = {
    ("hopf2d", "32"): {
        "graph.json": "4437512ad1630f6b4892cdb6bad98e4ac9c94bc1c7e5c574654fa8593cb051c7",
        "morse.json": "3d6bdc6f79f34c80b8952bad5481833f6b1eb4386cee3c42c8e35556d389be32",
        "recurrent.json": "bd134e9b9d9242096cd8bd8d853e9c8b1a4dc634f0c4e89b14faa31e9638f331",
    },
    ("gradient2d", "32"): {
        "graph.json": "cf4254e1c879c93c689d0f5e28aa053bf3e873591e97fdd1446638fc4167fc90",
        "morse.json": "5b12620491ac57f1a3ca61774b912dc6cdbc1df06596f0ebeff96634aec08c3e",
        "recurrent.json": "7f96e42665aaaacf54078d3cbfe625de06402daf6328af73189a05f30e5b358a",
    },
    ("doublewell1d", "256"): {
        "graph.json": "7c77e1738df351aa3f33389a38d3ec2cbc8704bd93b33cdf82418f73f9c0e2bf",
        "morse.json": "e2569dfeeb81e3d923748f6d0a787128830eed5137a71e19fdaf958ab8b55f06",
        "recurrent.json": "fa8e186d90271b98d33f29b7a7f99c4a565b9e334bacf5d21902e36f8d890769",
    },
    ("saddle1d", "64"): {
        "graph.json": "209c49543eeebeca9d6d430d19ab3e5f632615bbafc27d6e5c334513f260c7a3",
        "morse.json": "3d1048c63e1e84ddf937b18a5699f54844ebac563c3bb48691655c6edaadce50",
        "recurrent.json": "db06242af5a2281ed48ad772ab7b93e0615ec93f2ac231f818fb353b66af019c",
    },
}


@pytest.mark.parametrize("system,depth", sorted(ANALYZE_DIGESTS))
def test_analyze_writes_the_pinned_bytes(tmp_path, capsys, system, depth):
    out = tmp_path / "out"
    assert cli.main(["analyze", "--system", system, "--depth", depth, "--out", str(out)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in ANALYZE_DIGESTS[system, depth]}
    assert got == ANALYZE_DIGESTS[system, depth]
