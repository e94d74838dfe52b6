"""Command line interface: config validation, artifacts, exit codes."""

import json
import os

import pytest

import boxflow as bf
from boxflow import cli
from boxflow.errors import ConfigError
from boxflow.lyapunov import LyapunovField
from boxflow.transition import TransitionGraph


def _cfg(**kw):
    base = dict(system="saddle1d", system_file=None, depth=(64,),
                map_time=1.0, padding=None, dt=0.05, horizon=20.0,
                t_max=12.0, epsilon=None, seed=0, out="out")
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
