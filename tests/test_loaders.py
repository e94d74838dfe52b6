"""Malformed input files: each exits 2 with a message, or raises IngestionError.

Files a command reads (pair and system files) go through the command line;
the others go through their loader.  A malformed file must never end in a
traceback, exit 1, or load as something other than what it says.
"""

import json

import pytest

from boxflow import cli
from boxflow.errors import IngestionError
from boxflow.lyapunov import Filtration, LyapunovField
from boxflow.transition import TransitionGraph
from boxflow.verify import VerifyReport

# a valid pair for saddle1d at depth 8: the whole interval, empty exit set
GRID = {"domain": [[-1.0, 1.0]], "shape": [8]}
PAIR = {"grid": GRID, "N": list(range(8)), "L": []}
TERMS = [{"coeffs": [1.0], "exponents": [1]}]


def _edit(base, **changes):
    return json.dumps({**base, **changes})


def _grid(**changes):
    return _edit(PAIR, grid={**GRID, **changes})


def _terms(*terms):
    return json.dumps({"field": list(terms), "dimension": 1, "domain": [[-1.0, 1.0]]})


def _check(**changes):
    check = {"name": "flow_composition", "passed": False, "applicable": True,
             "measured": {}, "tolerance": None, "detail": ""}
    return json.dumps({"system": "saddle1d", "parameters": {}, "checks": [{**check, **changes}]})


PAIR_FILES = {
    "top level 5": ("5", "must hold a JSON object"),
    "top level null": ("null", "must hold a JSON object"),
    "domain string": (_grid(domain="x"), "domain must be a finite number"),
    "shape string": (_grid(shape="16"), "shape must be an integer"),
    "fractional shape": (_grid(shape=[8.5]), "shape must be an integer, got 8.5"),
    "negative shape": (_grid(shape=[-1]), "shape must be positive"),
    "nan domain": (_grid(domain=[[float("nan"), 1.0]]), "domain must be a finite number"),
    "low above high": (_grid(domain=[[1.0, -1.0]]), "needs low < high"),
    "overflowing width": (_grid(domain=[[-1e308, 1e308]]),
                          "domain axis 0 [-1e+308, 1e+308] has no finite width"),
    "L outside N": (_edit(PAIR, N=[1, 2], L=[3]), "L must be a subset of N"),
    "other domain": (_grid(domain=[[-2.0, 2.0]]),
                     "grid (8,) on [[-2.0, 2.0]] does not match the configured grid "
                     "(8,) on [[-1.0, 1.0]]"),
}

SYSTEM_FILES = {
    "domain string": (_edit({"field": "saddle1d"}, domain="x"),
                      "domain must be a finite number"),
    "overflowing width": (_edit({"field": TERMS, "dimension": 1, "domain": [[-1e308, 1e308]]}),
                          "domain axis 0 [-1e+308, 1e+308] has no finite width"),
    "step string": (_edit({"field": "saddle1d"}, step="abc"), "step must be a finite number"),
    "step true": (_edit({"field": "saddle1d"}, step=True), "step must be a finite number"),
    "dimension true": (_edit({"field": TERMS, "domain": [[-1.0, 1.0]]}, dimension=True),
                       "dimension must be an integer"),
    "term booleans": (_terms({"coeffs": [True], "exponents": [True]}),
                      "term 0 coeffs must be a finite number"),
    "term strings": (_terms({"coeffs": ["-1"], "exponents": ["1"]}),
                     "term 0 coeffs must be a finite number"),
    "term exponent string": (_terms({"coeffs": [-1.0], "exponents": ["1"]}),
                             "term 0 exponents must be a finite number"),
    "term exponent 1.5": (_terms({"coeffs": [-1.0], "exponents": [1.5]}),
                          "exponents must be nonnegative integers"),
}

FIELD = {**PAIR, "construction": "morse-sum", "range_hint": [0.0, 2.0],
         "params": {"dt": 0.05, "t_max": 12.0, "settle": 2.0}, "down_set": None}
LOADED_FILES = {
    "filtration level 1.5": (
        Filtration,
        _edit(PAIR, levels=[[1.5], list(range(8))], thresholds=[0.5], report=None),
        "level 0 has ids that are not integers"),
    "field boxes 1.9, 2.2": (LyapunovField, _edit(FIELD, boxes=[1.9, 2.2], values=[0.5]),
                             "boxes has ids that are not integers"),
    "field short values": (LyapunovField, _edit(FIELD, boxes=[1, 2], values=[0.5]),
                           "has 1 values for 2 boxes"),
    "graph map_time true": (
        TransitionGraph,
        _edit({"grid": GRID, "padding": 0.1, "samples_per_axis": 3, "edges": [[0, [1]]],
               "exit_node": False}, map_time=True),
        "map_time must be a finite number"),
    "config file [1]": (cli.RunConfig, "[1]", "must hold a JSON object"),
    "report passed 'no'": (VerifyReport, _check(passed="no"), "check 0 passed must be true or false"),
    "report applicable 1": (VerifyReport, _check(applicable=1),
                            "check 0 applicable must be true or false"),
    "report measured pairs": (VerifyReport, _check(measured=[["max_error", 0.5]]),
                              "check 0 measured must be an object"),
    "report name 5": (VerifyReport, _check(name=5), "check 0 name must be a string"),
    "report detail null": (VerifyReport, _check(detail=None), "check 0 detail must be a string"),
}


def _exit_code(tmp_path, capsys, argv):
    code = cli.main(argv + ["--depth", "8", "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(PAIR_FILES))
def test_malformed_pair_file_exits_2(tmp_path, capsys, case):
    text, message = PAIR_FILES[case]
    path = tmp_path / "pair.json"
    path.write_text(text)
    code, err = _exit_code(tmp_path, capsys,
                           ["verify", "--system", "saddle1d", "--pair-file", str(path)])
    assert code == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("case", sorted(SYSTEM_FILES))
def test_malformed_system_file_exits_2(tmp_path, capsys, case):
    text, message = SYSTEM_FILES[case]
    path = tmp_path / "system.json"
    path.write_text(text)
    code, err = _exit_code(tmp_path, capsys, ["analyze", "--system-file", str(path)])
    assert code == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("case", sorted(LOADED_FILES))
def test_malformed_file_raises_ingestion_error(tmp_path, case):
    loader, text, message = LOADED_FILES[case]
    path = tmp_path / "input.json"
    path.write_text(text)
    with pytest.raises(IngestionError) as info:
        loader.from_json(str(path))
    assert message in str(info.value)
