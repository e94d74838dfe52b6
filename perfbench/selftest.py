"""Toy-size self-test of the benchmark: timed run, traced run and the gate.

    python3 perfbench/selftest.py

Runs each command at toy size (hopf2d at 16x16, doublewell1d at 32) through
the same code paths as the real workloads, checks the printed result, the
per-layer accounting, and that the gate rejects damaged artifacts.  Exits 0
when everything holds; takes well under a minute.

``verify`` at doublewell1d 32 exits 1: on that coarse grid the chain
oracle flags boxes outside the recurrent set (oracle_agreement).  The
self-test uses it as a real failure that every sample must count.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run

TOY = {
    "analyze-hopf16": ["analyze", "--system", "hopf2d", "--depth", "16"],
    "lyapunov-hopf16": ["lyapunov", "--system", "hopf2d", "--depth", "16",
                        "--construction", "morse"],
    "verify-doublewell32": ["verify", "--system", "doublewell1d", "--depth", "32",
                            "--seed", "{seed}"],
}


def declared(kind):
    """Metric name -> unit as BENCHMARK.json declares them."""
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


def bench(name, trace, seed=3):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.1",
                         "--trace", str(trace)], workloads=TOY)
    text = out.getvalue()
    assert code == 0, text
    return json.loads(text.splitlines()[-1]), text


def check_timed(name):
    result, text = bench(name, trace=0)
    assert result["correct"] and result["failed"] == 0, text
    assert result["attempted"] == run.MIN_ROUNDS, text
    assert units(result) == declared("end_to_end"), result
    assert all(m["value"] > 0 for m in result["metrics"].values()), result
    assert "sha256 config.json" in text and "counter bytes_written" in text, text


def check_layers(result, text):
    assert units(result) == declared("per_layer"), result
    values = {k: m["value"] for k, m in result["metrics"].items()}
    busy = sum(v for k, v in values.items() if k.endswith(".busy_s"))
    assert abs(busy - values["trace.wall_s"]) < 1e-6, (busy, values["trace.wall_s"])
    assert "trace targets not found" not in text, text
    return values


def check_traced(name):
    result, text = bench(name, trace=1)
    assert result["correct"] and result["attempted"] == 2 * run.MIN_ROUNDS, text
    return check_layers(result, text)


def check_failing_verify():
    """A command that exits 1 fails every sample but still reports layers."""
    rounds, run.MIN_ROUNDS = run.MIN_ROUNDS, 1
    try:
        result, text = bench("verify-doublewell32", trace=1)
    finally:
        run.MIN_ROUNDS = rounds
    assert not result["correct"] and result["failed"] == result["attempted"] == 2, text
    assert "exit code 1" in text, text
    values = check_layers(result, text)
    assert values["verify.checks"] == 22 and values["verify.checks_failed"] >= 1, values
    assert values["flows.calls"] > 1000 and values["distances.calls"] > 100, values


def check_gate_rejects_damage():
    """Damaged artifacts of a finished sample must fail the gate."""
    sys.path.insert(0, os.path.join(os.path.dirname(run.HERE), "src"))
    import child

    sample = os.path.join(run.WORK, "analyze-hopf16", "sample00")
    art = os.path.join(run.WORK, "analyze-hopf16", "artifacts")
    with open(os.path.join(sample, "stdout.txt")) as fh:
        stdout = fh.read()
    child.gate("analyze", art, stdout)
    shutil.copy(os.path.join(art, "graph.json"), os.path.join(art, "graph.json.bak"))
    with open(os.path.join(art, "graph.json")) as fh:
        data = json.load(fh)
    data["edges"][0][1] = data["edges"][0][1][:-1]
    with open(os.path.join(art, "graph.json"), "w") as fh:
        json.dump(data, fh)
    try:
        child.gate("analyze", art, stdout)
    except AssertionError:
        pass
    else:
        raise AssertionError("gate accepted a graph with a missing edge")
    finally:
        os.replace(os.path.join(art, "graph.json.bak"), os.path.join(art, "graph.json"))

    sample = os.path.join(run.WORK, "lyapunov-hopf16", "sample00")
    art = os.path.join(run.WORK, "lyapunov-hopf16", "artifacts")
    with open(os.path.join(sample, "stdout.txt")) as fh:
        stdout = fh.read()
    with open(os.path.join(art, "field.json")) as fh:
        data = json.load(fh)
    data["values"][0] = data["range_hint"][1] + 1.0
    with open(os.path.join(art, "field.json"), "w") as fh:
        json.dump(data, fh)
    try:
        child.gate("lyapunov", art, stdout)
    except AssertionError:
        pass
    else:
        raise AssertionError("gate accepted a field value outside its range hint")


def check_missing_source():
    """Without the program's source the benchmark fails without a result."""
    env = dict(os.environ, PYTHONPATH="")
    copy = os.path.join(run.WORK, "bare")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(copy, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "verify-doublewell256", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=copy, env=env, capture_output=True,
                          text=True, timeout=60)
    shutil.rmtree(copy)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main():
    for name in ("analyze-hopf16", "lyapunov-hopf16"):
        check_timed(name)
        print(f"timed  {name}: ok")
        values = check_traced(name)
        print(f"traced {name}: ok, trace.overhead_frac={values['trace.overhead_frac']:.3f}")
    check_failing_verify()
    print("verify-doublewell32 exits 1 and every sample counts as failed: ok")
    check_gate_rejects_damage()
    print("gate rejects damaged artifacts: ok")
    check_missing_source()
    print("missing source exits non-zero without a result: ok")


if __name__ == "__main__":
    main()
