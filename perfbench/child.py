"""One benchmark sample: a single boxflow CLI command in a fresh interpreter.

    python3 perfbench/child.py --dir RUN_DIR [--trace] [--run-id ID] -- CMD ARGS...

The parent (run.py) starts this script once per sample, with PYTHONPATH
pointing at the checkout's ``src`` and BLAS/OpenMP pinned to one thread.
It imports boxflow, times ``boxflow.cli.main`` from call to return, reads
the process's peak resident memory, then runs the correctness gate on the
artifacts and hashes them.  The command writes its artifacts to
``artifacts`` under the working directory, a relative path so that the
echoed config, and with it every digest, is the same in any checkout.
Everything the script learns goes to RUN_DIR/result.json; the command's
own output goes to RUN_DIR/stdout.txt.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time


def _digests(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _printed(stdout, key):
    """Integer the CLI printed after ``key:`` on one of its summary lines."""
    for line in stdout.splitlines():
        for part in line.split("  "):
            if part.startswith(key + ":"):
                return int(part.split(":", 1)[1].split()[0])
    raise AssertionError(f"the command printed no '{key}:' line")


def _lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def _gate_analyze(art, stdout):
    from boxflow import TransitionGraph

    graph = TransitionGraph.from_json(os.path.join(art, "graph.json"))
    edges = _printed(stdout, "edges")
    if graph.n_edges != edges:
        raise AssertionError(f"graph.json has {graph.n_edges} edges, the command reported {edges}")
    arrows = sum(1 for ln in _lines(os.path.join(art, "graph.dot")) if "->" in ln)
    if arrows != graph.n_edges:
        raise AssertionError(f"graph.dot has {arrows} edges, graph.json {graph.n_edges}")
    with open(os.path.join(art, "morse.json")) as fh:
        morse = json.load(fh)
    sets = morse["morse_sets"]
    if morse["n"] != len(sets) or _printed(stdout, "morse sets") != len(sets):
        raise AssertionError("morse.json disagrees with its own count or the command")
    union = sorted(b for s in sets for b in s)
    with open(os.path.join(art, "recurrent.json")) as fh:
        recurrent = json.load(fh)["boxes"]
    if recurrent != union or len(set(union)) != len(union):
        raise AssertionError("recurrent.json is not the disjoint union of the Morse sets")
    if not set(union) <= set(morse["invariant"]):
        raise AssertionError("a Morse set leaves the invariant part")
    return {"boxes": graph.grid.n_boxes,
            "edges": graph.n_edges,
            "lattice_points": graph.grid.n_boxes * graph.samples_per_axis ** graph.grid.dimension,
            "morse_sets": len(sets),
            "recurrent_boxes": len(union)}


def _gate_lyapunov(art, stdout):
    import numpy as np
    from boxflow import LyapunovField

    field = LyapunovField.from_json(os.path.join(art, "field.json"))
    n = int(field.boxes.size)
    if _printed(stdout, "boxes") != n:
        raise AssertionError("field.json box count disagrees with the command")
    if not np.array_equal(field.boxes, field.pair.core.ids):
        raise AssertionError("field boxes are not the core N - L of its pair")
    lo, hi = field.range_hint
    if not (np.isfinite(field.values).all() and field.values.min() >= lo
            and field.values.max() <= hi):
        raise AssertionError(f"field values leave the range hint [{lo}, {hi}]")
    for name in ("field.csv", "plot.csv"):
        rows = len(_lines(os.path.join(art, name))) - 1
        if rows != n:
            raise AssertionError(f"{name} has {rows} rows for {n} field boxes")
    return {"field_boxes": n, "pair_N": len(field.pair.N), "pair_L": len(field.pair.L),
            "range_hi": hi}


def _gate_verify(art, stdout):
    from boxflow import VerifyReport

    report = VerifyReport.from_json(os.path.join(art, "verify.json"))
    failed = [c.name for c in report.checks if c.applicable and not c.passed]
    if failed or not report.passed:
        raise AssertionError(f"verify checks failed: {failed}")
    return {"checks": len(report.checks),
            "checks_applicable": sum(1 for c in report.checks if c.applicable)}


GATES = {"analyze": _gate_analyze, "lyapunov": _gate_lyapunov, "verify": _gate_verify}


def gate(command, art, stdout):
    """Reload the artifacts of one command and check their structure.

    Returns the size counters read from the artifacts; raises on any
    inconsistency, including a reader that rejects its own writer's file.
    """
    counters = GATES[command](art, stdout)
    counters["bytes_written"] = sum(os.path.getsize(os.path.join(art, f))
                                    for f in os.listdir(art))
    return counters


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    from boxflow import cli
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(args.run_id)
        tracer.install()

    art = "artifacts"
    stdout_path = os.path.join(args.dir, "stdout.txt")
    with open(stdout_path, "w") as fh, contextlib.redirect_stdout(fh):
        t1 = time.perf_counter()
        code = cli.main(argv + ["--out", art])
        wall = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import networkx
    import numpy
    import scipy
    result = {
        "run_id": args.run_id, "argv": argv, "traced": bool(tracer),
        "exit_code": code, "wall_s": wall, "import_s": import_s,
        "peak_rss_mb": peak_rss_mb, "errors": [],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "networkx": networkx.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing_targets"] = tracer.missing
        tracer.write(os.path.join(args.dir, "spans.json"))

    if code != 0:
        result["errors"].append(f"exit code {code}")
    else:
        with open(stdout_path) as fh:
            stdout = fh.read()
        try:
            result["counters"] = gate(argv[0], art, stdout)
        except Exception as exc:  # any reader or assertion failure fails the sample
            result["errors"].append(f"gate: {type(exc).__name__}: {exc}")
    if os.path.isdir(art):
        result["digests"] = _digests(art)

    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
