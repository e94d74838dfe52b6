"""The boxflow benchmark: CLI workloads, end-to-end metrics and a traced breakdown.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src``.
Every sample is one boxflow CLI command in a fresh interpreter (child.py),
one at a time, with BLAS/OpenMP pinned to one thread.  A run takes at
least MIN_ROUNDS rounds of samples, then more while the next round would
still end within ``--seconds``.

With ``--trace 0`` the result holds the end-to-end metrics: ``wall_s`` (the
median time of ``boxflow.cli.main``), ``setup_s`` (the median time for a fresh
interpreter to import boxflow), ``peak_rss_mb`` and ``ok_frac``.  With
``--trace 1`` each round runs the command untraced and then traced, and the
result holds the per-layer metrics of the traced sample with the median wall
time, plus ``trace.overhead_frac``.

Every sample passes the correctness gate in child.py, and its artifact
digests and size counters must equal those of the first sample; a sample
that fails any of this counts in ``failed``.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

# Why each workload is here: see README.md next to this file.
WORKLOADS = {
    "analyze-hopf256": ["analyze", "--system", "hopf2d", "--depth", "256"],
    "lyapunov-hopf64": ["lyapunov", "--system", "hopf2d", "--depth", "64",
                        "--construction", "morse"],
    "verify-doublewell256": ["verify", "--system", "doublewell1d", "--depth", "256",
                             "--seed", "{seed}"],
}

DEFAULT_SEED = 0
# Two rounds keep one run of the largest workload near 45 s on a 2-core
# machine, so that twenty-odd runs of every workload fit in an hour.
MIN_ROUNDS = 2
SETUP_REPEATS = 5
DEADLINE_S = 170.0   # the whole invocation must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_per_call"):
        return "items/call"
    return "bytes" if name == "io.bytes" else "count"


class Deadline(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Bench:
    """Runs samples of one workload and checks them against each other."""

    def __init__(self, name, argv, seconds, env, work_dir):
        self.name = name
        self.argv = argv
        self.seconds = seconds
        self.env = env
        self.work_dir = work_dir
        self.started = time.perf_counter()
        self.samples = []
        self.reference = None

    def _timeout(self):
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 1.0:
            raise Deadline(f"{DEADLINE_S:.0f} s budget used up")
        return left

    def setup_times(self, repeats):
        """Wall time of fresh interpreters that import boxflow; one warm-up."""
        cmd = [sys.executable, "-c", "import boxflow.cli"]
        times = []
        for i in range(repeats + 1):
            t0 = time.perf_counter()
            subprocess.run(cmd, env=self.env, check=True, timeout=self._timeout(),
                           stdout=subprocess.DEVNULL)
            if i:
                times.append(time.perf_counter() - t0)
        return times

    def sample(self, traced):
        """Run one command in a fresh child; return its result dict."""
        k = len(self.samples)
        run_dir = os.path.join(self.work_dir, f"sample{k:02d}")
        os.makedirs(run_dir)
        shutil.rmtree(os.path.join(self.work_dir, "artifacts"), ignore_errors=True)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--dir", run_dir,
               "--run-id", f"{self.name}/{k}"]
        cmd += (["--trace"] if traced else []) + ["--"] + self.argv
        proc = subprocess.run(cmd, env=self.env, cwd=self.work_dir,
                              timeout=self._timeout(), capture_output=True, text=True)
        try:
            with open(os.path.join(run_dir, "result.json")) as fh:
                res = json.load(fh)
        except (OSError, ValueError):
            res = {"traced": traced, "errors": [f"child exited {proc.returncode}: "
                                                + proc.stderr.strip()[-2000:]]}
        self._compare(res)
        self.samples.append(res)
        return res

    def _compare(self, res):
        """Artifacts and size counters must repeat exactly within a commit."""
        if "digests" not in res:
            return
        key = {"digests": res["digests"], "counters": res.get("counters")}
        if self.reference is None:
            self.reference = key
            return
        for part in ("digests", "counters"):
            if key[part] != self.reference[part]:
                res["errors"].append(f"{part} differ from the first sample: "
                                     f"{key[part]} != {self.reference[part]}")
        if res.get("traced") and "layers" in res:
            self._compare_layer_counts(res)

    def _compare_layer_counts(self, res):
        ref = next((s for s in self.samples if s.get("traced") and "layers" in s), None)
        if ref is None:
            return
        for name, value in res["layers"].items():
            if not name.endswith("_s") and value != ref["layers"][name]:
                res["errors"].append(f"{name} = {value}, first traced sample {ref['layers'][name]}")

    def measure(self, kinds):
        """At least MIN_ROUNDS rounds, then more while they fit the budget."""
        t0 = time.perf_counter()
        rounds = []
        while True:
            r0 = time.perf_counter()
            for traced in kinds:
                self.sample(traced)
            rounds.append(time.perf_counter() - r0)
            elapsed = time.perf_counter() - t0
            nxt = statistics.median(rounds)
            if len(rounds) >= MIN_ROUNDS and elapsed + nxt > self.seconds:
                break
            if time.perf_counter() - self.started + nxt > DEADLINE_S - 5.0:
                break


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _spread(name, values, unit):
    q1, q3 = quartiles(values)
    print(f"{name} median={statistics.median(values):.4f} q1={q1:.4f} q3={q3:.4f} "
          f"n={len(values)} {unit}")


def end_to_end(samples, setup, attempted, failed):
    """Medians over the untraced samples that ran to the end."""
    timed = [s for s in samples if "wall_s" in s]
    if not timed:
        return {}
    walls = [s["wall_s"] for s in timed]
    _spread("wall_s", walls, "s")
    _spread("setup_s", setup, "s")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(samples):
    """Layer metrics of the traced sample with the median traced wall time.

    One sample supplies every busy time, so they add up to its wall time.
    """
    traced = sorted((s for s in samples if s["traced"] and "layers" in s),
                    key=lambda s: s["layers"]["trace.wall_s"])
    timed = [s["wall_s"] for s in samples if not s["traced"] and "wall_s" in s]
    if not traced or not timed:
        return {}
    mid = traced[(len(traced) - 1) // 2]
    metrics = dict(mid["layers"])
    untraced = statistics.median(timed)
    metrics["trace.overhead_frac"] = (metrics["trace.wall_s"] - untraced) / untraced
    busy = sum(v for k, v in metrics.items() if k.endswith(".busy_s"))
    print(f"sum of layer busy_s = {busy:.6f} s, traced wall_s = "
          f"{metrics['trace.wall_s']:.6f} s, untraced wall_s = {untraced:.6f} s")
    if mid.get("missing_targets"):
        print("trace targets not found: " + ", ".join(mid["missing_targets"]))
    return metrics


def report(bench, trace, setup):
    """Print the human-readable summary; return attempted, failed, metrics."""
    samples = bench.samples
    attempted = len(samples)
    failed = sum(1 for s in samples if s["errors"])
    first = next((s for s in samples if "versions" in s), None)
    if first:
        env = " ".join(f"{k}={v}" for k, v in sorted(first["versions"].items()))
        print(f"env: {env} nproc={os.cpu_count()} "
              f"affinity={len(os.sched_getaffinity(0))} threads=1")
    for i, s in enumerate(samples):
        verdict = "ok" if not s["errors"] else "FAILED " + "; ".join(s["errors"])
        wall = f"{s['wall_s']:.4f}" if "wall_s" in s else "-"
        rss = f"{s['peak_rss_mb']:.1f}" if "peak_rss_mb" in s else "-"
        print(f"sample {i}: traced={int(s['traced'])} wall_s={wall} "
              f"peak_rss_mb={rss} {verdict}")
    if bench.reference:
        for k, v in sorted((bench.reference["counters"] or {}).items()):
            print(f"counter {k} = {v}")
        for k, v in sorted(bench.reference["digests"].items()):
            print(f"sha256 {k} {v}")
    print(f"failed_frac = {failed / attempted:.4f} ({failed} of {attempted} samples)")

    if trace:
        metrics = per_layer(samples)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = end_to_end([s for s in samples if not s["traced"]], setup,
                             attempted, failed)
        units = END_TO_END_UNITS
    for k, v in metrics.items():
        print(f"metric {k} = {v!r} {units[k]}")
    return attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None, workloads=WORKLOADS):
    parser = argparse.ArgumentParser(description="boxflow benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; reaches the program only as verify --seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "boxflow", "cli.py")):
        print(f"error: no boxflow source under {ROOT}/src", file=sys.stderr)
        return 2
    cli_argv = [a.format(seed=args.seed) for a in workloads[args.workload]]
    work_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: boxflow {' '.join(cli_argv)}")

    bench = Bench(args.workload, cli_argv, args.seconds, child_env(), work_dir)
    try:
        setup = [] if args.trace else bench.setup_times(SETUP_REPEATS)
        bench.measure([False, True] if args.trace else [False])
    except (Deadline, subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, metrics = report(bench, args.trace, setup)
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump({"args": vars(args), "argv": cli_argv, "samples": bench.samples,
                   "metrics": metrics}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
