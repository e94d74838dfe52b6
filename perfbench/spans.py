"""Span tracing for the traced benchmark run.

The wrappers live in the benchmark, not in the program: each one replaces
a public boxflow function (or method) by a timing shim and rebinds that
name in every boxflow module that imported it, so calls between modules
are seen too.  Each span records its name, layer, parent span, start and
end; spans stay in memory and are written out once the run ends.

A layer is named after the module it times.  Its busy time is self time:
span time minus the time of the spans nested directly inside it, so the
busy times of all layers add up to the root span (``cli.main``).
"""

import functools
import json
import math
import os
import sys
import time
from collections import Counter

LAYERS = ("flows", "transition", "recurrence", "pairs", "distances",
          "lyapunov", "verify", "io", "cli")


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _rk4_steps(t, h):
    # Same whole-step-plus-remainder split as the integrator uses; kept
    # here so the counter does not depend on a private helper.
    if t <= 0:
        return 0
    n = int(math.floor(t / h + 1e-9))
    rem = t - n * h
    return n + (rem > 1e-12 * max(1.0, abs(t)))


def _count_advance(c, args, kwargs, result):
    system, points, t = args[0], args[1], _arg(args, kwargs, 2, "t")
    rows = len(points)
    c["flows.calls"] += 1
    c["flows.rows"] += rows
    c["flows.row_steps"] += rows * _rk4_steps(t, system.step)


def _count_graph(c, args, kwargs, result):
    grid = args[1]
    per_box = _arg(args, kwargs, 4, "samples_per_axis", 3) ** grid.dimension
    c["transition.boxes"] += grid.n_boxes
    c["transition.lattice_points"] += grid.n_boxes * per_box
    c["transition.edges"] += result.n_edges


def _count_box_image(c, args, kwargs, result):
    grid = args[1]
    per_box = _arg(args, kwargs, 5, "samples_per_axis", 3) ** grid.dimension
    c["transition.boxes"] += 1
    c["transition.lattice_points"] += per_box
    c["transition.edges"] += len(result)


def _count_morse(c, args, kwargs, result):
    c["recurrence.morse_sets"] += result.n
    c["recurrence.recurrent_boxes"] += sum(len(m) for m in result.morse_sets)


def _count_distance(c, args, kwargs, result):
    points = args[1]
    c["distances.points"] += 1 if getattr(points, "ndim", 2) == 1 else len(points)


def _count_min_distance(c, args, kwargs, result):
    # A box-set distance queries one centre per box of the first set.
    first, second = args[1], args[2]
    if first and second:
        c["distances.points"] += len(first)


def _count_field(c, args, kwargs, result):
    c["lyapunov.profiles"] += len(result.profiles)
    c["lyapunov.field_boxes"] += int(result.boxes.size)


def _count_suite(c, args, kwargs, result):
    c["verify.checks"] += len(result.checks)
    c["verify.checks_failed"] += sum(1 for k in result.checks
                                     if k.applicable and not k.passed)


def _count_written(c, args, kwargs, result):
    # Writers take (self, path) or (path, data); either way the path is
    # the first string argument and the file is complete when they return.
    path = next(a for a in args if isinstance(a, str))
    c["io.bytes"] += os.path.getsize(path)


_FLOWS = "boxflow.flows"
_TRANSITION = "boxflow.transition"
_RECURRENCE = "boxflow.recurrence"
_PAIRS = "boxflow.pairs"
_LYAPUNOV = "boxflow.lyapunov"

# (layer, module, qualified name, counter or None)
TARGETS = (
    ("flows", _FLOWS, "_advance", _count_advance),
    ("flows", _FLOWS, "flow_map", None),
    ("flows", _FLOWS, "sample_trajectory", None),
    ("transition", _TRANSITION, "build_transition_graph", _count_graph),
    ("transition", _TRANSITION, "box_image", _count_box_image),
    ("transition", _TRANSITION, "invariant_part", None),
    ("recurrence", _RECURRENCE, "morse_graph", _count_morse),
    ("recurrence", _RECURRENCE, "chain_recurrent_boxes", None),
    ("recurrence", _RECURRENCE, "ar_regions_in_pair", None),
    ("recurrence", _RECURRENCE, "enumerate_ar_pairs", None),
    ("recurrence", _RECURRENCE, "epsilon_chain_oracle", None),
    ("recurrence", _RECURRENCE, "check_R_equals_intersection", None),
    ("pairs", _PAIRS, "build_index_pair", None),
    ("pairs", _PAIRS, "validate_index_pair", None),
    ("pairs", _PAIRS, "exit_time", None),
    ("pairs", _PAIRS, "regularity_check", None),
    ("pairs", _PAIRS, "retraction_check", None),
    ("pairs", _PAIRS, "quotient_flow", None),
    ("pairs", _PAIRS, "stopped_flow", None),
    ("distances", "boxflow.distances", "BoxSetDistance.__call__", _count_distance),
    ("distances", "boxflow.distances", "boxset_min_distance", _count_min_distance),
    ("lyapunov", _LYAPUNOV, "morse_lyapunov", _count_field),
    ("lyapunov", _LYAPUNOV, "pair_lyapunov", _count_field),
    ("lyapunov", _LYAPUNOV, "complete_lyapunov", _count_field),
    ("lyapunov", _LYAPUNOV, "sup_envelope", None),
    ("lyapunov", _LYAPUNOV, "discounted_average", None),
    ("lyapunov", _LYAPUNOV, "renewal_residual", None),
    ("lyapunov", _LYAPUNOV, "uniform_entry_time", None),
    ("lyapunov", _LYAPUNOV, "extract_filtration", None),
    ("verify", "boxflow.verify", "run_suite", _count_suite),
    ("io", _TRANSITION, "TransitionGraph.to_json", _count_written),
    ("io", _TRANSITION, "TransitionGraph.to_dot", None),
    ("io", _RECURRENCE, "MorseGraph.to_json", _count_written),
    ("io", _RECURRENCE, "MorseGraph.to_dot", None),
    ("io", _PAIRS, "IndexPair.to_json", _count_written),
    ("io", _LYAPUNOV, "LyapunovField.to_json", _count_written),
    ("io", _LYAPUNOV, "LyapunovField.to_csv", _count_written),
    ("io", _LYAPUNOV, "Filtration.to_json", _count_written),
    ("io", "boxflow.verify", "VerifyReport.to_json", _count_written),
    ("io", "boxflow.verify", "VerifyReport.to_text", None),
    ("io", "boxflow.cli", "RunConfig.to_json", _count_written),
    ("io", "boxflow.cli", "_write_json", _count_written),
    ("io", "boxflow.cli", "_write_text", _count_written),
    ("io", "boxflow.cli", "_plot_csv", None),
    ("cli", "boxflow.cli", "main", None),
)


class Tracer:
    """Collects spans and counters from the wrapped boxflow calls."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, layer, parent index, start, end]
        self.counters = Counter()
        self.missing = []
        self._stack = []

    def _wrap(self, layer, name, fn, count):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else None, clock(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target that the imported boxflow package defines.

        A target the program no longer has is listed in ``missing`` rather
        than failing the run, so the benchmark keeps working across
        refactors; its time then shows up in the calling layer.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "boxflow" or n.startswith("boxflow."))]
        for layer, module_name, qualname, count in TARGETS:
            owner = sys.modules.get(module_name)
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            traced = self._wrap(layer, qualname, original, count)
            if outer:
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def busy(self):
        """Self time per layer, the root span's duration, and span counts."""
        child_time = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        busy = dict.fromkeys(LAYERS, 0.0)
        calls = Counter()
        root = 0.0
        for i, (_, layer, parent, start, end) in enumerate(self.spans):
            busy[layer] += (end - start) - child_time[i]
            calls[layer] += 1
            if parent is None:
                root += end - start
        return busy, root, calls

    def metrics(self):
        """Per-layer metrics of this run, named as in BENCHMARK.json."""
        busy, root, calls = self.busy()
        c = Counter({k: int(v) for k, v in self.counters.items()})
        out = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
        out.update({
            "flows.calls": c["flows.calls"],
            "flows.row_steps": c["flows.row_steps"],
            "flows.rows_per_call": c["flows.rows"] / c["flows.calls"] if c["flows.calls"] else 0.0,
            "transition.boxes": c["transition.boxes"],
            "transition.edges": c["transition.edges"],
            "transition.lattice_points": c["transition.lattice_points"],
            "recurrence.calls": calls["recurrence"],
            "recurrence.morse_sets": c["recurrence.morse_sets"],
            "recurrence.recurrent_boxes": c["recurrence.recurrent_boxes"],
            "pairs.calls": calls["pairs"],
            "distances.calls": calls["distances"],
            "distances.points": c["distances.points"],
            "distances.points_per_call": (c["distances.points"] / calls["distances"]
                                          if calls["distances"] else 0.0),
            "lyapunov.calls": calls["lyapunov"],
            "lyapunov.profiles": c["lyapunov.profiles"],
            "lyapunov.field_boxes": c["lyapunov.field_boxes"],
            "verify.checks": c["verify.checks"],
            "verify.checks_failed": c["verify.checks_failed"],
            "io.bytes": c["io.bytes"],
            "trace.wall_s": root,
        })
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "layer", "parent", "start", "end"],
                       "spans": self.spans, "missing": self.missing}, fh)
