"""Self-checking suite tying the pipeline stages together.

run_suite builds the grid, transition graph, Morse decomposition, index
pair, and Lyapunov fields for one system and runs a fixed list of property
checks against them: flow consistency, graph soundness, recurrence duality,
pair conditions, the fixed-point and renewal identities, monotonicity,
level correctness, filtration soundness, and artifact round-trips.  The
resulting VerifyReport renders to byte-stable JSON for a fixed seed.
"""

import math
import os
import tempfile
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .distances import BoxSetDistance
from .errors import ConstructionError, FiltrationError, IsolationError
from .flows import _advance
from .grid import BoxSet, build_grid, sample_in_boxes
from .jsonio import boolean, load_json, mapping, number, string, write_json
from .lyapunov import (CenterTable, Filtration, LyapunovField, LyapunovParams,
                       _QuotientSamples, _envelope_steps, _renewal_steps,
                       complete_lyapunov, extract_filtration, morse_lyapunov,
                       pair_lyapunov)
from .pairs import (IndexPair, build_index_pair, regularity_check,
                    retraction_check, validate_index_pair, _exit_times_batch,
                    _march_quotient)
from .recurrence import (chain_recurrent_boxes, check_R_equals_intersection,
                         enumerate_ar_pairs, ar_regions_in_pair, epsilon_chain_oracle,
                         morse_graph)
from .transition import EXIT, TransitionGraph, build_transition_graph, invariant_part


@dataclass
class CheckResult:
    """Outcome of one named check: verdict, numbers, and a short note."""

    name: str
    passed: bool
    applicable: bool
    measured: dict
    tolerance: float = None
    detail: str = ""

    @property
    def verdict(self):
        if not self.applicable:
            return "skip"
        return "pass" if self.passed else "FAIL"

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "applicable": bool(self.applicable),
            "measured": {k: _clean(v) for k, v in sorted(self.measured.items())},
            "tolerance": _clean(self.tolerance),
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data, what="check"):
        """The check one entry of a report's checks list holds; what names it in messages."""
        tolerance = data["tolerance"]
        return cls(name=string(data["name"], f"{what} name"),
                   passed=boolean(data["passed"], f"{what} passed"),
                   applicable=boolean(data["applicable"], f"{what} applicable"),
                   measured=dict(mapping(data["measured"], f"{what} measured")),
                   tolerance=None if tolerance is None else number(tolerance, f"{what} tolerance"),
                   detail=string(data["detail"], f"{what} detail"))


def _clean(v):
    """JSON-safe scalar: non-finite floats become None."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    return v


@dataclass
class VerifyReport:
    """All check results for one system plus the configuration that ran."""

    system: str
    parameters: dict
    checks: list = dataclass_field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks if c.applicable)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r}")

    def to_dict(self):
        return {
            "system": self.system,
            "parameters": {k: _clean(v) for k, v in sorted(self.parameters.items())},
            "overall_passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self, path):
        write_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path):
        def parse(data, where):
            return cls(system=string(data["system"], f"{where} system"),
                       parameters=dict(mapping(data["parameters"], f"{where} parameters")),
                       checks=[CheckResult.from_dict(c, f"{where} check {i}")
                               for i, c in enumerate(data["checks"])])
        return load_json(path, "verify report", parse)

    def __eq__(self, other):
        if not isinstance(other, VerifyReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def to_text(self):
        lines = [f"verify: {self.system}"]
        params = " ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
        lines.append(f"parameters: {params}")
        n_skip = sum(1 for c in self.checks if not c.applicable)
        n_app = len(self.checks) - n_skip
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({n_app} checks, {n_skip} skipped)")
        for c in self.checks:
            nums = " ".join(f"{k}={_clean(v)}" for k, v in sorted(c.measured.items()))
            tol = f" [tol {c.tolerance}]" if c.tolerance is not None else ""
            body = " ".join(s for s in (nums + tol, c.detail) if s)
            lines.append(f"  {c.verdict:4s} {c.name:26s} {body}".rstrip())
        return "\n".join(lines) + "\n"


def _sample_in_domain(rng, system, n):
    lo = system.domain[:, 0]
    hi = system.domain[:, 1]
    return lo + rng.random((n, system.dimension)) * (hi - lo)


def _flow_checks(system, rng, add):
    pts = _sample_in_domain(rng, system, 12)
    p1, e1, _ = _advance(system, pts, 0.7)
    p2, e2, _ = _advance(system, p1, 0.5)
    p3, e3, _ = _advance(system, pts, 1.2)
    ok = ~(e1 | e2 | e3)
    diff = float(np.abs(p2[ok] - p3[ok]).max()) if ok.any() else 0.0
    add("flow_semigroup", diff <= 1e-9, True,
        {"max_abs_diff": diff, "points_compared": int(ok.sum())}, 1e-9,
        "two-leg advance against one-leg advance")

    eqs = system.equilibria
    if len(eqs) == 0:
        add("flow_equilibria", True, False, {},
            None, "system declares no equilibria")
    else:
        eq_pts = np.asarray(eqs, dtype=float)
        end, esc, _ = _advance(system, eq_pts, 1.0)
        drift = math.inf if esc.any() else float(np.abs(end - eq_pts).max())
        add("flow_equilibria", drift <= 1e-9, True,
            {"max_drift": drift, "equilibria": len(eqs)}, 1e-9,
            "declared equilibria stay fixed over one time unit")

    pts = _sample_in_domain(rng, system, 8)
    a, ea, _ = _advance(system, pts, 1.0)
    b, eb, _ = _advance(system, pts, 1.0)
    same = np.array_equal(a, b) and np.array_equal(ea, eb)
    add("flow_determinism", same, True,
        {"max_abs_diff": float(np.abs(a - b).max())}, 0.0,
        "repeated marches agree bitwise")


def _graph_checks(system, grid, graph, inv, rng, add):
    n_probe = 200
    bidx, pts = sample_in_boxes(rng, grid, grid.all_boxes(), n_probe)
    end, esc, _ = _advance(system, pts, graph.map_time)
    diag = grid.box_diagonal()
    violations = 0
    excused = 0
    for i in range(n_probe):
        targets = graph.targets_of(int(bidx[i]))
        if esc[i]:
            hit = targets.size > 0 and targets[0] == EXIT
        else:
            b2 = grid.box_of(end[i])
            hit = bool((targets == b2).any())
        if hit:
            continue
        inside = BoxSet(targets[targets != EXIT])
        dist = float(np.atleast_1d(BoxSetDistance(grid, inside)(end[i][None, :]))[0]) \
            if inside else math.inf
        if dist <= diag:
            excused += 1
        else:
            violations += 1
    add("graph_outer_soundness", violations == 0, True,
        {"n_probes": n_probe, "violations": violations, "excused_near_misses": excused,
         "box_diagonal": diag}, None,
        "random-point images land in the enclosure, up to one box diagonal")

    inv2, _ = invariant_part(graph, inv)
    changed = len(inv.difference(inv2)) + len(inv2.difference(inv))
    add("invariant_idempotent", changed == 0, True,
        {"invariant_boxes": len(inv), "changed_on_second_pass": changed}, None,
        "the invariant part is a fixed point of the restriction")


def _recurrence_checks(mg, add):
    graph, inv = mg.graph, mg.invariant
    grid = graph.grid
    has_classes = mg.n >= 1
    if has_classes:
        order_viol = sum(1 for hi, lo in mg.partial_order if hi <= lo)
        for k, m in enumerate(mg.morse_sets, start=1):
            reached = mg.reach_classes(int(m.ids[0])) - {k}
            order_viol += sum(1 for j in reached if j >= k)
        add("morse_admissible_order", order_viol == 0, True,
            {"n_morse_sets": mg.n, "violations": order_viol}, None,
            "reachability only runs from higher index to lower")
    else:
        add("morse_admissible_order", True, False, {"n_morse_sets": 0},
            None, "no recurrent classes in the region")

    pairs = enumerate_ar_pairs(mg)
    recurrent = mg.recurrent
    dual_viol = 0
    for ar in pairs:
        if not ar.attractor.isdisjoint(ar.repeller):
            dual_viol += 1
        if not recurrent.issubset(ar.attractor.union(ar.repeller)):
            dual_viol += 1
    add("ar_duality", dual_viol == 0, has_classes,
        {"n_pairs": len(pairs), "violations": dual_viol}, None,
        "attractor and repeller are disjoint and cover the recurrent boxes")

    inv_mask = inv.mask(grid.n_boxes)
    fwd_viol = 0
    for ar in pairs:
        if not ar.attractor:
            continue
        # graph images of attractor boxes may pass through connecting boxes
        # that other classes also feed into, so test the forward-reach classes
        # of the targets rather than membership in the attractor itself
        reach_ok = mg.reaching_only(ar.down_set).mask(grid.n_boxes)
        _, dst = graph.edge_arrays(ar.attractor)
        fwd_viol += int((inv_mask[dst] & ~reach_ok[dst]).sum())
    add("attractor_forward_invariance", fwd_viol == 0, has_classes,
        {"n_pairs": len(pairs), "edge_violations": fwd_viol}, None,
        "edges out of an attractor reach only classes in its down-set")

    rep = check_R_equals_intersection(mg)
    add("recurrence_intersection", rep.equal, True,
        {"symmetric_difference": len(rep.symmetric_difference),
         "recurrent_boxes": len(rep.recurrent)}, None,
        "chain recurrent boxes equal the intersection of A united with A*")
    return recurrent


def _oracle_check(system, grid, graph, padding, epsilon, add):
    if grid.dimension != 1:
        add("oracle_agreement", True, False, {},
            None, "needs a one-dimensional grid")
        return
    if abs(graph.map_time - 0.6) < 1e-12:
        graph_o = graph
    else:
        graph_o = build_transition_graph(system, grid, 0.6, padding)
    cr = chain_recurrent_boxes(graph_o, grid.all_boxes())
    lo, hi = system.domain[0]
    pts = np.linspace(lo, hi, 201)[:, None]
    eps = epsilon if epsilon is not None else 2.0 * float(grid.widths[0])
    flagged = epsilon_chain_oracle(system, pts, eps, t_min=1.0, t_max=10.0)
    if flagged.size:
        flagged_boxes = sorted(set(np.atleast_1d(grid.box_of(flagged)).tolist()))
    else:
        flagged_boxes = []
    outside = [b for b in flagged_boxes if b not in cr]

    runs = []
    for b in cr.ids.tolist():
        if runs and b == runs[-1][-1] + 1:
            runs[-1].append(b)
        else:
            runs.append([b])
    empty = sum(1 for run in runs if not any(b in run for b in flagged_boxes))
    passed = not outside and empty == 0
    add("oracle_agreement", passed, True,
        {"flagged_points": int(flagged.shape[0]), "flagged_outside_recurrent": len(outside),
         "clusters": len(runs), "clusters_without_flag": empty,
         "epsilon": eps, "outside_boxes": outside[:5]}, None,
        "independent chain oracle against the recurrent boxes at map time 0.6")


def _pair_checks(system, mg, pair, fail_reason, rng, add):
    graph = mg.graph
    grid = graph.grid
    if pair is None and not mg.invariant:
        # a region with no invariant part has no index pair to build
        add("index_pair_valid", True, False, {}, None, fail_reason)
    elif pair is None:
        add("index_pair_valid", False, True, {}, None,
            f"construction failed: {fail_reason}")
    else:
        val = validate_index_pair(graph, pair)
        add("index_pair_valid", val.passed, True,
            {"n_boxes": len(pair.N), "l_boxes": len(pair.L),
             "condition_i_violations": len(val.condition_i_violations),
             "condition_ii_violations": len(val.condition_ii_violations)}, None,
            "positive invariance of L, exits through L, isolation")

    if system.name == "saddle1d" and grid.dimension == 1:
        hand = IndexPair.from_boxes(grid, grid.all_boxes().ids, [])
        vals = np.arange(1, 10) / 10.0
        xs = np.concatenate([-vals[::-1], vals])[:, None]
        taus = _exit_times_batch(system, hand, xs, 1e-3, 3.0)
        err = float(np.abs(taus - np.log(1.0 / np.abs(xs[:, 0]))).max())
        add("exit_time_closed_form", err < 1e-3, True,
            {"max_abs_error": err, "points": xs.shape[0]}, 1e-3,
            "exit times of the full-domain pair against ln(1/|x|)")
    else:
        add("exit_time_closed_form", True, False, {},
            1e-3, "closed form available for saddle1d only")

    if pair is None:
        add("pair_regularity", True, False, {}, None, "no index pair available")
        add("pair_retraction", True, False, {}, None, "no index pair available")
        return
    reg = regularity_check(system, pair, n_samples=50, t_probe=1.0, rng=rng)
    add("pair_regularity", reg.passed, True,
        {"l_samples": reg.n_checked, "violations": len(reg.violations),
         "modulus": reg.modulus, "modulus_pairs": reg.modulus_pairs}, None,
        "exit-set samples leave the isolating neighborhood promptly")
    ret = retraction_check(system, pair, n_samples=50, rng=rng)
    add("pair_retraction", ret.passed, True,
        {"tested": ret.n_tested, "skipped": ret.n_skipped,
         "failures": len(ret.failures)}, None,
        "orbits stopped at their exit time land next to L")


def _orbit_checks(system, grid, pair, fields, ar_first, recurrent, params, rng, add):
    """The fixed-point, renewal, monotone and strict-decrease checks of
    fields, which are all fields of pair.

    The samples of every field are drawn first, in the order the checks
    list them, and then marched together in one _march_quotient long
    enough for each check.  The samples of each field are read through
    one _QuotientSamples that keeps ρ, so ρ of each profile is evaluated
    once per field: the envelope h at a fixed-point sample and at its
    one-step image is read off the windows of samples [0, n_env] and
    [1, 1 + n_env], g at a k-step image off the window shifted by k, and
    the renewal residual off a prefix.
    """
    dt = params.dt
    t_probes = (0.5, 1.0, 2.0)
    probe_ks = [int(round(t / dt)) for t in t_probes]
    k_renew = _renewal_steps(params, 1.0)
    k_strict = int(round(1.0 / dt))
    n_env = _envelope_steps(params.t_max + params.settle, dt)
    fixed = [sample_in_boxes(rng, grid, pair.core, 4)[1] for _ in fields]
    renew = [sample_in_boxes(rng, grid, pair.core, 4)[1] for _ in fields]
    mono = [sample_in_boxes(rng, grid, pair.core, 40)[1] for _ in fields]
    strict = []
    for field in fields:
        if field.construction == "single-pair":
            pinned = ar_first.alpha.union(ar_first.omega).union(pair.L)
        else:
            pinned = recurrent.union(pair.L)
        cand = pair.core.difference(grid.dilate(pinned, 2))
        strict.append(sample_in_boxes(rng, grid, cand, 30)[1] if cand
                      else np.empty((0, grid.dimension)))

    per_field = list(zip(fixed, renew, mono, strict))
    _, n_total = params.steps()
    positions, absorbed, boxes = _march_quotient(
        system, pair, np.concatenate([pts for parts in per_field for pts in parts]),
        max(n_total + max(k_renew, max(probe_ks), k_strict), 1 + n_env), dt)

    fixed_worst = 0.0
    fixed_evaluated = 0
    fixed_skipped = 0
    renew_worst = 0.0
    renew_count = 0
    max_inc = 0.0
    mono_viol = 0
    mono_total = 0
    dec_viol = 0
    tested = 0
    min_dec = math.inf
    start = 0
    for field, (fixed_pts, renew_pts, mono_pts, strict_pts) in zip(fields, per_field):
        f = fixed_pts.shape[0]
        a = f + renew_pts.shape[0]
        b = a + mono_pts.shape[0]
        cols = slice(start, start + b + strict_pts.shape[0])
        start = cols.stop
        samples = _QuotientSamples(pair, positions[:, cols], absorbed[:, cols], boxes[:, cols],
                                   keep_rho=True)
        # the renewal reads every profile, so its one pass over the samples
        # keeps ρ of all of them for the envelopes and g below
        res = samples.renewal(field, k_renew)[f:a]
        renew_worst = max(renew_worst, float(res.max()))
        renew_count += renew_pts.shape[0]

        for p in sorted({0, len(field.profiles) - 1}):
            rho_fn = field.profiles[p][1]
            h, conv = (out[:f] for out in samples.envelope(rho_fn, 0, n_env))
            h1, c1 = (out[:f] for out in samples.envelope(rho_fn, 1, n_env))
            ok = conv & c1
            fixed_skipped += int((~ok).sum())
            fixed_evaluated += int(ok.sum())
            if ok.any():
                res = np.abs(h[ok] - np.maximum(rho_fn(fixed_pts[ok]), h1[ok]))
                fixed_worst = max(fixed_worst, float(res.max()))

        g0 = samples.g(field.profiles, field.params)
        for k in probe_ks:
            inc = (samples.g(field.profiles, field.params, k) - g0)[a:b]
            mono_viol += int((inc > 1e-6).sum())
            max_inc = max(max_inc, float(inc.max()))
            mono_total += mono_pts.shape[0]

        if strict_pts.shape[0]:
            dec = (g0 - samples.g(field.profiles, field.params, k_strict))[b:]
            dec_viol += int((dec <= 1e-4).sum())
            min_dec = min(min_dec, float(dec.min()))
            tested += strict_pts.shape[0]

    add("lyapunov_fixed_point", fixed_worst <= 1e-6, True,
        {"evaluations": fixed_evaluated, "skipped_unconverged": fixed_skipped,
         "max_residual": fixed_worst}, 1e-6,
        "envelope satisfies h(x) = max(rho(x), h after one step)")
    add("lyapunov_renewal", renew_worst < 2e-3, True,
        {"evaluations": renew_count, "max_residual": renew_worst}, 2e-3,
        "discounted average satisfies its renewal identity at t = 1")
    add("lyapunov_monotone", mono_viol == 0, True,
        {"samples": mono_total, "violations": mono_viol, "max_increase": max_inc}, 1e-6,
        "g never grows along quotient orbits at t in {0.5, 1, 2}")
    add("lyapunov_strict_decrease", dec_viol == 0, True,
        {"samples": tested, "violations": dec_viol,
         "min_decrease": None if tested == 0 else min_dec}, 1e-4,
        "g drops along orbits seeded two boxes away from the pinned sets")


def _lyapunov_checks(system, grid, pair, mg, fields, ar_first, recurrent, params, rng, add):
    """The Lyapunov checks of fields, which are all fields of pair."""
    if not fields:
        for name in ("lyapunov_fixed_point", "lyapunov_renewal", "lyapunov_monotone",
                     "lyapunov_strict_decrease", "lyapunov_levels"):
            add(name, True, False, {}, None, "no Lyapunov fields available")
        return

    _orbit_checks(system, grid, pair, fields, ar_first, recurrent, params, rng, add)

    f_morse = next((f for f in fields if f.construction == "morse-sum"), None)
    deep = min(grid.shape) >= (256 if grid.dimension == 1 else 64)
    if f_morse is None or not deep:
        add("lyapunov_levels", True, False, {"depth": list(grid.shape)},
            0.1, "needs a morse-sum field at full resolution")
        return
    max_dev = 0.0
    for k, m in enumerate(mg.morse_sets, start=1):
        idx = np.searchsorted(f_morse.boxes, m.ids)
        max_dev = max(max_dev, float(np.abs(f_morse.values[idx] - k).max()))
    l_vals = [f_morse.value_of_box(int(b)) for b in pair.L.ids[:20]]
    zero_ok = all(v == 0.0 for v in l_vals)
    add("lyapunov_levels", max_dev < 0.1 and zero_ok, True,
        {"max_level_deviation": max_dev, "n_morse_sets": mg.n}, 0.1,
        "morse-sum values sit at the admissible index on each Morse set")


def _constancy_check(grid, mg, f_complete, add):
    applicable = (grid.dimension == 2 and f_complete is not None
                  and mg.n >= 1 and len(mg.morse_sets[0]) >= 12)
    if not applicable:
        add("limit_cycle_constancy", True, False, {}, 0.05,
            "needs a two-dimensional system with a large first Morse set")
        return
    m = mg.morse_sets[0]
    idx = np.searchsorted(f_complete.boxes, m.ids)
    vals = f_complete.values[idx]
    spread = float(vals.max() - vals.min())
    add("limit_cycle_constancy", spread < 0.05, True,
        {"cycle_boxes": len(m), "spread": spread,
         "level": float(vals.mean())}, 0.05,
        "complete function is constant on the lowest Morse set")


def _filtration_check(system, f_morse, rng, add):
    if f_morse is None:
        add("filtration_soundness", True, False, {}, None,
            "no morse-sum field available")
        return None
    try:
        filtration, _ = extract_filtration(system, f_morse, rng=rng, n_samples=30)
    except FiltrationError as exc:
        add("filtration_soundness", False, True,
            {"failed_level": exc.level}, None, str(exc))
        return None
    add("filtration_soundness", True, True,
        {"levels": len(filtration.levels)}, None,
        "every nested cut validates as a regular index pair")
    return filtration


def _roundtrip_check(graph, pair, f_morse, filtration, add):
    names = []
    ok = True
    artifacts = [("graph", graph, TransitionGraph), ("pair", pair, IndexPair),
                 ("field", f_morse, LyapunovField), ("filtration", filtration, Filtration)]
    with tempfile.TemporaryDirectory() as td:
        for name, obj, cls in artifacts:
            if obj is None:
                continue
            path = os.path.join(td, f"{name}.json")
            obj.to_json(path)
            ok &= cls.from_json(path) == obj
            names.append(name)
    add("artifact_roundtrip", bool(ok), True,
        {"artifacts": len(names)}, None,
        "serialized and reloaded: " + ", ".join(names))


def run_suite(system, depth, map_time=1.0, padding=None, dt=0.05, t_max=12.0,
              epsilon=None, seed=0):
    """Run every check against one system and collect a VerifyReport.

    The checks consume one seeded generator in a fixed order, so two runs
    with the same configuration and seed produce identical reports.
    """
    rng = np.random.default_rng(seed)
    grid = build_grid(system.domain, depth)
    graph = build_transition_graph(system, grid, map_time, padding)
    mg = morse_graph(graph, grid.all_boxes())
    params = LyapunovParams(dt=dt, t_max=t_max)

    checks = []

    def add(name, passed, applicable, measured, tolerance, detail):
        checks.append(CheckResult(name=name, passed=bool(passed),
                                  applicable=bool(applicable), measured=measured,
                                  tolerance=tolerance, detail=detail))

    _flow_checks(system, rng, add)
    _graph_checks(system, grid, graph, mg.invariant, rng, add)
    recurrent = _recurrence_checks(mg, add)
    _oracle_check(system, grid, graph, padding, epsilon, add)

    pair = None
    fail_reason = None
    try:
        pair = build_index_pair(mg)
    except (IsolationError, ConstructionError) as exc:
        fail_reason = str(exc)
    _pair_checks(system, mg, pair, fail_reason, rng, add)

    fields = []
    ar_first = None
    f_morse = None
    f_complete = None
    if pair is not None and mg.n >= 1:
        table = CenterTable(system, pair, params)
        # every Morse-sum profile is a profile of the complete field, so
        # built first the complete field leaves one pass over the table's
        # samples to the single-pair field and none to the Morse sum
        f_complete = complete_lyapunov(system, pair, mg, params, table=table)
        f_morse = morse_lyapunov(system, pair, mg, params, table=table)
        if mg.n >= 2:
            ar_first = ar_regions_in_pair(mg, frozenset({1}))
            fields.append(pair_lyapunov(system, pair, ar_first, params, table=table))
        fields.extend([f_morse, f_complete])
    _lyapunov_checks(system, grid, pair, mg, fields, ar_first, recurrent, params, rng, add)
    _constancy_check(grid, mg, f_complete, add)
    filtration = _filtration_check(system, f_morse, rng, add)
    _roundtrip_check(graph, pair, f_morse, filtration, add)

    parameters = {
        "system": system.name,
        "depth": list(grid.shape),
        "map_time": map_time,
        "padding": graph.padding,
        "dt": dt,
        "t_max": t_max,
        "epsilon": epsilon,
        "seed": seed,
    }
    return VerifyReport(system=system.name, parameters=parameters, checks=checks)
