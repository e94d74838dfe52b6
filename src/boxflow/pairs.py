"""Combinatorial index pairs (N, L) and the semiflows they induce.

An index pair is a pair of box sets L ⊆ N such that L is positively
invariant relative to N and every orbit leaving N passes through L first.
The quotient space N/L collapses L to a single absorbing basepoint; the
exit-time map records when orbits leave the closure of N−L.
"""

import json
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .distances import BoxSetDistance
from .errors import ConstructionError, IngestionError, IsolationError, PreconditionError
from .flows import Escape, _advance, flow_map
from .grid import BoxGrid, BoxSet
from .transition import EXIT, invariant_part


class _Basepoint:
    """The collapsed class [L] of a quotient space N/L."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "[L]"


BASEPOINT = _Basepoint()


def _ingest_boxes(grid, name, ids):
    try:
        boxes = BoxSet(ids)
    except (TypeError, ValueError) as exc:
        raise IngestionError(f"{name} is not a list of box ids: {exc}") from exc
    bad = boxes.ids[(boxes.ids < 0) | (boxes.ids >= grid.n_boxes)]
    if bad.size:
        raise IngestionError(
            f"{name} has box ids outside the grid's 0..{grid.n_boxes - 1}: {bad[:5].tolist()}")
    return boxes


class IndexPair:
    """Box sets L ⊆ N with the derived core N−L and its box closure."""

    def __init__(self, grid, N, L):
        if not L.issubset(N):
            raise PreconditionError("L must be a subset of N")
        self.grid = grid
        self.N = N
        self.L = L
        self.core = N.difference(L)
        self.isolating = grid.closure(self.core)
        self.basepoint = BASEPOINT
        self._N_mask = N.mask(grid.n_boxes)
        self._L_mask = L.mask(grid.n_boxes)
        self._core_mask = self.core.mask(grid.n_boxes)
        self._isolating_mask = self.isolating.mask(grid.n_boxes)

    @classmethod
    def from_boxes(cls, grid, n_ids, l_ids):
        """The pair of the given id lists; ids outside the grid are rejected."""
        return cls(grid, _ingest_boxes(grid, "N", n_ids), _ingest_boxes(grid, "L", l_ids))

    def in_N(self, box):
        return box >= 0 and bool(self._N_mask[box])

    def in_L(self, box):
        return box >= 0 and bool(self._L_mask[box])

    def in_core(self, box):
        return box >= 0 and bool(self._core_mask[box])

    def in_isolating(self, box):
        return box >= 0 and bool(self._isolating_mask[box])

    def __eq__(self, other):
        if not isinstance(other, IndexPair):
            return NotImplemented
        return self.grid == other.grid and self.N == other.N and self.L == other.L

    def __repr__(self):
        return f"IndexPair(|N|={len(self.N)}, |L|={len(self.L)})"

    def to_json(self, path):
        data = {
            "grid": {"domain": self.grid.domain.tolist(), "shape": list(self.grid.shape)},
            "N": self.N.ids.tolist(),
            "L": self.L.ids.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise IngestionError(f"cannot read pair file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise IngestionError(f"pair file {path} is not valid JSON: {exc}") from exc
        for key in ("grid", "N", "L"):
            if key not in data:
                raise IngestionError(f"pair file {path} is missing '{key}'")
        try:
            grid = BoxGrid(np.asarray(data["grid"]["domain"], dtype=float),
                           data["grid"]["shape"])
        except (KeyError, TypeError) as exc:
            raise IngestionError(f"pair file {path} has malformed 'grid': {exc}") from exc
        return cls.from_boxes(grid, data["N"], data["L"])


def build_index_pair(graph, region):
    """Construct an index pair around the invariant part of a region.

    N is the forward closure of the invariant part inside the region; L
    collects the boxes of N with an edge leaving N, closed under relative
    positive invariance.  The result is validated before being returned.
    """
    inv, isolated = invariant_part(graph, region)
    if not inv:
        raise IsolationError("the region has an empty invariant part")
    if not isolated:
        raise IsolationError(
            "the invariant part touches the region's boundary layer; "
            "enlarge the region or refine the grid")

    src, dst = graph.edge_arrays()
    # start from one closure layer so the invariant part sits in the grid
    # interior of N and continuous orbits cannot slip out between map steps
    N = graph.grid.closure(inv).intersection(region)
    frontier = N
    while frontier:
        sel = np.isin(src, frontier.ids)
        imgs = BoxSet(dst[sel & (dst >= 0)]).intersection(region)
        frontier = imgs.difference(N)
        N = N.union(frontier)

    n_mask = N.mask(graph.grid.n_boxes)
    leaves = (dst == EXIT) | ~n_mask[np.maximum(dst, 0)]
    L = BoxSet(src[leaves & n_mask[src]])
    while True:
        sel = np.isin(src, L.ids) & (dst >= 0) & n_mask[np.maximum(dst, 0)]
        grown = L.union(BoxSet(dst[sel]))
        if grown == L:
            break
        L = grown

    pair = IndexPair(graph.grid, N, L)
    if not inv.issubset(pair.core):
        raise ConstructionError(
            "exit closure swallowed part of the invariant part; "
            "refine the grid or shrink the map time")
    report = validate_index_pair(graph, pair)
    if not report.passed:
        raise ConstructionError(
            f"constructed pair fails validation: {report.summary()}")
    return pair


@dataclass
class PairValidation:
    condition_i_violations: list
    condition_ii_violations: list
    isolating_ok: bool
    invariant_core: BoxSet

    @property
    def condition_i(self):
        return not self.condition_i_violations

    @property
    def condition_ii(self):
        return not self.condition_ii_violations

    @property
    def passed(self):
        return self.condition_i and self.condition_ii and self.isolating_ok

    def summary(self):
        return (f"condition_i={'pass' if self.condition_i else self.condition_i_violations[:5]} "
                f"condition_ii={'pass' if self.condition_ii else self.condition_ii_violations[:5]} "
                f"isolating={'pass' if self.isolating_ok else 'fail'}")

    def to_dict(self):
        return {
            "condition_i": self.condition_i,
            "condition_i_violations": [list(v) for v in self.condition_i_violations],
            "condition_ii": self.condition_ii,
            "condition_ii_violations": [list(v) for v in self.condition_ii_violations],
            "isolating_ok": self.isolating_ok,
            "invariant_core": self.invariant_core.ids.tolist(),
            "passed": self.passed,
        }


def validate_index_pair(graph, pair):
    """Check conditions (i), (ii), and the isolating clause on the graph."""
    src, dst = graph.edge_arrays()
    n_mask = pair._N_mask
    l_mask = pair._L_mask

    from_l = l_mask[src]
    into_n = (dst >= 0) & n_mask[np.maximum(dst, 0)]
    bad_i = from_l & into_n & ~l_mask[np.maximum(dst, 0)]
    cond_i = list(zip(src[bad_i].tolist(), dst[bad_i].tolist()))

    from_core = pair._core_mask[src]
    out_of_n = (dst == EXIT) | ~n_mask[np.maximum(dst, 0)]
    bad_ii = from_core & out_of_n
    cond_ii = list(zip(src[bad_ii].tolist(), dst[bad_ii].tolist()))

    inv_core, _ = invariant_part(graph, pair.core)
    edge = pair.grid.boundary_layer(pair.grid.all_boxes())
    isolated = len(inv_core.intersection(edge)) == 0
    return PairValidation(condition_i_violations=cond_i,
                          condition_ii_violations=cond_ii,
                          isolating_ok=isolated,
                          invariant_core=inv_core)


def _exit_times_batch(system, pair, points, dt, horizon):
    """Exit times of closure(N−L) for a batch of points, inf if never.

    Marches all points with step dt, then refines each crossing by bisection
    to dt/1024.  Points in L-boxes have exit time 0 by definition.
    """
    grid = pair.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    out = np.full(m, math.inf)
    boxes = grid.box_of(pts)
    boxes = np.atleast_1d(boxes)
    out[pair._L_mask[np.maximum(boxes, 0)] & (boxes >= 0)] = 0.0

    active = out > 0
    current = pts.copy()
    bracket_lo = np.zeros(m)
    base = pts.copy()
    t = 0.0
    n_steps = int(math.ceil(horizon / dt - 1e-9))
    for _ in range(n_steps):
        if not active.any():
            break
        nxt, escaped, _ = _advance(system, current[active], dt)
        idx = np.flatnonzero(active)
        boxes = np.atleast_1d(grid.box_of(nxt))
        inside = ~escaped & (boxes >= 0) & pair._isolating_mask[np.maximum(boxes, 0)]
        crossed = idx[~inside]
        if crossed.size:
            bracket_lo[crossed] = t
            base[crossed] = current[crossed]
            active[crossed] = False
        current[idx[inside]] = nxt[inside]
        t += dt

    crossed = np.isinf(out) & ~active & (bracket_lo >= 0)
    for i in np.flatnonzero(crossed):
        lo, hi = 0.0, dt
        while hi - lo > dt / 1024:
            mid = 0.5 * (lo + hi)
            probe = flow_map(system, base[i], mid)
            if isinstance(probe, Escape):
                inside = False
            else:
                b = grid.box_of(probe)
                inside = pair.in_isolating(b)
            if inside:
                lo = mid
            else:
                hi = mid
        out[i] = bracket_lo[i] + 0.5 * (lo + hi)
    return out


def exit_time(system, pair, x, dt=1e-3, horizon=50.0):
    """Time for the orbit of x to leave closure(N−L); 0 on L, inf if never.

    The crossing is bracketed at step dt and refined by bisection to
    dt/1024.  Returns math.inf when the orbit stays inside through the
    horizon.
    """
    x = np.asarray(x, dtype=float)
    box = pair.grid.box_of(x)
    if not pair.in_N(box):
        raise PreconditionError(f"point {x.tolist()} is not in an N-box")
    return float(_exit_times_batch(system, pair, x[None, :], dt, horizon)[0])


def quotient_flow(system, pair, x, t, dt=0.05):
    """The induced semiflow on N/L: the basepoint absorbs exiting orbits.

    Returns the advanced point when every sample along [0, t] at spacing dt
    stays in N−L boxes, and BASEPOINT otherwise.
    """
    if x is BASEPOINT:
        return BASEPOINT
    x = np.asarray(x, dtype=float)
    box = pair.grid.box_of(x)
    if not pair.in_core(box):
        return BASEPOINT
    current = x
    elapsed = 0.0
    while elapsed < t - 1e-12:
        step = min(dt, t - elapsed)
        nxt = flow_map(system, current, step)
        if isinstance(nxt, Escape):
            return BASEPOINT
        if not pair.in_core(pair.grid.box_of(nxt)):
            return BASEPOINT
        current = nxt
        elapsed += step
    return current


def stopped_flow(system, pair, x, t, dt=1e-3):
    """The flow stopped at the exit time: φ advanced by min(t, τ₊(x))."""
    x = np.asarray(x, dtype=float)
    tau = exit_time(system, pair, x, dt=dt, horizon=max(t, 1.0) + dt)
    advance_by = min(t, tau)
    result = flow_map(system, x, advance_by)
    if isinstance(result, Escape):
        return result.point
    return result


@dataclass
class RegularityReport:
    passed: bool
    violations: list
    n_checked: int
    modulus: float = dataclass_field(default=float("nan"))
    modulus_pairs: int = 0

    def to_dict(self):
        return {
            "passed": self.passed,
            "violations": [[int(b), [float(c) for c in p]] for b, p in self.violations],
            "n_checked": self.n_checked,
            "modulus": self.modulus,
            "modulus_pairs": self.modulus_pairs,
        }


def regularity_check(system, pair, n_samples=50, t_probe=1.0, rng=None):
    """Sample test of the regularity criterion for index pairs.

    Points seeded in L-boxes must leave closure(N−L) within the probe grid
    (a point already outside at time 0 passes immediately).  Also estimates
    a modulus of continuity of the exit time over nearby core points.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    grid = pair.grid
    violations = []
    n_checked = 0
    if pair.L:
        picks = pair.L.ids[rng.integers(0, len(pair.L), size=n_samples)]
        bounds = grid.bounds(picks)
        pts = bounds[:, :, 0] + rng.random((n_samples, grid.dimension)) * grid.widths
        times = np.linspace(0.0, t_probe, 9)
        for i in range(n_samples):
            n_checked += 1
            stayed = True
            for s in times:
                probe = flow_map(system, pts[i], s)
                if isinstance(probe, Escape):
                    stayed = False
                    break
                if not pair.in_isolating(grid.box_of(probe)):
                    stayed = False
                    break
            if stayed:
                violations.append((int(picks[i]), pts[i].tolist()))

    modulus = float("nan")
    pairs_checked = 0
    if pair.core:
        k = max(4, n_samples // 2)
        picks = pair.core.ids[rng.integers(0, len(pair.core), size=k)]
        bounds = grid.bounds(picks)
        margin = 0.25
        base = (bounds[:, :, 0] + (margin + (1 - 2 * margin)
                * rng.random((k, grid.dimension))) * grid.widths)
        shift = (rng.random((k, grid.dimension)) - 0.5) * 0.25 * grid.widths
        tau_a = _exit_times_batch(system, pair, base, 1e-2, 20.0)
        tau_b = _exit_times_batch(system, pair, base + shift, 1e-2, 20.0)
        both = np.isfinite(tau_a) & np.isfinite(tau_b)
        pairs_checked = int(both.sum())
        if pairs_checked:
            modulus = float(np.abs(tau_a[both] - tau_b[both]).max())

    return RegularityReport(passed=not violations, violations=violations,
                            n_checked=n_checked, modulus=modulus,
                            modulus_pairs=pairs_checked)


@dataclass
class RetractionReport:
    passed: bool
    failures: list
    n_tested: int
    n_skipped: int

    def to_dict(self):
        return {
            "passed": self.passed,
            "failures": [[float(c) for c in p] for p in self.failures],
            "n_tested": self.n_tested,
            "n_skipped": self.n_skipped,
        }


def retraction_check(system, pair, n_samples=50, rng=None, dt=1e-3):
    """Check that orbits stopped at their exit time land next to L.

    Samples core points with exit time at most 1, stops them at that time,
    and requires the endpoint within one box width of the L-boxes; also
    checks that stopping at time 0 is the identity.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    grid = pair.grid
    if not pair.core:
        return RetractionReport(passed=True, failures=[], n_tested=0, n_skipped=0)
    picks = pair.core.ids[rng.integers(0, len(pair.core), size=n_samples)]
    bounds = grid.bounds(picks)
    pts = bounds[:, :, 0] + rng.random((n_samples, grid.dimension)) * grid.widths
    taus = _exit_times_batch(system, pair, pts, dt, horizon=1.0 + 4 * dt)

    l_distance = BoxSetDistance(grid, pair.L)
    tol = float(grid.widths.max()) + 1e-9
    failures = []
    tested = 0
    for i in range(n_samples):
        frozen = flow_map(system, pts[i], 0.0)
        if not np.array_equal(frozen, pts[i]):
            failures.append(pts[i].tolist())
            continue
        if not taus[i] <= 1.0:
            continue
        tested += 1
        end = stopped_flow(system, pair, pts[i], taus[i], dt=dt)
        if l_distance(end) > tol:
            failures.append(pts[i].tolist())
    return RetractionReport(passed=not failures, failures=failures,
                            n_tested=tested, n_skipped=n_samples - tested)
