"""Combinatorial index pairs (N, L) and the semiflows they induce.

An index pair is a pair of box sets L ⊆ N such that L is positively
invariant relative to N and every orbit leaving N passes through L first.
The quotient space N/L collapses L to a single absorbing basepoint; the
exit-time map records when orbits leave the closure of N−L.
"""

import itertools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .distances import BoxSetDistance
from .errors import CapacityError, ConstructionError, IsolationError, PreconditionError
from .flows import _advance, _advance_rows, _require_inside, _sample_block, _schedule
from .grid import MAX_MARCH_VALUES, BoxGrid, BoxSet, sample_in_boxes
from .jsonio import load_json, write_json
from .transition import invariant_part, reachable


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
        return cls(grid, BoxSet(grid.ingest_ids(n_ids, "N")), BoxSet(grid.ingest_ids(l_ids, "L")))

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

    def to_dict(self):
        """The grid, N and L block that pair, field and filtration files share."""
        return {"grid": self.grid.to_dict(), "N": self.N.ids.tolist(), "L": self.L.ids.tolist()}

    @classmethod
    def from_dict(cls, data, what):
        """The pair of a grid, N and L block read from the file that what names.

        Ids must be integers inside the grid, and L a subset of N.
        """
        grid = BoxGrid.from_dict(data["grid"], what)
        return cls(grid, BoxSet(grid.ingest_ids(data["N"], f"{what} N")),
                   BoxSet(grid.ingest_ids(data["L"], f"{what} L")))

    def to_json(self, path):
        write_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path):
        return load_json(path, "pair file", cls.from_dict)


def build_index_pair(mg):
    """Construct an index pair around the invariant part of a Morse graph's region.

    N is the forward closure of the invariant part inside the region; L
    collects the boxes of N with an edge leaving N, closed under relative
    positive invariance.  The result is validated before being returned.
    """
    graph, region, inv = mg.graph, mg.region, mg.invariant
    if not inv:
        raise IsolationError("the region has an empty invariant part")
    if not inv.isdisjoint(graph.grid.boundary_layer(region)):
        raise IsolationError(
            "the invariant part touches the region's boundary layer; "
            "enlarge the region or refine the grid")

    # start from one closure layer so the invariant part sits in the grid
    # interior of N and continuous orbits cannot slip out between map steps
    start = graph.grid.closure(inv).mask(graph.grid.n_boxes)[region.ids]
    N = BoxSet(region.ids[reachable(graph.restricted(region), start)])

    src, dst = graph.edge_arrays(N)
    exits = np.isin(N.ids, src[~N.mask(graph.grid.n_boxes)[dst]])
    L = BoxSet(N.ids[reachable(graph.restricted(N), exits)])

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
    src, dst = graph.edge_arrays(pair.L)
    bad_i = pair._N_mask[dst] & ~pair._L_mask[dst]
    cond_i = list(zip(src[bad_i].tolist(), dst[bad_i].tolist()))

    src, dst = graph.edge_arrays(pair.core)
    bad_ii = ~pair._N_mask[dst]
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

    Brackets each crossing on a _march_quotient run of step dt that absorbs
    on closure(N−L), then refines it by bisection to dt/1024.  Points in
    L-boxes have exit time 0 by definition and are not marched.  A row
    first absorbed at sample j crossed during step max(j, 1), from sample
    max(j, 1) − 1, so a row that starts outside closure(N−L) crossed during
    the first step.  Every halving advances all rows still bisecting in one
    _advance_rows call, each row by its own midpoint, and each row stops on
    its own bracket width, so every row gets the exit time it would get
    alone.
    """
    if not (0 < dt < math.inf and 0 <= horizon < math.inf):
        raise PreconditionError(f"exit times need a finite dt > 0 and a finite horizon >= 0, "
                                f"got dt={dt}, horizon={horizon}")
    grid = pair.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(pts.shape[0], math.inf)
    boxes = np.atleast_1d(grid.box_of(pts))
    out[pair._L_mask[boxes]] = 0.0

    marched = np.flatnonzero(out > 0)
    n_steps = int(math.ceil(horizon / dt - 1e-9))
    positions, absorbed, _ = _march_quotient(system, pair, pts[marched], n_steps, dt,
                                             mask=pair._isolating_mask)
    hit = absorbed.any(axis=0)
    crossed = marched[hit]
    step = np.maximum(absorbed[:, hit].argmax(axis=0), 1)
    base = positions[step - 1, np.flatnonzero(hit)]
    # the elapsed time before each step, summed in step order
    elapsed = list(itertools.accumulate([dt] * (int(step.max(initial=1)) - 1), initial=0.0))
    bracket_lo = np.take(elapsed, step - 1)

    _require_inside(system, base)
    lo = np.zeros(crossed.size)
    hi = np.full(crossed.size, dt)
    rows = np.arange(crossed.size)
    while rows.size:
        mid = 0.5 * (lo[rows] + hi[rows])
        probe, escaped, _ = _advance_rows(system, base[rows], mid)
        inside = ~escaped & pair._isolating_mask[grid.box_of(probe)]
        lo[rows[inside]] = mid[inside]
        hi[rows[~inside]] = mid[~inside]
        rows = rows[hi[rows] - lo[rows] > dt / 1024]
    out[crossed] = bracket_lo + 0.5 * (lo + hi)
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


def _march_quotient(system, pair, points, n_steps, dt, mask=None):
    """Quotient-orbit samples of a point batch, n_steps steps of dt.

    Returns (positions, absorbed, boxes) with shapes (n_steps+1, m, d),
    (n_steps+1, m) and (n_steps+1, m); a row is absorbed from the first
    sample whose box falls outside the boxes of mask (by default those of
    N−L) or whose orbit leaves the domain, and its position freezes.
    boxes holds the box_of id of every sample's position, the ids the
    march finds absorption with, as int32 (every id is below MAX_BOXES =
    2^31).  Exit times, envelopes, probes and fields all step their orbits
    here.  A march that would store more than MAX_MARCH_VALUES coordinates
    raises CapacityError before it allocates.

    Each pass steps the rows still live through a block of samples with
    _sample_block, and then finds each row's first absorbed sample with
    one box_of call over the whole block; rows absorbed inside the block
    were stepped on, and those samples are dropped.  A pass whose block is
    empty (more live rows than ADVANCE_CHUNK, or a live row that escapes,
    turns non-finite or sets a floating-point flag in the next sample)
    takes that sample as one _advance step instead, a block of one sample
    in which a row that escaped is absorbed.  Either way every row gets
    the samples a march of one _advance call per step gives it.  Once
    every row is absorbed the remaining samples are filled in without
    stepping.
    """
    mask = pair._core_mask if mask is None else mask
    grid = pair.grid
    current = np.array(np.atleast_2d(points), dtype=float)
    n_values = (n_steps + 1) * current.size
    if n_values > MAX_MARCH_VALUES:
        raise CapacityError(
            f"{float(n_steps):.6g} steps of dt={dt:g} over {current.shape[0]} points would "
            f"store {float(n_values):.6g} coordinates, limit is {MAX_MARCH_VALUES}")
    positions = np.empty((n_steps + 1,) + current.shape)
    absorbed = np.empty((n_steps + 1, current.shape[0]), dtype=bool)
    boxes = np.empty(absorbed.shape, dtype=np.int32)
    box = grid.box_of(current)
    dead = ~mask[box]
    positions[0] = current
    absorbed[0] = dead
    boxes[0] = box
    k = 0
    while k < n_steps:
        live = np.flatnonzero(~dead)
        if not live.size:
            positions[k + 1:] = current
            absorbed[k + 1:] = True
            boxes[k + 1:] = box
            break
        block = _sample_block(system, current[live], dt, n_steps - k)
        escaped = False
        if not len(block):
            nxt, escaped, _ = _advance(system, current[live], dt)
            block = nxt[None]
        j = block.shape[0]
        ids = grid.box_of(block.reshape(-1, block.shape[2])).reshape(j, live.size)
        out = ~mask[ids] | escaped
        # each row's first absorbed sample in the block, j if none
        first = np.where(out.any(axis=0), out.argmax(axis=0), j)
        sample = np.arange(j)[:, None]
        at = np.minimum(sample, first)
        cols = np.arange(live.size)
        span = slice(k + 1, k + 1 + j)
        positions[span] = current
        positions[span, live] = block[at, cols]
        absorbed[span] = dead
        absorbed[span, live] = sample >= first
        boxes[span] = box
        boxes[span, live] = ids[at, cols]
        last = np.minimum(first, j - 1)
        current[live] = block[last, cols]
        box[live] = ids[last, cols]
        dead[live] = first < j
        k += j
    return positions, absorbed, boxes


def quotient_flow(system, pair, x, t, dt=0.05):
    """The induced semiflow on N/L: the basepoint absorbs exiting orbits.

    Returns the advanced point when every sample along [0, t] at spacing dt
    stays in N−L boxes, and BASEPOINT otherwise.  The samples are those of
    _march_quotient: whole steps of dt, then one shorter step to t.
    """
    if x is BASEPOINT:
        return BASEPOINT
    n_steps, rem = _schedule(max(t, 0.0), dt)
    current = np.asarray(x, dtype=float)[None, :]
    for steps, size in ((n_steps, dt), (int(rem > 0), rem)):
        positions, absorbed, _ = _march_quotient(system, pair, current, steps, size)
        if absorbed[-1, 0]:
            return BASEPOINT
        current = positions[-1]
    return current[0]


def stopped_flow(system, pair, x, t, dt=1e-3):
    """The flow stopped at the exit time: φ advanced by min(t, τ₊(x)).

    τ₊ is exit_time's over a horizon of max(t, 1) + dt.  An orbit that
    leaves the domain first stops at its last in-domain position.
    """
    x = np.asarray(x, dtype=float)
    tau = exit_time(system, pair, x, dt=dt, horizon=max(t, 1.0) + dt)
    _require_inside(system, x)
    end, _, _ = _advance(system, x[None, :], min(t, tau))
    return end[0]


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

    Each probe time marches every sample still inside from t = 0 in one
    _advance call, and the exit times of the base points and their shifted
    partners come from one batch; every sample gets the verdict and exit
    time it would get alone.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    grid = pair.grid
    violations = []
    n_checked = 0
    if pair.L:
        picks, pts = sample_in_boxes(rng, grid, pair.L, n_samples)
        _require_inside(system, pts)
        stayed = np.ones(n_samples, dtype=bool)
        for s in np.linspace(0.0, t_probe, 9):
            rows = np.flatnonzero(stayed)
            if not rows.size:
                break
            probe, escaped, _ = _advance(system, pts[rows], s)
            inside = ~escaped & pair._isolating_mask[grid.box_of(probe)]
            stayed[rows[~inside]] = False
        n_checked = n_samples
        violations = [(int(picks[i]), pts[i].tolist()) for i in np.flatnonzero(stayed)]

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
        tau = _exit_times_batch(system, pair, np.concatenate([base, base + shift]),
                                1e-2, 20.0)
        tau_a, tau_b = tau[:k], tau[k:]
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

    The samples take one identity probe, one exit-time batch, one
    _advance_rows call to their own exit times and one distance query
    together.  A stopped_flow re-march would find the same τ, since up to
    the crossing it takes the same steps, so the endpoints are those of
    stopped_flow.  Failures are listed in sample order.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    grid = pair.grid
    if not pair.core:
        return RetractionReport(passed=True, failures=[], n_tested=0, n_skipped=0)
    _, pts = sample_in_boxes(rng, grid, pair.core, n_samples)
    _require_inside(system, pts)
    taus = _exit_times_batch(system, pair, pts, dt, horizon=1.0 + 4 * dt)

    frozen, _, _ = _advance(system, pts, 0.0)
    moved = ~(frozen == pts).all(axis=1)
    tested = ~moved & (taus <= 1.0)
    failed = moved.copy()
    if tested.any():
        end, _, _ = _advance_rows(system, pts[tested], taus[tested])
        tol = float(grid.widths.max()) + 1e-9
        failed[tested] = BoxSetDistance(grid, pair.L)(end) > tol
    n_tested = int(tested.sum())
    return RetractionReport(passed=not failed.any(), failures=pts[failed].tolist(),
                            n_tested=n_tested, n_skipped=n_samples - n_tested)
