"""Lyapunov functions for index pairs, Morse decompositions, and beyond.

The basic construction runs in three stages: a distance-quotient profile ρ
that is 0 on L and the attractor region and 1 on the repeller region, its
envelope h(x) = sup of ρ along the forward quotient orbit, and the
discounted average g(x) of h along that orbit.  Summing g over the pairs of
a Morse decomposition yields a function with value i on the i-th Morse set;
a 2^{-i}-weighted sum over all attractor-repeller pairs yields a complete
Lyapunov function.  Sublevel cuts of the Morse sum at k + 1/2 produce a
regular index filtration.
"""

import json
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .distances import BoxSetDistance, boxset_min_distance
from .errors import (FiltrationError, IngestionError, PreconditionError,
                     RegionOverlapError)
from .flows import _advance
from .grid import BoxGrid, BoxSet
from .pairs import BASEPOINT, IndexPair, regularity_check, validate_index_pair
from .recurrence import ar_regions, enumerate_ar_pairs
from .transition import EXIT


@dataclass(frozen=True)
class LyapunovParams:
    """Quadrature and marching parameters.

    dt is the orbit sampling step, t_max the quadrature cutoff, and settle
    the extra marched time that feeds the envelope's running supremum past
    the cutoff.
    """

    dt: float = 0.05
    t_max: float = 12.0
    settle: float = 2.0

    def __post_init__(self):
        if self.dt <= 0 or self.t_max < 1.0 or self.settle < 0:
            raise PreconditionError(
                f"need dt > 0, t_max >= 1, settle >= 0; got {self}")


class RhoFunction:
    """Distance-quotient profile: 0 on Z = L ∪ A_region, 1 on R_region.

    Distances are taken in the quotient pseudometric where travel through
    the collapsed L is free: d_q(x, R) = min(d(x,R), d(x,L) + d(R,L)).
    An empty R pins the profile at 0; an empty Z pins it at 1, and the
    distances are then not computed.
    """

    def __init__(self, pair, A_region, R_region, graph=None):
        zero_set = pair.L.union(A_region)
        if not zero_set.isdisjoint(R_region):
            overlap = zero_set.intersection(R_region)
            raise RegionOverlapError(
                f"zero and one regions share {len(overlap)} boxes, e.g. {overlap.ids[:5].tolist()}")
        self.pair = pair
        self.zero_set = zero_set
        self.one_set = R_region
        self._dZ = BoxSetDistance(pair.grid, zero_set)
        self._dR = BoxSetDistance(pair.grid, R_region)
        self._dL = BoxSetDistance(pair.grid, pair.L)
        self._dRL = boxset_min_distance(pair.grid, R_region, pair.L)
        # d(·, L) matters only through the quotient shortcut, which needs a
        # nonempty R and L (and so a nonempty Z).
        self.uses_L = bool(np.isfinite(self._dRL))
        self.zero_forward_closed = None
        if graph is not None:
            self.zero_forward_closed = self._forward_closed(graph, zero_set)

    @staticmethod
    def _forward_closed(graph, boxes):
        if not boxes:
            return True
        src, dst = graph.edge_arrays()
        sel = np.isin(src, boxes.ids) & (dst != EXIT)
        return bool(np.isin(dst[sel], boxes.ids).all())

    def __call__(self, points, boxes=None, dL=None):
        """ρ at points; boxes (their box_of ids) and dL (their distances to
        L) are computed here unless the caller shares them."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if not self.one_set:
            out = np.zeros(pts.shape[0])
        elif not self.zero_set:
            out = np.ones(pts.shape[0])
        else:
            if boxes is None:
                boxes = self.pair.grid.box_of(pts)
            dZ = self._dZ(pts, boxes)
            dR = self._dR(pts, boxes)
            if self.uses_L:
                dR = np.minimum(dR, (self._dL(pts, boxes) if dL is None else dL) + self._dRL)
            overlap = (dZ == 0) & (dR == 0)
            if overlap.any():
                where = pts[overlap][0].tolist()
                raise RegionOverlapError(f"zero and one regions meet at {where}")
            out = np.empty(pts.shape[0])
            r_empty = np.isinf(dR)
            z_empty = np.isinf(dZ) & ~r_empty
            rest = ~r_empty & ~z_empty
            out[r_empty] = 0.0
            out[z_empty] = 1.0
            out[rest] = dZ[rest] / (dZ[rest] + dR[rest])
        if single:
            return float(out[0])
        return out


def make_rho(pair, A_region, R_region, graph=None):
    """Build the profile function for one attractor-repeller pair."""
    return RhoFunction(pair, A_region, R_region, graph=graph)


def rho(pair, A_region, R_region, x):
    """One-off profile evaluation; use make_rho for repeated calls."""
    fn = RhoFunction(pair, A_region, R_region)
    if x is BASEPOINT:
        return 0.0
    return fn(np.asarray(x, dtype=float))


def _march_quotient(system, pair, points, n_steps, dt):
    """Quotient-orbit samples of a point batch.

    Returns (positions, absorbed) with shapes (n_steps+1, m, d) and
    (n_steps+1, m); a row is absorbed from the first sample whose box falls
    outside N−L or whose orbit leaves the domain, and its position freezes.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    positions = np.empty((n_steps + 1, m, pts.shape[1]))
    absorbed = np.zeros((n_steps + 1, m), dtype=bool)
    positions[0] = pts
    boxes = np.atleast_1d(pair.grid.box_of(pts))
    dead = ~(pair._core_mask[np.maximum(boxes, 0)] & (boxes >= 0))
    absorbed[0] = dead
    current = pts.copy()
    for k in range(1, n_steps + 1):
        live = ~dead
        if live.any():
            nxt, escaped, _ = _advance(system, current[live], dt)
            current[live] = nxt
            boxes = np.atleast_1d(pair.grid.box_of(nxt))
            ok = ~escaped & (boxes >= 0) & pair._core_mask[np.maximum(boxes, 0)]
            idx = np.flatnonzero(live)
            dead = dead.copy()
            dead[idx[~ok]] = True
        positions[k] = current
        absorbed[k] = dead
    return positions, absorbed


def _quadrature_weights(n_quad, dt):
    w = np.full(n_quad + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    t = np.arange(n_quad + 1) * dt
    return w * np.exp(-t), math.exp(-t[-1])


def _discounted_from_h(h, n_quad, dt):
    """Normalized discounted average over the first n_quad steps of h."""
    w, tail = _quadrature_weights(n_quad, dt)
    num = (w[:, None] * h[:n_quad + 1]).sum(axis=0) + tail * h[n_quad]
    den = w.sum() + tail
    return num / den


def _sample_profiles(pair, profiles, positions, absorbed):
    """ρ of each profile at the quotient-orbit samples, 0 where absorbed.

    Absorbed samples are not evaluated.  The box ids of the samples and
    their distances to the L-boxes of the pair, which every profile of the
    pair shares, are computed once for all profiles.
    """
    k_samples, m, d = positions.shape
    live = ~absorbed.ravel()
    pts = positions.reshape(-1, d)[live]
    boxes = pair.grid.box_of(pts)
    users = [rho_fn for _, rho_fn in profiles if rho_fn.uses_L]
    dL = users[0]._dL(pts, boxes) if users else None
    for _, rho_fn in profiles:
        vals = np.zeros(k_samples * m)
        vals[live] = rho_fn(pts, boxes, dL)
        yield vals.reshape(k_samples, m)


def _evaluate_profiles(system, pair, profiles, points, params):
    """g values of every weighted profile of the pair at a batch of points.

    One march serves all profiles: ρ is evaluated on the stored samples,
    the envelope h is the suffix running maximum, and g is the normalized
    discounted quadrature with an e^{-t_max} tail term.
    """
    dt = params.dt
    n_quad = int(round(params.t_max / dt))
    n_total = n_quad + int(round(params.settle / dt))
    positions, absorbed = _march_quotient(system, pair, points, n_total, dt)
    out = np.empty((len(profiles), positions.shape[1]))
    for p, vals in enumerate(_sample_profiles(pair, profiles, positions, absorbed)):
        h = np.maximum.accumulate(vals[::-1], axis=0)[::-1]
        out[p] = _discounted_from_h(h, n_quad, dt)
    return out


def sup_envelope(system, pair, rho_fn, x, dt=0.05, horizon=14.0):
    """Supremum of a profile along one forward quotient orbit.

    Returns (h, converged).  Marching stops early once the orbit is
    absorbed, or once it enters the profile's zero set when that set is
    known to be forward closed; hitting the horizon instead leaves h a
    certified lower bound.
    """
    if x is BASEPOINT:
        return 0.0, True
    x = np.asarray(x, dtype=float)
    grid = pair.grid
    box = grid.box_of(x)
    if not pair.in_core(box):
        return 0.0, True
    zero_mask = rho_fn.zero_set.mask(grid.n_boxes)
    h = float(rho_fn(x))
    current = x
    steps = int(math.ceil(horizon / dt - 1e-9))
    for _ in range(steps):
        nxt, escaped, _ = _advance(system, current[None, :], dt)
        if escaped[0]:
            return h, True
        current = nxt[0]
        box = grid.box_of(current)
        if not pair.in_core(box):
            return h, True
        h = max(h, float(rho_fn(current)))
        if rho_fn.zero_forward_closed and box >= 0 and zero_mask[box]:
            return h, True
    return h, False


def discounted_average(system, pair, h_fn, x, dt=0.05, t_max=12.0):
    """Normalized discounted average of h along one quotient orbit.

    h_fn maps a point or BASEPOINT to a value in [0,1]; absorbed samples
    contribute 0.  This is the reference single-point path; field builders
    share one march across boxes instead.
    """
    if x is BASEPOINT:
        return 0.0
    x = np.asarray(x, dtype=float)
    n_quad = int(round(t_max / dt))
    h = np.zeros(n_quad + 1)
    current = x
    alive = pair.in_core(pair.grid.box_of(x))
    for k in range(n_quad + 1):
        if alive:
            h[k] = h_fn(current)
        if k == n_quad:
            break
        if alive:
            nxt, escaped, _ = _advance(system, current[None, :], dt)
            if escaped[0]:
                alive = False
            else:
                current = nxt[0]
                alive = pair.in_core(pair.grid.box_of(current))
    return float(_discounted_from_h(h[:, None], n_quad, dt)[0])


@dataclass
class LyapunovField:
    """Per-box values of a Lyapunov construction on N−L (0 on L).

    boxes lists the core box ids in ascending order and values their g at
    the box centers.  profiles keeps the weighted ρ functions so points off
    the centers can be evaluated; fields loaded from disk drop them and
    are data-only.
    """

    pair: IndexPair
    construction: str
    boxes: np.ndarray
    values: np.ndarray
    range_hint: tuple
    params: LyapunovParams
    profiles: list = dataclass_field(default=None, repr=False)
    morse_graph: object = dataclass_field(default=None, repr=False)
    down_set: frozenset = None

    def value_of_box(self, box):
        if self.pair.in_L(box):
            return 0.0
        i = np.searchsorted(self.boxes, box)
        if i < self.boxes.size and self.boxes[i] == box:
            return float(self.values[i])
        raise PreconditionError(f"box {box} is not in N")

    def evaluate(self, system, points):
        """g at arbitrary points; points outside N−L boxes evaluate to 0."""
        if self.profiles is None:
            raise PreconditionError(
                "this field was loaded from disk and has no profile functions")
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        g = _evaluate_profiles(system, self.pair, self.profiles, pts, self.params)
        weights = np.array([w for w, _ in self.profiles])
        out = weights @ g
        if single:
            return float(out[0])
        return out

    def __eq__(self, other):
        if not isinstance(other, LyapunovField):
            return NotImplemented
        return (self.pair == other.pair
                and self.construction == other.construction
                and np.array_equal(self.boxes, other.boxes)
                and np.array_equal(self.values, other.values)
                and self.range_hint == other.range_hint)

    def to_csv(self, path):
        centers = self.pair.grid.centers(self.boxes)
        header = "box_id," + ",".join(f"c{i}" for i in range(centers.shape[1])) + ",value"
        lines = [header]
        for b, c, v in zip(self.boxes.tolist(), centers, self.values):
            coords = ",".join(repr(float(x)) for x in c)
            lines.append(f"{b},{coords},{repr(float(v))}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path):
        grid = self.pair.grid
        data = {
            "construction": self.construction,
            "grid": {"domain": grid.domain.tolist(), "shape": list(grid.shape)},
            "N": self.pair.N.ids.tolist(),
            "L": self.pair.L.ids.tolist(),
            "boxes": self.boxes.tolist(),
            "values": [float(v) for v in self.values],
            "range_hint": list(self.range_hint),
            "params": {"dt": self.params.dt, "t_max": self.params.t_max,
                       "settle": self.params.settle},
            "down_set": sorted(self.down_set) if self.down_set is not None else None,
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
            raise IngestionError(f"cannot read field file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise IngestionError(f"field file {path} is not valid JSON: {exc}") from exc
        try:
            grid = BoxGrid(np.asarray(data["grid"]["domain"], dtype=float),
                           data["grid"]["shape"])
            pair = IndexPair.from_boxes(grid, data["N"], data["L"])
            params = LyapunovParams(**data["params"])
            down = data.get("down_set")
            return cls(pair=pair, construction=data["construction"],
                       boxes=np.asarray(data["boxes"], dtype=np.int64),
                       values=np.asarray(data["values"], dtype=float),
                       range_hint=tuple(data["range_hint"]), params=params,
                       down_set=frozenset(down) if down is not None else None)
        except (KeyError, TypeError) as exc:
            raise IngestionError(f"field file {path} is missing fields: {exc}") from exc


def _field_from_profiles(system, pair, profiles, construction, range_hint, params,
                         morse_graph=None, down_set=None):
    boxes = pair.core.ids
    centers = pair.grid.centers(boxes)
    g = _evaluate_profiles(system, pair, profiles, centers, params)
    weights = np.array([w for w, _ in profiles])
    values = weights @ g
    return LyapunovField(pair=pair, construction=construction, boxes=boxes,
                         values=values, range_hint=range_hint, params=params,
                         profiles=profiles, morse_graph=morse_graph,
                         down_set=down_set)


def pair_lyapunov(system, pair, ar, params=None, graph=None):
    """Lyapunov function of one attractor-repeller pair (values in [0,1]).

    When ar carries the one-sided orbit regions alpha/omega those are used
    as the pinned zero/one sets; otherwise the attractor and repeller boxes
    themselves are.
    """
    params = params or LyapunovParams()
    zero_region = getattr(ar, "alpha", None)
    one_region = getattr(ar, "omega", None)
    if zero_region is None or one_region is None:
        zero_region, one_region = ar.attractor, ar.repeller
    profiles = [(1.0, RhoFunction(pair, zero_region, one_region, graph=graph))]
    return _field_from_profiles(system, pair, profiles, "single-pair", (0.0, 1.0),
                                params, down_set=ar.down_set)


def morse_lyapunov(system, pair, mg, params=None):
    """Sum of pair Lyapunov functions over the down-sets {1..j}, j = 0..n.

    The value on the Morse set of admissible index i is close to i and the
    range is [0, n+1].
    """
    if mg.n < 1:
        raise PreconditionError("the Morse graph has no Morse sets")
    params = params or LyapunovParams()
    profiles = []
    for j in range(mg.n + 1):
        ar = ar_regions(mg, None, None, frozenset(range(1, j + 1)))
        profiles.append((1.0, RhoFunction(pair, ar.attractor, ar.repeller,
                                          graph=mg.graph)))
    return _field_from_profiles(system, pair, profiles, "morse-sum",
                                (0.0, mg.n + 1.0), params, morse_graph=mg)


def complete_lyapunov(system, pair, mg, graph, params=None):
    """Weighted sum 2^{-i} g_i over every attractor-repeller pair.

    The enumeration is canonical (by down-set size, then lexicographic), so
    the value assigned to each chain recurrent class is reproducible; the
    range is [0, 1).
    """
    params = params or LyapunovParams()
    pairs = enumerate_ar_pairs(mg, graph, mg.region)
    profiles = []
    for i, ar in enumerate(pairs, start=1):
        profiles.append((2.0 ** -i, RhoFunction(pair, ar.attractor, ar.repeller,
                                                graph=graph)))
    return _field_from_profiles(system, pair, profiles, "complete", (0.0, 1.0),
                                params, morse_graph=mg)


def renewal_residual(system, field, x, t):
    """Residual of g(x) = ∫_0^t e^{-s} h(φ_♯^s x) ds + e^{-t} g(φ_♯^t x).

    Both sides are computed from a single orbit march on the field's dt
    grid, so the residual measures quadrature and truncation error only.
    t snaps to the nearest dt multiple.
    """
    if field.profiles is None:
        raise PreconditionError("field has no profile functions")
    params = field.params
    dt = params.dt
    k_t = max(1, int(round(t / dt)))
    t_eff = k_t * dt
    n_quad = int(round(params.t_max / dt))
    n_total = n_quad + k_t + int(round(params.settle / dt))
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    positions, absorbed = _march_quotient(system, field.pair, pts, n_total, dt)

    h_bar = np.zeros(positions.shape[0])
    samples = _sample_profiles(field.pair, field.profiles, positions, absorbed)
    for (w, _), vals in zip(field.profiles, samples):
        h = np.maximum.accumulate(vals[::-1], axis=0)[::-1]
        h_bar += w * h[:, 0]

    g0 = float(_discounted_from_h(h_bar[:, None], n_quad, dt)[0])
    gt = float(_discounted_from_h(h_bar[k_t:, None], n_quad, dt)[0])
    w_i, _ = _quadrature_weights(k_t, dt)
    den = _quadrature_weights(n_quad, dt)[0].sum() + math.exp(-params.t_max)
    integral = (w_i * h_bar[:k_t + 1]).sum()
    return abs(g0 - (integral / den + math.exp(-t_eff) * gt))


def uniform_entry_time(system, pair, B, U, n_samples=50, dt=0.05, horizon=20.0,
                       rng=None, alpha_region=None, omega_region=None):
    """Smallest sampled time after which orbits from B stay inside U.

    Sampled start points are drawn inside B-boxes; quotient-orbit samples
    count as inside U when their box is a U-box or the orbit has been
    absorbed.  Returns 0.0 when B starts inside and never leaves, math.inf
    when some orbit is still outside U at the horizon.  When the optional
    region arguments are given, B must avoid the omega region and U must
    contain the L-boxes and the alpha region.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    if not B:
        raise PreconditionError("B is empty")
    if omega_region is not None and not B.isdisjoint(omega_region):
        raise PreconditionError("B intersects the forward-orbit region of the repeller")
    if alpha_region is not None and not pair.L.union(alpha_region).issubset(U):
        raise PreconditionError("U must contain the L-boxes and the attractor's "
                                "backward-orbit region")
    grid = pair.grid
    picks = B.ids[rng.integers(0, len(B), size=n_samples)]
    bounds = grid.bounds(picks)
    pts = bounds[:, :, 0] + rng.random((n_samples, grid.dimension)) * grid.widths

    n_steps = int(round(horizon / dt))
    positions, absorbed = _march_quotient(system, pair, pts, n_steps, dt)
    u_mask = U.mask(grid.n_boxes)
    boxes = grid.box_of(positions.reshape(-1, grid.dimension)).reshape(n_steps + 1, -1)
    inside = absorbed | ((boxes >= 0) & u_mask[np.maximum(boxes, 0)])
    outside_rows = np.flatnonzero(~inside.all(axis=1))
    if outside_rows.size == 0:
        return 0.0
    last_out = outside_rows.max()
    if last_out == n_steps:
        return math.inf
    return float((last_out + 1) * dt)


@dataclass
class Filtration:
    """Nested box sets N_0 ⊆ … ⊆ N_n cut from a Morse-sum field."""

    levels: list
    thresholds: list
    pair: IndexPair
    field: LyapunovField = dataclass_field(default=None, repr=False)

    def __eq__(self, other):
        if not isinstance(other, Filtration):
            return NotImplemented
        return (self.pair == other.pair
                and self.thresholds == other.thresholds
                and len(self.levels) == len(other.levels)
                and all(a == b for a, b in zip(self.levels, other.levels)))

    def to_json(self, path, report=None):
        grid = self.pair.grid
        data = {
            "grid": {"domain": grid.domain.tolist(), "shape": list(grid.shape)},
            "N": self.pair.N.ids.tolist(),
            "L": self.pair.L.ids.tolist(),
            "levels": [lv.ids.tolist() for lv in self.levels],
            "thresholds": [float(c) for c in self.thresholds],
            "report": report,
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
            raise IngestionError(f"cannot read filtration file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise IngestionError(f"filtration file {path} is not valid JSON: {exc}") from exc
        try:
            grid = BoxGrid(np.asarray(data["grid"]["domain"], dtype=float),
                           data["grid"]["shape"])
            pair = IndexPair.from_boxes(grid, data["N"], data["L"])
            return cls(levels=[BoxSet(ids) for ids in data["levels"]],
                       thresholds=[float(c) for c in data["thresholds"]],
                       pair=pair)
        except (KeyError, TypeError) as exc:
            raise IngestionError(f"filtration file {path} is missing fields: {exc}") from exc


def extract_filtration(system, field, pair, graph, rng=None, n_samples=40):
    """Cut a Morse-sum field at k + 1/2 into a regular index filtration.

    Each consecutive pair of levels must validate as an index pair, contain
    its Morse set strictly between the levels, and pass the sampled
    regularity criterion; the first failure raises a FiltrationError naming
    the level.  Returns the filtration and a per-level report.
    """
    if field.construction != "morse-sum":
        raise PreconditionError(
            f"filtrations need a morse-sum field, got '{field.construction}'")
    if not field.pair == pair:
        raise PreconditionError("field was computed for a different pair")
    mg = field.morse_graph
    if mg is None or mg.n < 1:
        raise PreconditionError("field carries no Morse decomposition")
    rng = np.random.default_rng(0) if rng is None else rng

    n = mg.n
    thresholds = [k + 0.5 for k in range(n)]
    levels = []
    for cut in thresholds:
        inside = field.boxes[field.values <= cut]
        levels.append(pair.L.union(BoxSet(inside)))
    levels.append(pair.N)

    report = []
    for k in range(1, n + 1):
        if not levels[k - 1].issubset(levels[k]):
            raise FiltrationError(f"level {k - 1} is not contained in level {k}", k)
        level_pair = IndexPair(pair.grid, levels[k], levels[k - 1])
        verdict = validate_index_pair(graph, level_pair)
        entry = {"level": k, "pair_boxes": [len(levels[k]), len(levels[k - 1])],
                 "validation": verdict.to_dict()}
        if not verdict.passed:
            raise FiltrationError(
                f"level {k} fails index pair validation: {verdict.summary()}", k)
        morse_set = mg.morse_sets[k - 1]
        core = levels[k].difference(levels[k - 1])
        if not morse_set.issubset(core):
            raise FiltrationError(
                f"level {k} does not capture Morse set {k} between its cuts", k)
        reg = regularity_check(system, level_pair, n_samples=n_samples, rng=rng)
        entry["regularity"] = reg.to_dict()
        if not reg.passed:
            raise FiltrationError(
                f"level {k} fails the regularity sampling check "
                f"({len(reg.violations)} violations)", k)
        report.append(entry)

    filtration = Filtration(levels=levels, thresholds=thresholds, pair=pair,
                            field=field)
    return filtration, report
