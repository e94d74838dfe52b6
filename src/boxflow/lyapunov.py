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

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .distances import BoxSetDistance, QueryBoxes, boxset_min_distance
from .errors import (FiltrationError, IngestionError, PreconditionError,
                     RegionOverlapError)
from .grid import BoxSet, covering_steps, nearest_steps, sample_in_boxes, step_ratio
from .jsonio import csv_text, load_json, number, string, write_json
from .pairs import (BASEPOINT, IndexPair, _draw_regularity, _judge_regularity,
                    _march_quotient, validate_index_pair)
from .recurrence import ar_regions_in_pair, enumerate_ar_pairs
from .transition import EXIT

# Samples one row block of a quotient march holds while its readers work:
# the block's QueryBoxes, distances and ρ scale with it, not with the march.
SAMPLE_BLOCK = 1 << 15


@dataclass(frozen=True)
class LyapunovParams:
    """Quadrature and marching parameters.

    dt is the orbit sampling step, t_max the quadrature cutoff, and settle
    the extra marched time that feeds the envelope's running supremum past
    the cutoff.  t_max must be at least 1 and settle at least 0;
    grid.step_ratio checks dt and the horizon t_max + settle.
    """

    dt: float = 0.05
    t_max: float = 12.0
    settle: float = 2.0

    def __post_init__(self):
        if self.t_max < 1.0 or self.settle < 0:
            raise PreconditionError(f"need t_max >= 1 and settle >= 0; got {self}")
        step_ratio(self.t_max + self.settle, self.dt)

    def steps(self):
        """(n_quad, n_total): the steps of dt to t_max, and to t_max + settle."""
        n_quad = nearest_steps(self.t_max, self.dt)
        return n_quad, n_quad + nearest_steps(self.settle, self.dt)


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
        _, dst = graph.edge_arrays(boxes)
        return bool(np.isin(dst[dst != EXIT], boxes.ids).all())

    def __call__(self, points, boxes=None, dL=None):
        """ρ at points; boxes (their QueryBoxes) and dL (their distances to
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
                boxes = QueryBoxes(self.pair.grid, pts)
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


def _quadrature_weights(n_quad, dt):
    w = np.full(n_quad + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    t = np.arange(n_quad + 1) * dt
    return w * np.exp(-t), math.exp(-t[-1])


def _ordered_sum(w, x):
    """Σ_k w[k]·x[k] over the first axis of x, added in order of k.

    numpy's .sum(axis=0) adds one column pairwise but several columns row
    by row, and the order of a BLAS product w @ x depends on the number of
    columns too, so a point would get other bits alone than inside a
    batch.  This plain row-by-row sum has the same order for any number
    of columns, and it gives the bits .sum(axis=0) gives several columns.
    """
    out = w[0] * x[0]
    for k in range(1, w.size):
        out += w[k] * x[k]
    return out


def _discounted_from_h(h, n_quad, dt):
    """Normalized discounted average over the first n_quad steps of h."""
    w, tail = _quadrature_weights(n_quad, dt)
    num = _ordered_sum(w, h[:n_quad + 1]) + tail * h[n_quad]
    den = w.sum() + tail
    return num / den


def _suffix_max(vals):
    """Running maximum over each sample and all later ones, per column."""
    return np.maximum.accumulate(vals[::-1], axis=0)[::-1]


class _QuotientSamples:
    """ρ, envelopes, g and renewal residuals of the profiles of a pair, read
    off the samples of one quotient march.

    positions, absorbed and boxes are the three arrays of _march_quotient.
    Every reader goes through the march in row blocks: the columns of at
    most SAMPLE_BLOCK samples, or one row.  A block's QueryBoxes and its
    distances to the L-boxes of the pair are made once and shared by every
    profile read in that pass, and each profile's distance tables search
    the distinct boxes of the live samples once, before the first block.
    Each column of an output (a g column, an envelope, a residual) depends
    only on the samples of its row, so the blocks give it the bits of a
    single pass; g's quadrature runs once per block over the columns of
    every profile it reads.  Absorbed samples are not evaluated and get
    ρ = 0.  g keeps its column of each (Z, R) profile, params and k for
    later calls.  ρ itself is kept whole per (Z, R) only with keep_rho, for
    callers that read several windows of a profile; otherwise a pass holds
    the ρ of one block.
    """

    def __init__(self, pair, positions, absorbed, boxes, keep_rho=False):
        self.shape = absorbed.shape
        self.pair = pair
        self.positions = positions
        self.absorbed = absorbed
        self.boxes = boxes
        self.system = self.dt = None    # known to samples made by march()
        self.keep_rho = keep_rho
        self._live_boxes = None
        self._rho = {}
        self._g = {}

    @classmethod
    def march(cls, system, pair, points, n_steps, dt):
        """The samples of one _march_quotient run of n_steps steps of dt."""
        samples = cls(pair, *_march_quotient(system, pair, points, n_steps, dt))
        samples.system, samples.dt = system, dt
        return samples

    def _row_blocks(self):
        """The column slices of the row blocks, in order."""
        n_samples, m = self.shape
        width = max(1, SAMPLE_BLOCK // n_samples)
        return [slice(c, min(c + width, m)) for c in range(0, m, width)]

    def _visited(self):
        """The sorted distinct boxes of the live samples."""
        if self._live_boxes is None:
            # live samples lie in boxes of the grid, so their ids are in range
            seen = np.zeros(self.pair.grid.n_boxes, dtype=bool)
            for cols in self._row_blocks():
                seen[self.boxes[:, cols][~self.absorbed[:, cols]]] = True
            self._live_boxes = np.flatnonzero(seen)
        return self._live_boxes

    def _read(self, rho_fns, read):
        """Call read(cols, ρ of each of rho_fns at the samples of columns
        cols) for each row block, in order.

        ρ kept from an earlier call is sliced; the rest is evaluated on the
        live samples of the block and, with keep_rho, kept once the pass
        is over.  Nothing of a block outlives its read.
        """
        keys = [(fn.zero_set, fn.one_set) for fn in rho_fns]
        todo = {key: fn for key, fn in zip(keys, rho_fns) if key not in self._rho}
        measured = [fn for fn in todo.values() if fn.one_set and fn.zero_set]
        # one profile measures d(·, L) for the block; every profile of the pair has this L
        to_L = next((fn._dL for fn in measured if fn.uses_L), None)
        searched = [dist for fn in measured for dist in (fn._dZ, fn._dR)]
        if to_L is not None:
            searched.append(to_L)
        for dist in searched:
            dist._rows(self._visited())
        kept = {key: np.empty(self.shape) for key in todo} if self.keep_rho else {}

        def block(cols):
            live = ~self.absorbed[:, cols]
            pts = self.positions[:, cols][live]
            query = dL = None
            if measured:
                query = QueryBoxes(self.pair.grid, pts, self.boxes[:, cols][live])
                dL = None if to_L is None else to_L(pts, query)
            fresh = {}
            for key, fn in todo.items():
                vals = fresh[key] = np.zeros(live.shape)
                vals[live] = fn(pts, query, dL)
                if key in kept:
                    kept[key][:, cols] = vals
            return [fresh[key] if key in fresh else self._rho[key][:, cols] for key in keys]

        for cols in self._row_blocks():
            read(cols, block(cols))
        self._rho.update(kept)

    def rho(self, rho_fn):
        """ρ at every sample, shape (n_steps + 1, m)."""
        key = (rho_fn.zero_set, rho_fn.one_set)
        if key in self._rho:
            return self._rho[key]
        vals = np.empty(self.shape)

        def read(cols, rhos):
            vals[:, cols] = rhos[0]

        self._read([rho_fn], read)
        return vals

    def envelope(self, rho_fn, k, n):
        """sup_envelope's (h, converged) at the k-step images, horizon n steps.

        The march from the k-step image is this march shifted by k, so h is
        the maximum of ρ over the samples [k, k + n], up to the first entry
        (after sample k) into a forward-closed zero set.
        """
        h = np.empty(self.shape[1])
        converged = np.empty(self.shape[1], dtype=bool)
        zero = rho_fn.zero_set.mask(self.pair.grid.n_boxes) if rho_fn.zero_forward_closed else None

        def read(cols, rhos):
            window = rhos[0][k:k + n + 1]
            # entered[i]: the row entered the zero set at a window sample in
            # [1, i]; a row stays absorbed, with ρ = 0, so an entry read off
            # the frozen box of an absorbed sample changes neither output
            entered = np.zeros(window.shape, dtype=bool)
            if zero is not None:
                entered[1:] = np.logical_or.accumulate(zero[self.boxes[k + 1:k + n + 1, cols]],
                                                       axis=0)
            counted = np.ones(window.shape, dtype=bool)
            counted[1:] = ~entered[:-1]
            h[cols] = np.where(counted, window, 0.0).max(axis=0)
            converged[cols] = entered[-1] | self.absorbed[k + n, cols]

        self._read([rho_fn], read)
        return h, converged

    def g(self, profiles, params, k=0):
        """Σ w·g of the weighted profiles at the k-step images of the points.

        The march from the k-step image is this march shifted by k, so g of
        one profile there is the quadrature over the samples [k, k + n_total]:
        the envelope h is the running maximum to the end of that window, not
        of the whole march.  The profiles are added in order; an image
        already absorbed gets g = 0.  The quadrature of a block runs once
        over the columns of every profile not read before.
        """
        n_quad, n_total = params.steps()
        todo = {}
        for _, rho_fn in profiles:
            key = (rho_fn.zero_set, rho_fn.one_set, params, k)
            if key not in self._g:
                todo[key] = rho_fn
        if todo:
            columns = np.empty((len(todo), self.shape[1]))

            def read(cols, rhos):
                h = np.concatenate([_suffix_max(vals[k:k + n_total + 1]) for vals in rhos],
                                   axis=1)
                columns[:, cols] = _discounted_from_h(h, n_quad, params.dt).reshape(len(todo), -1)

            self._read(list(todo.values()), read)
            self._g.update(zip(todo, columns))
        return _ordered_sum(np.array([w for w, _ in profiles]),
                            np.array([self._g[(fn.zero_set, fn.one_set, params, k)]
                                      for _, fn in profiles]))

    def renewal(self, field, k_t):
        """Renewal residuals of the field at time k_t·dt, one per point.

        Both sides of the identity are read off the samples [0, n_total + k_t],
        so a longer march gives the residuals of its prefix.
        """
        params = field.params
        dt = params.dt
        n_quad, n_total = params.steps()
        w_i, _ = _quadrature_weights(k_t, dt)
        den = _quadrature_weights(n_quad, dt)[0].sum() + math.exp(-params.t_max)
        out = np.empty(self.shape[1])

        def read(cols, rhos):
            h_bar = np.zeros((n_total + k_t + 1, cols.stop - cols.start))
            for (w, _), vals in zip(field.profiles, rhos):
                h_bar += w * _suffix_max(vals[:n_total + k_t + 1])
            g0 = _discounted_from_h(h_bar, n_quad, dt)
            gt = _discounted_from_h(h_bar[k_t:], n_quad, dt)
            integral = _ordered_sum(w_i, h_bar[:k_t + 1])
            out[cols] = np.abs(g0 - (integral / den + math.exp(-k_t * dt) * gt))

        self._read([rho_fn for _, rho_fn in field.profiles], read)
        return out


def CenterTable(system, pair, params):
    """The samples of one quotient march of the core box centers.

    The pair, Morse-sum and complete fields of one pair and one
    LyapunovParams are weightings of g at the same centers, and the
    samples keep each distinct (Z, R) profile's g column, which later
    fields reuse.  Pass one table to every field builder of a pair to
    share it; a builder given none makes its own.
    """
    _, n_total = params.steps()
    return _QuotientSamples.march(system, pair, pair.grid.centers(pair.core.ids),
                                  n_total, params.dt)


def sup_envelope(system, pair, rho_fn, x, dt=0.05, horizon=14.0):
    """Supremum of a profile along forward quotient orbits.

    x is one point, BASEPOINT or an (m, d) batch.  Returns (h, converged),
    two scalars for one point and two length-m arrays for a batch.  A row
    stops counting samples once its orbit is absorbed (it leaves the domain or the
    N−L boxes), or once it enters the profile's zero set when that set is
    known to be forward closed; its h is then exact.  A row still marching
    at the horizon is not converged, and its h is a certified lower bound.
    A row that starts outside N−L has h = 0.

    The batch is one quotient march read by _QuotientSamples.envelope, so
    each row gets the same h and verdict as it would alone.
    grid.step_ratio checks dt and the horizon.
    """
    if x is BASEPOINT:
        return 0.0, True
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    n = covering_steps(horizon, dt)
    h, converged = _QuotientSamples.march(system, pair, np.atleast_2d(pts), n, dt).envelope(
        rho_fn, 0, n)
    if single:
        return float(h[0]), bool(converged[0])
    return h, converged


def discounted_average(system, pair, h_fn, x, dt=0.05, t_max=12.0):
    """Normalized discounted average of h along one quotient orbit.

    h_fn maps a point or BASEPOINT to a value in [0,1]; absorbed samples
    contribute 0.  The orbit is one row of _march_quotient, the march the
    field builders share across boxes, and h_fn is called once per live
    sample.
    """
    if x is BASEPOINT:
        return 0.0
    n_quad = nearest_steps(t_max, dt)
    positions, absorbed, _ = _march_quotient(system, pair, np.asarray(x, dtype=float)[None, :],
                                             n_quad, dt)
    h = np.zeros((n_quad + 1, 1))
    for k in np.flatnonzero(~absorbed[:, 0]):
        h[k] = h_fn(positions[k, 0])
    return float(_discounted_from_h(h, n_quad, dt)[0])


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
        (box,) = self.pair.grid.checked_ids([box], "box")
        if self.pair.in_L(box):
            return 0.0
        i = np.searchsorted(self.boxes, box)
        if i < self.boxes.size and self.boxes[i] == box:
            return float(self.values[i])
        raise PreconditionError(f"box {box} is not in N")

    def evaluate(self, system, points):
        """g at arbitrary points; points outside N−L boxes evaluate to 0.

        The points are marched once, and g is read off that march as the
        field builders read it off the march of the core box centers.
        """
        if self.profiles is None:
            raise PreconditionError(
                "this field was loaded from disk and has no profile functions")
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        _, n_total = self.params.steps()
        out = _QuotientSamples.march(system, self.pair, np.atleast_2d(pts), n_total,
                                     self.params.dt).g(self.profiles, self.params)
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
        centers = self.pair.grid.centers(self.boxes).tolist()
        header = ["box_id", *(f"c{i}" for i in range(self.pair.grid.dimension)), "value"]
        values = self.values.astype(float).tolist()
        rows = ([b, *c, v] for b, c, v in zip(self.boxes.tolist(), centers, values))
        with open(path, "w") as fh:
            fh.write(csv_text(header, rows))

    def to_json(self, path):
        data = {
            **self.pair.to_dict(),
            "construction": self.construction,
            "boxes": self.boxes.tolist(),
            "values": [float(v) for v in self.values],
            "range_hint": list(self.range_hint),
            "params": {"dt": self.params.dt, "t_max": self.params.t_max,
                       "settle": self.params.settle},
            "down_set": sorted(self.down_set) if self.down_set is not None else None,
        }
        write_json(path, data)

    @classmethod
    def from_json(cls, path):
        def parse(data, where):
            pair = IndexPair.from_dict(data, where)
            boxes = pair.grid.checked_ids(data["boxes"], "boxes")
            values = [number(v, f"{where} values") for v in data["values"]]
            if len(values) != boxes.size:
                raise IngestionError(f"{where} has {len(values)} values for {boxes.size} boxes")
            params = {k: number(v, f"{where} params") for k, v in data["params"].items()}
            down = data.get("down_set")
            construction = string(data["construction"], f"{where} construction")
            return cls(pair=pair, construction=construction, boxes=boxes,
                       values=np.asarray(values, dtype=float),
                       range_hint=tuple(number(v, f"{where} range_hint")
                                        for v in data["range_hint"]),
                       params=LyapunovParams(**params),
                       down_set=None if down is None else frozenset(
                           number(k, f"{where} down_set", int) for k in down))
        return load_json(path, "field file", parse)


def _field_from_profiles(system, pair, profiles, construction, range_hint, params,
                         morse_graph=None, down_set=None, table=None):
    """The field of weighted profiles: Σ w·g at the core box centers.

    g comes from table, a CenterTable of the same system, pair and
    params that other fields of the pair may share, or from a table
    made here when none is given.
    """
    _, n_total = params.steps()
    if table is None:
        table = CenterTable(system, pair, params)
    elif (table.system is not system or table.pair != pair
          or (table.dt, table.shape[0]) != (params.dt, n_total + 1)):
        raise PreconditionError("the center table belongs to another system, pair or params")
    return LyapunovField(pair=pair, construction=construction, boxes=pair.core.ids,
                         values=table.g(profiles, params), range_hint=range_hint, params=params,
                         profiles=profiles, morse_graph=morse_graph,
                         down_set=down_set)


def pair_lyapunov(system, pair, ar, params=None, table=None):
    """Lyapunov function of one attractor-repeller pair (values in [0,1]).

    The field is pinned at 0 on ar.alpha and at 1 on ar.omega; to pin the
    attractor and repeller themselves, pass
    ar._replace(alpha=ar.attractor, omega=ar.repeller).  The profile
    knows its zero set forward closed or not from ar.morse_graph.graph.
    table is an optional CenterTable shared with other fields of the pair.
    """
    params = params or LyapunovParams()
    profiles = [(1.0, RhoFunction(pair, ar.alpha, ar.omega, graph=ar.morse_graph.graph))]
    return _field_from_profiles(system, pair, profiles, "single-pair", (0.0, 1.0),
                                params, down_set=ar.down_set, table=table)


def morse_lyapunov(system, pair, mg, params=None, table=None):
    """Sum of pair Lyapunov functions over the down-sets {1..j}, j = 0..n.

    The value on the Morse set of admissible index i is close to i and the
    range is [0, n+1].  table is an optional CenterTable shared with other
    fields of the pair.
    """
    if mg.n < 1:
        raise PreconditionError("the Morse graph has no Morse sets")
    params = params or LyapunovParams()
    profiles = []
    for j in range(mg.n + 1):
        ar = ar_regions_in_pair(mg, frozenset(range(1, j + 1)))
        profiles.append((1.0, RhoFunction(pair, ar.attractor, ar.repeller,
                                          graph=mg.graph)))
    return _field_from_profiles(system, pair, profiles, "morse-sum",
                                (0.0, mg.n + 1.0), params, morse_graph=mg, table=table)


def complete_lyapunov(system, pair, mg, params=None, table=None):
    """Weighted sum 2^{-i} g_i over every attractor-repeller pair of mg.

    The enumeration is canonical (by down-set size, then lexicographic), so
    the value assigned to each chain recurrent class is reproducible; the
    range is [0, 1).  The profiles know their zero sets forward closed or
    not from mg.graph.  table is an optional CenterTable shared with other
    fields of the pair.
    """
    params = params or LyapunovParams()
    profiles = []
    for i, ar in enumerate(enumerate_ar_pairs(mg), start=1):
        profiles.append((2.0 ** -i, RhoFunction(pair, ar.attractor, ar.repeller,
                                                graph=mg.graph)))
    return _field_from_profiles(system, pair, profiles, "complete", (0.0, 1.0),
                                params, morse_graph=mg, table=table)


def renewal_residual(system, field, x, t):
    """Residual of g(x) = ∫_0^t e^{-s} h(φ_♯^s x) ds + e^{-t} g(φ_♯^t x).

    Both sides are computed from a single orbit march of
    n_total + round(t/dt) steps on the field's dt grid, so the residual
    measures quadrature and truncation error only.  t snaps to the nearest
    dt multiple.  x is one point (a float is returned) or an (m, d) batch
    (an array is returned); a batch shares one march, and each row's
    residual equals that of its own march.  The verify suite reads the
    same residual off a prefix of its one march of all check samples,
    through _QuotientSamples.renewal.
    """
    if field.profiles is None:
        raise PreconditionError("field has no profile functions")
    k_t = _renewal_steps(field.params, t)
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    _, n_total = field.params.steps()
    res = _QuotientSamples.march(system, field.pair, np.atleast_2d(pts), n_total + k_t,
                                 field.params.dt).renewal(field, k_t)
    return float(res[0]) if single else res


def _renewal_steps(params, t):
    """The steps of dt that the renewal time t snaps to, at least one."""
    return max(1, nearest_steps(t, params.dt))


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
    _, pts = sample_in_boxes(rng, grid, B, n_samples)

    n_steps = nearest_steps(horizon, dt)
    _, absorbed, boxes = _march_quotient(system, pair, pts, n_steps, dt)
    inside = absorbed | U.mask(grid.n_boxes)[boxes]
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
        data = {
            **self.pair.to_dict(),
            "levels": [lv.ids.tolist() for lv in self.levels],
            "thresholds": [float(c) for c in self.thresholds],
            "report": report,
        }
        write_json(path, data)

    @classmethod
    def from_json(cls, path):
        def parse(data, where):
            pair = IndexPair.from_dict(data, where)
            return cls(levels=[BoxSet(pair.grid.checked_ids(ids, f"level {k}"))
                               for k, ids in enumerate(data["levels"])],
                       thresholds=[float(number(c, f"{where} thresholds"))
                                   for c in data["thresholds"]],
                       pair=pair)
        return load_json(path, "filtration file", parse)


def extract_filtration(system, field, rng=None, n_samples=40):
    """Cut a Morse-sum field at k + 1/2 into a regular index filtration.

    The levels nest in field.pair and are checked on the transition graph
    of the field's Morse decomposition.  Each consecutive pair of levels
    must validate as an index pair, contain its Morse set strictly between
    the levels, and pass the sampled regularity criterion; a failure
    raises a FiltrationError naming the lowest failing level.  Returns the
    filtration and a per-level report.

    The checks that draw nothing run first, level by level, up to the
    first level f that fails one; then the regularity samples of levels
    1 … f−1 are drawn from rng in level order and judged as one batch,
    with the reports each level gets alone.  rng ends where a level-by-
    level run would leave it, except after a FiltrationError: a level
    below f that fails regularity leaves rng past the draws of the levels
    above it.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    drawn = _draw_filtration(system, field, rng, n_samples)
    return _filtration_verdict(field, drawn, _judge_regularity(system, drawn.draws))


@dataclass
class _FiltrationDraws:
    """The levels and thresholds of a filtration, the report entry and
    regularity draw of each level that passed the checks drawing nothing,
    and the FiltrationError of the first level that failed one, if any."""

    levels: list
    thresholds: list
    entries: list
    draws: list
    failure: FiltrationError = None


def _draw_filtration(system, field, rng, n_samples):
    """The cuts of extract_filtration, their checks that draw nothing, up to
    the first failure, and the regularity draws of the levels below it."""
    if field.construction != "morse-sum":
        raise PreconditionError(
            f"filtrations need a morse-sum field, got '{field.construction}'")
    mg = field.morse_graph
    if mg is None or mg.n < 1:
        raise PreconditionError("field carries no Morse decomposition")
    pair = field.pair

    n = mg.n
    thresholds = [k + 0.5 for k in range(n)]
    levels = []
    for cut in thresholds:
        inside = field.boxes[field.values <= cut]
        levels.append(pair.L.union(BoxSet(inside)))
    levels.append(pair.N)

    entries, level_pairs, failure = [], [], None
    for k in range(1, n + 1):
        if not levels[k - 1].issubset(levels[k]):
            failure = FiltrationError(f"level {k - 1} is not contained in level {k}", k)
            break
        level_pair = IndexPair(pair.grid, levels[k], levels[k - 1])
        verdict = validate_index_pair(mg.graph, level_pair)
        if not verdict.passed:
            failure = FiltrationError(
                f"level {k} fails index pair validation: {verdict.summary()}", k)
            break
        if not mg.morse_sets[k - 1].issubset(level_pair.core):
            failure = FiltrationError(
                f"level {k} does not capture Morse set {k} between its cuts", k)
            break
        entries.append({"level": k, "pair_boxes": [len(levels[k]), len(levels[k - 1])],
                        "validation": verdict.to_dict()})
        level_pairs.append(level_pair)
    draws = [_draw_regularity(system, p, n_samples, 1.0, rng) for p in level_pairs]
    return _FiltrationDraws(levels, thresholds, entries, draws, failure)


def _filtration_verdict(field, drawn, reports):
    """The filtration and report of drawn, given the regularity report of
    each of its draws, or the FiltrationError of its lowest failing level."""
    for entry, reg in zip(drawn.entries, reports):
        entry["regularity"] = reg.to_dict()
        if not reg.passed:
            raise FiltrationError(
                f"level {entry['level']} fails the regularity sampling check "
                f"({len(reg.violations)} violations)", entry["level"])
    if drawn.failure is not None:
        raise drawn.failure
    filtration = Filtration(levels=drawn.levels, thresholds=drawn.thresholds,
                            pair=field.pair, field=field)
    return filtration, drawn.entries
