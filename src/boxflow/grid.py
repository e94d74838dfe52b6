"""Uniform box grids over rectangular domains and integer box sets.

Boxes are half-open cells of a uniform grid, indexed in C order by a single
integer id.  Points on the upper domain boundary are assigned to the last
box along that axis so the closed domain is covered exactly.
"""

import itertools
import math

import numpy as np

from .errors import CapacityError, PreconditionError
from .jsonio import number, positive

MAX_BOXES = 2 ** 31
# (sample point, target box) pairs one graph build may produce, counted
# per sample; the one int64 array of packed edge keys is sized by the
# distinct (box, target range) pairs, at most this many, so it stays
# under 512 MiB
MAX_PAIRS = 2 ** 26
# coordinates one quotient march may store, (steps + 1) x points x d: 256 MiB
# of float64 positions; the largest default march, hopf2d's field at 256²,
# stores 7,915,208.  Beside the positions a march stores one int32 box id
# and one absorbed flag per sample, 5 / (8 d) of their bytes.  Its readers
# add one row block of samples at a time (lyapunov.SAMPLE_BLOCK) and their
# outputs: a value per point and profile, or, where a reader keeps ρ, one
# float64 per sample and profile.
MAX_MARCH_VALUES = 2 ** 25
# whole RK4 steps one march by a time t may take: its step sizes and start
# times are Python lists of about 40 bytes a step, 42 MB (50 MB at the
# peak of building them), or 10,485.76 time units at the default step
# 0.01.  The graph build's default map time 1.0 takes 100.
MAX_MARCH_STEPS = 2 ** 20


def step_ratio(horizon, dt):
    """horizon / dt, the steps of dt to the horizon before they are rounded.

    The one check of a sampled march's step and horizon: dt must be
    finite and > 0 and the horizon finite and >= 0, or PreconditionError
    is raised.  A ratio that is not finite then raises CapacityError, so
    no caller turns it into an int; a finite one meets the caller's own
    limit.
    """
    if not (0 < dt < math.inf and 0 <= horizon < math.inf):
        raise PreconditionError(f"need a finite dt > 0 and a finite horizon >= 0, "
                                f"got dt={dt}, horizon={horizon}")
    ratio = horizon / dt
    if not math.isfinite(ratio):
        raise CapacityError(f"a horizon of {horizon:g} at dt={dt:g} takes more steps "
                            "than a float can count")
    return ratio


def covering_steps(horizon, dt):
    """The fewest steps of dt that reach the horizon, up to roundoff."""
    return int(math.ceil(step_ratio(horizon, dt) - 1e-9))


def whole_steps(t, dt):
    """The whole steps of dt within the time t, up to roundoff."""
    return math.floor(step_ratio(t, dt) + 1e-9)


def nearest_steps(t, dt):
    """The steps of dt that the time t snaps to."""
    return round(step_ratio(t, dt))


def checked_count(value, what, low=1):
    """value as an int, the one check of a box, sample or probe count.

    It must be a Python or numpy integer >= low, never a bool and never
    truncated, or PreconditionError is raised.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise PreconditionError(f"{what} must be a whole number >= {low}, got {value!r}")
    return value.__index__()


def checked_ids(values, what, low, high):
    """values as a new 1-d int64 array, the one check of a box id.

    Every id must be a Python or numpy integer from low to high - 1, never
    a bool and never cast from a float, or PreconditionError is raised.  An
    integer array is checked in numpy alone, anything else entry by entry
    before the cast, so a huge integer cannot overflow it.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu" and (
            not values.size or low <= values.min() and values.max() < high):
        return values.astype(np.int64).ravel()
    items = values.ravel().tolist() if isinstance(values, np.ndarray) else list(values)
    bad = [v for v in items if type(v) is not int or not low <= v < high]
    odd = [v for v in bad if isinstance(v, bool) or not isinstance(v, (int, np.integer))]
    if odd:
        raise PreconditionError(f"{what} has ids that are not integers: {odd[:5]}")
    bad = [v for v in bad if not low <= v < high]
    if bad:
        raise PreconditionError(f"{what} has ids that are outside the grid's boxes "
                                f"{low}..{high - 1} (box id out of range): {bad[:5]}")
    return np.array(items, dtype=np.int64)


def sample_fractions(samples_per_axis):
    """Where a box's samples sit along an axis, as fractions of its width:
    the centre for one sample, else evenly from face to face."""
    n = checked_count(samples_per_axis, "samples_per_axis")
    return np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.5])


def checked_domain(domain, dimension):
    """The float array of a domain, the one check of a run's domain.

    It must have shape (dimension, 2), low < high on every axis and a
    finite width high - low, which rules out a non-finite bound too, or
    PreconditionError is raised.  FlowSystem and BoxGrid call it.
    """
    domain = np.asarray(domain, dtype=float)
    if domain.shape != (dimension, 2):
        raise PreconditionError(f"domain must have shape ({dimension}, 2), got {domain.shape}")
    if (domain[:, 0] >= domain[:, 1]).any():
        raise PreconditionError("each domain axis needs low < high")
    with np.errstate(over="ignore", invalid="ignore"):
        wide = np.flatnonzero(~np.isfinite(domain[:, 1] - domain[:, 0]))
    if wide.size:
        raise PreconditionError(f"domain axis {wide[0]} {domain[wide[0]].tolist()} "
                                f"has no finite width high - low")
    return domain


def ingest_domain(values, what):
    """The float array of a domain read from outside the program.

    Every bound must be a finite JSON number; checked_domain, called by the
    grid or system built from it, checks the rest.
    """
    return np.array([[number(v, f"{what} domain") for v in row] for row in values], dtype=float)


def sorted_unique(values):
    """np.unique of a 1-d integer array that the caller owns; sorts it in place.

    A sort and an adjacent-difference mask give the same array as
    np.unique, which numpy 2.4 runs through a hash table several times
    slower, and which imports numpy.ma on its first call.
    """
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def finite_norm(x, axis=None):
    """np.linalg.norm of finite values, inf only where the norm overflows.

    Where the plain sum of squares overflows, the norm is taken of the
    values divided by the largest magnitude and scaled back.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.linalg.norm(x, axis=axis)
        wide = np.isinf(out)
        if wide.any():
            side = np.abs(x).max(axis=axis, keepdims=True)
            out = np.where(wide, np.squeeze(side, axis) * np.linalg.norm(x / side, axis=axis), out)
    return out


def sample_in_boxes(rng, grid, boxset, n):
    """n points drawn uniformly from boxes of the set picked with replacement.

    Returns the picked ids and the (n, d) points.  The picks come from
    rng.integers and then the offsets from rng.random, an order that seeded
    runs rely on.
    """
    n = checked_count(n, "sample count", low=0)
    picks = boxset.ids[rng.integers(0, len(boxset), size=n)]
    bounds = grid.bounds(picks)
    return picks, bounds[:, :, 0] + rng.random((n, grid.dimension)) * grid.widths


class BoxSet:
    """An immutable sorted set of box ids.

    Ids are plain integers; set algebra is done on sorted int64 arrays.
    """

    __slots__ = ("ids",)

    def __init__(self, ids=()):
        self.ids = sorted_unique(checked_ids(ids, "box set", -2 ** 63, 2 ** 63))

    @classmethod
    def from_mask(cls, mask):
        return cls(np.flatnonzero(np.asarray(mask)))

    def mask(self, n_boxes):
        """Membership of the boxes 0 .. n_boxes - 1, plus a last entry, always
        False, that id -1 (EXIT, or a point outside the domain) reads.

        An id outside [0, n_boxes) raises PreconditionError: id n_boxes
        would set that last entry, and a negative id would index from the end.
        """
        ids = self.ids
        if ids.size and (ids[0] < 0 or ids[-1] >= n_boxes):
            bad = ids[0] if ids[0] < 0 else ids[np.searchsorted(ids, n_boxes)]
            raise PreconditionError(f"box id {bad} is outside the boxes 0..{n_boxes - 1}")
        out = np.zeros(n_boxes + 1, dtype=bool)
        out[ids] = True
        return out

    def union(self, other):
        # the constructor sorts once; np.union1d would sort twice and load numpy.ma
        return BoxSet(np.concatenate((self.ids, other.ids)))

    def intersection(self, other):
        return BoxSet(np.intersect1d(self.ids, other.ids, assume_unique=True))

    def difference(self, other):
        return BoxSet(np.setdiff1d(self.ids, other.ids, assume_unique=True))

    def issubset(self, other):
        return np.isin(self.ids, other.ids, assume_unique=True).all()

    def isdisjoint(self, other):
        return not np.isin(self.ids, other.ids, assume_unique=True).any()

    def __contains__(self, box):
        i = np.searchsorted(self.ids, box)
        return i < self.ids.size and self.ids[i] == box

    def __len__(self):
        return int(self.ids.size)

    def __iter__(self):
        return iter(self.ids.tolist())

    def __bool__(self):
        return self.ids.size > 0

    def __eq__(self, other):
        if not isinstance(other, BoxSet):
            return NotImplemented
        return np.array_equal(self.ids, other.ids)

    def __hash__(self):
        return hash(self.ids.tobytes())

    def __repr__(self):
        if len(self) <= 8:
            return f"BoxSet({self.ids.tolist()})"
        return f"BoxSet(<{len(self)} boxes>)"


class BoxGrid:
    """A uniform grid of boxes over a closed rectangular domain.

    checked_domain checks the domain and checked_count each axis's box count.
    """

    def __init__(self, domain, shape):
        shape = tuple(shape)
        self.dimension = len(shape)
        self.domain = checked_domain(domain, self.dimension)
        self.shape = tuple(checked_count(s, "boxes per axis") for s in shape)
        n = math.prod(self.shape)
        if n > MAX_BOXES:
            raise CapacityError(f"grid would hold {n} boxes, limit is {MAX_BOXES}")
        self.n_boxes = n
        self.widths = (self.domain[:, 1] - self.domain[:, 0]) / np.array(self.shape)
        self._top = np.array(self.shape, dtype=np.int64) - 1
        self._strides = np.array([math.prod(self.shape[k + 1:]) for k in range(self.dimension)],
                                 dtype=np.int64)

    def __eq__(self, other):
        if not isinstance(other, BoxGrid):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.domain, other.domain)

    def __repr__(self):
        return f"BoxGrid(shape={self.shape}, domain={self.domain.tolist()})"

    def to_dict(self):
        """The grid block of every artifact: boxes per axis and the domain."""
        return {"domain": self.domain.tolist(), "shape": list(self.shape)}

    @classmethod
    def from_dict(cls, data, what):
        """The grid of a grid block read from the file that what names.

        The shape must list positive integers and the domain finite
        numbers, one [low, high] pair per axis with low < high.
        """
        shape = [positive(s, f"{what} grid shape", int) for s in data["shape"]]
        return cls(ingest_domain(data["domain"], f"{what} grid"), shape)

    def checked_ids(self, values, what="box list", low=0):
        """checked_ids of ids from low (EXIT for edge targets) to n_boxes - 1."""
        return checked_ids(values, what, low, self.n_boxes)

    def all_boxes(self):
        return BoxSet(np.arange(self.n_boxes, dtype=np.int64))

    def multi_index(self, ids):
        return np.stack(np.unravel_index(self.checked_ids(ids), self.shape), axis=1)

    def ravel(self, multi):
        multi = np.atleast_2d(np.asarray(multi, dtype=np.int64))
        return np.ravel_multi_index(tuple(multi.T), self.shape)

    def box_of(self, points):
        """Map points to box ids; points outside the closed domain get -1.

        The one check of a point's dimension: the last axis must have one
        entry per grid axis, or PreconditionError is raised.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[-1] != self.dimension:
            raise PreconditionError(f"points need {self.dimension} coordinates, got {pts.shape}")
        lo = self.domain[:, 0]
        hi = self.domain[:, 1]
        inside = ((pts >= lo) & (pts <= hi)).all(axis=1)
        cells = np.floor((pts - lo) / self.widths)
        # rows outside the domain (inf and nan included) would not cast
        cells[~inside] = 0
        ix = np.minimum(cells.astype(np.int64), self._top)
        ids = np.where(inside, ix @ self._strides, np.int64(-1))
        if single:
            return int(ids[0])
        return ids

    def box_diagonal(self):
        """The length of a box's diagonal, inf only if it overflows."""
        return float(finite_norm(self.widths))

    def centers(self, ids):
        return self.domain[:, 0] + (self.multi_index(ids) + 0.5) * self.widths

    def bounds(self, ids):
        """Per-box [low, high] bounds, shape (n, d, 2)."""
        lo = self.domain[:, 0] + self.multi_index(ids) * self.widths
        return np.stack([lo, lo + self.widths], axis=2)

    def lattice(self, ids, samples_per_axis):
        """Sample points in each box, box-major.

        sample_fractions places the samples on each axis.  Returns an
        (n_boxes * samples_per_axis**d, d) array.
        """
        fractions = sample_fractions(samples_per_axis)
        grids = np.meshgrid(*([fractions] * self.dimension), indexing="ij")
        combo = np.stack([g.ravel() for g in grids], axis=1)
        lo = self.domain[:, 0] + self.multi_index(ids) * self.widths
        pts = lo[:, None, :] + combo[None, :, :] * self.widths
        return pts.reshape(-1, self.dimension)

    def axis_samples(self, axis, index, samples_per_axis):
        """Sample coordinates on one axis, as an (index.size, samples_per_axis)
        array: row r holds those of the boxes at position index[r] along it.

        The coordinates of lattice's points on that axis, with its
        arithmetic, (low + i * width) + fraction * width: they depend only
        on the position and the fraction, which lets the graph build find
        the distinct lattice points without the lattice.
        """
        fractions = sample_fractions(samples_per_axis)
        width = self.widths[axis]
        return (self.domain[axis, 0] + index[:, None] * width) + fractions * width

    def _offsets(self):
        return [off for off in itertools.product((-1, 0, 1), repeat=self.dimension)
                if any(off)]

    def _shift(self, mask, off):
        out = np.zeros_like(mask)
        src = tuple(slice(max(0, -o), mask.shape[k] - max(0, o)) for k, o in enumerate(off))
        dst = tuple(slice(max(0, o), mask.shape[k] - max(0, -o)) for k, o in enumerate(off))
        out[dst] = mask[src]
        return out

    def boundary_layer(self, boxset):
        """Boxes of the set with a missing or out-of-grid adjacent box.

        Adjacency includes diagonal neighbors, so this is the set-theoretic
        boundary of the box set inside the grid, with the grid edge itself
        counting as outside.
        """
        mask = boxset.mask(self.n_boxes)[:-1].reshape(self.shape)
        interior = mask.copy()
        for off in self._offsets():
            interior &= self._shift(mask, off)
        return BoxSet.from_mask((mask & ~interior).ravel())

    def closure(self, boxset):
        """The set together with all in-grid adjacent boxes."""
        mask = boxset.mask(self.n_boxes)[:-1].reshape(self.shape)
        grown = mask.copy()
        for off in self._offsets():
            grown |= self._shift(mask, off)
        return BoxSet.from_mask(grown.ravel())

    def dilate(self, boxset, rounds):
        out = boxset
        for _ in range(rounds):
            out = self.closure(out)
        return out


def build_grid(domain, depth):
    """Build a grid with the given number of boxes per axis.

    depth is either one number used for every axis or a sequence with one
    entry per axis; BoxGrid checks each count.
    """
    domain = np.asarray(domain, dtype=float)
    d = domain.shape[0]
    if np.isscalar(depth):
        shape = (depth,) * d
    else:
        shape = tuple(depth)
        if len(shape) != d:
            raise PreconditionError(
                f"depth needs one entry per axis ({d}), got {len(shape)}")
    return BoxGrid(domain, shape)
